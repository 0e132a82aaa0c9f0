"""Pluggable calculus backends (ISSUE 9): registry, identity, strictness.

Four concerns, one file:

* the **default-backend oracle** — routing ``bpi`` through the registry
  is bit-identical to driving ``core.semantics`` by hand, both on complete
  graphs and on the partial graph left by a budget trip;
* the **lossy** backend reproduces the strict hierarchy of Cao's noisy
  channels (arXiv:0801.3117) in *both* directions;
* the **wireless** backend restricts broadcast reach to the connectivity
  graph, and topology mutation (connect/disconnect) changes reachability;
* both non-default backends honour the budget contract — a tripped
  search degrades to UNKNOWN, never to a definite flip.
"""

import hashlib
from collections import deque

import pytest
from hypothesis import given, settings

import repro
from repro.calculi import registry
from repro.calculi.backend import BpiBackend, CalculusBackend
from repro.core.actions import OutputAction
from repro.core.canonical import canonical_state
from repro.core.parser import parse
from repro.core.pretty import pretty
from repro.core.semantics import step_transitions as bpi_step_transitions
from repro.core.syntax import Restrict
from repro.engine.budget import Budget, BudgetExceeded
from repro.equiv.noisy import strict_bisimilar
from repro.lts.graph import build_full_lts, build_step_lts

from tests.strategies import finite_processes


# -- registry ---------------------------------------------------------------

class TestRegistry:
    def test_default_is_bpi(self):
        assert registry.resolve(None) is registry.resolve("bpi")
        assert registry.default().name == "bpi"
        assert isinstance(registry.default(), BpiBackend)

    def test_names_are_registered(self):
        assert set(registry.names()) >= {"bpi", "lossy", "wireless"}

    def test_instance_passes_through(self):
        backend = registry.resolve("lossy")
        assert registry.resolve(backend) is backend

    def test_clear_caches_reaches_backends_built_outside_the_registry(self):
        # connect/disconnect and apps.radio construct instances directly;
        # resolving one yields the registry's instance for its spec, so
        # the memo tables the engine fills are the ones clear_caches empties
        from repro.apps.radio import cellular_backend
        from repro.core import clear_caches
        for built in (registry.resolve("wireless:a-b").connect("a", "c"),
                      cellular_backend(("a", "b"), ("a", "d"))):
            backend = registry.resolve(built)
            repro.explore(RADIO, calculus=built)
            assert backend.memo("steps") and backend.memo("inputs")
            clear_caches()
            assert not backend.memo("steps") and not backend.memo("inputs")
            assert backend is registry.resolve(built.spec)

    def test_wireless_specs_share_canonical_instance(self):
        # equivalent spellings resolve to one cached instance (and one
        # set of memo tables)
        assert registry.resolve("wireless:b-a") \
            is registry.resolve("wireless:a-b")
        assert registry.resolve("wireless:b-c, a-b") \
            is registry.resolve("wireless:a-b,b-c")

    def test_spec_round_trips(self):
        for spec in ("bpi", "lossy", "wireless", "wireless:a-b,b-c"):
            backend = registry.resolve(spec)
            assert registry.resolve(backend.spec) is backend

    def test_unknown_backend_is_an_error(self):
        with pytest.raises(ValueError, match="unknown calculus"):
            registry.resolve("csp")

    def test_bpi_takes_no_parameters(self):
        with pytest.raises(ValueError, match="backend"):
            registry.resolve("bpi:x")

    def test_malformed_topology_is_an_error(self):
        with pytest.raises(ValueError, match="backend"):
            registry.resolve("wireless:a-b,oops")

    def test_keys_are_distinct_per_semantics(self):
        keys = {registry.resolve(s).key()
                for s in ("bpi", "lossy", "wireless", "wireless:a-b")}
        assert len(keys) == 4


# -- default-backend identity oracle ----------------------------------------

ORACLE_TERMS = (
    "a<v> | a(x).x!",
    "nu x (a<x>.x!) | a(y).y?",
    "tau.a! + b?.c! | b!",
    "rec X(x := a). x!.X<x>",
)


def oracle_step_lts(p):
    """``build_step_lts`` re-derived from the raw core functions.

    Same BFS, same canonicalisation, same binder closing — but driven by
    ``core.semantics.step_transitions`` directly, the way the pre-registry
    code did.  (Tests are outside contract Rule E on purpose: this is the
    old path, kept as the oracle.)
    """
    root = canonical_state(p)
    states = [root]
    index = {root: 0}
    edges = [[]]
    queue = deque([0])
    expanded = set()
    while queue:
        sid = queue.popleft()
        if sid in expanded:
            continue
        expanded.add(sid)
        for action, target in bpi_step_transitions(states[sid]):
            if isinstance(action, OutputAction) and action.binders:
                for b in reversed(action.binders):
                    target = Restrict(b, target)
            tgt = canonical_state(target)
            tid = index.get(tgt)
            if tid is None:
                tid = len(states)
                index[tgt] = tid
                states.append(tgt)
                edges.append([])
                queue.append(tid)
            edges[sid].append((action, tid))
    return states, edges


class TestDefaultBackendOracle:
    @pytest.mark.parametrize("source", ORACLE_TERMS)
    def test_registry_path_matches_raw_core(self, source):
        p = parse(source)
        want_states, want_edges = oracle_step_lts(p)
        for calculus in (None, "bpi", registry.default()):
            lts, root = build_step_lts(p, calculus=calculus)
            assert root == 0
            assert lts.states == want_states
            assert lts.edges == want_edges

    def test_trip_partial_is_oracle_prefix(self):
        p = parse("a!.b!.c!.d!.e!.f!.g!.h!")
        want_states, want_edges = oracle_step_lts(p)
        with pytest.raises(BudgetExceeded) as info:
            build_step_lts(p, budget=Budget(max_states=4))
        lts, root = info.value.partial
        assert root == 0
        assert lts.n_states == 4
        assert lts.states == want_states[:4]
        assert lts.edges[:3] == want_edges[:3]


# -- lossy: the hierarchy is strict in both directions ----------------------

#: lossy equates, reliable separates: the "needs the message twice"
#: branch is invisible when any delivery may fail.
LOSSY_EQUATES = ("a(x).c!", "a(x).c! + a(x).a(x).c!")

#: reliable equates, lossy separates: atomic delivery reaches both
#: receivers at once; lossy delivery can lose one of them.
RELIABLE_EQUATES = ("a?.c! | a?.d!", "a?.(c! | d!)")


class TestLossyStrictness:
    def test_lossy_equates_what_reliable_separates(self):
        p, q = LOSSY_EQUATES
        assert repro.check(p, q, calculus="lossy").is_true
        assert repro.check(p, q).is_false

    def test_reliable_equates_what_lossy_separates(self):
        p, q = RELIABLE_EQUATES
        assert repro.check(p, q).is_true
        assert repro.check(p, q, calculus="lossy").is_false

    def test_loss_move_keeps_listener_armed(self):
        backend = registry.resolve("lossy")
        p = parse("a(x).c!")
        conts = backend.input_continuations(p, "a", ("v",))
        assert p in conts          # total loss: unchanged
        assert parse("c!") in conts

    def test_every_delivery_subset_appears(self):
        backend = registry.resolve("lossy")
        p = parse("a?.c! | a?.d!")
        conts = set(backend.input_continuations(p, "a", ()))
        assert conts == {parse("c! | d!"), parse("c! | a?.d!"),
                         parse("a?.c! | d!"), p}

    def test_strict_bisimilarity_backend_parameterised(self):
        p, q = LOSSY_EQUATES
        assert strict_bisimilar(parse(p), parse(q), calculus="lossy").is_true
        assert strict_bisimilar(parse(p), parse(q)).is_false


# -- wireless: reach follows the connectivity graph -------------------------

#: a sender in cell ``a``; receivers tuned to cells ``b`` and ``c``.
RADIO = "a! | (b?.ok! | c?.far!)"


class TestWireless:
    def test_broadcast_reaches_adjacent_cell_only(self):
        v_ok = repro.reach(RADIO, "ok", calculus="wireless:a-b")
        v_far = repro.reach(RADIO, "far", calculus="wireless:a-b")
        assert v_ok.is_true
        assert v_far.is_false    # c is not adjacent to the sender

    def test_empty_topology_degenerates_to_bpi(self):
        # without edges a listener on b never hears a broadcast on a
        assert repro.reach(RADIO, "ok", calculus="wireless").is_false
        assert repro.reach(RADIO, "ok").is_false

    @settings(max_examples=60, deadline=None)
    @given(finite_processes(arity=1))
    def test_empty_topology_builds_the_bpi_step_graph(self, p):
        wireless, _ = build_step_lts(p, calculus="wireless")
        bpi, _ = build_step_lts(p)
        assert wireless.states == bpi.states
        assert wireless.edges == bpi.edges

    def test_wider_topology_reaches_the_far_cell(self):
        assert repro.reach(RADIO, "far", calculus="wireless:a-b,a-c").is_true

    def test_connect_disconnect_mutation(self):
        base = registry.resolve("wireless:a-b")
        assert repro.reach(RADIO, "far", calculus=base).is_false
        wider = base.connect("a", "c")
        assert repro.reach(RADIO, "far", calculus=wider).is_true
        back = wider.disconnect("a", "c")
        assert back.spec == base.spec
        assert repro.reach(RADIO, "far", calculus=back).is_false

    def test_delivery_is_atomic_within_reach(self):
        # both reachable listeners receive in one broadcast (rule (13))
        backend = registry.resolve("wireless:a-b,a-c")
        lts, root = build_step_lts(parse(RADIO), calculus=backend)
        targets = [lts.states[t] for a, t in lts.edges[root]
                   if isinstance(a, OutputAction)]
        assert targets == [canonical_state(parse("ok! | far!"))]

    def test_check_sorts_rejects_bound_cells(self):
        backend = registry.resolve("wireless:a-b")
        with pytest.raises(ValueError, match="restricted"):
            backend.check_sorts(parse("nu a (a? | b!)"))
        with pytest.raises(ValueError, match="adjacent"):
            backend.check_sorts(parse("a<v> | b?"))

    def test_cellular_handover(self):
        from repro.apps.radio import (
            base_station,
            can_hear,
            cellular_backend,
            handover,
            mobile_station,
        )
        from repro.core.builder import par
        west_city = par(base_station("cell_west", "frame"),
                        mobile_station("mob", "screen"))
        east = cellular_backend(("mob", "cell_east"))
        assert can_hear(west_city, "screen", calculus=east).is_false
        west = handover(east, "mob", "cell_east", "cell_west")
        assert can_hear(west_city, "screen", calculus=west).is_true
        # the old configuration is untouched (mutation is meta-level)
        assert east.topology.adjacent("mob", "cell_east")
        assert not west.topology.adjacent("mob", "cell_east")

    def test_lint_surfaces_backend_sorts_as_bp103(self):
        from repro.api import lint
        report = lint("nu a (a? | b!)", calculus="wireless:a-b")
        assert any(d.code == "BP103" for d in report.diagnostics)
        clean = lint("a! | b?", calculus="wireless:a-b")
        assert not any(d.code == "BP103" for d in clean.diagnostics)


# -- non-default backends: graphs pinned ------------------------------------

#: sha256 of the step and full graphs of every term above, per backend.
BACKEND_PINS = {
    "lossy":
        "42e056c94e8b398f6c9bdf6c214037c4a569f74abaa6fb0be3892cb3c212b14f",
    "wireless:a-b":
        "aac10b2d108c186e293820c406a5fe7012f3accb5c50f10560ac1f3ddd97f131",
    "wireless:a-b,b-c":
        "25dc395a5140cb72cc9802d140641036d42ada76a78d3d98109fd5f2d75a6ebe",
}


def graph_digest(calculus):
    """sha256 over the state and edge lists of ``build_step_lts`` and
    ``build_full_lts`` for the oracle, hierarchy and radio terms."""
    h = hashlib.sha256()
    for source in ORACLE_TERMS + LOSSY_EQUATES + RELIABLE_EQUATES + (RADIO,):
        for build in (build_step_lts, build_full_lts):
            lts, root = build(parse(source), calculus=calculus)
            h.update(f"{source} {build.__name__} {root}\n".encode())
            for state in lts.states:
                h.update(pretty(state).encode() + b"\n")
            for sid, out in enumerate(lts.edges):
                for action, tid in out:
                    h.update(f"{sid} {action} {tid}\n".encode())
    return h.hexdigest()


class TestBackendPins:
    @pytest.mark.parametrize("calculus", sorted(BACKEND_PINS))
    def test_graphs_match_pin(self, calculus):
        assert graph_digest(calculus) == BACKEND_PINS[calculus]


# -- budget contract: trips degrade to UNKNOWN in every backend -------------

TRIP_PAIR = ("tau.tau.tau.tau.a!", "tau.tau.tau.tau.b!")


class TestBudgetContract:
    @pytest.mark.parametrize("calculus",
                             ["lossy", "wireless:a-b", "wireless"])
    def test_tripped_check_is_unknown(self, calculus):
        p, q = TRIP_PAIR
        v = repro.check(p, q, budget=Budget(max_states=2),
                        calculus=calculus)
        assert v.is_unknown      # never a definite flip on a trip
        assert repro.check(p, q, calculus=calculus).is_false

    @pytest.mark.parametrize("calculus", ["lossy", "wireless:a-b"])
    def test_tripped_explore_keeps_partial(self, calculus):
        ex = repro.explore("a!.b!.c!.d!.e!.f!", calculus=calculus,
                           budget=Budget(max_states=3))
        assert not ex.complete
        assert ex.reason == "max-states"
        assert 0 < ex.n_states <= 3


# -- store keying: verdicts never cross calculi -----------------------------

class TestStoreKeying:
    def test_same_pair_different_calculus_is_a_different_row(self, tmp_path):
        from repro.store.db import VerdictStore
        p, q = map(parse, LOSSY_EQUATES)
        with VerdictStore(tmp_path / "verdicts.sqlite") as store:
            first = store.check(p, q, relation="labelled")
            assert first.is_false and first.stats.get("store") != "hit"
            lossy = store.check(p, q, relation="labelled", calculus="lossy")
            assert lossy.is_true and lossy.stats.get("store") != "hit"
            # both now served from the store, each with its own truth
            again = store.check(p, q, relation="labelled")
            assert again.is_false and again.stats.get("store") == "hit"
            lossy2 = store.check(p, q, relation="labelled", calculus="lossy")
            assert lossy2.is_true and lossy2.stats.get("store") == "hit"

    def test_pair_key_separates_backends(self):
        from repro.store.codec import pair_key
        from repro.store.db import calculus_key
        p, q = map(parse, LOSSY_EQUATES)
        keys = {pair_key(p, q, calculus=calculus_key(spec))
                for spec in (None, "lossy", "wireless:a-b", "wireless:a-c")}
        assert len(keys) == 4

    def test_topology_digest_in_calculus_key(self):
        from repro.store.db import calculus_key
        assert calculus_key(None) == "bpi"
        assert calculus_key("lossy") == "lossy"
        key = calculus_key("wireless:a-b")
        assert key.startswith("wireless:") and key != "wireless:a-b"
        # spelling-insensitive: canonical topology, stable digest
        assert key == calculus_key("wireless:b-a")


# -- CLI --------------------------------------------------------------------

class TestCliCalculus:
    def run(self, *argv):
        from repro.__main__ import main
        return main(list(argv))

    def test_eq_calculus_flag(self, capsys):
        p, q = LOSSY_EQUATES
        assert self.run("eq", "--calculus", "lossy", p, q) == 0
        assert "EQUIVALENT" in capsys.readouterr().out
        assert self.run("eq", p, q) == 1

    def test_barb_calculus_flag(self, capsys):
        assert self.run("barb", "--calculus", "wireless:a-b",
                        RADIO, "ok") == 0
        assert self.run("barb", RADIO, "ok") == 1
        capsys.readouterr()

    def test_unknown_backend_exits_2(self, capsys):
        assert self.run("eq", "--calculus", "csp", "a!", "a!") == 2
        assert "unknown calculus" in capsys.readouterr().err

    def test_bad_topology_exits_2(self, capsys):
        assert self.run("barb", "--calculus", "wireless:zap",
                        RADIO, "ok") == 2
        assert "backend" in capsys.readouterr().err
