"""The channel-capability abstraction: a 0-CFA over interned bpi terms.

One pass over the term generates *subset constraints* between abstract
value sets (which channel names may a binder denote?) and *guards*
(may this subtree ever execute?); a monotone fixpoint then yields, per
channel, sound **may-broadcast / may-listen / may-extrude / may-carry**
capability sets.  The analysis is closed under substitution of any name
that may flow into a binder — recursive definitions are solved by
flowing argument sets into parameter sets and iterating, *never* by
unfolding the term — and creates no process nodes, so it is as pure as
the lint passes (no interning, no cache-slot writes).

Abstract values
---------------
* a **free name** stands for itself (rigid: two distinct free names are
  never identified by any substitution);
* each ``nu x`` *occurrence* allocates one :class:`NuToken` standing for
  every runtime instance of that restriction (so two instances of the
  same binder *may* be equal in the abstraction — sound for may-facts);
* in ``mode="open"`` the :data:`ENV` token stands for any value the
  environment may send: every free name plus every extruded restriction.

Modes
-----
``mode="closed"`` interprets the term the way :func:`can_reach_barb`
does — only the system's own broadcasts deliver inputs — and powers the
static pre-solver.  ``mode="open"`` (the lint default) additionally lets
the environment broadcast on any channel it can name, which is the right
reading for component terms like the apps corpus.

Backend awareness
-----------------
``calculus=`` takes the same specs as the rest of the library.  The
reliable (``bpi``) and ``lossy`` backends share one hearing relation
(per-listener loss only *removes* guaranteed deliveries, it adds no
may-behaviour the reliable abstraction lacks); a ``wireless:...``
backend widens hearing to :meth:`Topology.hears`, refining the reach
sets exactly as the backend's ``input_capabilities`` does.

Results are memoized per interned root term and backend key (module
table, cleared by :func:`repro.core.cache.clear_caches`); the public
:meth:`FlowAnalysis.capability_sets` projection is keyed by the free
names the reachable part of the term uses, and is therefore stable
under ``canonical_state``: bound-name spellings are not (see
``repro.core.canonical``), and neither is a free name met only in a
match that ``canonical_state`` resolves away.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Iterable

from ..core.names import Name
from ..core.syntax import (
    NIL,
    Ident,
    Input,
    Match,
    Output,
    Par,
    Process,
    Rec,
    Restrict,
    Sum,
    Tau,
)

__all__ = [
    "ENV", "NuToken", "ChannelCaps", "FlowAnalysis", "flow_analysis",
    "FLOW_VERSION", "clear_caches",
]

#: Bumped whenever the abstraction changes meaning; part of every digest
#: and store key, so stale cached summaries miss cleanly.
FLOW_VERSION = 2

#: Occurrence path (child indices from the root, ``children()`` order).
Path = tuple[int, ...]


class _EnvToken:
    """The open-mode environment value: any name the outside may know."""

    __slots__ = ()
    _instance: "_EnvToken | None" = None

    def __new__(cls) -> "_EnvToken":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "#env"


ENV = _EnvToken()


@dataclass(frozen=True)
class NuToken:
    """The abstract channel allocated by one ``nu`` occurrence."""

    index: int   # allocation order during the walk (deterministic)
    name: Name   # binder spelling, for messages only

    def __repr__(self) -> str:
        return f"#nu:{self.name}@{self.index}"


#: An abstract value: a free name, a restriction token, or ENV.
Token = Any


class _Var:
    """A growable set of abstract values (one per binder/free name)."""

    __slots__ = ("tokens",)

    def __init__(self, *seed: Token) -> None:
        self.tokens: set[Token] = set(seed)


class _Guard:
    """May the constraints guarded by this node ever become active?"""

    __slots__ = ("on",)

    def __init__(self, on: bool = False) -> None:
        self.on = on


@dataclass
class _Send:
    guard: _Guard
    chan: _Var
    args: tuple[_Var, ...]
    path: Path
    subject: Name          # the syntactic channel expression


@dataclass
class _Recv:
    guard: _Guard          # reachability of the input prefix itself
    cont: _Guard           # deliverability (activates the continuation)
    chan: _Var
    params: tuple[_Var, ...]
    path: Path
    subject: Name
    direct_private: bool   # subject is literally a nu-bound name here


@dataclass
class _MatchSite:
    guard: _Guard
    then_guard: _Guard
    dynamic: bool          # then-guard decided by token intersection
    left_var: _Var
    right_var: _Var
    left: Name
    right: Name
    path: Path
    then_is_nil: bool


@dataclass
class _NuSite:
    token: NuToken
    guard: _Guard
    path: Path
    name: Name


@dataclass(frozen=True)
class NuInfo:
    """Flow facts about one ``nu`` occurrence (for the semantic lints)."""

    path: Path
    name: Name
    extruded: bool             # may the token reach the environment?
    may_be_heard: bool         # could any listener ever hear it?
    used_as_channel: bool      # some active site has it as (a) subject
    all_sites_deliverable: bool
    matched_live: bool         # some match on the token may succeed
    match_paths: tuple[Path, ...]  # active matches mentioning the token


@dataclass(frozen=True)
class SiteFinding:
    """An undeliverable communication site (orphan listener / deaf send)."""

    path: Path
    subject: Name
    channels: tuple[str, ...]  # printable channel tokens of the site
    direct: bool = False       # subject is literally a nu-bound name


@dataclass(frozen=True)
class BranchFinding:
    """A match branch no abstract execution activates."""

    path: Path         # the branch (match path + (0,))
    match_path: Path
    left: Name
    right: Name


@dataclass(frozen=True)
class ChannelCaps:
    """The capability row of one free channel."""

    may_broadcast: bool
    may_listen: bool
    may_extrude: bool
    may_carry: tuple[str, ...]   # sorted printable value tokens

    def to_json(self) -> dict[str, Any]:
        return {
            "may_broadcast": self.may_broadcast,
            "may_listen": self.may_listen,
            "may_extrude": self.may_extrude,
            "may_carry": list(self.may_carry),
        }


def _printable(token: Token) -> str:
    """A spelling-stable rendering: bound names must not leak through
    (``canonical_state`` renames them), so every restriction token prints
    as the anonymous ``#private``."""
    if isinstance(token, str):
        return token
    if token is ENV:
        return "#env"
    return "#private"


class FlowAnalysis:
    """The solved abstraction of one term under one backend and mode."""

    def __init__(self, term: Process, *, mode: str, calculus: str,
                 incomplete: bool,
                 vocabulary: frozenset[Name],
                 broadcast_tokens: frozenset[Token],
                 listen_tokens: frozenset[Token],
                 extruded: frozenset[Token],
                 carry: dict[Token, frozenset[Token]],
                 env_may_broadcast: bool,
                 env_may_listen: bool,
                 orphan_listeners: tuple[SiteFinding, ...],
                 undeliverable_sends: tuple[SiteFinding, ...],
                 dead_then: tuple[BranchFinding, ...],
                 restrictions: tuple[NuInfo, ...]) -> None:
        self.term = term
        self.mode = mode
        self.calculus = calculus
        self.incomplete = incomplete
        self.vocabulary = vocabulary
        self.broadcast_tokens = broadcast_tokens
        self.listen_tokens = listen_tokens
        self.extruded = extruded
        self.carry = carry
        self.env_may_broadcast = env_may_broadcast
        self.env_may_listen = env_may_listen
        self.orphan_listeners = orphan_listeners
        self.undeliverable_sends = undeliverable_sends
        self.dead_then = dead_then
        self.restrictions = restrictions
        self._caps: dict[str, ChannelCaps] | None = None

    # -- the public projection (the vocabulary: canonicalisation-stable) --

    def capability_sets(self) -> dict[str, dict[str, Any]]:
        """Per free channel: the four capability sets, JSON-shaped.

        Keyed by the :attr:`vocabulary` — the free names some reachable
        site uses, which ``canonical_state`` preserves — with restriction
        tokens rendered anonymously, so a term and its canonical form
        produce identical mappings (property-tested)."""
        return {name: caps.to_json()
                for name, caps in self.channels().items()}

    def channels(self) -> dict[str, ChannelCaps]:
        if self._caps is not None:
            return self._caps
        out: dict[str, ChannelCaps] = {}
        all_arg_tokens: set[Token] = set()
        for values in self.carry.values():
            all_arg_tokens |= values
        for name in sorted(self.vocabulary):
            carried = self.carry.get(name, frozenset())
            if self.env_may_broadcast:
                carried = carried | {ENV}
            out[name] = ChannelCaps(
                may_broadcast=(name in self.broadcast_tokens
                               or self.env_may_broadcast),
                may_listen=(name in self.listen_tokens
                            or self.env_may_listen),
                may_extrude=name in all_arg_tokens,
                may_carry=tuple(sorted({_printable(t) for t in carried})),
            )
        self._caps = out
        return out

    def may_broadcast_names(self) -> frozenset[Name]:
        """Free channels some reachable state may broadcast on."""
        if self.env_may_broadcast:
            return self.vocabulary
        return frozenset(t for t in self.broadcast_tokens
                         if isinstance(t, str))

    def refutes_barb(self, chan: Name) -> bool:
        """Is a barb on *chan* provably unreachable in the abstraction?

        Only meaningful (and only claimed) in ``closed`` mode on a
        complete analysis: over-approximation makes the *negative*
        direction sound, never the positive one."""
        if self.mode != "closed" or self.incomplete:
            return False
        return chan not in self.may_broadcast_names()

    def digest(self) -> str:
        """Stable content digest of the public summary (store keys)."""
        payload = json.dumps(
            {"version": FLOW_VERSION, "mode": self.mode,
             "calculus": self.calculus, "incomplete": self.incomplete,
             "channels": self.capability_sets()},
            sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def to_json(self) -> dict[str, Any]:
        return {
            "version": FLOW_VERSION,
            "mode": self.mode,
            "calculus": self.calculus,
            "incomplete": self.incomplete,
            "channels": self.capability_sets(),
            "digest": self.digest(),
        }

    def __repr__(self) -> str:
        return (f"<FlowAnalysis {self.mode}/{self.calculus} "
                f"{len(self.channels())} channels>")


# ---------------------------------------------------------------------------
# constraint generation
# ---------------------------------------------------------------------------

class _Builder:
    """One walk of the term: allocates vars/guards, records sites."""

    def __init__(self) -> None:
        self.free_vars: dict[Name, _Var] = {}
        self.uses: list[tuple[Name, _Guard]] = []   # free name, its site
        self.flows: list[tuple[_Var, _Var, _Guard]] = []
        self.sends: list[_Send] = []
        self.recvs: list[_Recv] = []
        self.matches: list[_MatchSite] = []
        self.nus: list[_NuSite] = []
        self.incomplete = False
        self._nu_index = 0
        self._off = _Guard(False)   # never activated; parents only read

    def lookup(self, env: dict[Name, tuple[_Var, bool]], name: Name,
               guard: _Guard | None) -> tuple[_Var, bool]:
        """The var *name* denotes here.  A free *name* is recorded as
        used under *guard* (``None``: the occurrence is not a use)."""
        hit = env.get(name)
        if hit is not None:
            return hit
        if guard is not None:
            self.uses.append((name, guard))
        var = self.free_vars.get(name)
        if var is None:
            var = self.free_vars[name] = _Var(name)
        return var, True   # free names are rigid

    def walk(self, q: Process, path: Path, guard: _Guard,
             env: dict[Name, tuple[_Var, bool]],
             idents: dict[str, tuple[_Var, ...]]) -> None:
        if q is NIL:
            return
        if isinstance(q, Tau):
            self.walk(q.cont, path + (0,), guard, env, idents)
        elif isinstance(q, Output):
            chan, _ = self.lookup(env, q.chan, guard)
            args = tuple(self.lookup(env, a, guard)[0] for a in q.args)
            self.sends.append(_Send(guard, chan, args, path, q.chan))
            # noisy semantics: a send fires with zero listeners, so the
            # continuation is as reachable as the prefix itself
            self.walk(q.cont, path + (0,), guard, env, idents)
        elif isinstance(q, Input):
            chan, rigid = self.lookup(env, q.chan, guard)
            params = tuple(_Var() for _ in q.params)
            cont = _Guard(False)
            direct = rigid and all(isinstance(t, NuToken)
                                   for t in chan.tokens)
            self.recvs.append(
                _Recv(guard, cont, chan, params, path, q.chan, direct))
            inner = dict(env)
            for x, var in zip(q.params, params):
                inner[x] = (var, False)
            self.walk(q.cont, path + (0,), cont, inner, idents)
        elif isinstance(q, Restrict):
            token = NuToken(self._nu_index, q.name)
            self._nu_index += 1
            self.nus.append(_NuSite(token, guard, path, q.name))
            inner = dict(env)
            inner[q.name] = (_Var(token), True)
            self.walk(q.body, path + (0,), guard, inner, idents)
        elif isinstance(q, Match):
            lv, l_rigid = self.lookup(env, q.left, None)
            rv, r_rigid = self.lookup(env, q.right, None)
            if q.left == q.right:
                then_g, dynamic = guard, False       # must-equal
            elif l_rigid and r_rigid:
                then_g, dynamic = self._off, False   # distinct rigid names
            else:
                then_g, dynamic = _Guard(False), True
                # canonical_state resolves every decided match away, so
                # only an undecided one uses its free operands
                self.uses += [(n, guard) for n in (q.left, q.right)
                              if n not in env]
            self.matches.append(_MatchSite(
                guard, then_g, dynamic, lv, rv, q.left, q.right, path,
                q.then is NIL))
            # the else-branch is refutable only for syntactically equal
            # operands (x may alias y without *must*-aliasing it)
            else_g = self._off if q.left == q.right else guard
            self.walk(q.then, path + (0,), then_g, env, idents)
            self.walk(q.orelse, path + (1,), else_g, env, idents)
        elif isinstance(q, (Sum, Par)):
            self.walk(q.left, path + (0,), guard, env, idents)
            self.walk(q.right, path + (1,), guard, env, idents)
        elif isinstance(q, Rec):
            params = tuple(_Var() for _ in q.params)
            for a, pv in zip(q.args, params):
                self.flows.append((self.lookup(env, a, guard)[0], pv,
                                   guard))
            inner = dict(env)
            for x, var in zip(q.params, params):
                inner[x] = (var, False)
            self.walk(q.body, path + (0,), guard, inner,
                      {**idents, q.ident: params})
        elif isinstance(q, Ident):
            params = idents.get(q.ident)
            if params is None:
                # a free identifier has no definition to abstract: the
                # result stays a valid over-approximation of nothing in
                # particular, so mark it unusable for refutations
                self.incomplete = True
                return
            for a, pv in zip(q.args, params):
                self.flows.append((self.lookup(env, a, guard)[0], pv,
                                   guard))
        else:  # pragma: no cover - exhaustive over the node classes
            self.incomplete = True


# ---------------------------------------------------------------------------
# the fixpoint solver
# ---------------------------------------------------------------------------

class _Solver:
    def __init__(self, builder: _Builder, *, mode: str,
                 topology: Any) -> None:
        self.b = builder
        self.open = mode == "open"
        self.topology = topology
        self.escaped: set[NuToken] = set()

    # -- the hearing relation, backend-refined --------------------------

    def env_knows(self, token: Token) -> bool:
        if token is ENV or isinstance(token, str):
            return True
        return token in self.escaped

    def hears(self, out_chan: Token, listen_chan: Token) -> bool:
        if out_chan is ENV:
            return self.env_knows(listen_chan)
        if listen_chan is ENV:
            return self.env_knows(out_chan)
        if out_chan == listen_chan:
            return True
        if (self.topology is not None and isinstance(out_chan, str)
                and isinstance(listen_chan, str)):
            return self.topology.hears(out_chan, listen_chan)
        return False

    def may_equal(self, a: Token, b: Token) -> bool:
        if a is ENV:
            return self.env_knows(b)
        if b is ENV:
            return self.env_knows(a)
        return a == b

    def _sets_may_intersect(self, left: set[Token],
                            right: set[Token]) -> bool:
        if left & right:
            return True
        if ENV in left and any(self.env_knows(t) for t in right):
            return True
        if ENV in right and any(self.env_knows(t) for t in left):
            return True
        return False

    # -- iteration --------------------------------------------------------

    def solve(self) -> None:
        b = self.b
        changed = True
        while changed:
            changed = False
            for site in b.matches:
                if (site.dynamic and not site.then_guard.on
                        and site.guard.on
                        and self._sets_may_intersect(site.left_var.tokens,
                                                     site.right_var.tokens)):
                    site.then_guard.on = True
                    changed = True
            for recv in b.recvs:
                if not recv.guard.on:
                    continue
                if (self.open and not recv.cont.on
                        and any(self.env_knows(c)
                                for c in recv.chan.tokens)):
                    recv.cont.on = True
                    changed = True
                    for pv in recv.params:
                        pv.tokens.add(ENV)
                for send in b.sends:
                    if not send.guard.on:
                        continue
                    if len(send.args) != len(recv.params):
                        continue   # wrong arity: the listener discards
                    if not any(self.hears(cs, cr)
                               for cs in send.chan.tokens
                               for cr in recv.chan.tokens):
                        continue
                    if not recv.cont.on:
                        recv.cont.on = True
                        changed = True
                    for av, pv in zip(send.args, recv.params):
                        fresh = av.tokens - pv.tokens
                        if fresh:
                            pv.tokens |= fresh
                            changed = True
            if self.open:
                for send in b.sends:
                    if not send.guard.on:
                        continue
                    if not any(self.env_knows(c)
                               for c in send.chan.tokens):
                        continue
                    for av in send.args:
                        for t in av.tokens:
                            if (isinstance(t, NuToken)
                                    and t not in self.escaped):
                                self.escaped.add(t)
                                changed = True
            for src, dst, guard in b.flows:
                if not guard.on:
                    continue
                fresh = src.tokens - dst.tokens
                if fresh:
                    dst.tokens |= fresh
                    changed = True

    # -- post-fixpoint queries --------------------------------------------

    def send_deliverable(self, send: _Send) -> bool:
        if self.open and any(self.env_knows(c) for c in send.chan.tokens):
            return True
        for recv in self.b.recvs:
            if not recv.guard.on:
                continue
            if len(send.args) != len(recv.params):
                continue
            if any(self.hears(cs, cr)
                   for cs in send.chan.tokens
                   for cr in recv.chan.tokens):
                return True
        return False

    def token_may_be_heard(self, token: Token) -> bool:
        if self.open and self.env_knows(token):
            return True
        return any(recv.guard.on
                   and any(self.hears(token, cr)
                           for cr in recv.chan.tokens)
                   for recv in self.b.recvs)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_MODES = ("open", "closed")

#: (interned root, backend key, mode) -> solved analysis.  Node slots are
#: reserved for the kernel's own analyses, so the memo lives here — same
#: lifetime discipline as the backend memo tables (cleared alongside the
#: intern table by ``repro.core.cache.clear_caches``).
_MEMO: dict[tuple[Process, str, str], FlowAnalysis] = {}


def clear_caches() -> None:
    """Forget every memoized analysis (``core.cache`` hooks this)."""
    _MEMO.clear()


def memo_stats() -> dict[str, int]:
    return {"analyses": len(_MEMO)}


def flow_analysis(p: Process, *, calculus: Any = None,
                  mode: str = "open") -> FlowAnalysis:
    """Solve the capability abstraction of *p* (memoized).

    *calculus* is a backend spec or instance (registry semantics);
    *mode* is ``"open"`` (environment may interact — the lint reading)
    or ``"closed"`` (autonomous steps only — the pre-solver reading).
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, not {mode!r}")
    # Lazy import: calculi imports core at module level; flow is imported
    # from core call sites, so it must only reach over at call time.
    from ..calculi import registry as _registry
    backend = _registry.resolve(calculus)
    key = (p, backend.key(), mode)
    hit = _MEMO.get(key)
    if hit is not None:
        return hit

    builder = _Builder()
    root = _Guard(True)
    builder.walk(p, (), root, {}, {})
    solver = _Solver(builder, mode=mode,
                     topology=getattr(backend, "topology", None))
    solver.solve()

    broadcast: set[Token] = set()
    listen: set[Token] = set()
    carry: dict[Token, set[Token]] = {}
    env_may_broadcast = False
    for send in builder.sends:
        if not send.guard.on:
            continue
        for c in send.chan.tokens:
            if c is ENV:
                env_may_broadcast = True
                continue
            broadcast.add(c)
            bucket = carry.setdefault(c, set())
            for av in send.args:
                bucket |= av.tokens
    env_may_listen = False
    for recv in builder.recvs:
        if not recv.guard.on:
            continue
        for c in recv.chan.tokens:
            if c is ENV:
                env_may_listen = True
            else:
                listen.add(c)

    orphans = tuple(
        SiteFinding(r.path, r.subject,
                    tuple(sorted(_printable(c) for c in r.chan.tokens)),
                    direct=r.direct_private)
        for r in builder.recvs if r.guard.on and not r.cont.on)
    deaf = tuple(
        SiteFinding(s.path, s.subject,
                    tuple(sorted(_printable(c) for c in s.chan.tokens)))
        for s in builder.sends
        if s.guard.on and s.chan.tokens and not solver.send_deliverable(s))
    dead_then = tuple(
        BranchFinding(m.path + (0,), m.path, m.left, m.right)
        for m in builder.matches
        if m.guard.on and not m.then_guard.on and not m.then_is_nil)

    nu_infos = []
    for site in builder.nus:
        if not site.guard.on:
            continue
        token = site.token
        own_sends = [s for s in builder.sends
                     if s.guard.on and token in s.chan.tokens]
        own_recvs = [r for r in builder.recvs
                     if r.guard.on and token in r.chan.tokens]
        deliverable = (
            all(solver.send_deliverable(s) for s in own_sends)
            and all(r.cont.on for r in own_recvs))
        own_matches = [m for m in builder.matches
                       if m.guard.on and (token in m.left_var.tokens
                                          or token in m.right_var.tokens)]
        nu_infos.append(NuInfo(
            path=site.path, name=site.name,
            extruded=token in solver.escaped,
            may_be_heard=solver.token_may_be_heard(token),
            used_as_channel=bool(own_sends or own_recvs),
            all_sites_deliverable=deliverable,
            matched_live=any(m.then_guard.on for m in own_matches),
            match_paths=tuple(m.path for m in own_matches)))

    analysis = FlowAnalysis(
        p, mode=mode, calculus=backend.key(),
        incomplete=builder.incomplete,
        vocabulary=frozenset(n for n, g in builder.uses if g.on),
        broadcast_tokens=frozenset(broadcast),
        listen_tokens=frozenset(listen),
        extruded=frozenset(solver.escaped),
        carry={c: frozenset(v) for c, v in carry.items()},
        env_may_broadcast=env_may_broadcast,
        env_may_listen=env_may_listen,
        orphan_listeners=orphans,
        undeliverable_sends=deaf,
        dead_then=dead_then,
        restrictions=tuple(nu_infos))
    _MEMO[key] = analysis
    return analysis


def describe(analysis: FlowAnalysis) -> Iterable[str]:
    """Human-readable capability table lines (the CLI's text format)."""
    caps = analysis.channels()
    if not caps:
        yield "(no free channels)"
    header = f"{'channel':12s} {'broadcast':9s} {'listen':7s} " \
             f"{'extrude':8s} carries"
    if caps:
        yield header
    for name, row in caps.items():
        def mark(flag: bool) -> str:
            return "yes" if flag else "-"
        carries = ", ".join(row.may_carry) if row.may_carry else "-"
        yield (f"{name:12s} {mark(row.may_broadcast):9s} "
               f"{mark(row.may_listen):7s} {mark(row.may_extrude):8s} "
               f"{carries}")
    if analysis.incomplete:
        yield ("(incomplete: free identifiers in the term; "
               "no refutations will be claimed)")
