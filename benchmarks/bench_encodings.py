"""Experiment S6b: the pi -> bpi encoding — size blowup + adequacy rows.

Also the CBS ether translation (conservative-extension direction) and the
atomicity witness behind "no uniform bpi -> pi encoding".
"""

import pytest

from repro.calculi.cbs import CbsPar, Hear, Speak, speaks, to_bpi
from repro.calculi.encodings import pi_to_bpi
from repro.calculi.pi import pi_step_transitions
from repro.core.actions import OutputAction
from repro.core.parser import parse
from repro.core.reduction import can_reach_barb
from repro.core.semantics import step_transitions
from repro.engine import Budget


def test_pi_encoding_handshake(benchmark):
    src = parse("a<v>.done! | a(x).x!")

    def verify():
        enc = pi_to_bpi(src)
        assert can_reach_barb(enc, "done",
                              budget=Budget(max_states=30_000),
                              collapse_duplicates=True)
        return enc.size() / src.size()

    blowup = benchmark(verify)
    assert blowup > 1  # the protocol costs a constant factor


@pytest.mark.parametrize("n_receivers", [1, 2, 3])
def test_pi_encoding_contention(benchmark, n_receivers):
    recv = " | ".join(f"a(x{i}).r{i}!" for i in range(n_receivers))
    src = parse(f"a<v>.0 | {recv}")

    def verify():
        enc = pi_to_bpi(src)
        return any(
            can_reach_barb(enc, f"r{i}",
                           budget=Budget(max_states=80_000),
                           collapse_duplicates=True)
            for i in range(n_receivers))

    assert benchmark(verify)


@pytest.mark.parametrize("n", [4, 16])
def test_cbs_translation_correspondence(benchmark, n):
    hearers = None
    p = Speak("v")
    for i in range(n):
        p = CbsPar(p, Hear("x", Speak("x")))

    def verify():
        image = to_bpi(p)
        cbs_moves = {(v, to_bpi(q)) for v, q in speaks(p)}
        bpi_moves = {(a.objects[0], t) for a, t in step_transitions(image)
                     if isinstance(a, OutputAction)}
        assert cbs_moves == bpi_moves
        return len(bpi_moves)

    assert benchmark(verify) >= 1


def test_atomicity_witness(benchmark):
    """bpi serves n receivers in one step; pi needs n handshakes — the
    executable intuition for the non-encodability direction."""
    system = parse("a! | a?.c! | a?.d!")

    def verify():
        bpi_after = [t for act, t in step_transitions(system)
                     if isinstance(act, OutputAction)]
        assert parse("0 | c! | d!") in bpi_after
        pi_after = [t for _, t in pi_step_transitions(system)]
        assert parse("0 | c! | d!") not in pi_after
        return len(pi_after)

    assert benchmark(verify) >= 2
