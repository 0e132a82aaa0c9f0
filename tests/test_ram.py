"""Experiment S6a — the Random Access Machine encoding (Section 6).

The encoded machine must reproduce the reference interpreter's observable
behaviour: same number of emissions, and it halts.
"""

import pytest

from repro.apps.ram import (
    DecJz,
    Emit,
    Halt,
    Inc,
    Jmp,
    emitted_channels,
    encode,
    program_add,
    program_emit_register,
    run_encoded,
    run_reference,
)
from repro.core.freenames import is_closed
from repro.runtime.analysis import can_reach_barb
from repro.engine import Budget


class TestReferenceInterpreter:
    def test_emit_register(self):
        regs, emitted = run_reference(program_emit_register("r", "tick"),
                                      {"r": 4})
        assert regs["r"] == 0
        assert emitted == ["tick"] * 4

    def test_add(self):
        regs, emitted = run_reference(program_add("x", "y", "s"),
                                      {"x": 2, "y": 3})
        assert len(emitted) == 5

    def test_no_halt_detected(self):
        with pytest.raises(RuntimeError):
            run_reference([Jmp(0)], max_steps=50)

    def test_bad_pc(self):
        with pytest.raises(IndexError):
            run_reference([Inc("r")], max_steps=10)


class TestEncodedMachine:
    @pytest.mark.parametrize("value", [0, 1, 3])
    def test_emit_register_matches(self, value):
        prog = program_emit_register("r", "tick")
        _, ref_emitted = run_reference(prog, {"r": value})
        trace = run_encoded(prog, {"r": value}, max_steps=5_000)
        assert trace.observed("halted")
        assert len(emitted_channels(trace, prog)) == len(ref_emitted) == value

    @pytest.mark.parametrize("x,y", [(0, 0), (1, 2), (2, 3)])
    def test_add_matches(self, x, y):
        prog = program_add("x", "y", "s")
        _, ref_emitted = run_reference(prog, {"x": x, "y": y})
        trace = run_encoded(prog, {"x": x, "y": y}, max_steps=12_000)
        assert trace.observed("halted")
        assert len(emitted_channels(trace, prog)) == len(ref_emitted) == x + y

    def test_seed_independent(self):
        # the machine is sequential: every schedule gives the same outcome
        prog = program_emit_register("r", "tick")
        counts = {len(emitted_channels(run_encoded(prog, {"r": 2},
                                                   seed=s, max_steps=5_000),
                                       prog))
                  for s in range(4)}
        assert counts == {2}

    def test_halt_reachable_by_search(self):
        prog = [Emit("one"), Halt()]
        assert can_reach_barb(encode(prog), "halted", budget=Budget(max_states=3_000),
                              collapse_duplicates=True)

    def test_machine_is_closed_modulo_observables(self):
        prog = program_emit_register("r", "tick")
        system = encode(prog, {"r": 1})
        assert is_closed(system)
