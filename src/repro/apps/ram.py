"""A Random Access Machine encoded in the bpi-calculus (Section 6).

The paper notes it is easy to implement a RAM in the calculus (along the
lines of the Linda encoding of [2]), witnessing Turing-completeness.  This
module carries that out concretely:

* a tiny RAM: registers holding naturals, programs of ``Inc``, ``DecJz``
  (decrement, or jump if zero), ``Emit`` (observable broadcast — our
  window into the machine) and ``Halt``;
* a reference interpreter (:func:`run_reference`);
* the process encoding (:func:`encode`): a register is a **linked stack of
  one-shot cells chained by private names** — value *n* is *n* cells; the
  mobility of names is essential (each pop *receives* the next stack
  pointer), exactly the facility CBS lacks;
* program counter flow by broadcasts on per-label channels; because a RAM
  is sequential there is a single control token, so the encoded system is
  (essentially) deterministic and the simulator reproduces the reference
  run's observable trace (tested).

Register protocol (one register = one recursive ``Loop`` plus cells)::

    Cell(t, nxt)  =  t(c). c<nxt>                  # reveal next on request
    Loop(api, bot, top) =
        api(op, k1, k2).
          [op = inc]  nu t' ( Cell(t', top) || k1!. Loop(api, bot, t') )
          [op = dec]  [top = bot]  k2!. Loop(api, bot, top)         # zero
                      nu c ( t op<c> || c(nxt). k1!. Loop(api, bot, nxt) )
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..core.builder import call, define, inp, match_eq, nu, out, par
from ..core.names import Name
from ..core.syntax import Process
from ..runtime.simulator import run as sim_run
from ..runtime.trace import Trace

#: Operation tags carried on the register API channel (plain names).
OP_INC, OP_DEC = "inc", "dec"
HALT_CHANNEL = "halted"


# ---------------------------------------------------------------------------
# The machine model + reference interpreter
# ---------------------------------------------------------------------------

class Instr:
    """Base class of RAM instructions."""


@dataclass(frozen=True)
class Inc(Instr):
    """``reg += 1``; continue at the next instruction."""

    reg: str


@dataclass(frozen=True)
class DecJz(Instr):
    """If ``reg == 0`` jump to *target*; else ``reg -= 1`` and continue."""

    reg: str
    target: int


@dataclass(frozen=True)
class Jmp(Instr):
    """Unconditional jump."""

    target: int


@dataclass(frozen=True)
class Emit(Instr):
    """Broadcast on an observable channel (for traces and tests)."""

    chan: Name


@dataclass(frozen=True)
class Halt(Instr):
    """Stop, broadcasting on :data:`HALT_CHANNEL`."""


Program = Sequence[Instr]


def run_reference(program: Program, registers: dict[str, int] | None = None,
                  max_steps: int = 100_000) -> tuple[dict[str, int], list[Name]]:
    """Execute the RAM directly; returns (final registers, emitted channels)."""
    regs = dict(registers or {})
    emitted: list[Name] = []
    pc = 0
    for _ in range(max_steps):
        if pc >= len(program):
            raise IndexError(f"program counter {pc} out of range")
        instr = program[pc]
        if isinstance(instr, Inc):
            regs[instr.reg] = regs.get(instr.reg, 0) + 1
            pc += 1
        elif isinstance(instr, DecJz):
            if regs.get(instr.reg, 0) == 0:
                pc = instr.target
            else:
                regs[instr.reg] -= 1
                pc += 1
        elif isinstance(instr, Jmp):
            pc = instr.target
        elif isinstance(instr, Emit):
            emitted.append(instr.chan)
            pc += 1
        elif isinstance(instr, Halt):
            return regs, emitted
        else:
            raise TypeError(type(instr).__name__)
    raise RuntimeError(f"no Halt within {max_steps} steps")


# ---------------------------------------------------------------------------
# The encoding
# ---------------------------------------------------------------------------

def _register_loop():
    return define(
        "RegLoop", ("api", "bot", "top"),
        lambda api, bot, top: inp(api, ("op", "k1", "k2"), match_eq(
            "op", OP_INC,
            nu("tn", par(_cell("tn", top),
                         out("k1", cont=call("RegLoop", api, bot, "tn")))),
            match_eq(
                "top", bot,
                out("k2", cont=call("RegLoop", api, bot, top)),
                nu("c", par(out(top, "c"),
                            inp("c", ("nxt",),
                                out("k1",
                                    cont=call("RegLoop", api, bot, "nxt")))))))),
        constants=(OP_INC, OP_DEC))


def _cell(t: Name, nxt: Name) -> Process:
    return inp(t, ("creq",), out("creq", nxt))


_REG_LOOP = _register_loop()


def register(api: Name, value: int = 0) -> Process:
    """A register process holding *value*, served on channel *api*."""
    bot = f"{api}_bot"
    cells = []
    top = bot
    for i in range(value):
        node = f"{api}_n{i}"
        cells.append(_cell(node, top))
        top = node
    names = [bot] + [f"{api}_n{i}" for i in range(value)]
    return nu(names, par(_REG_LOOP(api, bot, top), *cells))


def _label(i: int) -> Name:
    return f"pc{i}"


def _api(reg: str) -> Name:
    return f"reg_{reg}"


def encode_instruction(index: int, instr: Instr) -> Process:
    """A replicated handler: fires on its label, performs, passes control."""
    label = _label(index)
    nxt = _label(index + 1)

    def handler(body_fn):
        return define(
            f"I{index}", (label,),
            lambda lb: inp(lb, (), body_fn(lb)),
            constants=("k", "kz", HALT_CHANNEL, OP_INC, OP_DEC,
                       nxt, _label(getattr(instr, "target", 0)),
                       _api(getattr(instr, "reg", "r0")),
                       getattr(instr, "chan", HALT_CHANNEL)))(label)

    if isinstance(instr, Inc):
        return handler(lambda lb: nu("k", par(
            out(_api(instr.reg), OP_INC, "k", "k"),
            inp("k", (), par(out(nxt), call(f"I{index}", lb))))))
    if isinstance(instr, DecJz):
        target = _label(instr.target)
        return handler(lambda lb: nu(("k", "kz"), par(
            out(_api(instr.reg), OP_DEC, "k", "kz"),
            inp("k", (), par(out(nxt), call(f"I{index}", lb))),
            inp("kz", (), par(out(target), call(f"I{index}", lb))))))
    if isinstance(instr, Jmp):
        target = _label(instr.target)
        return handler(lambda lb: par(out(target), call(f"I{index}", lb)))
    if isinstance(instr, Emit):
        return handler(lambda lb: out(instr.chan,
                                      cont=par(out(nxt), call(f"I{index}", lb))))
    if isinstance(instr, Halt):
        return handler(lambda lb: out(HALT_CHANNEL))
    raise TypeError(type(instr).__name__)


def encode(program: Program, registers: dict[str, int] | None = None) -> Process:
    """The whole machine: handlers + registers + the initial control token."""
    regs = dict(registers or {})
    for instr in program:
        reg = getattr(instr, "reg", None)
        if reg is not None:
            regs.setdefault(reg, 0)
    handlers = [encode_instruction(i, ins) for i, ins in enumerate(program)]
    reg_procs = [register(_api(r), v) for r, v in sorted(regs.items())]
    return par(out(_label(0)), *handlers, *reg_procs)


def run_encoded(program: Program, registers: dict[str, int] | None = None,
                *, seed: int = 0, max_steps: int = 50_000) -> Trace:
    """Run the encoded machine in the simulator until it halts."""
    return sim_run(encode(program, registers), seed=seed, max_steps=max_steps,
                   stop_on_barb=HALT_CHANNEL)


def emitted_channels(trace: Trace, program: Program) -> list[Name]:
    """Project a trace onto the channels ``Emit`` instructions use."""
    emit_chans = {i.chan for i in program if isinstance(i, Emit)}
    return [a.chan for a in trace.broadcasts() if a.chan in emit_chans]


# ---------------------------------------------------------------------------
# Example programs
# ---------------------------------------------------------------------------

def program_emit_register(reg: str, out_chan: Name) -> list[Instr]:
    """Drain *reg*, emitting once per unit — 'print' a register."""
    return [
        DecJz(reg, 3),        # 0: if reg==0 goto halt
        Emit(out_chan),       # 1
        Jmp(0),               # 2
        Halt(),               # 3
    ]


def program_add(src: str, dst: str, out_chan: Name) -> list[Instr]:
    """dst += src (destroying src), then emit dst."""
    return [
        DecJz(src, 3),        # 0
        Inc(dst),             # 1
        Jmp(0),               # 2
        # drain dst, emitting
        DecJz(dst, 6),        # 3
        Emit(out_chan),       # 4
        Jmp(3),               # 5
        Halt(),               # 6
    ]
