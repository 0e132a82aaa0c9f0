#!/usr/bin/env python
"""Section 6: point-to-point versus broadcast, executably.

* a pi handshake translated to a broadcast session protocol (pi -> bpi);
* the atomicity gap behind "no uniform encoding of bpi into pi";
* the congruence-property swap between the two calculi.

Run:  python examples/pi_encoding_demo.py
"""

from repro.calculi.encodings import pi_to_bpi
from repro.calculi.pi import pi_barbed_bisimilar, pi_step_transitions
from repro.core import parse, pretty, step_transitions
from repro.core.actions import OutputAction
from repro.runtime.analysis import can_reach_barb
from repro.engine import Budget
from repro.equiv.barbed import strong_barbed_bisimilar


def main() -> None:
    print("1) One broadcast, two receivers — in ONE step")
    system = parse("a! | a?.c! | a?.d!")
    print("   system:", pretty(system))
    bpi = [pretty(t) for act, t in step_transitions(system)
           if isinstance(act, OutputAction)]
    print("   bpi after the single `a` step:", bpi)
    pi = [pretty(t) for act, t in pi_step_transitions(system)]
    print("   pi can only serve one receiver per step:")
    for t in pi:
        print("     ", t)
    print("   (this atomicity gap is why bpi has no uniform pi encoding)")

    print("\n2) pi handshake as a broadcast session protocol")
    src = parse("a<v>.done! | a(x).x!")
    enc = pi_to_bpi(src)
    print("   source (pi):   ", pretty(src))
    print("   encoding size: ", enc.size(), "nodes")
    print("   reaches done:  ",
          can_reach_barb(enc, "done", budget=Budget(max_states=30_000),
                         collapse_duplicates=True))
    print("   delivers v:    ",
          can_reach_barb(enc, "v", budget=Budget(max_states=30_000),
                         collapse_duplicates=True))

    print("\n3) The congruence-property swap")
    p, q = parse("a<b>"), parse("a<b>.c<d>")
    print("   p = a<b>     q = a<b>.c<d>      (barbed-bisimilar in both)")
    print(f"   bpi:  nu a breaks it:  {not strong_barbed_bisimilar(parse('nu a a<b>'), parse('nu a a<b>.c<d>'))}"
          f"   | r preserves it: {strong_barbed_bisimilar(p | parse('a(x).0'), q | parse('a(x).0'))}")
    print(f"   pi:   nu a preserves:  {pi_barbed_bisimilar(parse('nu a a<b>'), parse('nu a a<b>.c<d>'))}"
          f"   | r breaks it:    {not pi_barbed_bisimilar(p | parse('a(x).0'), q | parse('a(x).0'))}")
    print("   — restriction and parallel composition swap roles between")
    print("     the point-to-point and the broadcast world (Lemma 3/Remark 1).")


if __name__ == "__main__":
    main()
