"""Reproduce the two counterexamples separating the equational laws from the
non-Horn block schema, and confirm which axioms each algebra passes; the
elapsed time goes to stderr.

Usage: python3 scripts/run_gallery.py
"""

import sys
import time

from relalg import Bounds, check_axiom, gallery_diamond, gallery_pe_theory


def show(name, algebra, report, passing_axioms):
    print(f"== {name} ==")
    print(f"fragment: {algebra.fragment}, sort sizes: "
          f"{[algebra.sort_size(n) for n in range(algebra.max_sort + 1)]}")
    violation = report.violations[0]
    print(f"axiom (0) violation, blocks {violation.params['shape']}:")
    print(f"  {violation.detail}")
    r1, r2, s1, s2 = violation.slot_values
    print(f"  r = ({algebra.element_label(1, r1)}, {algebra.element_label(1, r2)})")
    print(f"  s = ({algebra.element_label(1, s1)}, {algebra.element_label(1, s2)})")
    bounds = Bounds(max_sort=2, samples=10**4)
    for axiom in passing_axioms:
        ok = check_axiom(algebra, axiom, bounds).ok
        print(f"  axiom ({axiom}): {'PASS' if ok else 'FAIL'}")
        if not ok:
            return 1
    return 0


def main() -> int:
    started = time.monotonic()
    diamond, diamond_report = gallery_diamond()
    bad = show("diamond", diamond, diamond_report, passing_axioms=range(1, 7))
    print()
    pe_algebra, pe_report = gallery_pe_theory()
    print(f"(sort 0 of the generated algebra has {pe_algebra.sort_size(0)} elements)")
    bad += show("pe-theory", pe_algebra, pe_report,
                passing_axioms=[1, 2, 3, 4, 7, 8, 9, 10])
    # the time goes to stderr, so stdout is the same for every run
    print(f"elapsed: {time.monotonic() - started:.2f}s", file=sys.stderr)
    return bad


if __name__ == "__main__":
    sys.exit(main())
