"""Sweep the axiom schemas over concrete algebras of relations.

Runs every applicable axiom for each fragment on concrete(|W|) for the chosen
universe sizes and sort bound, and prints one line per (universe, fragment,
axiom), then the number of failing runs; the elapsed time goes to stderr.
This is the experiment behind acceptance criterion 1.

Usage: python3 scripts/run_soundness.py [--sizes 0 1 2] [--max-sort 3] [--seed N]
"""

import argparse
import sys
import time

from relalg import Bounds, Universe, check_fragment, concrete
from relalg.fragments import FO, PE, PQF, QF


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--max-sort", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=10**5)
    parser.add_argument("--exhaustive-cap", type=int, default=10**6)
    args = parser.parse_args()

    bounds = Bounds(max_sort=args.max_sort, exhaustive_cap=args.exhaustive_cap,
                    samples=args.samples, seed=args.seed)
    fragments = [PQF, QF, PE, FO, FO.with_equality()]
    failures = 0
    started = time.monotonic()
    print(f"seed: {bounds.seed}")
    for size in args.sizes:
        for fragment in fragments:
            algebra = concrete(Universe(size), fragment, args.max_sort)
            for report in check_fragment(algebra, bounds):
                verdict = "PASS" if report.ok else "FAIL"
                print(f"|W|={size}  {str(fragment):6}  axiom ({report.axiom:>2}): {verdict}  "
                      f"instances={report.instances_checked:>9}  mode={report.mode}")
                failures += 0 if report.ok else 1
    print(f"total: {failures} failing axiom run(s)")
    # the time goes to stderr, so stdout is the same for every run of one seed
    print(f"elapsed: {time.monotonic() - started:.1f}s", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
