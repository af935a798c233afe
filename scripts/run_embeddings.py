"""Build embedding certificates at desk scale and print their transcripts.

Covers: the substitution/lattice fragments via the master prime filter, the
projection fragments via witness saturation, and the diamond obstruction.
The elapsed time goes to stderr.

Usage: python3 scripts/run_embeddings.py [--size 1] [--scope 2] [--rounds 5]
"""

import argparse
import sys
import time

from relalg import (
    ObstructionError,
    Universe,
    as_table_algebra,
    concrete,
    embed,
    gallery_diamond,
)
from relalg.fragments import FO, PE, PQF, QF


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=1)
    parser.add_argument("--scope", type=int, default=2)
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args()

    bad = 0
    started = time.monotonic()
    for fragment in (PQF, QF, PE, FO):
        base = concrete(Universe(args.size), fragment, 2)
        tables = as_table_algebra(base, with_extension=True)
        cert = embed(tables, scope=args.scope, rounds=args.rounds)
        print(f"== {fragment} concrete(|W|={args.size}) as tables ==")
        print(f"status: {cert.status}, target universe: {cert.target_size}, "
              f"injective: {cert.injective}, rounds: {cert.rounds_used}")
        for line in cert.transcript:
            print(f"  {line}")
        if cert.status != "full":
            bad += 1
            for line in cert.obligations:
                print(f"  outstanding: {line}")

    print("== diamond ==")
    diamond, _ = gallery_diamond()
    try:
        embed(diamond, scope=2)
        print("unexpectedly embedded a non-representable algebra")
        bad += 1
    except ObstructionError as exc:
        print(f"obstruction at axiom ({exc.axiom_id}) as expected: blocks {list(exc.shape)}")
    # the time goes to stderr, so stdout is the same for every run
    print(f"elapsed: {time.monotonic() - started:.2f}s", file=sys.stderr)
    return bad


if __name__ == "__main__":
    sys.exit(main())
