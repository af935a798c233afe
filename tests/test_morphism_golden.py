"""Golden reports of verify_morphism.

Pinned, one record per line, in morphism_reports_golden.jsonl: ok, checks and
the violation list of verify_morphism, in both modes, for seeded maps out of
small algebras in every fragment with and without equality.  The sources are
concrete algebras over one- and two-point universes, their table forms, and
products of two concrete factors.  The maps are a random map of the source
into itself, the identity and two one-entry perturbations of it, and, for a
product, its projection onto each factor and a one-entry perturbation of
that.

Regenerate (only when a report is meant to change) with:

    PYTHONPATH=src python tests/test_morphism_golden.py > tests/morphism_reports_golden.jsonl
"""

import json
import random
from pathlib import Path

from relalg import Universe, as_table_algebra, concrete, product, verify_morphism
from relalg.fragments import FO, PE, PQF, QF

from oracles import projection

GOLDEN = Path(__file__).with_name("morphism_reports_golden.jsonl")

FRAGMENTS = [f for base in (PQF, QF, PE, FO) for f in (base, base.with_equality())]

# message prefix -> kind, for the coverage assertions
KINDS = {"constant 0": "constant 0", "constant 1": "constant 1", "join": "join",
         "meet": "meet", "negation": "negation", "diagonal": "diagonal",
         "substitution": "substitution", "projection of": "projection",
         "projection containment": "containment"}


def kind(message: str) -> str:
    return next(k for prefix, k in KINDS.items() if message.startswith(prefix))


def sources(fragment):
    """(name, algebra, factors): factors is empty unless the source is a product."""
    for size in (1, 2):
        algebra = concrete(Universe(size), fragment, 2)
        yield f"concrete |W|={size}", algebra, []
        yield f"tables |W|={size}", as_table_algebra(algebra), []
    for sizes, max_sort in (((1, 1), 2), ((1, 2), 2), ((2, 2), 1)):
        factors = [concrete(Universe(size), fragment, max_sort) for size in sizes]
        yield f"product |W|={sizes[0]}x{sizes[1]}", product(factors), factors


def perturbed(fmap: dict, target, rng: random.Random) -> tuple[str, dict]:
    """The map with one entry sent to another element of the target."""
    fmap = {n: list(f) for n, f in fmap.items()}
    n = rng.randrange(len(fmap))
    a = rng.randrange(len(fmap[n]))
    b = rng.choice([b for b in target.elements(n) if b != fmap[n][a]])
    fmap[n][a] = b
    return f"sort {n} element {a} -> {b}", fmap


def maps(algebra, factors, rng: random.Random):
    """(description, target name, target, map) per map out of the source."""
    sorts = range(algebra.max_sort + 1)
    random_map = {n: [rng.randrange(algebra.sort_size(n)) for _ in algebra.elements(n)]
                  for n in sorts}
    yield "random", "source", algebra, random_map
    identity = {n: list(algebra.elements(n)) for n in sorts}
    yield "identity", "source", algebra, identity
    for _ in range(2):
        change, fmap = perturbed(identity, algebra, rng)
        yield f"identity, {change}", "source", algebra, fmap
    for i, factor in enumerate(factors):
        yield f"projection {i}", f"factor {i}", factor, projection(algebra, i)
        change, fmap = perturbed(projection(algebra, i), factor, rng)
        yield f"projection {i}, {change}", f"factor {i}", factor, fmap


def golden_records():
    rng = random.Random(13)
    for fragment in FRAGMENTS:
        for name, algebra, factors in sources(fragment):
            for change, target_name, target, fmap in maps(algebra, factors, rng):
                for mode in ("full", "almost"):
                    report = verify_morphism(fmap, algebra, target, mode=mode)
                    yield {"source": name, "fragment": str(fragment), "map": change,
                           "target": target_name, "mode": mode, "ok": report.ok,
                           "checks": report.checks, "violations": report.violations}


def test_morphism_reports_match_golden():
    expected = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    actual = [json.loads(json.dumps(record, sort_keys=True)) for record in golden_records()]
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got == want, {k: want[k] for k in ("source", "fragment", "map", "mode")}
    kinds = [[kind(v) for v in r["violations"]] for r in expected]
    assert {k for ks in kinds for k in ks} == set(KINDS.values())
    # join and meet are checked pair by pair, join first, so their messages alternate
    assert any("join" in ks[ks.index("meet"):] for ks in kinds if "meet" in ks)
    assert any(r["ok"] for r in expected) and not all(r["ok"] for r in expected)


if __name__ == "__main__":
    for record in golden_records():
        print(json.dumps(record, sort_keys=True))
