"""Golden outcomes of SortLattice on table algebras with one broken entry.

Each base is a table algebra: chains, the diamond, the two five-element
non-distributive lattices M3 and N5, and the table forms of concrete and
generated algebras.  Every meet and join entry of each base sort is moved in
turn to other elements of its sort: to every other element on sorts of at
most five elements, to the next element on larger ones.  The outcome of
SortLattice is pinned, one line per case, in lattice_outcomes_golden.jsonl:
the NotALatticeError message, or "ok" with the join-irreducibles.  On tables
that break the laws, the message names which check fired first and at which
elements, so these outcomes pin the order of the checks as well as their
verdicts.

Regenerate (only when an outcome is meant to change) with:

    PYTHONPATH=src python tests/test_lattice_golden.py > tests/lattice_outcomes_golden.jsonl
"""

import json
from pathlib import Path

from relalg import (
    Substitution,
    TableAlgebra,
    Universe,
    as_table_algebra,
    concrete,
    gallery_diamond,
    generated_subalgebra,
)
from relalg.filters import NotALatticeError, SortLattice
from relalg.fragments import PQF

GOLDEN = Path(__file__).with_name("lattice_outcomes_golden.jsonl")

CHECKS = ("not idempotent", "not antisymmetric", "bounds fail", "greatest lower bound",
          "least upper bound", "not distributive")


def one_sort_tables(meet, join, zero, one) -> TableAlgebra:
    size = len(meet)
    return TableAlgebra(PQF, 0, [size], {("meet", 0): meet, ("join", 0): join, ("zero", 0): zero,
                                         ("one", 0): one,
                                         ("subst", Substitution(0, 0, ())): list(range(size))})


def chain(length: int) -> TableAlgebra:
    elems = range(length)
    return one_sort_tables([[min(a, b) for b in elems] for a in elems],
                           [[max(a, b) for b in elems] for a in elems], 0, length - 1)


def five_element(below: dict[int, set[int]]) -> TableAlgebra:
    """The lattice on 0..4 whose order is given by the strict down-sets."""
    down = {x: below[x] | {x} for x in range(5)}

    def meet(a, b):
        common = down[a] & down[b]
        return next(x for x in common if down[x] == common)

    def join(a, b):
        common = {x for x in range(5) if a in down[x] and b in down[x]}
        return next(x for x in common if common <= {y for y in range(5) if x in down[y]})

    return one_sort_tables([[meet(a, b) for b in range(5)] for a in range(5)],
                           [[join(a, b) for b in range(5)] for a in range(5)], 0, 4)


def bases():
    """(name, table algebra, sort)."""
    for length in (2, 3, 4):
        yield f"chain {length}", chain(length), 0
    yield "M3", five_element({0: set(), 1: {0}, 2: {0}, 3: {0}, 4: {0, 1, 2, 3}}), 0
    yield "N5", five_element({0: set(), 1: {0}, 2: {0, 1}, 3: {0}, 4: {0, 1, 2, 3}}), 0
    diamond = as_table_algebra(gallery_diamond()[0])
    yield "diamond", diamond, 1
    for k in (1, 2):
        tables = as_table_algebra(concrete(Universe(k), PQF, 2))
        for sort in range(3):
            yield f"concrete |W|={k}", tables, sort
    parent = concrete(Universe(2), PQF, 2)
    gen = as_table_algebra(generated_subalgebra(parent, [(1, 0b01), (2, 0b0110)]))
    yield "generated", gen, 2


def cases():
    for name, algebra, sort in bases():
        base = algebra.to_json()
        size = algebra.sort_size(sort)
        shifts = range(1, size) if size <= 5 else (1,)
        yield f"{name} sort {sort}", "none", TableAlgebra.from_json(base), sort
        for op in ("meet", "join"):
            for a in range(size):
                for b in range(size):
                    for shift in shifts:
                        data = json.loads(base)
                        row = data["sorts"][sort][op][a]
                        row[b] = (row[b] + shift) % size
                        yield (f"{name} sort {sort}", f"{op}[{a}][{b}] +{shift}",
                               TableAlgebra.from_json(json.dumps(data)), sort)


def outcome(algebra, sort) -> dict:
    try:
        lattice = SortLattice(algebra, sort)
    except NotALatticeError as exc:
        return {"error": str(exc)}
    return {"ok": list(lattice.join_irreducibles)}


def golden_outcomes() -> list[dict]:
    return [{"base": base, "corruption": corruption, **outcome(algebra, sort)}
            for base, corruption, algebra, sort in cases()]


def test_sort_lattice_outcomes_match_golden():
    expected = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    actual = golden_outcomes()
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got == want, (got["base"], got["corruption"])
    errors = [r["error"] for r in expected if "error" in r]
    assert all(any(check in e for e in errors) for check in CHECKS)


if __name__ == "__main__":
    for record in golden_outcomes():
        print(json.dumps(record, sort_keys=True))
