"""Golden outcomes of every operation symbol's guards, on every algebra kind.

Per fragment (pqf, qf+eq, pe, fo+eq) there are five algebras, all to sort 2:
c = concrete(Universe(2), F, 2), the product of c with the one-point
concrete algebra, the table form of c, and the subalgebra generated by
(1, 1) and (2, 5) over c and over its table form.  Each algebra is asked
for zero, one, meet, join, meet_all, join_all, neg and exists at sorts -1,
0, 2 and 3, for delta at the same sorts with four index pairs, and for four
substitutions, some of them out of bounds.  The outcome is pinned, one line
per case, in operation_guards_golden.jsonl: "ok" with the value, or the
exception's type and message.  Where several guards fail, the message names
the one that fires first, so these outcomes pin the order of the guards as
well as their verdicts.

Regenerate (only when an outcome is meant to change) with:

    PYTHONPATH=src python tests/test_operation_guards_golden.py > tests/operation_guards_golden.jsonl
"""

import json
from collections import Counter
from pathlib import Path

from relalg import (
    RelAlgError,
    Substitution,
    Universe,
    as_table_algebra,
    concrete,
    generated_subalgebra,
    product,
)
from relalg.fragments import parse_fragment

GOLDEN = Path(__file__).with_name("operation_guards_golden.jsonl")

FRAGMENTS = ("pqf", "qf+eq", "pe", "fo+eq")
SORTS = (-1, 0, 2, 3)
GENERATORS = [(1, 1), (2, 5)]


def algebras(fragment):
    c = concrete(Universe(2), fragment, 2)
    table = as_table_algebra(c)
    yield "concrete", c
    yield "product", product([c, concrete(Universe(1), fragment, 2)])
    yield "table", table
    yield "generated", generated_subalgebra(c, GENERATORS)
    yield "generated-table", generated_subalgebra(table, GENERATORS)


def calls():
    """(name, arguments) of each case, arguments as passed to the method."""
    for n in SORTS:
        yield "zero", (n,)
        yield "one", (n,)
        yield "meet", (n, 0, 0)
        yield "join", (n, 0, 0)
        yield "meet_all", (n, [0], [0])
        yield "join_all", (n, [0], [0])
        yield "neg", (n, 0)
        yield "exists", (n, 0)
    for n in SORTS:
        for i, j in ((1, 1), (0, 1), (1, 3), (2, 1)):
            yield "delta", (n, i, j)
    for d, k in ((0, 1), (1, 3), (3, 1), (2, 2)):
        yield "subst", (Substitution(d, k, (1,) * d), 0)


def outcome(algebra, name, args) -> dict:
    try:
        value = getattr(algebra, name)(*args)
    except RelAlgError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    return {"ok": value}


def golden_outcomes() -> list[dict]:
    return [{"fragment": frag, "algebra": kind, "op": name,
             "args": [str(a) if isinstance(a, Substitution) else a for a in args],
             **outcome(algebra, name, args)}
            for frag in FRAGMENTS
            for kind, algebra in algebras(parse_fragment(frag))
            for name, args in calls()]


def test_operation_guards_match_golden():
    expected = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    actual = [json.loads(json.dumps(record, sort_keys=True)) for record in golden_outcomes()]
    assert len(actual) == len(expected) == 1040
    for got, want in zip(actual, expected):
        assert got == want, (want["fragment"], want["algebra"], want["op"], want["args"])
    assert Counter(r.get("error", "ok") for r in expected) == {
        "ok": 330, "InsufficientSortsError": 410, "FragmentError": 240, "ArityError": 60}


if __name__ == "__main__":
    for record in golden_outcomes():
        print(json.dumps(record, sort_keys=True))
