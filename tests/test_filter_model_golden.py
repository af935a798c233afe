"""Golden outcomes of filter_to_morphism on substitution tables that merge
positions ambiguously.

The base is the table form of concrete(Universe(2), pqf+eq, 2).  Each entry
of each 1->2 substitution table is moved in turn by +1, +2 and +3 modulo the
size of sort 2, and the model of every sort-2 prime filter of the result is
read off.  The outcome is pinned, one line per case, in
filter_model_outcomes_golden.jsonl: "ok", or the exception's type and
message, with the witnessing pair of an IllDefinedMapError.  A filter that
merges the two positions sends both 1->2 maps to one pattern, so a moved
entry either makes the sort-1 map ambiguous or leaves a map that fails
verification.

Regenerate (only when an outcome is meant to change) with:

    PYTHONPATH=src python tests/test_filter_model_golden.py > tests/filter_model_outcomes_golden.jsonl
"""

import json
from pathlib import Path

from relalg import IllDefinedMapError, TableAlgebra, Universe, as_table_algebra, concrete
from relalg.filters import prime_filters, sort_lattice
from relalg.fragments import PQF
from relalg.representation import filter_to_morphism

GOLDEN = Path(__file__).with_name("filter_model_outcomes_golden.jsonl")


def cases():
    base = as_table_algebra(concrete(Universe(2), PQF.with_equality(), 2)).to_json()
    size = json.loads(base)["sorts"][2]["size"]
    for key in ("1->2:[1]", "1->2:[2]"):
        for entry in range(len(json.loads(base)["subst"][key])):
            for shift in (1, 2, 3):
                data = json.loads(base)
                table = data["subst"][key]
                table[entry] = (table[entry] + shift) % size
                yield key, entry, shift, TableAlgebra.from_json(json.dumps(data))


def outcome(algebra, filt) -> dict:
    try:
        filter_to_morphism(algebra, filt)
    except IllDefinedMapError as exc:
        return {"error": type(exc).__name__, "message": str(exc),
                "alpha": str(exc.alpha), "beta": str(exc.beta)}
    except AssertionError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    return {"ok": True}


def golden_outcomes() -> list[dict]:
    return [{"subst": key, "entry": entry, "shift": shift, "generator": pf.generator,
             **outcome(algebra, pf)}
            for key, entry, shift, algebra in cases()
            for pf in prime_filters(sort_lattice(algebra, 2))]


def test_filter_model_outcomes_match_golden():
    expected = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    actual = [json.loads(json.dumps(record, sort_keys=True)) for record in golden_outcomes()]
    assert len(actual) == len(expected) == 96
    for got, want in zip(actual, expected):
        assert got == want, (want["subst"], want["entry"], want["shift"], want["generator"])
    assert expected[0] == {"subst": "1->2:[1]", "entry": 0, "shift": 1, "generator": 1,
                           "error": "IllDefinedMapError",
                           "message": "merged positions make the sort-1 map ambiguous",
                           "alpha": "[1]:1->2", "beta": "[2]:1->2"}
    assert any("ok" in r for r in expected)


if __name__ == "__main__":
    for record in golden_outcomes():
        print(json.dumps(record, sort_keys=True))
