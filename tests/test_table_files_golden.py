"""Golden outcomes of reading mutated table files.

Two table files are mutated: the to_json() text of the table forms of
concrete(Universe(1), QF, 1) and concrete(Universe(2), FO+eq, 2).  Each table
in a file (every meet, join, zero, one and negation table of every sort, every
substitution, projection and diagonal entry) is in turn deleted, has one entry
set to 99, true or "0", has a short first row, and has its first row replaced
by a number; a constant, which has no rows, is wrapped in a list instead.  On
top of that come substitution keys outside the sort bounds or malformed,
negation, projection and diagonal tables on fragments without them or at
indices outside the signature, and sizes "two", 0 and -1.

One record per case is pinned in table_files_golden.jsonl: the sha256 of
to_json() of the file read back, or the class of the exception that refused
it.  These pin today's quirks as well as the verdicts: a negation table on a
fragment without negation is dropped, and projection and diagonal entries
outside the signature are kept, unchecked, and written back by to_json().

Regenerate (only when an outcome is meant to change) with:

    PYTHONPATH=src python tests/test_table_files_golden.py > tests/table_files_golden.jsonl
"""

import hashlib
import json
from pathlib import Path

from relalg import TableAlgebra, Universe, as_table_algebra, concrete
from relalg.fragments import FO, QF

GOLDEN = Path(__file__).with_name("table_files_golden.jsonl")

ENTRIES = (99, True, "0")


def bases():
    yield "concrete(1) qf sort 1", as_table_algebra(concrete(Universe(1), QF, 1)).to_json()
    yield ("concrete(2) fo+eq sort 2",
           as_table_algebra(concrete(Universe(2), FO.with_equality(), 2)).to_json())


def tables(data):
    """(label, path) of every table in a file: the table is data at path."""
    for n, entry in enumerate(data["sorts"]):
        for kind in ("meet", "join", "zero", "one", "neg"):
            if kind in entry:
                yield f"sorts[{n}].{kind}", ("sorts", n, kind)
    for section in ("subst", "exists", "delta"):
        for key in data.get(section, {}):
            yield f"{section}[{key}]", (section, key)


def table_mutations(table):
    """(label, function from the table to its replacement, or None to delete it)."""
    yield "deleted", None
    for value in ENTRIES:
        if not isinstance(table, list):
            yield f"set to {json.dumps(value)}", lambda t, v=value: v
        elif isinstance(table[0], list):
            yield f"entry [0][0] set to {json.dumps(value)}", \
                lambda t, v=value: [[v] + t[0][1:]] + t[1:]
        else:
            yield f"entry [0] set to {json.dumps(value)}", lambda t, v=value: [v] + t[1:]
    if not isinstance(table, list):
        yield "wrapped in a list", lambda t: [t]
    elif isinstance(table[0], list):
        yield "short row", lambda t: [t[0][:-1]] + t[1:]
        yield "row replaced by a number", lambda t: [0] + t[1:]
    else:
        yield "short row", lambda t: t[:-1]
        yield "row replaced by a number", lambda t: 0


def at(data, path):
    for step in path[:-1]:
        data = data[step]
    return data, path[-1]


def file_mutations(data):
    """(label, function mutating the parsed file in place) for whole-file cases."""

    def put(section, key, value):
        return lambda d: d.setdefault(section, {}).__setitem__(key, value)

    def fragment(name):
        return lambda d: d.__setitem__("fragment", name)

    def size(value):
        return lambda d: d["sorts"][0].__setitem__("size", value)

    top = data["max_sort"]
    yield "subst section deleted", lambda d: d.pop("subst")
    yield "subst 5->5:[1,1,1,1,1] added", put("subst", "5->5:[1,1,1,1,1]", [0, 1])
    yield f"subst 0->{top + 1}:[] added", put("subst", f"0->{top + 1}:[]", [0, 1])
    yield "subst 1->1:[2] added", put("subst", "1->1:[2]", [0, 1])
    yield "subst key 'bad' added", put("subst", "bad", [0, 1])
    yield "fragment pqf", fragment("pqf")
    yield "fragment pe", fragment("pe")
    yield "exists[0] = [0, 1] added", put("exists", "0", [0, 1])
    yield "exists[0] = [99] added", put("exists", "0", [99])
    yield f"exists[{top + 5}] = [0] added", put("exists", str(top + 5), [0])
    yield "exists key 'x' added", put("exists", "x", [0])
    yield "delta[1:1,1] = 1 added", put("delta", "1:1,1", 1)
    yield "delta[1:2,2] = 0 added", put("delta", "1:2,2", 0)
    yield f"delta[{top + 3}:1,1] = 99 added", put("delta", f"{top + 3}:1,1", 99)
    yield "delta key '1-1-1' added", put("delta", "1-1-1", 0)
    for value in ("two", 0, -1):
        yield f"sorts[0].size = {json.dumps(value)}", size(value)


def cases():
    """(base, mutation, file text)."""
    for name, text in bases():
        yield name, "none", text
        data = json.loads(text)
        for label, path in tables(data):
            parent, key = at(data, path)
            for mutation, change in table_mutations(parent[key]):
                mutated = json.loads(text)
                parent, key = at(mutated, path)
                if change is None:
                    del parent[key]
                else:
                    parent[key] = change(parent[key])
                yield name, f"{label} {mutation}", json.dumps(mutated)
        for mutation, change in file_mutations(data):
            mutated = json.loads(text)
            change(mutated)
            yield name, mutation, json.dumps(mutated)


def outcome(text: str) -> dict:
    try:
        algebra = TableAlgebra.from_json(text)
    except Exception as exc:  # the class is the outcome
        return {"rejected": type(exc).__name__}
    return {"accepted": hashlib.sha256(algebra.to_json().encode()).hexdigest()}


def golden_outcomes() -> list[dict]:
    return [{"base": base, "mutation": mutation, **outcome(text)}
            for base, mutation, text in cases()]


def test_table_file_outcomes_match_golden():
    expected = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    actual = golden_outcomes()
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got == want, (got["base"], got["mutation"])
    assert {"accepted", "rejected"} <= {key for r in expected for key in r}


if __name__ == "__main__":
    for record in golden_outcomes():
        print(json.dumps(record, sort_keys=True))
