"""Golden clause lists of the axiom schemas (0)-(13).

For every axiom and every max sort 0-3, clauses_golden.jsonl pins the number
of clauses the schema yields and a sha256 over all of them, in order: each
clause's params (JSON), slot names and sorts, and each equation's label,
detail and printed sides, the premise's too.  On tables that break the laws,
equivalent terms can disagree, so this pins every clause, its order, its
params and the shape of each term; how a schema builds or shares its
subterms is left free.

Regenerate (only when a schema is meant to change) with:

    PYTHONPATH=src python tests/test_clauses_golden.py > tests/clauses_golden.jsonl
"""

import hashlib
import json
from pathlib import Path

from relalg import Bounds, Universe, concrete
from relalg.axioms import _clauses
from relalg.formulas import print_term
from relalg.fragments import FO

GOLDEN = Path(__file__).with_name("clauses_golden.jsonl")
MAX_SORT = 3


def _equation(eq) -> list:
    label, detail, lhs, rhs = eq
    return [label, detail, print_term(lhs), print_term(rhs)]


def clause_records():
    algebra = concrete(Universe(1), FO.with_equality(), MAX_SORT)
    for axiom in range(14):
        for max_sort in range(MAX_SORT + 1):
            digest, clauses = hashlib.sha256(), 0
            for clause in _clauses(algebra, axiom, Bounds(max_sort=max_sort)):
                clauses += 1
                record = [clause.params, [[s.name, s.sort] for s in clause.slots],
                          [_equation(eq) for eq in clause.equations],
                          None if clause.premise is None else _equation(clause.premise)]
                digest.update(json.dumps(record, sort_keys=True).encode() + b"\n")
            yield {"axiom": axiom, "max_sort": max_sort, "clauses": clauses,
                   "sha256": digest.hexdigest()}


def test_clauses_match_golden():
    got = [json.dumps(r, sort_keys=True) for r in clause_records()]
    assert got == GOLDEN.read_text().splitlines()


if __name__ == "__main__":
    for record in clause_records():
        print(json.dumps(record, sort_keys=True))
