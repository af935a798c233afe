"""Golden closure of the pe-theory gallery algebra.

gallery_pe_theory() closes R, A, B inside a product of two concrete
positive-existential algebras over three points, to sorts of 2, 10 and 706
elements.  Every element's parent value (its local index is its rank) and the
first witnessing term the breadth-first closure finds for it are pinned, one
line per element, in pe_closure_golden.jsonl.  The witness terms depend on
the order in which the closure adds elements, so this pins that order.

Regenerate (only when the closure is meant to change) with:

    PYTHONPATH=src python tests/test_closure_golden.py > tests/pe_closure_golden.jsonl
"""

import json
from pathlib import Path

import pytest

from relalg import Bounds, check_axiom, gallery_pe_theory

GOLDEN = Path(__file__).with_name("pe_closure_golden.jsonl")


def closure_records():
    alg, _ = gallery_pe_theory()
    for n in range(alg.max_sort + 1):
        for a in alg.elements(n):
            yield {"sort": n, "index": a, "to_parent": alg.to_parent(n, a),
                   "witness": alg.witness_term(n, a)}


def test_pe_theory_closure_matches_golden():
    got = [json.dumps(r, sort_keys=True) for r in closure_records()]
    assert got == GOLDEN.read_text().splitlines()


def test_batched_op_names_first_value_outside_the_closure():
    alg, _ = gallery_pe_theory()
    n = 2
    xs = list(alg.elements(n))
    ys = [alg.one(n)] * len(xs)  # meet with top: the row is xs itself, in parent values
    missing = [alg.to_parent(n, xs[5]), alg.to_parent(n, xs[9])]
    saved = {v: alg._from_parent[n].pop(v) for v in missing}
    try:
        with pytest.raises(AssertionError) as info:
            alg.meet_all(n, xs, ys)
        assert str(info.value) == f"closure not closed: sort {n} value {missing[0]}"
    finally:
        alg._from_parent[n].update(saved)
    assert alg.meet_all(n, xs, ys) == xs


def test_violation_names_its_first_element_outside_the_closure():
    """check_axiom evaluates the gallery algebra in its parent's planes and
    maps only a violation's elements back, through the same closure check."""
    alg, _ = gallery_pe_theory()
    bounds = Bounds(max_sort=2, samples=1000)
    first = check_axiom(alg, 0, bounds).violations[0]
    n = first.params["shape"][0]  # the sort of slot r1
    value = alg.to_parent(n, first.slot_values[0])
    saved = alg._from_parent[n].pop(value)
    try:
        with pytest.raises(AssertionError) as info:
            check_axiom(alg, 0, bounds)
        assert str(info.value) == f"closure not closed: sort {n} value {value}"
    finally:
        alg._from_parent[n][value] = saved
    assert check_axiom(alg, 0, bounds).violations[0] == first


if __name__ == "__main__":
    for record in closure_records():
        print(json.dumps(record, sort_keys=True))
