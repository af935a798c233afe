"""Golden reports of the schema checker on table algebras that break the laws.

Each algebra is the table presentation of concrete(Universe(k), fo+eq, 2),
k in {1, 2}, with one table entry moved to the next element of its sort.
Every report of check_fragment, under one exhaustive and one sampled Bounds,
is pinned, one line per report, in axiom_reports_golden.jsonl: mode,
parameterization and instance counts, and each violation's label, params,
slot values and detail.  On
algebras that break the laws, two equivalent ways of writing a schema can
disagree, so these reports pin the exact operation sequence of each schema,
which equation names a violation, and the sampled instance stream.

A second golden, axiom_sampled_golden.jsonl, pins sampled reports whose
draws span several evaluator batches (10,000 samples per clause) on sorts whose
sizes are not powers of two: the pe-theory gallery algebra (sorts of 2, 10
and 706 elements) and the |W|=2 table with a broken sort-1 meet.

A third, axiom_exhaustive_golden.jsonl, pins the pe-theory gallery algebra's
reports at the default exhaustive cap, where every clause of (2)-(4) and
(7)-(10), and the small shapes of (0), run exhaustively over its 706-element
sort 2.

Regenerate (only when a report is meant to change) with:

    PYTHONPATH=src python tests/test_axioms_golden.py > tests/axiom_reports_golden.jsonl
    PYTHONPATH=src python tests/test_axioms_golden.py sampled > tests/axiom_sampled_golden.jsonl
    PYTHONPATH=src python tests/test_axioms_golden.py exhaustive > tests/axiom_exhaustive_golden.jsonl
"""

import json
import sys
from pathlib import Path

from relalg import (
    Bounds,
    TableAlgebra,
    Universe,
    as_table_algebra,
    check_fragment,
    concrete,
    gallery_pe_theory,
)
from relalg.fragments import FO

GOLDEN = Path(__file__).with_name("axiom_reports_golden.jsonl")
SAMPLED_GOLDEN = Path(__file__).with_name("axiom_sampled_golden.jsonl")
EXHAUSTIVE_GOLDEN = Path(__file__).with_name("axiom_exhaustive_golden.jsonl")

# (name, the table row holding the entry, entry index, sort of the entry)
CORRUPTIONS = [
    ("meet sort 0", lambda d: d["sorts"][0]["meet"][0], 1, 0),
    ("meet sort 1", lambda d: d["sorts"][1]["meet"][0], 1, 1),
    ("join sort 2", lambda d: d["sorts"][2]["join"][1], 0, 2),
    ("neg sort 1", lambda d: d["sorts"][1]["neg"], 1, 1),
    ("subst 1->2:[2]", lambda d: d["subst"]["1->2:[2]"], 1, 2),
    ("subst 2->1:[1,1]", lambda d: d["subst"]["2->1:[1,1]"], 2, 1),
    ("identity 1->1:[1]", lambda d: d["subst"]["1->1:[1]"], 1, 1),
    ("exists onto 1", lambda d: d["exists"]["1"], 3, 1),
    ("exists onto 0", lambda d: d["exists"]["0"], 1, 0),
    ("delta 2:1,2", lambda d: d["delta"], "2:1,2", 2),
    ("delta 1:1,1", lambda d: d["delta"], "1:1,1", 1),
]

BOUNDS = {
    "exhaustive": Bounds(max_sort=2),
    "sampled": Bounds(max_sort=2, exhaustive_cap=64, samples=50, seed=7),
}
SAMPLED_BOUNDS = {"sampled 10k": Bounds(max_sort=2, exhaustive_cap=64, samples=10_000, seed=7)}
EXHAUSTIVE_BOUNDS = {"default cap": Bounds(max_sort=2, samples=10_000, seed=7)}


def broken_algebras():
    for k in (1, 2):
        base = as_table_algebra(concrete(Universe(k), FO.with_equality(), 2)).to_json()
        sizes = [s["size"] for s in json.loads(base)["sorts"]]
        for name, row_of, idx, sort in CORRUPTIONS:
            data = json.loads(base)
            row = row_of(data)
            if isinstance(idx, int):
                idx %= len(row)
            row[idx] = (row[idx] + 1) % sizes[sort]
            yield f"|W|={k} {name}", TableAlgebra.from_json(json.dumps(data))


def sampled_algebras():
    yield "pe-theory gallery", gallery_pe_theory()[0]
    yield next((name, alg) for name, alg in broken_algebras() if name == "|W|=2 meet sort 1")


def golden_reports(algebras=broken_algebras, bounds_set=BOUNDS) -> list[dict]:
    return [
        {
            "algebra": name,
            "bounds": bounds_name,
            "axiom": r.axiom,
            "mode": r.mode,
            "params": r.params_checked,
            "instances": r.instances_checked,
            "violations": [[v.label, v.params, list(v.slot_values), v.detail]
                           for v in r.violations],
        }
        for name, algebra in algebras()
        for bounds_name, bounds in bounds_set.items()
        for r in check_fragment(algebra, bounds)
    ]


def sampled_golden_reports() -> list[dict]:
    return golden_reports(sampled_algebras, SAMPLED_BOUNDS)


def exhaustive_golden_reports() -> list[dict]:
    return golden_reports(lambda: [("pe-theory gallery", gallery_pe_theory()[0])],
                          EXHAUSTIVE_BOUNDS)


def assert_matches(golden: Path, actual: list[dict]) -> list[dict]:
    expected = [json.loads(line) for line in golden.read_text().splitlines()]
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got == want, (got["algebra"], got["bounds"], got["axiom"])
    return expected


def test_broken_table_reports_match_golden():
    expected = assert_matches(GOLDEN, golden_reports())
    assert {r["axiom"] for r in expected if r["violations"]} == set(range(14))


def test_sampled_reports_across_batches_match_golden():
    expected = assert_matches(SAMPLED_GOLDEN, sampled_golden_reports())
    assert all(r["mode"].startswith("sampled") for r in expected if r["axiom"] in (0, 1, 2))
    assert {r["algebra"] for r in expected if r["violations"]} == {
        "pe-theory gallery", "|W|=2 meet sort 1"}


def test_pe_theory_reports_at_the_default_cap_match_golden():
    expected = assert_matches(EXHAUSTIVE_GOLDEN, exhaustive_golden_reports())
    assert [r["axiom"] for r in expected] == [0, 1, 2, 3, 4, 7, 8, 9, 10]
    assert [r["axiom"] for r in expected if r["mode"] == "exhaustive"] == [2, 3, 4, 7, 8, 9, 10]
    assert [r["axiom"] for r in expected if r["violations"]] == [0]


if __name__ == "__main__":
    kinds = {"sampled": sampled_golden_reports, "exhaustive": exhaustive_golden_reports}
    reports = kinds[sys.argv[1]]() if sys.argv[1:] else golden_reports()
    for report in reports:
        print(json.dumps(report, sort_keys=True))
