import json

import pytest

from relalg import (
    Bounds,
    FragmentError,
    Substitution,
    TableAlgebra,
    Universe,
    applicable_axioms,
    as_table_algebra,
    check_axiom,
    check_fragment,
    concrete,
    generated_subalgebra,
    replay_instance,
)
from relalg.fragments import FO, PE, PQF, QF, parse_fragment


B2 = Bounds(max_sort=2, seed=11, samples=2000)


def test_applicability_map():
    assert applicable_axioms(PQF) == [0, 1, 2, 3, 4]
    assert applicable_axioms(QF) == [0, 1, 2, 3, 4, 5, 6]
    assert applicable_axioms(PE) == [0, 1, 2, 3, 4, 7, 8, 9, 10]
    assert applicable_axioms(FO) == list(range(11))
    assert applicable_axioms(FO.with_equality()) == list(range(14))
    assert applicable_axioms(parse_fragment("pqf+eq")) == [0, 1, 2, 3, 4, 11, 12, 13]


def test_inapplicable_axiom_rejected():
    alg = concrete(Universe(2), PQF, 2)
    with pytest.raises(FragmentError) as exc:
        check_axiom(alg, 5, B2)
    assert "pqf" in str(exc.value)


def test_concrete_passes_each_fragment_small():
    for size in (0, 1, 2):
        for frag in (PQF, QF, PE, FO, FO.with_equality()):
            alg = concrete(Universe(size), frag, 2)
            for report in check_fragment(alg, B2):
                assert report.ok, (size, str(frag), report.axiom, report.violations)


def test_axiom_zero_labeled_non_horn():
    alg = concrete(Universe(2), PQF, 2)
    report = check_axiom(alg, 0, B2)
    assert "non-Horn" in report.note


def test_diamond_fails_exactly_axiom_zero(diamond):
    alg, _ = diamond
    reports = check_fragment(alg, B2)
    failing = [r.axiom for r in reports if not r.ok]
    assert failing == [0]


def test_diamond_gallery_instance(diamond):
    alg, report = diamond
    assert [v.axiom for v in report.violations] == [0]
    inst = report.violations[0]
    assert inst.params == {"shape": [1, 1]}
    a, b, zero = 1, 2, alg.zero(1)
    assert inst.slot_values == (a, b, b, zero)
    assert replay_instance(alg, inst, B2)
    # the meet of the two cylinders is the bottom of sort 2
    from relalg.relations import partitioning

    c1, c2 = partitioning(1, 1)
    assert alg.meet(2, alg.subst(c1, a), alg.subst(c2, b)) == alg.zero(2)
    assert not alg.leq(1, a, b)  # b is not above a
    assert not alg.leq(1, b, zero)  # 0 is not above b


def test_diamond_sort_sizes(diamond):
    alg, _ = diamond
    assert all(alg.sort_size(n) == 4 for n in range(3))


def test_pe_theory_gallery(pe_theory):
    alg, report = pe_theory
    assert alg.sort_size(0) == 2
    inst = report.violations[0]
    assert inst.params == {"shape": [1, 1]}
    assert replay_instance(alg, inst, B2)
    i_a, i_b, i_r, _ = inst.slot_values
    assert not alg.leq(1, i_a, i_r)
    assert not alg.leq(1, i_b, i_r)
    from relalg.relations import partitioning

    c1, c2 = partitioning(1, 1)
    lhs = alg.meet(2, alg.subst(c1, i_a), alg.subst(c2, i_b))
    rhs = alg.join(2, alg.subst(c1, i_r), alg.subst(c2, i_r))
    assert alg.leq(2, lhs, rhs)


def test_pe_theory_passes_equational_axioms(pe_theory):
    alg, _ = pe_theory
    reports = check_fragment(alg, Bounds(max_sort=2, seed=3, samples=2000))
    failing = [r.axiom for r in reports if not r.ok]
    assert failing == [0]
    passed = [r.axiom for r in reports if r.ok]
    assert set(passed) == {1, 2, 3, 4, 7, 8, 9, 10}


def test_corrupted_meet_table_fails_axiom_one():
    base = as_table_algebra(concrete(Universe(1), PQF, 1))
    data = json.loads(base.to_json())
    data["sorts"][1]["meet"][0][1] = 1  # meet(0,1) should be 0
    broken = TableAlgebra.from_json(json.dumps(data))
    report = check_axiom(broken, 1, Bounds(max_sort=1))
    assert not report.ok
    inst = report.violations[0]
    assert replay_instance(broken, inst, Bounds(max_sort=1))


def test_degenerate_sort0_fails_axiom_zero_empty_family():
    # one-element sort 0 means 0 = 1, which the empty block family forbids
    ident = Substitution(0, 0, ())
    degenerate = TableAlgebra(PQF, 0, [1], {("zero", 0): 0, ("one", 0): 0, ("meet", 0): [[0]],
                                            ("join", 0): [[0]], ("subst", ident): [0]})
    report = check_axiom(degenerate, 0, Bounds(max_sort=0))
    assert not report.ok
    assert report.violations[0].params == {"shape": []}


def test_axiom_four_redundancy_spot_check():
    # wherever (0), (1), (3) pass, (4) passes as well
    candidates = [
        concrete(Universe(2), PQF, 2),
        concrete(Universe(1), QF, 2),
        generated_subalgebra(concrete(Universe(2), PQF, 2), [(1, 0b01)]),
    ]
    for alg in candidates:
        if all(check_axiom(alg, ax, B2).ok for ax in (0, 1, 3)):
            assert check_axiom(alg, 4, B2).ok


def test_sort0_two_elements_when_core_axioms_hold():
    for size in (0, 1, 2):
        alg = concrete(Universe(size), PQF, 2)
        assert all(check_axiom(alg, ax, B2).ok for ax in (0, 1, 3))
        assert alg.sort_size(0) == 2


def test_reports_are_deterministic():
    alg = concrete(Universe(2), PQF, 2)
    bounds = Bounds(max_sort=2, seed=99, samples=500, exhaustive_cap=100)
    first = check_fragment(alg, bounds)
    second = check_fragment(alg, bounds)
    assert first == second
    assert any("sampled" in r.mode for r in first)


def test_sampled_mode_reports_seed_and_count():
    alg = concrete(Universe(2), PQF, 2)
    bounds = Bounds(max_sort=2, seed=42, samples=250, exhaustive_cap=10)
    report = check_axiom(alg, 1, bounds)
    assert report.mode == "sampled(seed=42,count=250)"
    assert report.seed == 42


def test_violation_replay_on_sampled_run():
    base = as_table_algebra(concrete(Universe(2), PQF, 2))
    data = json.loads(base.to_json())
    data["sorts"][2]["join"][3][5] = 0  # corrupt one join entry
    broken = TableAlgebra.from_json(json.dumps(data))
    bounds = Bounds(max_sort=2, seed=5, samples=4000, exhaustive_cap=100)
    report = check_axiom(broken, 1, bounds)
    assert not report.ok
    for inst in report.violations:
        assert replay_instance(broken, inst, bounds)


def test_violation_cap_limits_collection():
    ident = Substitution(0, 0, ())
    degenerate = TableAlgebra(PQF, 0, [1], {("zero", 0): 0, ("one", 0): 0, ("meet", 0): [[0]],
                                            ("join", 0): [[0]], ("subst", ident): [0]})
    report = check_axiom(degenerate, 0, Bounds(max_sort=0, violation_cap=2))
    assert len(report.violations) <= 2
