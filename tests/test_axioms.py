import json
from itertools import islice, product as iproduct
from math import prod
from random import Random

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from relalg import (
    Bounds,
    FragmentError,
    PreconditionError,
    SchemaInstance,
    Substitution,
    TableAlgebra,
    Universe,
    applicable_axioms,
    as_table_algebra,
    check_axiom,
    check_fragment,
    concrete,
    generated_subalgebra,
    product,
    replay_instance,
)
from relalg.axioms import (BATCH, PATTERN, SHORT_RUN, CheckReport, _batches, _clauses,
                           _exhaustive_batches, _failures, _row_planes, _sampled_batches,
                           _sampled_planes)
from relalg.fragments import FO, PE, PQF, QF, parse_fragment
from relalg.relations import _transpose


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


@pytest.mark.parametrize("field, value, least", [("max_sort", -1, 0), ("samples", 0, 1),
                                                 ("violation_cap", 0, 1)])
def test_vacuous_bounds_rejected(field, value, least, diamond):
    with pytest.raises(PreconditionError, match=f"{field} must be >= {least}, got {value}"):
        check_axiom(diamond[0], 0, Bounds(**{"max_sort": 2, field: value}))


def test_violation_cap_limits_collection():
    ident = Substitution(0, 0, ())
    degenerate = TableAlgebra(PQF, 0, [1], {("zero", 0): 0, ("one", 0): 0, ("meet", 0): [[0]],
                                            ("join", 0): [[0]], ("subst", ident): [0]})
    report = check_axiom(degenerate, 0, Bounds(max_sort=0, violation_cap=2))
    assert len(report.violations) <= 2


# Odd and table-sized sorts; every power of two up to 2**16, whose draws take
# one bit more than its values need, so about half are drawn again; and sizes
# of one (2**32 - 1), two (2**32) and three (2**64 + 1) 32-bit words.
DRAW_SIZES = [1, 2, 3, 5, 7, 10, 706, *(2**e for e in range(1, 17)),
              2**32 - 1, 2**32, 2**64 + 1]


@pytest.mark.parametrize("count", [1, BATCH, BATCH + 1, 10_000])
def test_sampled_draws_are_the_randrange_stream(count):
    """The sampler's columns read, row by row, as Random(seed).randrange(n)
    slot by slot, and leave the generator where randrange leaves it.  Two
    clauses in a row share one generator, as in check_axiom."""
    rng, ref = Random(2024), Random(2024)
    for sizes in (DRAW_SIZES, [706, 1, 2**32, 10]):
        batches = list(_sampled_batches(sizes, count, rng))
        assert [size for _, size in batches] == [min(BATCH, count - start)
                                                 for start in range(0, count, BATCH)]
        assert all(len(col) == size for cols, size in batches for col in cols)
        rows = [row for cols, _ in batches for row in zip(*cols)]
        assert rows == [tuple(ref.randrange(n) for n in sizes) for _ in range(count)]
        assert rng.getstate() == ref.getstate()
    slot_free = list(_sampled_batches([], count, rng))  # rows without slots draw nothing
    assert sum(size for _, size in slot_free) == count and all(cols == [] for cols, _ in slot_free)
    assert rng.getstate() == ref.getstate()


# size 1 and each size on either side of a 7-bit lane boundary, up to 2**31
PLANE_SIZES = [1, 2, 2**6, 2**7, 2**8, 2**14, 2**15, 2**21, 2**22, 2**28, 2**29, 2**31]


@pytest.mark.parametrize("count", [1, BATCH, BATCH + 1, 10_000])
def test_sampled_planes_are_the_transposed_columns(count):
    """The concrete sampler's planes are _transpose of the sampler's
    columns, batch by batch, and leave the generator where the columns
    leave it: for each size alone, for all of them in one clause, and for
    the sweep's sampled axiom (0) shape.  The clauses in a row share one
    generator, as in check_axiom."""
    rng, ref = Random(2024), Random(2024)
    for sizes in (*([n] for n in PLANE_SIZES), PLANE_SIZES, [2, 2, 256, 2, 2, 256]):
        widths = [n.bit_length() - 1 for n in sizes]
        planes = list(_sampled_planes(widths, count, rng))
        assert planes == [([_transpose(col, w) for col, w in zip(cols, widths)], size)
                          for cols, size in _sampled_batches(sizes, count, ref)], sizes
        assert rng.getstate() == ref.getstate(), sizes
    slot_free = list(_sampled_planes([], count, rng))  # rows without slots draw nothing
    assert sum(size for _, size in slot_free) == count and all(p == [] for p, _ in slot_free)
    assert rng.getstate() == ref.getstate()


def test_wide_concrete_sort_is_sampled_as_transposed_columns():
    """A concrete sort of 2**32 elements is past the planes sampler's 31
    bits, so its draws come as columns and are transposed; the sorts below
    it run exhaustively on planes read off the row index."""
    algebra = concrete(Universe(2), QF, 5, element_cap=2**33)
    bounds = Bounds(max_sort=5, samples=300, seed=1)
    for axiom in (4, 6):
        report = check_axiom(algebra, axiom, bounds)
        assert report.ok
        assert report.mode == "sampled(seed=1,count=300)"
        assert (report.params_checked, report.instances_checked) == (6, 65_814 + 300)
    (values, planes), = _batches(algebra, (5,), bounds, Random(1))
    (columns, size), = _sampled_batches([2**32], 300, Random(1))
    assert (values.size, planes) == (size, [_transpose(columns[0], 32)])


def _reference_batches(sizes):
    rows = iproduct(*[range(n) for n in sizes])
    while batch := list(islice(rows, BATCH)):
        yield [list(col) for col in zip(*batch)], len(batch)


EXHAUSTIVE_SIZES = [[], [1], [3], [4096], [4097], [706, 706], [2, 256, 2, 256], [2, 70000, 2],
                    [5, 7, 11, 13]]


@pytest.mark.parametrize("sizes", EXHAUSTIVE_SIZES)
def test_exhaustive_batches_are_the_transposed_product(sizes):
    """Batch by batch, the exhaustive columns and sizes equal the row tuples
    of itertools.product, in lexicographic order, cut every BATCH rows and
    transposed."""
    got = _exhaustive_batches(sizes)
    for want in _reference_batches(sizes):
        assert next(got) == want
    assert next(got, None) is None


@seed(20261018)
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 130), st.one_of(st.just(1), st.integers(2, BATCH)), st.integers(0, 2**32))
def test_transpose_matches_per_element_bits(width, size, draw_seed):
    """Plane p of a column has bit r set exactly where the column's value in
    row r has bit p: row 0 is the lowest bit, not the highest."""
    rng = Random(draw_seed)
    top = (1 << width) - 1
    column = [rng.choice((0, top, rng.getrandbits(width))) for _ in range(size)]
    want = [sum((v >> p & 1) << r for r, v in enumerate(column)) for p in range(width)]
    assert _transpose(column, width) == want


@pytest.mark.parametrize("first", range(3))
@pytest.mark.parametrize("size", [1, 2, 4096])
@pytest.mark.parametrize("width", [1, 7, 8, 9, 16, 17, 32, 33, 64, 65])
def test_transpose_at_every_lane_boundary(width, size, first):
    """Every lane branch on every run: one-byte lanes, 4- and 8-byte array
    items and to_bytes, on a column of 0, the top value and random values,
    starting with the one `first` names, passed as a list and as a tuple."""
    rng = Random(width * 10_000 + size * 3 + first)
    top = (1 << width) - 1
    column = [(0, top, rng.getrandbits(width))[(r + first) % 3] for r in range(size)]
    want = [sum((v >> p & 1) << r for r, v in enumerate(column)) for p in range(width)]
    assert _transpose(column, width) == want
    assert _transpose(tuple(column), width) == want


@pytest.mark.parametrize("sizes", EXHAUSTIVE_SIZES)
def test_row_planes_are_the_transposed_exhaustive_columns(sizes):
    """Concrete sorts have 2**w elements: with each size rounded up to a
    power of two, the planes read off the row index are, batch by batch, the
    transposed exhaustive columns."""
    sizes = [1 << (n - 1).bit_length() for n in sizes]
    widths = [n.bit_length() - 1 for n in sizes]
    got = _row_planes(None, widths, sizes)
    for columns, size in _exhaustive_batches(sizes):
        assert next(got) == ([_transpose(col, w) for col, w in zip(columns, widths)], size)
    assert next(got, None) is None


# (sizes, widths): periods within PATTERN, some sliced past their first copy
# (2049, 5000), runs of SHORT_RUN or more rows (706, 706), short runs of a
# period beyond PATTERN (270000 at stride 1, 5000 at stride 60); partial last
# batches, runs across batch boundaries, size-1 slots and width-0 sorts.
PARENT_CASES = [([], []), ([1], [0]), ([3], [2]), ([5, 2049], [3, 12]), ([3, 5000], [2, 13]),
                ([5, 7, 11, 13], [3, 18, 4, 70]), ([2, 10, 2, 10], [2, 6, 2, 6]),
                ([706, 706], [18, 18]), ([706, 1, 706], [18, 0, 18]), ([270000], [20]),
                ([5000, 60], [13, 6])]


@pytest.mark.parametrize("sizes, widths", PARENT_CASES)
def test_parent_row_planes_are_the_transposed_mapped_up_columns(sizes, widths):
    """Planes of parent values built once per clause or from runs are, batch
    by batch, the exhaustive columns mapped up and transposed."""
    rng = Random(len(sizes) * 1009 + sum(sizes))
    ups = [[rng.getrandbits(w) for _ in range(n)] for n, w in zip(sizes, widths)]
    got = _row_planes(ups, widths, sizes)
    for columns, size in _exhaustive_batches(sizes):
        want = [_transpose([up[v] for v in col], w) for up, col, w in zip(ups, columns, widths)]
        assert next(got) == (want, size)
    assert next(got, None) is None


def test_parent_cases_reach_every_branch():
    """Some slot of the cases above repeats within PATTERN, one has long runs
    and a period beyond it, and one has short runs and a period beyond it,
    at stride 1 and above."""
    slots = [(n, prod(sizes[j + 1:])) for sizes, _ in PARENT_CASES for j, n in enumerate(sizes)]
    assert any(n * stride <= PATTERN for n, stride in slots)
    assert any(n * stride > PATTERN and stride >= SHORT_RUN for n, stride in slots)
    assert {stride for n, stride in slots if n * stride > PATTERN and stride < SHORT_RUN} == {1, 60}


def _same_reports(algebra, axiom, bounds):
    """check_axiom on a concrete algebra or a subalgebra generated in one,
    through bit planes, and on its tables, through columns, report the same
    checks and violations."""
    planes = check_axiom(algebra, axiom, bounds)
    columns = check_axiom(as_table_algebra(algebra), axiom, bounds)
    assert (planes.mode, planes.params_checked, planes.instances_checked) == (
        columns.mode, columns.params_checked, columns.instances_checked)
    assert [(v.label, v.params, v.slot_values) for v in planes.violations] == [
        (v.label, v.params, v.slot_values) for v in columns.violations]
    return planes


FRAGMENTS = [PQF, QF, PE, FO, FO.with_equality(), parse_fragment("pqf+eq")]


def _draw_concrete(data, axiom):
    """A concrete algebra or product of one or two blocks, |W| <= 3 and at
    most 9 bits at the top sort, in a fragment the axiom applies to, and
    bounds."""
    frag = data.draw(st.sampled_from([f for f in FRAGMENTS if axiom in applicable_axioms(f)]))
    max_sort = data.draw(st.integers(0, 2))
    universes = data.draw(st.lists(st.sampled_from([0, 1, 2, 3]), min_size=1, max_size=2))
    assume(sum(u**max_sort for u in universes) <= 9)
    factors = [concrete(Universe(u), frag, max_sort) for u in universes]
    algebra = (factors[0] if len(factors) == 1 and data.draw(st.booleans())
               else product(factors))
    bounds = Bounds(max_sort=max_sort, exhaustive_cap=data.draw(st.sampled_from([0, 64, 10**6])),
                    samples=data.draw(st.sampled_from([1, 100, 1000])),
                    seed=data.draw(st.integers(0, 2**16)))
    return algebra, bounds


@seed(11)
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_planes_and_columns_give_the_same_reports(data):
    """Every axiom is drawn alike."""
    axiom = data.draw(st.integers(0, 13))
    algebra, bounds = _draw_concrete(data, axiom)
    _same_reports(algebra, axiom, bounds)


@seed(12)
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_parent_planes_and_columns_give_the_same_reports(data):
    """A subalgebra generated by one to three elements of a concrete algebra
    or product runs on the parent's planes and reports as its tables do, and
    its full reports, details included, are those of the same subalgebra
    generated in the parent's tables, which runs on its own columns.  Axiom
    (0), the one such a subalgebra can fail, is drawn half the time."""
    axiom = data.draw(st.one_of(st.just(0), st.integers(1, 13)))
    parent, bounds = _draw_concrete(data, axiom)
    rng = data.draw(st.randoms(use_true_random=False))
    sorts = [rng.randint(0, parent.max_sort) for _ in range(rng.randint(1, 3))]
    generators = [(n, rng.randrange(parent.sort_size(n))) for n in sorts]
    subalgebra = generated_subalgebra(parent, generators)
    planes = _same_reports(subalgebra, axiom, bounds)
    in_tables = generated_subalgebra(as_table_algebra(parent), generators)
    assert check_axiom(in_tables, axiom, bounds) == planes
    for instance in planes.violations:  # a batch of one, mapped up to the parent's planes
        assert replay_instance(subalgebra, instance, bounds)


@pytest.mark.parametrize("cap", [0, 10**6])
def test_pe_product_fails_axiom_zero_alike_through_planes_and_columns(cap):
    algebra = product([concrete(Universe(2), PE, 2), concrete(Universe(1), PE, 2)])
    report = _same_reports(algebra, 0, Bounds(max_sort=2, exhaustive_cap=cap, samples=3000,
                                              violation_cap=50))
    assert report.violations
    for instance in report.violations:
        assert replay_instance(algebra, instance, B2)


def _replay_algebras():
    base = concrete(Universe(2), PQF, 2)
    return {"concrete": base, "table": as_table_algebra(base),
            "generated": generated_subalgebra(base, [(1, 0b01)])}


@pytest.mark.parametrize("kind", ["concrete", "table", "generated"])
def test_replay_refuses_instances_that_do_not_fit(kind):
    algebra = _replay_algebras()[kind]
    with pytest.raises(FragmentError, match=r"axiom \(5\) is not applicable to fragment pqf"):
        replay_instance(algebra, SchemaInstance(5, "", {"alpha": [1, 1, [1]]}, (0,)), B2)
    bad = [
        (SchemaInstance(1, "", {"sort": 1}, (999, 0, 0)), "slot 1 .* got 999"),
        (SchemaInstance(1, "", {"sort": 1}, (0, 0, -1)), "slot 3 .* got -1"),
        (SchemaInstance(4, "", {"sort": 1}, (999,)), "slot 1 .* got 999"),
        (SchemaInstance(4, "", {"sort": 1}, (0, 1)), "has 1 slots, got 2 values"),
        (SchemaInstance(4, "", {"sort": 1}, ()), "has 1 slots, got 0 values"),
        (SchemaInstance(4, "", {"sort": 1}, (True,)), "slot 1 .* got True"),
        (SchemaInstance(4, "", {"sort": 1}, (10**5000,)), "slot 1 .* got a 16610-bit int"),
    ]
    for instance, message in bad:
        with pytest.raises(PreconditionError, match=message):
            replay_instance(algebra, instance, B2)
    # an instance that fits but holds does not reproduce; unknown params find no clause
    assert not replay_instance(algebra, SchemaInstance(1, "", {"sort": 1}, (1, 0, 1)), B2)
    assert not replay_instance(algebra, SchemaInstance(4, "", {"sort": 9}, (0,)), B2)


def _fresh_memo_report(algebra, axiom, bounds):
    """check_axiom's report, with each batch of each clause drawn anew and
    run with a fresh term_value memo: no value is shared between clauses."""
    rng = Random(bounds.seed)
    violations, instances, sampled = [], 0, False
    clauses = list(_clauses(algebra, axiom, bounds))
    for clause in clauses:
        sorts = [slot.sort for slot in clause.slots]
        sampled |= prod(map(algebra.sort_size, sorts)) > bounds.exhaustive_cap
        for values, slot_values in _batches(algebra, sorts, bounds, rng):
            instances += values.size
            for row, label, detail in _failures(values, clause, slot_values):
                if len(violations) < bounds.violation_cap:
                    elems = tuple(values.element(s, v, row) for s, v in zip(sorts, slot_values))
                    shown = ", ".join(map(algebra.element_label, sorts, elems))
                    if shown:
                        detail = f"{detail}; elements: [{shown}]" if detail else f"elements: [{shown}]"
                    violations.append(SchemaInstance(axiom, label, clause.params, elems, detail))
    mode = "exhaustive" if not sampled else f"sampled(seed={bounds.seed},count={bounds.samples})"
    note = "non-Horn schema: conclusion is a disjunction" if axiom == 0 else ""
    return CheckReport(axiom, str(algebra.fragment), mode, len(clauses), instances, violations,
                       bounds.seed, note)


@pytest.mark.parametrize("size", [0, 1, 2])
def test_shared_memo_reports_as_a_fresh_memo_per_clause(size):
    """Clauses on one shared batch with the same slots share one memo; the
    reports are those of a memo per clause."""
    algebra = concrete(Universe(size), FO.with_equality(), 3)
    bounds = Bounds(max_sort=3)
    for axiom in (3, 12, 13):
        assert check_axiom(algebra, axiom, bounds) == _fresh_memo_report(algebra, axiom, bounds)


def test_shared_memo_reports_violations_as_a_fresh_memo_per_clause():
    """Seeded one-entry mutations of substitution tables make grouped
    clauses fail; every violation, label, slot values and detail alike, is
    the one a fresh memo per clause finds."""
    base = json.loads(as_table_algebra(concrete(Universe(1), FO.with_equality(), 2)).to_json())
    rng, bounds, failing = Random(32), Bounds(max_sort=2, violation_cap=50), 0
    for _ in range(30):
        data = json.loads(json.dumps(base))
        table = data["subst"][rng.choice(sorted(data["subst"]))]
        table[rng.randrange(len(table))] ^= 1  # every sort has two elements
        algebra = TableAlgebra.from_json(json.dumps(data))
        for axiom in (2, 3, 5, 12, 13):
            report = check_axiom(algebra, axiom, bounds)
            assert report == _fresh_memo_report(algebra, axiom, bounds)
            failing += not report.ok
    assert failing >= 30
