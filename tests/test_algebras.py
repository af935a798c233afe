import json
import pickle
import re
from functools import partial
from itertools import product as iproduct
from random import Random

import pytest

from relalg import (
    ArityError,
    Bounds,
    ElementCapExceededError,
    FiniteAlgebra,
    FormatError,
    FragmentError,
    InsufficientSortsError,
    Substitution,
    TableAlgebra,
    Universe,
    as_table_algebra,
    check_fragment,
    concrete,
    gallery_pe_theory,
    generated_subalgebra,
    is_injective,
    kernel,
    operations,
    product,
    sort_lattice,
    verify_morphism,
)
from relalg.algebras import ConcreteAlgebra, _sorts
from relalg.fragments import FO, PE, PQF, QF
from relalg.relations import all_substitutions, delta as rel_delta

from oracles import projection


def test_concrete_sort_sizes():
    assert [concrete(Universe(1), PQF, 2).sort_size(n) for n in range(3)] == [2, 2, 2]
    assert [concrete(Universe(2), PQF, 2).sort_size(n) for n in range(3)] == [2, 4, 16]
    alg0 = concrete(Universe(0), PQF, 1)
    assert alg0.sort_size(0) == 2
    assert alg0.sort_size(1) == 1
    assert alg0.zero(1) == alg0.one(1)


def test_concrete_operations_match_bitsets():
    alg = concrete(Universe(2), FO.with_equality(), 2)
    assert alg.meet(1, 0b01, 0b11) == 0b01
    assert alg.join(1, 0b01, 0b10) == 0b11
    assert alg.neg(1, 0b01) == 0b10
    assert alg.delta(2, 1, 2) == 0b1001
    assert alg.exists(1, alg.delta(2, 1, 2)) == alg.one(1)
    c1 = Substitution(1, 2, (1,))
    assert alg.subst(c1, 0b01) == 0b0011


def test_concrete_element_cap_guard():
    with pytest.raises(ElementCapExceededError):
        concrete(Universe(2), PQF, 5)  # sort 5 has 2^32 elements
    alg = concrete(Universe(2), PQF, 3)
    with pytest.raises(ElementCapExceededError):
        alg.extend(5)


def test_concrete_lazy_extension():
    alg = concrete(Universe(2), PQF, 1)
    ext = alg.extend(3)
    assert ext.max_sort == 3
    assert ext.sort_size(3) == 256
    # low sorts unchanged
    for n in range(2):
        assert ext.sort_size(n) == alg.sort_size(n)
    assert alg.extend(1) is alg


def test_out_of_bounds_operations():
    alg = concrete(Universe(2), PE, 1)
    with pytest.raises(InsufficientSortsError):
        alg.meet(2, 0, 0)
    with pytest.raises(InsufficientSortsError):
        alg.exists(1, 0)  # needs sort 2
    with pytest.raises(FragmentError):
        alg.neg(1, 0)
    pqf = concrete(Universe(2), PQF, 2)
    with pytest.raises(FragmentError):
        pqf.exists(1, 0)
    with pytest.raises(FragmentError):
        pqf.delta(2, 1, 2)


def test_concrete_diagonals_are_stored_and_still_guarded():
    """Each diagonal is built once into the algebra's store under its symbol
    key; every call still checks the sort and the indices."""
    eq = FO.with_equality()
    alg = product([concrete(Universe(2), eq, 2), concrete(Universe(3), eq, 2)])
    for n in range(3):
        for i, j in iproduct(range(1, n + 1), repeat=2):
            value = alg.delta(n, i, j)
            assert value == rel_delta(Universe(2), n, i, j).bits << 3**n | rel_delta(
                Universe(3), n, i, j).bits
            assert alg.cached(("delta", n, i, j), None) == value  # stored: nothing is built
            assert alg.delta(n, i, j) == value
    for _ in range(2):
        for i, j in [(1, 3), (0, 1), (2, -1)]:
            with pytest.raises(ArityError, match=rf"diagonal indices \({i},{j}\) outside 1..2"):
                alg.delta(2, i, j)
        with pytest.raises(InsufficientSortsError):
            alg.delta(3, 1, 1)


def test_product_diamond():
    one = Universe(1)
    alg = product([concrete(one, QF, 2), concrete(one, QF, 2)])
    for n in range(3):
        assert alg.sort_size(n) == 4
    a, b = 1, 2
    assert not alg.leq(1, a, b)
    assert not alg.leq(1, b, a)
    assert alg.leq(1, alg.zero(1), a)
    assert alg.leq(1, a, alg.one(1))
    assert alg.leq(1, a, a)


def test_product_single_factor_isomorphic():
    base = concrete(Universe(2), PQF, 2)
    alg = product([base])
    for n in range(3):
        assert alg.sort_size(n) == base.sort_size(n)
        for a in alg.elements(n):
            for b in alg.elements(n):
                assert alg.meet(n, a, b) == base.meet(n, a, b)


def test_product_mixed_sizes():
    alg = product([concrete(Universe(1), PQF, 2), concrete(Universe(2), PQF, 2)])
    assert alg.sort_size(1) == 8


def test_product_mismatch_errors():
    with pytest.raises(ArityError, match="^product needs at least one factor$"):
        product([])
    with pytest.raises(FragmentError):
        product([concrete(Universe(1), PQF, 2), concrete(Universe(1), QF, 2)])
    with pytest.raises(ArityError):
        product([concrete(Universe(1), PQF, 1), concrete(Universe(1), PQF, 2)])
    with pytest.raises(TypeError):
        product([as_table_algebra(concrete(Universe(1), PQF, 1))])


PRODUCT_CASES = [
    [concrete(Universe(1), QF, 2), concrete(Universe(1), QF, 2)],
    [concrete(Universe(1), FO.with_equality(), 2), concrete(Universe(2), FO.with_equality(), 2)],
    [concrete(Universe(2), PE, 1), concrete(Universe(3), PE, 1), concrete(Universe(1), PE, 1)],
]


def test_product_projections_are_morphisms():
    for factors in PRODUCT_CASES:
        alg = product(factors)
        fmaps = [projection(alg, i) for i in range(len(factors))]
        for fmap, factor in zip(fmaps, factors):
            report = verify_morphism(fmap, alg, factor)
            assert report.ok, (alg.provenance, report.violations)
        for n in range(alg.max_sort + 1):
            # jointly injective, and the index is the mixed-radix value of the components
            components = list(zip(*(fmap[n] for fmap in fmaps)))
            assert len(set(components)) == alg.sort_size(n), alg.provenance
            for a, comps in enumerate(components):
                radix = 0
                for factor, c in zip(factors, comps):
                    radix = radix * factor.sort_size(n) + c
                assert radix == a, alg.provenance


def test_generated_closure_of_top():
    parent = concrete(Universe(2), PQF, 1)
    alg = generated_subalgebra(parent, [(1, parent.one(1))])
    assert alg.sort_size(0) == 2
    assert alg.sort_size(1) == 2
    assert alg.witness_term(1, alg.one(1)) in ("top 1",)


def test_generated_closure_all_elements_is_parent():
    parent = concrete(Universe(2), PQF, 1)
    gens = [(1, a) for a in parent.elements(1)]
    alg = generated_subalgebra(parent, gens)
    assert alg.sort_size(1) == parent.sort_size(1)
    assert alg.sort_size(0) == 2


def test_generated_closure_is_closed():
    parent = concrete(Universe(2), PE, 2)
    rng = Random(4321)
    gens = [(1, rng.randrange(parent.sort_size(1))), (2, rng.randrange(parent.sort_size(2)))]
    alg = generated_subalgebra(parent, gens)
    # applying any in-bounds operation to members yields members (wrapping
    # would raise otherwise); spot-check every unary/binary op on every element
    for n in range(3):
        for a in alg.elements(n):
            for k in range(3):
                for alpha in all_substitutions(n, k):
                    alg.subst(alpha, a)
            if n >= 1:
                alg.exists(n - 1, a)
            for b in alg.elements(n):
                alg.meet(n, a, b)
                alg.join(n, a, b)


def test_generated_witness_terms_evaluate_to_their_element():
    from relalg import Signature, Structure, Relation, eval_term, parse_term

    parent = concrete(Universe(2), PQF, 2)
    r_bits = 0b0110
    alg = generated_subalgebra(parent, [(2, r_bits)], names=["R"])
    sig = Signature((("R", 2),))
    structure = Structure(Universe(2), {"R": Relation(Universe(2), 2, r_bits)})
    for n in range(3):
        for a in alg.elements(n):
            term = parse_term(alg.witness_term(n, a), sig)
            assert term.sort == n
            assert eval_term(term, structure).bits == alg.to_parent(n, a)


def test_generated_subalgebra_refuses_bad_generators():
    parent = concrete(Universe(2), PQF, 1)
    with pytest.raises(ArityError, match="^one name per generator required$"):
        generated_subalgebra(parent, [(1, 0b01)], names=["a", "b"])
    with pytest.raises(ArityError, match="^generator 4 outside parent sort 1$"):
        generated_subalgebra(parent, [(1, 4)])


def test_generated_closure_past_the_element_cap_is_refused(monkeypatch):
    import relalg.algebras

    monkeypatch.setattr(relalg.algebras, "DEFAULT_ELEMENT_CAP", 3)
    with pytest.raises(ElementCapExceededError,
                       match="^closure of sort 1 exceeds element cap 3$"):
        generated_subalgebra(concrete(Universe(2), PQF, 1), [(1, 1), (1, 2)])


def test_generated_extension_that_grows_an_old_sort_is_refused():
    """Projection from the new sort 3 adds a sort-2 element."""
    alg = generated_subalgebra(concrete(Universe(2), PE, 2), [(2, 6)])
    with pytest.raises(InsufficientSortsError,
                       match="^extension to sort 3 is not conservative: "
                             "sort 2 grows from 3 to 4 elements$"):
        alg.extend(3)


def test_generated_extension_conservative_for_pqf():
    parent = concrete(Universe(2), PQF, 1)
    alg = generated_subalgebra(parent, [(1, 0b01)])
    ext = alg.extend(2)
    assert ext.max_sort == 2
    for n in range(2):
        assert ext.sort_size(n) == alg.sort_size(n)


def test_leq_examples():
    alg = concrete(Universe(2), PQF, 2)
    for n in range(3):
        for a in alg.elements(n):
            assert alg.leq(n, alg.zero(n), a)
            assert alg.leq(n, a, a)


def test_verify_morphism_identity_ok():
    alg = concrete(Universe(2), PQF, 2)
    fmap = {n: list(alg.elements(n)) for n in range(3)}
    report = verify_morphism(fmap, alg, alg)
    assert report.ok and report.checks > 0


def test_verify_morphism_constant_clash():
    alg = concrete(Universe(1), PQF, 1)
    fmap = {n: [alg.one(n), alg.zero(n)] for n in range(2)}  # swaps 0 and 1
    report = verify_morphism(fmap, alg, alg)
    assert not report.ok
    assert any("constant" in v for v in report.violations)


def test_verify_morphism_refuses_an_unknown_mode():
    alg = concrete(Universe(1), PQF, 1)
    fmap = {n: list(alg.elements(n)) for n in range(2)}
    with pytest.raises(ValueError, match="^unknown mode 'x'$"):
        verify_morphism(fmap, alg, alg, mode="x")


def test_kernel_and_injectivity():
    alg = concrete(Universe(1), PQF, 1)
    collapse = {n: [0, 0] for n in range(2)}
    assert kernel(collapse, 0) == {(0, 1)}
    assert not is_injective(collapse, range(2))
    assert is_injective({0: [0, 1]}, [0])


def test_table_algebra_round_trip():
    base = concrete(Universe(2), FO.with_equality(), 2)
    tables = as_table_algebra(base)
    again = TableAlgebra.from_json(tables.to_json())
    assert again.max_sort == 2
    for n in range(3):
        assert again.sort_size(n) == base.sort_size(n)
        for a in again.elements(n):
            for b in again.elements(n):
                assert again.meet(n, a, b) == base.meet(n, a, b)
                assert again.join(n, a, b) == base.join(n, a, b)
            assert again.neg(n, a) == base.neg(n, a)
    assert again.delta(2, 1, 2) == base.delta(2, 1, 2)
    assert again.exists(1, 0b1001) == base.exists(1, 0b1001)


def test_as_table_algebra_tables_match_per_pair_ops():
    for base in (concrete(Universe(3), FO, 2),
                 generated_subalgebra(concrete(Universe(2), PQF, 2), [(1, 0b01), (2, 0b0110)])):
        sorts = json.loads(as_table_algebra(base).to_json())["sorts"]
        for n in range(3):
            elems = base.elements(n)
            assert sorts[n]["meet"] == [[base.meet(n, a, b) for b in elems] for a in elems]
            assert sorts[n]["join"] == [[base.join(n, a, b) for b in elems] for a in elems]


def test_batched_meet_join_match_per_pair_ops():
    rng = Random(4)
    base = concrete(Universe(2), PQF, 2)
    algebras = [base, product([base, concrete(Universe(1), PQF, 2)]),
                generated_subalgebra(base, [(1, 0b01), (2, 0b0110)]), as_table_algebra(base)]
    for alg in algebras:
        for n in range(3):
            size = alg.sort_size(n)
            for xs in ([rng.randrange(size) for _ in range(40)], [rng.randrange(size)] * 40, []):
                ys = [rng.randrange(size) for _ in xs]
                assert alg.meet_all(n, xs, ys) == [alg.meet(n, x, y) for x, y in zip(xs, ys)]
                assert alg.join_all(n, xs, ys) == [alg.join(n, x, y) for x, y in zip(xs, ys)]
        with pytest.raises(InsufficientSortsError):
            alg.meet(3, 0, 0)
        with pytest.raises(InsufficientSortsError):
            alg.meet_all(3, [0], [0])


def test_operations_outside_the_sort_bounds_name_the_algebra():
    base = concrete(Universe(2), FO, 2)
    algebras = [base, product([base, concrete(Universe(1), FO, 2)]),
                generated_subalgebra(base, [(1, 0b01), (2, 0b0110)]), as_table_algebra(base)]
    for alg in algebras:
        for n in (-1, alg.max_sort + 1):
            calls = [lambda: alg.meet(n, 0, 0), lambda: alg.join(n, 0, 0),
                     lambda: alg.neg(n, 0), lambda: alg.meet_all(n, [0], [0]),
                     lambda: alg.join_all(n, [0], [0]), lambda: alg.exists(n, 0),
                     lambda: alg.sort_size(n), lambda: alg.element_label(n, 0)]
            if alg.provenance.startswith("generated("):
                calls += [lambda: alg.to_parent(n, 0), lambda: alg.from_parent(n, 0),
                          lambda: alg.witness_term(n, 0)]
            for call in calls:
                with pytest.raises(InsufficientSortsError, match=re.escape(f"({alg.provenance})")):
                    call()


def test_operations_key_every_symbol_once():
    alg = concrete(Universe(2), FO.with_equality(), 2)
    symbols = list(operations(alg.fragment, alg.max_sort))
    keys = [key for key, _, _ in symbols]
    assert len(keys) == len(set(keys)) == 5 * 3 + 5 + 11 + 2  # 5 deltas, 11 substitutions
    for key, arg_sorts, result in symbols:
        value = getattr(alg, key[0])(*key[1:], *(alg.one(n) for n in arg_sorts))
        assert 0 <= value < alg.sort_size(result)
    assert [key for key, _, _ in operations(PQF, 0)] == \
        [("zero", 0), ("one", 0), ("meet", 0), ("join", 0), ("subst", Substitution(0, 0, ()))]


def test_table_algebra_serves_its_given_tables():
    data = json.loads(as_table_algebra(concrete(Universe(2), FO, 2)).to_json())
    tables = TableAlgebra.from_json(json.dumps(data))
    alpha = Substitution(1, 2, (2,))
    for table, given in ((lambda: tables.table(("neg", 1)), data["sorts"][1]["neg"]),
                         (lambda: tables.table(("exists", 1)), data["exists"]["1"]),
                         (lambda: tables.table(("subst", alpha)), data["subst"]["1->2:[2]"])):
        assert table() is table()
        assert table() == given
    tables.neg = tables.exists = tables.subst = None  # a rebuild would call them
    assert tables.table(("neg", 2)) == data["sorts"][2]["neg"]


def test_table_algebra_never_serves_unchecked_tables():
    text = as_table_algebra(concrete(Universe(2), QF.with_equality(), 2)).to_json()
    data = json.loads(text)
    data["exists"] = {"0": [0, 1, 0, 1], "7": [99]}
    data["delta"]["1:2,2"] = 0
    tables = TableAlgebra.from_json(json.dumps(data))
    assert json.loads(tables.to_json()) == data
    with pytest.raises(FragmentError):
        tables.table(("exists", 0))
    with pytest.raises(ArityError):
        tables.delta(1, 2, 2)
    data["fragment"] = "pqf+eq"
    without_negation = TableAlgebra.from_json(json.dumps(data))
    with pytest.raises(FragmentError):
        without_negation.table(("neg", 1))
    assert "neg" not in json.loads(without_negation.to_json())["sorts"][1]
    with pytest.raises(FormatError):
        TableAlgebra(PQF, 0, [1], {("zero", 0): 0, ("one", 0): 0, ("meet", 0): [[0]],
                                   ("join", 0): [[0]], ("subst", Substitution(0, 0, ())): [0],
                                   ("meet", 1): [[0]]})


def test_table_algebra_no_extension_fails_loudly():
    tables = as_table_algebra(concrete(Universe(1), PQF, 1))
    with pytest.raises(InsufficientSortsError):
        tables.extend(2)


def test_table_algebra_with_extension():
    tables = as_table_algebra(concrete(Universe(1), PQF, 1), with_extension=True)
    ext = tables.extend(3)
    assert ext.max_sort == 3
    assert ext.sort_size(3) == 2
    assert isinstance(ext, TableAlgebra)


def test_concurrent_readers_see_identical_tables():
    from concurrent.futures import ThreadPoolExecutor

    alg = concrete(Universe(2), PE, 2)
    substitutions = [alpha for n in range(3) for k in range(3)
                     for alpha in all_substitutions(n, k)]
    serial = [list(alg.table(("subst", a))) for a in substitutions]
    fresh = concrete(Universe(2), PE, 2)
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda a: list(fresh.table(("subst", a))), substitutions))
        projections = list(pool.map(lambda n: list(fresh.table(("exists", n))), [0, 1] * 4))
    assert parallel == serial
    assert projections[0] == projections[2]


def test_table_algebra_validation():
    import json

    text = as_table_algebra(concrete(Universe(1), QF, 1)).to_json()
    TableAlgebra.from_json(text)
    bad = [json.loads(text) for _ in range(5)]
    del bad[0]["subst"]["1->1:[1]"]
    bad[1]["sorts"][0]["meet"][0][0] = 99
    bad[2]["sorts"][1]["neg"][0] = 99
    bad[3]["sorts"][0]["zero"] = True  # a bool, not an element index
    bad[4]["subst"]["5->5:[1,1,1,1,1]"] = [0, 1]  # a sort past max_sort 1
    for data in bad:
        with pytest.raises(FormatError):
            TableAlgebra.from_json(json.dumps(data))


def test_algebras_round_trip_through_pickle():
    """The store holds no lock, so an algebra pickles, cached tables and
    lattices included, and the copy checks exactly as the original does."""
    cases = [concrete(Universe(2), FO.with_equality(), 2),
             as_table_algebra(concrete(Universe(1), FO, 2), with_extension=True),
             gallery_pe_theory()[0]]
    bounds = Bounds(max_sort=2, samples=500, seed=3)
    for alg in cases:
        sort_lattice(alg, 1)
        copy = pickle.loads(pickle.dumps(alg))
        assert check_fragment(copy, bounds) == check_fragment(alg, bounds), alg.provenance


def unary_keys(alg):
    return [key for key, arg_sorts, _ in operations(alg.fragment, alg.max_sort)
            if len(arg_sorts) == 1]


def test_concrete_bulk_tables_match_the_per_element_map():
    keys = 0
    for size in range(4):
        for fragment in (FO, PQF):
            for max_sort in range(4 if size < 3 else 3):
                alg = concrete(Universe(size), fragment, max_sort)
                for key in unary_keys(alg):
                    op = partial(getattr(alg, key[0]), *key[1:])
                    assert alg.table(key) == list(map(op, alg.elements(_sorts(key)[0]))), key
                    keys += 1
    assert keys == 537
    alg = product([concrete(Universe(1), FO, 2), concrete(Universe(2), FO, 2)])
    for key in unary_keys(alg):
        assert alg.table(key) == list(map(partial(getattr(alg, key[0]), *key[1:]),
                                          alg.elements(_sorts(key)[0]))), key


@pytest.mark.parametrize("fragment, max_sort, cap, key", [
    (FO, 2, None, ("subst", Substitution(1, 3, (2,)))),
    (FO, 2, None, ("neg", 3)),
    (FO, 2, None, ("exists", 2)),
    (PQF, 2, None, ("neg", 1)),
    (PQF, 2, None, ("exists", 1)),
    (PQF, 2, None, ("exists", 2)),
    (QF, 2, None, ("exists", 0)),
    (FO, 3, 16, ("subst", Substitution(3, 1, (1, 1, 1)))),
    (FO, 3, 16, ("exists", 2)),
    (FO, 3, 16, ("neg", 3)),
])
def test_concrete_bulk_tables_raise_as_the_per_element_map(fragment, max_sort, cap, key):
    """A sort out of bounds, a symbol outside the fragment and a sort past the
    element cap: the bulk table raises the per-element map's first error."""
    def attempt(table):
        alg = concrete(Universe(2), fragment, max_sort)
        if cap is not None:
            alg.element_cap = cap
        with pytest.raises(Exception) as exc:
            table(alg, key)
        return type(exc.value), str(exc.value)
    bulk = attempt(ConcreteAlgebra.table)
    assert bulk == attempt(FiniteAlgebra.table)
    assert bulk[0] in (InsufficientSortsError, FragmentError, ElementCapExceededError)
