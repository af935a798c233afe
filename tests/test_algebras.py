import json
import pickle
import re
from collections import Counter
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
    RelAlgError,
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
from relalg.algebras import ConcreteAlgebra, GeneratedSubalgebra, _sorts
from relalg.fragments import FO, PE, PQF, QF
from relalg.relations import all_substitutions, delta as rel_delta

from oracles import closure_bfs, projection


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


def test_product_widths_are_memoized_per_sort():
    alg = product([concrete(Universe(size), PQF, 3) for size in (0, 1, 2)])
    for n in range(4):
        assert alg.width(n) == alg.width(n) == sum(u.size**n for u in alg.blocks)
        assert alg.sort_size(n) == 2 ** alg._widths[n]
    assert alg._widths == {0: 3, 1: 3, 2: 5, 3: 9}


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


CLOSURE_PARENTS = {
    "fo+eq": lambda: concrete(Universe(2), FO.with_equality(), 2),
    "pqf": lambda: concrete(Universe(2), PQF, 2),
    "product": lambda: product([concrete(Universe(2), PE, 2), concrete(Universe(2), PE, 2)]),
    # parents without a bulk map_all of their own
    "table": lambda: as_table_algebra(concrete(Universe(2), PE, 2)),
    "generated": lambda: generated_subalgebra(concrete(Universe(2), PE, 2), [(2, 0b0110), (1, 1)]),
    # the pe-theory gallery's parent: its seeds below close sort 2 to 699, 398
    # and 1,141 elements, in waves that outgrow its 18 bits; seed 0 closes it
    # to 131,073, past what the scalar search finishes, and has its own test
    "pe-theory": lambda: product([concrete(Universe(3), PE, 2)] * 2),
}


@pytest.mark.parametrize("kind, seed", [
    (kind, seed) for kind, seeds in (("fo+eq", range(10)), ("pqf", range(10)),
                                     ("product", range(10)), ("table", range(6)),
                                     ("generated", range(3)), ("pe-theory", (4, 8, 11)))
    for seed in seeds])
def test_generated_closure_matches_the_scalar_bfs(kind, seed):
    parent, rng = CLOSURE_PARENTS[kind](), Random(seed)
    gens = []
    for _ in range(rng.randint(1, 3)):
        n = rng.randint(1, parent.max_sort)
        gens.append((n, rng.randrange(parent.sort_size(n))))
    alg = generated_subalgebra(parent, gens)
    to_parent, witness, _ = closure_bfs(parent, gens)
    assert alg._to_parent == to_parent
    assert alg._witness == witness


def test_pe_theory_closure_matches_the_scalar_bfs_on_fewer_pairs(pe_theory):
    """The gallery's closure, rebuilt on a parent whose batched meets and
    joins are counted: the witness search meets each pair once, where the
    scalar search meets every element with its whole sort, and it stops once
    every element has a witness."""
    a_bits, b_bits = 0b011, 0b110
    gens = [(1, a_bits << 3 | b_bits), (1, a_bits << 3 | a_bits), (1, b_bits << 3 | b_bits)]
    parent = product([concrete(Universe(3), PE, 2)] * 2)
    pairs, apply_all = Counter(), parent._apply_all

    def counted(key, xs, ys):
        pairs[key[0]] += len(xs)
        return apply_all(key, xs, ys)

    parent._apply_all = counted
    alg = generated_subalgebra(parent, gens, ["R", "A", "B"])
    to_parent, witness, scalar_pairs = closure_bfs(parent, gens, ["R", "A", "B"])
    assert alg._to_parent == to_parent == pe_theory[0]._to_parent
    assert alg._witness == witness == pe_theory[0]._witness
    # 35,162 of the scalar search's 485,737 pairs: the elements come from the
    # fixed point, which meets nothing in the parent, and the witness search
    # stops in its fourth wave, once sort 2 has all 706
    assert pairs["meet"] == pairs["join"] <= 35_162


def test_generated_subalgebra_refuses_bad_generators():
    parent = concrete(Universe(2), PQF, 1)
    with pytest.raises(ArityError, match="^one name per generator required$"):
        generated_subalgebra(parent, [(1, 0b01)], names=["a", "b"])
    with pytest.raises(ArityError, match="^generator 4 outside parent sort 1$"):
        generated_subalgebra(parent, [(1, 4)])
    for bad in [(1.9, 3), (1, 2.7), ("1", 2), (True, 1), (1, False)]:
        with pytest.raises(ArityError, match=f"^generator {re.escape(repr(bad))} "
                                             "is not a pair of integers$"):
            generated_subalgebra(parent, [(1, 1), bad])


def test_closure_goes_back_to_rows_when_a_skipped_sort_grows():
    """Sort 2 starts as a five-element chain, a sublattice wider than its 4
    bits but not the whole closure: a substitution adds a sort-2 element
    mid-wave, and the witness search must meet and join rows until sort 2
    has all 16 elements."""
    parent = concrete(Universe(2), FO, 2)
    gens = [(2, 0b0001), (2, 0b0011), (2, 0b0111)]
    alg = generated_subalgebra(parent, gens)
    to_parent, witness, _ = closure_bfs(parent, gens)
    assert alg._to_parent == to_parent
    assert alg._witness == witness
    assert alg.sort_size(2) == 16


def _pairwise_closure(members: set[int]) -> set[int]:
    while True:
        grown = members | {a & b for a in members for b in members} | {
            a | b for a in members for b in members}
        if grown == members:
            return members
        members = grown


@pytest.mark.parametrize("seed", range(10))
def test_sublattice_test_matches_pairwise_closure(seed):
    """The closure's lattice step, which builds the sublattice a family
    generates, against its definition, on random families of w-bit masks
    that hold 0 and the full mask; half of them are closed by construction,
    as the sublattice some random masks generate."""
    rng = Random(seed)
    grew = Counter()
    for _ in range(200):
        width = rng.randint(0, 6)
        full = (1 << width) - 1
        members = {0, full, *(rng.randint(0, full) for _ in range(rng.randint(0, 6)))}
        if rng.random() < 0.5:
            members = _pairwise_closure(members)
        # sort 1 of a product of width one-point factors has width bits
        parent = ConcreteAlgebra([Universe(1)] * width or [Universe(0)], PQF, 1)
        closure = _pairwise_closure(members)
        grew[closure != members] += 1
        lattice, gens = generated_subalgebra(parent, [])._lattice(1, members)
        assert lattice == closure, (width, sorted(members))
        assert _pairwise_closure({0, full, *gens}) == closure, (width, sorted(members))
    assert grew[True] > 0 and grew[False] > 0


def test_pe_theory_parent_seed_0_closes_to_a_closed_set():
    """Seed 0 of the pe-theory parent: the scalar search cannot finish it, so
    closedness is checked instead, on seeded pairs and every unary image."""
    parent = product([concrete(Universe(3), PE, 2)] * 2)
    alg = generated_subalgebra(parent, [(2, 21225), (2, 254766)])
    assert [alg.sort_size(n) for n in range(3)] == [3, 33, 131_073]
    rng = Random(0)
    for n in range(3):
        members, column = alg._from_parent[n], alg._to_parent[n]
        xs = [rng.choice(column) for _ in range(2000)]
        ys = [rng.choice(column) for _ in xs]
        assert members.keys() >= {*parent.meet_all(n, xs, ys), *parent.join_all(n, xs, ys)}
        for key, arg_sorts, k in operations(parent.fragment, parent.max_sort):
            if arg_sorts == (n,):  # a unary symbol on sort n
                assert alg._from_parent[k].keys() >= set(parent.map_all(key, column)), key


def test_witness_search_past_the_pair_cap_is_refused(monkeypatch, pe_theory):
    """A fresh gallery algebra, whose witness search has not run yet."""
    import relalg.algebras

    monkeypatch.setattr(relalg.algebras, "WITNESS_PAIR_CAP", 100)
    alg, _ = gallery_pe_theory()
    for call in (lambda: alg.witness_term(2, 5), lambda: alg.element_label(1, 0)):
        with pytest.raises(RelAlgError) as info:
            call()
        assert str(info.value) == ("witness search met more than 100 pairs "
                                   "(generated(product(concrete(3), concrete(3))))")
    assert [alg.sort_size(n) for n in range(3)] == [2, 10, 706]
    assert [alg.to_parent(2, a) for a in alg.elements(2)] == pe_theory[0]._to_parent[2]
    monkeypatch.undo()
    assert alg.witness_term(2, 5) == pe_theory[0].witness_term(2, 5)


def test_a_refused_witness_search_is_not_run_again_under_the_same_cap(monkeypatch):
    """The refusal is kept with the cap it hit: later calls under that cap
    raise it without searching, and a call under another cap searches."""
    import relalg.algebras

    searches, search = [], GeneratedSubalgebra._search
    monkeypatch.setattr(GeneratedSubalgebra, "_search",
                        lambda self, *args: searches.append(args) or search(self, *args))
    monkeypatch.setattr(relalg.algebras, "WITNESS_PAIR_CAP", 100)
    alg, _ = gallery_pe_theory()
    assert searches == []  # a concrete parent: the elements come from the fixed point
    messages = []
    for call in (lambda: alg.witness_term(2, 5), lambda: alg.element_label(1, 0),
                 lambda: alg.witness_term(0, 0)):
        with pytest.raises(RelAlgError) as info:
            call()
        messages.append(str(info.value))
    assert len(searches) == 1
    assert messages == ["witness search met more than 100 pairs "
                        "(generated(product(concrete(3), concrete(3))))"] * 3
    monkeypatch.setattr(relalg.algebras, "WITNESS_PAIR_CAP", 200)
    with pytest.raises(RelAlgError, match="^witness search met more than 200 pairs "):
        alg.witness_term(2, 5)
    assert len(searches) == 2


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


@pytest.mark.parametrize("make", [
    lambda bound: concrete(Universe(2), FO.with_equality(), bound),
    lambda bound: generated_subalgebra(concrete(Universe(2), PQF, bound), [(1, 1)]),
], ids=["concrete", "generated"])
def test_table_algebra_extension_is_served_by_its_backing(monkeypatch, make):
    """Above the checked sorts, the extension answers every symbol, meet_all
    and table(key) exactly as the extended backing does, unary tables through
    the backing's own map_all; below them it keeps the checked tables, and
    nothing above them is tabulated until asked for."""
    tables = as_table_algebra(make(1), with_extension=True)
    ext, backing = tables.extend(3), make(3)
    assert [ext.sort_size(n) for n in range(4)] == [backing.sort_size(n) for n in range(4)]
    checked = [key for key, _, _ in operations(tables.fragment, 1)]
    assert all(ext._tables[key] is tables._tables[key] for key in checked)
    assert set(ext._tables) == set(checked)
    maps, map_all = [], type(backing).map_all
    monkeypatch.setattr(type(backing), "map_all",
                        lambda alg, key, column: maps.append(key) or map_all(alg, key, column))
    rng, served = Random(31), 0
    for key, arg_sorts, result in operations(ext.fragment, 3):
        if max((result, *arg_sorts)) <= 1:
            continue
        served += 1
        if len(arg_sorts) == 1:
            assert ext.table(key) == backing.table(key), key
            assert maps == [key, key], key  # one bulk call for each table
            maps.clear()
        elif arg_sorts:
            size = ext.sort_size(result)
            xs, ys = ([rng.randrange(size) for _ in range(50)] for _ in range(2))
            for name in ("meet", "join"):
                got = getattr(ext, name + "_all")(result, xs, ys)
                assert got == getattr(backing, name + "_all")(result, xs, ys), key
                assert getattr(ext, name)(result, xs[0], ys[0]) == got[0], key
        else:
            assert getattr(ext, key[0])(*key[1:]) == getattr(backing, key[0])(*key[1:]), key
    assert served > 0 and maps == []
    assert ext.to_json() == as_table_algebra(backing).to_json()
    with pytest.raises(InsufficientSortsError, match=r"\(tables\)"):
        ext.table(("subst", Substitution(1, 4, (1,))))


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


def assert_bulk_maps_match(alg, key, rng) -> None:
    """table(key) and map_all on columns that repeat values, are unsorted or
    hold one element agree with the guarded operation, element by element."""
    op, src = partial(getattr(alg, key[0]), *key[1:]), _sorts(key)[0]
    assert alg.table(key) == list(map(op, alg.elements(src))), key
    drawn = rng.choices(alg.elements(src), k=5)
    for column in ([*drawn, *reversed(drawn)], [rng.randrange(alg.sort_size(src))],
                   list(reversed(alg.elements(src)))):
        assert alg.map_all(key, column) == list(map(op, column)), (key, column)


def test_concrete_bulk_tables_match_the_per_element_map():
    keys, rng = 0, Random(30)
    for size in range(4):
        for fragment in (FO, PQF):
            for max_sort in range(4 if size < 3 else 3):
                alg = concrete(Universe(size), fragment, max_sort)
                for key in unary_keys(alg):
                    assert_bulk_maps_match(alg, key, rng)
                    keys += 1
    assert keys == 537
    alg = product([concrete(Universe(1), FO, 2), concrete(Universe(2), FO, 2)])
    for key in unary_keys(alg):
        assert_bulk_maps_match(alg, key, rng)


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
    element cap: the bulk table raises the per-element map's first error, and
    the bulk map_all raises as the per-element one on the same column, which
    no cap guards."""
    def attempt(run):
        alg = concrete(Universe(2), fragment, max_sort)
        if cap is not None:
            alg.element_cap = cap
        try:
            return run(alg)
        except Exception as exc:
            return type(exc), str(exc)
    op = lambda alg: partial(getattr(alg, key[0]), *key[1:])
    bulk = attempt(lambda alg: alg.table(key))
    assert bulk == attempt(lambda alg: list(map(op(alg), alg.elements(_sorts(key)[0]))))
    assert bulk[0] in (InsufficientSortsError, FragmentError, ElementCapExceededError)
    for column in ([1], [3, 0, 3, 1]):
        bulk = attempt(lambda alg: ConcreteAlgebra.map_all(alg, key, column))
        assert bulk == attempt(lambda alg: FiniteAlgebra.map_all(alg, key, column))
        assert bulk == attempt(lambda alg: list(map(op(alg), column)))
        assert (type(bulk) is list) == (cap is not None)
