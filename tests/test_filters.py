import copy
import gc
import json
import operator
import weakref
from array import array
from random import Random

import pytest

from relalg import (
    Bounds,
    ObstructionError,
    PreconditionError,
    Relation,
    Substitution,
    TableAlgebra,
    Universe,
    as_table_algebra,
    check_axiom,
    concrete,
    extend_to_prime,
    gallery_diamond,
    generated_subalgebra,
    is_prime_filter,
    prime_filters,
    product,
    pullback,
    sort_lattice,
    sum_filters,
    witness_filter,
)
from relalg import filters
from relalg.filters import (NotALatticeError, PrimeFilter, SortLattice, complement_max,
                            prime_filter_from_members)
from relalg.algebras import FiniteAlgebra, _look_up_all
from relalg.fragments import FO, PE, PQF, QF
from relalg.relations import assoc_cylindrification

from oracles import boolean_rows_packed, extend_to_prime_scan, is_prime_filter_pairwise


W2 = Universe(2)


def bits(size, arity, tuples):
    return Relation.from_tuples(Universe(size), arity, tuples).bits


def chain_algebra(length):
    """A single-sort table algebra whose sort 0 is a chain 0 < 1 < ... < length-1."""
    size = length
    meet = [[min(a, b) for b in range(size)] for a in range(size)]
    join = [[max(a, b) for b in range(size)] for a in range(size)]
    ident = Substitution(0, 0, ())
    return TableAlgebra(PQF, 0, [size], {("meet", 0): meet, ("join", 0): join, ("zero", 0): 0,
                                         ("one", 0): size - 1, ("subst", ident): list(range(size))})


def members(alg, pf):
    """The filter's member set, read off the sort lattice's order rows."""
    return sort_lattice(alg, pf.sort).up_set(pf.generator)


def all_subsets(size):
    assert size <= 16
    for mask in range(1 << size):
        yield frozenset(a for a in range(size) if mask >> a & 1)


def all_prime_subsets(algebra, sort):
    """Oracle: every subset of the sort passing the pairwise primality predicate."""
    return {members for members in all_subsets(algebra.sort_size(sort))
            if is_prime_filter_pairwise(algebra, sort, members)}


def test_join_irreducibles_boolean_sort1():
    alg = concrete(W2, PQF, 2)
    lat = sort_lattice(alg, 1)
    assert set(lat.join_irreducibles) == {bits(2, 1, [(0,)]), bits(2, 1, [(1,)])}


def test_join_irreducibles_chain():
    alg = chain_algebra(3)
    lat = sort_lattice(alg, 0)
    assert lat.join_irreducibles == (1, 2)


def test_join_irreducibles_diamond():
    alg, _ = gallery_diamond()
    lat = sort_lattice(alg, 1)
    assert lat.join_irreducibles == (1, 2)


def test_prime_filters_boolean_sort2_are_atoms():
    alg = concrete(W2, PQF, 2)
    lat = sort_lattice(alg, 2)
    pfs = prime_filters(lat)
    assert sorted(pf.generator for pf in pfs) == [1, 2, 4, 8]
    assert all_prime_subsets(alg, 2) == {members(alg, pf) for pf in pfs}


def test_prime_filters_two_element_sort():
    alg = concrete(Universe(1), PQF, 1)
    pfs = prime_filters(sort_lattice(alg, 1))
    assert len(pfs) == 1
    assert members(alg, pfs[0]) == frozenset({1})


def test_prime_filters_diamond():
    alg, _ = gallery_diamond()
    pfs = prime_filters(sort_lattice(alg, 1))
    assert [pf.generator for pf in pfs] == [1, 2]
    assert all_prime_subsets(alg, 1) == {members(alg, pf) for pf in pfs}


def test_prime_filters_match_subset_oracle_small_concretes():
    cases = [(concrete(Universe(size), PQF, 2), sort) for size in (0, 1, 2) for sort in range(3)]
    # the general route, whose join-irreducible masks are not the identity map
    cases += [(chain_algebra(4), 0), (chain_algebra(8), 0)]
    cases += [(complement_relabelled(concrete(W2, PQF, 2)), sort) for sort in range(3)]
    cases += [(generated_subalgebra(concrete(Universe(3), PQF, 1), [(1, 0b011), (1, 0b110)]), 1)]
    for alg, sort in cases:
        lat = sort_lattice(alg, sort)
        assert all_prime_subsets(alg, sort) == {members(alg, pf) for pf in prime_filters(lat)}, \
            (alg.provenance, sort)


def test_extend_to_prime_least_tie_break():
    alg = concrete(W2, PQF, 1)
    lat = sort_lattice(alg, 1)
    pf = extend_to_prime(lat, alg.one(1), alg.zero(1))
    assert pf.generator == bits(2, 1, [(0,)])  # least join-irreducible in canonical order


def test_extend_to_prime_diamond():
    alg, _ = gallery_diamond()
    lat = sort_lattice(alg, 1)
    a, b = 1, 2
    pf = extend_to_prime(lat, a, b)
    assert pf.generator == a
    assert b not in members(alg, pf)


def test_extend_to_prime_contains_filter_misses_ideal():
    alg = concrete(W2, PQF, 2)
    lat = sort_lattice(alg, 2)
    rng = Random(55)
    for _ in range(100):
        f = rng.randrange(1, 16)
        i = rng.randrange(16)
        if alg.leq(2, f, i):
            continue
        pf = extend_to_prime(lat, f, i)
        assert all(x in members(alg, pf) for x in lat.up_set(f))
        assert all(not alg.leq(2, x, i) for x in members(alg, pf))


def test_extend_to_prime_rejects_overlap():
    alg = concrete(W2, PQF, 1)
    lat = sort_lattice(alg, 1)
    with pytest.raises(PreconditionError):
        extend_to_prime(lat, alg.zero(1), alg.one(1))


@pytest.mark.parametrize("gen_f, gen_i", [(3, 7), (-1, 0), (3, -1), (9, 0)])
def test_extend_to_prime_refuses_non_elements(gen_f, gen_i):
    lat = sort_lattice(concrete(W2, PQF, 1), 1)
    with pytest.raises(PreconditionError, match=f"^{gen_f} and {gen_i} are not both sort-1 "
                                                "elements$"):
        extend_to_prime(lat, gen_f, gen_i)


def differential_lattices(diamond, pe_theory):
    w2 = concrete(W2, PQF, 2)
    return [sort_lattice(w2, 1), sort_lattice(w2, 2), sort_lattice(diamond[0], 1),
            sort_lattice(as_table_algebra(concrete(Universe(3), PQF, 1)), 1),
            sort_lattice(pe_theory[0], 1)]


def test_extend_to_prime_matches_the_scan(diamond, pe_theory):
    pairs = 0
    for lat in differential_lattices(diamond, pe_theory):
        for f in range(lat.size):
            for i in range(lat.size):
                if not lat.leq(f, i):
                    pairs += 1
                    assert extend_to_prime(lat, f, i) == extend_to_prime_scan(lat, f, i)
    assert pairs == 7 + 175 + 7 + 37 + 54


def test_order_rows_and_masks_match_scalar_meets(diamond, pe_theory):
    for lat in differential_lattices(diamond, pe_theory):
        alg, n, size = lat.algebra, lat.sort, lat.size
        for a in range(size):
            for b in range(size):
                assert lat.leq(a, b) == (alg.meet(n, a, b) == a), (n, a, b)
            assert lat.up_set(a) == {b for b in range(size) if alg.meet(n, a, b) == a}, (n, a)
        ji_mask = [0] * size
        for p, j in enumerate(lat.join_irreducibles):
            for a in lat.up_set(j):
                ji_mask[a] |= 1 << p
        assert list(lat._ji_mask) == ji_mask


@pytest.mark.parametrize("call, args, message", [
    ("up_set", (-1,), "-1 is not a sort-1 element"),
    ("up_set", (4,), "4 is not a sort-1 element"),
    ("leq", (-1, 3), "-1 and 3 are not both sort-1 elements"),
    ("leq", (0, 99), "0 and 99 are not both sort-1 elements"),
    ("leq", (4, 0), "4 and 0 are not both sort-1 elements")])
def test_leq_and_up_set_refuse_non_elements(call, args, message):
    """On both routes: the Boolean one, whose masks are the indices, and the
    general one of a table relabelled so that zero is the top index."""
    for alg in (concrete(W2, PQF, 1), complement_relabelled(concrete(W2, PQF, 1))):
        lat = sort_lattice(alg, 1)
        with pytest.raises(PreconditionError, match=f"^{message}$"):
            getattr(lat, call)(*args)


def test_sort_lattice_makes_zero_or_three_batched_calls_per_element(monkeypatch):
    calls = []
    for name in ("meet_all", "join_all"):
        def counted(self, n, xs, ys, _op=getattr(TableAlgebra, name)):
            calls.append(n)
            return _op(self, n, xs, ys)
        monkeypatch.setattr(TableAlgebra, name, counted)
    w2 = as_table_algebra(concrete(W2, PQF, 2))
    diamond = as_table_algebra(gallery_diamond()[0])
    # none on a Boolean sort in canonical order, whose stored rows prove it,
    # three on any other
    for alg, sort, per_element in ((w2, 0, 0), (w2, 1, 0), (w2, 2, 0), (diamond, 1, 0),
                                   (chain_algebra(5), 0, 3),
                                   (complement_relabelled(concrete(W2, PQF, 2)), 2, 3)):
        calls.clear()
        SortLattice(alg, sort)
        assert len(calls) == per_element * alg.sort_size(sort)
        assert alg._tables[("boolean", sort)] is (per_element == 0)


def complement_relabelled(algebra):
    """The table form of the algebra with every sort-n index x renamed
    size_n - 1 - x: an isomorphic copy whose zero is the top index."""
    data = json.loads(as_table_algebra(algebra).to_json())
    sizes = [entry["size"] for entry in data["sorts"]]

    def flip(n, xs):
        return [sizes[n] - 1 - x for x in reversed(xs)]
    for n, entry in enumerate(data["sorts"]):
        entry["zero"], entry["one"] = flip(n, [entry["zero"], entry["one"]])[::-1]
        for op in ("meet", "join"):
            entry[op] = [flip(n, row) for row in reversed(entry[op])]
        if "neg" in entry:
            entry["neg"] = flip(n, entry["neg"])
    for key, table in data["subst"].items():
        data["subst"][key] = flip(int(key.split(":")[0].split("->")[1]), table)
    for key, table in data.get("exists", {}).items():
        data["exists"][key] = flip(int(key), table)
    for key, value in data.get("delta", {}).items():
        data["delta"][key] = flip(int(key.split(":")[0]), [value])[0]
    return TableAlgebra.from_json(json.dumps(data))


def test_sort_lattice_does_not_keep_its_algebra_alive():
    alg = as_table_algebra(concrete(W2, PQF, 2))
    sort_lattice(alg, 2)
    ref = weakref.ref(alg)
    del alg
    gc.collect()
    assert ref() is None


def test_complement_max_is_largest_nonmember():
    alg = concrete(W2, PQF, 1)
    for pf in prime_filters(sort_lattice(alg, 1)):
        m = complement_max(alg, pf)
        assert m not in members(alg, pf)
        for x in alg.elements(1):
            if x not in members(alg, pf):
                assert alg.leq(1, x, m)


def _sort1_filter(alg, singleton_bits):
    return next(pf for pf in prime_filters(sort_lattice(alg, 1)) if pf.generator == singleton_bits)


def test_sum_filters_worked_example():
    alg = concrete(W2, PQF, 2)
    f1 = _sort1_filter(alg, bits(2, 1, [(0,)]))
    f2 = _sort1_filter(alg, bits(2, 1, [(1,)]))
    master = sum_filters([f1, f2], alg)
    assert master.generator == bits(2, 2, [(0, 1)])
    # brute force: it is the unique sort-2 prime filter with the blockwise property
    from relalg.relations import partitioning

    c1, c2 = partitioning(1, 1)
    good = []
    for pf in prime_filters(sort_lattice(alg, 2)):
        inside = members(alg, pf)
        if all((alg.subst(c1, r) in inside) == (r in members(alg, f1)) for r in alg.elements(1)) and all(
            (alg.subst(c2, r) in inside) == (r in members(alg, f2)) for r in alg.elements(1)
        ):
            good.append(pf)
    assert good == [master]


def test_sum_filters_single_block_is_identity():
    alg = concrete(W2, PQF, 2)
    f1 = _sort1_filter(alg, bits(2, 1, [(0,)]))
    assert sum_filters([f1], alg) == f1


def test_sum_filters_diamond_obstruction():
    alg, _ = gallery_diamond()
    pfs = prime_filters(sort_lattice(alg, 1))
    with pytest.raises(ObstructionError) as exc:
        sum_filters(pfs, alg)
    assert exc.value.axiom_id == 0
    assert exc.value.shape == (1, 1)


def test_sum_filters_postcondition_sweep():
    alg = concrete(W2, PQF, 3)
    lat1 = prime_filters(sort_lattice(alg, 1))
    lat2 = prime_filters(sort_lattice(alg, 2))
    for fam in [(a, b) for a in lat1 for b in lat1] + [(a, b) for a in lat1 for b in lat2]:
        sum_filters(list(fam), alg)  # construction-time verification is on


def test_pullback_filter_example():
    alg = concrete(W2, PE, 2)
    g = next(pf for pf in prime_filters(sort_lattice(alg, 2)) if pf.generator == bits(2, 2, [(0, 1)]))
    f = pullback(alg, g, assoc_cylindrification(1))
    assert is_prime_filter(alg, 1, f)
    assert f == frozenset({bits(2, 1, [(0,)]), alg.one(1)})


def test_pullback_of_two_element_sort():
    alg = concrete(Universe(1), PE, 2)
    g = prime_filters(sort_lattice(alg, 2))[0]
    f = pullback(alg, g, assoc_cylindrification(1))
    assert is_prime_filter(alg, 1, f)
    assert f == frozenset({1})


def test_pullback_recovers_last_block_of_sum():
    alg = concrete(W2, PQF, 2)
    # pulling the master back along the last unary block's cylindrification
    f1 = _sort1_filter(alg, bits(2, 1, [(0,)]))
    f2 = _sort1_filter(alg, bits(2, 1, [(1,)]))
    master = sum_filters([f1, f2], alg)
    # blockwise: c2 = last coordinate; pullback along c: 1 -> 2 with c(i)=i is
    # the FIRST block here, so check both directions explicitly
    from relalg.relations import partitioning

    c1, c2 = partitioning(1, 1)
    back1 = frozenset(r for r in alg.elements(1) if alg.subst(c1, r) in members(alg, master))
    back2 = frozenset(r for r in alg.elements(1) if alg.subst(c2, r) in members(alg, master))
    assert back1 == members(alg, f1)
    assert back2 == members(alg, f2)


def test_pullback_is_the_inverse_image_along_every_substitution():
    from relalg.relations import all_substitutions

    base = concrete(W2, PE, 2)
    for alg in (base, as_table_algebra(base), generated_subalgebra(base, [(1, 0b01)])):
        for n in range(3):
            for pf in prime_filters(sort_lattice(alg, n)):
                for k in range(3):
                    for alpha in all_substitutions(k, n):
                        assert pullback(alg, pf, alpha) == frozenset(
                            r for r in alg.elements(k) if alg.subst(alpha, r) in members(alg, pf))
        with pytest.raises(PreconditionError):
            pullback(alg, prime_filters(sort_lattice(alg, 1))[0], Substitution.identity(2))


def test_witness_filter_no_pairs_is_base():
    alg = concrete(W2, PE, 2)
    f = _sort1_filter(alg, bits(2, 1, [(0,)]))
    h = witness_filter(alg, f, [])
    assert h == f


def test_witness_filter_worked_example():
    alg = concrete(W2, PE, 2)
    p = _sort1_filter(alg, bits(2, 1, [(0,)]))
    g = next(pf for pf in prime_filters(sort_lattice(alg, 2)) if pf.generator == bits(2, 2, [(0, 1)]))
    h = witness_filter(alg, p, [(g, Substitution.identity(1))])
    assert h.sort == 2
    # brute force: enumerate all sort-2 prime filters satisfying (I) and (II)
    beta0 = Substitution(1, 2, (1,))
    beta1 = Substitution(2, 2, (1, 2))
    candidates = []
    for pf in prime_filters(sort_lattice(alg, 2)):
        inside = members(alg, pf)
        cond1 = all((alg.subst(beta0, r) in inside) == (r in members(alg, p)) for r in alg.elements(1))
        cond2 = all(alg.subst(beta1, r) in inside for r in members(alg, g))
        if cond1 and cond2:
            candidates.append(pf)
    assert h in candidates
    assert h.generator == bits(2, 2, [(0, 1)])


def test_witness_filter_inconsistent_pair_rejected():
    alg = concrete(W2, PE, 2)
    p = _sort1_filter(alg, bits(2, 1, [(0,)]))
    bad = next(pf for pf in prime_filters(sort_lattice(alg, 2)) if pf.generator == bits(2, 2, [(1, 0)]))
    with pytest.raises(PreconditionError):
        witness_filter(alg, p, [(bad, Substitution.identity(1))])
    # a request whose substitution or filter has the wrong sort
    with pytest.raises(PreconditionError, match="^witness request 1: substitution lands in "
                                                "sort 2, base filter lives on sort 1$"):
        witness_filter(alg, p, [(bad, Substitution.identity(2))])
    with pytest.raises(PreconditionError, match="^witness request 1: filter sort 1 does not "
                                                "extend the selected subtuple of length 1$"):
        witness_filter(alg, p, [(p, Substitution.identity(1))])


def test_witness_filter_obstruction_on_a_table_that_breaks_projection():
    """One subst entry set to 0 in the table form of a positive-existential
    algebra: packing the first sort-1 prime filter with the second as a
    witness request over the empty subtuple, the packed filter meets the
    packed ideal.  The same table fails axiom (10)."""
    base = as_table_algebra(concrete(W2, PE, 2))
    pfs = prime_filters(sort_lattice(base, 1))
    data = json.loads(base.to_json())
    data["subst"]["1->2:[2]"][pfs[1].generator] = 0
    broken = TableAlgebra.from_json(json.dumps(data))
    with pytest.raises(ObstructionError, match="^witness obstruction: ") as exc:
        witness_filter(broken, PrimeFilter(1, pfs[0].generator),
                       [(PrimeFilter(1, pfs[1].generator), Substitution(0, 1, ()))])
    assert exc.value.axiom_id == 10
    assert exc.value.shape == (1, 1)
    assert exc.value.r_elems == (1, 2)
    assert exc.value.s_elems == (12,)
    assert not check_axiom(broken, 10, Bounds(max_sort=2)).ok


def test_non_distributive_lattice_rejected():
    # M3: three incomparable atoms below a shared top; a valid lattice, but
    # join of two atoms covers the third, so it is not distributive
    size = 5  # 0=bottom, 1,2,3=atoms, 4=top

    def mt(x, y):
        if x == y:
            return x
        if x == 0 or y == 0:
            return 0
        if x == 4:
            return y
        if y == 4:
            return x
        return 0

    def jn(x, y):
        if x == y:
            return x
        if x == 4 or y == 4:
            return 4
        if x == 0:
            return y
        if y == 0:
            return x
        return 4

    meet = [[mt(a, b) for b in range(size)] for a in range(size)]
    join = [[jn(a, b) for b in range(size)] for a in range(size)]
    ident = Substitution(0, 0, ())
    alg = TableAlgebra(PQF, 0, [size], {("meet", 0): meet, ("join", 0): join, ("zero", 0): 0,
                                        ("one", 0): 4, ("subst", ident): list(range(size))})
    with pytest.raises(NotALatticeError) as exc:
        SortLattice(alg, 0)
    assert "distributive" in str(exc.value)


def test_non_lattice_rejected():
    import json

    base = chain_algebra(3)
    data = json.loads(base.to_json())
    data["sorts"][0]["meet"][0][2] = 1  # corrupt: meet(0, 2) = 1
    broken = TableAlgebra.from_json(json.dumps(data))
    with pytest.raises(NotALatticeError):
        SortLattice(broken, 0)


def test_generated_subalgebra_duality_sample():
    rng = Random(77)
    for trial in range(6):
        size = rng.choice((1, 2))
        parent = concrete(Universe(size), PQF, 2)
        gens = [(rng.choice((1, 2)), 0) for _ in range(2)]
        gens = [(s, rng.randrange(parent.sort_size(s))) for s, _ in gens]
        alg = generated_subalgebra(parent, gens)
        for sort in range(3):
            if alg.sort_size(sort) > 16:
                continue
            lat = sort_lattice(alg, sort)
            assert all_prime_subsets(alg, sort) == {members(alg, pf) for pf in prime_filters(lat)}


def corrupted(algebra, sort, op, a, b):
    """The table form of the algebra with one meet or join entry moved to the
    next element of its sort."""
    data = json.loads(as_table_algebra(algebra).to_json())
    row = data["sorts"][sort][op][a]
    row[b] = (row[b] + 1) % len(row)
    return TableAlgebra.from_json(json.dumps(data))


def test_is_prime_filter_matches_pairwise_oracle_on_every_subset():
    diamond, _ = gallery_diamond()
    w2 = concrete(W2, PQF, 2)
    algebras = [chain_algebra(length) for length in (1, 2, 3, 5)]
    algebras += [diamond, concrete(Universe(0), PQF, 2), concrete(Universe(1), PQF, 2), w2]
    algebras += [as_table_algebra(alg) for alg in algebras]
    algebras += [generated_subalgebra(w2, [(1, 0b01), (2, 0b0110)]),
                 generated_subalgebra(concrete(Universe(3), PQF, 1), [(1, 0b011), (1, 0b110)])]
    algebras += [corrupted(chain_algebra(4), 0, "join", 1, 2),
                 corrupted(chain_algebra(4), 0, "meet", 3, 3),
                 corrupted(diamond, 1, "join", 1, 2),
                 corrupted(w2, 1, "meet", 1, 2),
                 corrupted(w2, 2, "join", 5, 9),
                 corrupted(w2, 2, "meet", 15, 6)]
    sorts = 0
    for alg in algebras:
        for sort in range(alg.max_sort + 1):
            if alg.sort_size(sort) > 16:
                continue
            sorts += 1
            subsets = list(all_subsets(alg.sort_size(sort)))
            verdicts = [is_prime_filter(alg, sort, members) for members in subsets]
            assert verdicts == [is_prime_filter_pairwise(alg, sort, members)
                                for members in subsets], (alg.provenance, sort)
    assert sorts == 51


def one_entry_mutations(algebra, sort):
    """The table form of the algebra, then each table form with one meet or
    join entry of the sort moved to another element: every such mutation."""
    text = as_table_algebra(algebra).to_json()
    yield "none", TableAlgebra.from_json(text)
    size = algebra.sort_size(sort)
    for op in ("meet", "join"):
        for a in range(size):
            for b in range(size):
                for shift in range(1, size):
                    data = json.loads(text)
                    row = data["sorts"][sort][op][a]
                    row[b] = (row[b] + shift) % size
                    yield f"{op}[{a}][{b}] +{shift}", TableAlgebra.from_json(json.dumps(data))


def lattice_outcome(alg, sort):
    try:
        SortLattice(alg, sort)
    except NotALatticeError as exc:
        return str(exc)
    return "ok"


def test_homomorphism_pass_accepts_exactly_when_the_pairwise_loop_passes(monkeypatch):
    cases = [(name, alg, 1) for base in (concrete(W2, PQF, 1), gallery_diamond()[0])
             for name, alg in one_entry_mutations(base, 1)]
    assert len(cases) == 2 * (1 + 2 * 16 * 3)
    fast = [lattice_outcome(alg, sort) for _, alg, sort in cases]
    # The pairwise loop alone: the homomorphism pass made to reject every sort.
    # A sort the loop passes then ends in the AssertionError, so "ok" never.
    monkeypatch.setattr(filters, "_homomorphism_pass", lambda algebra, sort, phi: False)
    loop = []
    for _, alg, sort in cases:
        try:
            loop.append(lattice_outcome(alg, sort))
        except AssertionError:
            loop.append("ok")
    assert fast == loop
    assert [name for (name, _, _), out in zip(cases, fast) if out == "ok"] == ["none", "none"]
    # mutations that pass the order checks, so the homomorphism pass rejects
    assert sum("bound" in out and "bounds fail" not in out for out in fast) == 128


def test_prime_filters_call_the_direct_predicate_only_on_fallback(monkeypatch):
    calls = []
    monkeypatch.setattr(filters, "is_prime_filter", lambda *args: calls.append(args))
    for alg, sort in ((concrete(W2, PQF, 2), 2), (as_table_algebra(gallery_diamond()[0]), 1),
                      (chain_algebra(5), 0)):
        assert prime_filters(sort_lattice(alg, sort))
    assert calls == []


def test_lattice_and_prime_filters_share_one_homomorphism_pass(monkeypatch):
    passes, direct = [], []
    homomorphism_pass = filters._homomorphism_pass
    reject = None  # the map the pass is made to reject

    def counted(algebra, sort, phi):
        passes.append(sort)
        return phi != reject and homomorphism_pass(algebra, sort, phi)
    monkeypatch.setattr(filters, "_homomorphism_pass", counted)
    monkeypatch.setattr(filters, "is_prime_filter", lambda *args: direct.append(args))
    base = concrete(W2, FO, 3)
    # the Boolean route runs no pass, the general route its one; prime_filters
    # runs no pass and no direct predicate of its own
    for alg in (base, as_table_algebra(base)):
        for runs in ([], [3]):
            passes.clear()
            lat = general_route(monkeypatch, alg, 3) if runs else SortLattice(alg, 3)
            assert passes == runs
            for _ in range(2):
                assert [pf.generator for pf in prime_filters(lat)] == [1 << i for i in range(8)]
            assert passes == runs
            assert direct == []
    # the pass rejecting the lattice's own map: the general route's pass
    # rejects, and the pairwise loop passes
    reject = list(range(256))
    for alg in (concrete(W2, FO, 3), as_table_algebra(base)):
        passes.clear()
        with pytest.raises(AssertionError, match="^sort 3 passes the pairwise checks, but its "
                                                 "join-irreducible masks are not an injective "
                                                 "lattice homomorphism$"):
            general_route(monkeypatch, alg, 3)
        assert passes == [3]


def test_is_prime_filter_refuses_a_member_outside_the_sort():
    alg = concrete(W2, PQF, 1)
    assert is_prime_filter(alg, 1, {1, 3})
    assert not is_prime_filter(alg, 1, {1, 3, 4})
    assert not is_prime_filter(alg, 1, {-1, 1, 3})


def test_prime_filter_from_members_refuses_a_set_that_is_not_meet_closed():
    alg = concrete(W2, PQF, 1)
    assert prime_filter_from_members(alg, 1, {1, 3}).generator == 1
    with pytest.raises(PreconditionError, match="member set of sort 1 is not meet-closed"):
        prime_filter_from_members(alg, 1, {1, 2, 3})


def general_route(monkeypatch, algebra, sort):
    """The sort's lattice with the algebra's verdict made False."""
    with monkeypatch.context() as m:
        m.setattr(type(algebra), "boolean_in_canonical_order", lambda self, n: False)
        return SortLattice(algebra, sort)


def assert_same_lattice(fast, slow, label, rng):
    """Two lattices on one sort give the same answers: bounds, join-irreducibles
    and masks, leq and up_set on every pair, prime filters, and separator and
    extend_to_prime on every pair, or on 300 random pairs past 16 elements."""
    size = fast.size
    for name in ("zero", "one", "join_irreducibles"):
        assert getattr(fast, name) == getattr(slow, name), (*label, name)
    assert list(fast._ji_mask) == list(slow._ji_mask), label
    for a in range(size):
        assert fast.up_set(a) == slow.up_set(a), (*label, a)
        assert [fast.leq(a, b) for b in range(size)] == [slow.leq(a, b) for b in range(size)]
    assert prime_filters(fast) == prime_filters(slow), label
    pairs = [(r, s) for r in range(size) for s in range(size)] if size <= 16 else \
        [(rng.randrange(size), rng.randrange(size)) for _ in range(300)]
    for r, s in pairs:
        if r != s:
            assert fast.separator(r, s) == slow.separator(r, s), (*label, r, s)
        if not fast.leq(r, s):
            assert extend_to_prime(fast, r, s) == extend_to_prime(slow, r, s), (*label, r, s)


def test_packed_route_gives_the_general_routes_answers(monkeypatch):
    makers = [(lambda: concrete(W2, PQF, 2), sort, True) for sort in range(3)]
    makers += [(lambda: concrete(Universe(3), FO, 2), 2, True),
               (lambda: gallery_diamond()[0], 1, True)]
    makers += [(lambda make=make: as_table_algebra(make()), sort, True) for make, sort, _ in makers]
    # generated sorts: the parent's whole sort, whose verdict is the parent's,
    # and proper sub-sorts, which take the general route, Boolean in
    # canonical order ({0, 0b011, 0b100, 0b111}) or not
    makers += [(lambda: generated_subalgebra(concrete(W2, PQF, 2), [(2, 1), (2, 2), (2, 4), (2, 8)]),
                sort, True) for sort in range(3)]
    makers += [(lambda: generated_subalgebra(concrete(Universe(3), PQF, 1), [(1, 0b011), (1, 0b100)]),
                1, False),
               (lambda: generated_subalgebra(concrete(Universe(3), PQF, 1), [(1, 0b011), (1, 0b110)]),
                1, False),
               (lambda: generated_subalgebra(concrete(W2, PQF, 2), [(1, 0b01), (2, 0b0110)]), 2, False)]
    rng = Random(28)
    for make, sort, verdict in makers:
        # each route on an algebra of its own, so neither reads the other's store
        fast, slow = sort_lattice(make(), sort), general_route(monkeypatch, make(), sort)
        label = (fast.algebra.provenance, sort)
        assert fast.algebra.boolean_in_canonical_order(sort) is verdict, label
        assert_same_lattice(fast, slow, label, rng)
        # the invariant prime_filters rests on, which the Boolean route never runs
        assert filters._homomorphism_pass(fast.algebra, sort, list(fast._ji_mask)), label
    proper = generated_subalgebra(concrete(Universe(3), PQF, 1), [(1, 0b011), (1, 0b100)])
    assert boolean_rows_packed(proper, 1) and not proper.boolean_in_canonical_order(1)
    assert sort_lattice(proper, 1).join_irreducibles == (1, 2)


def test_other_sorts_take_the_general_route(monkeypatch):
    # zero at the top index, and chains of power-of-two size
    for make, sort in ((lambda: complement_relabelled(concrete(W2, PQF, 2)), 2),
                       (lambda: chain_algebra(4), 0), (lambda: chain_algebra(8), 0)):
        lat, slow = SortLattice(make(), sort), general_route(monkeypatch, make(), sort)
        assert not lat.algebra.boolean_in_canonical_order(sort)
        for name in ("zero", "one", "join_irreducibles"):
            assert getattr(lat, name) == getattr(slow, name), (sort, name)
        assert lat._ji_mask == slow._ji_mask
        if lat.zero:
            assert sorted(lat.size - 1 - j for j in lat.join_irreducibles) == [1, 2, 4, 8]
        else:
            assert lat.join_irreducibles == tuple(range(1, lat.size))
    # one join entry off in the last row: the verdict fails, the pass reads
    # every join row and the last fails, and the pairwise loop raises its
    # message
    rows, join_all = [], TableAlgebra.join_all
    monkeypatch.setattr(TableAlgebra, "join_all",
                        lambda self, n, xs, ys: rows.append(xs[0]) or join_all(self, n, xs, ys))
    mutated = corrupted(concrete(W2, PQF, 2), 2, "join", 15, 3)
    message = lattice_outcome(mutated, 2)
    assert not mutated.boolean_in_canonical_order(2)
    assert rows[:17] == list(range(16)) + [0]
    assert message == "join of sort-2 elements 15,3 is not their least upper bound"
    with pytest.raises(NotALatticeError, match=f"^{message}$"):
        general_route(monkeypatch, corrupted(concrete(W2, PQF, 2), 2, "join", 15, 3), 2)


def test_packed_route_and_prime_filters_run_no_pass_and_store_no_verdict(monkeypatch):
    passes, homomorphism_pass = [], filters._homomorphism_pass
    monkeypatch.setattr(filters, "_homomorphism_pass", lambda algebra, sort, phi:
                        passes.append(sort) or homomorphism_pass(algebra, sort, phi))
    # the packed route and prime_filters run no pass; the general route runs
    # its one pass, in the lattice's construction
    for alg, sort, generators, runs in ((concrete(W2, PQF, 2), 2, [1, 2, 4, 8], []),
                                        (as_table_algebra(concrete(W2, PQF, 2)), 2, [1, 2, 4, 8], []),
                                        (chain_algebra(4), 0, [1, 2, 3], [0])):
        passes.clear()
        lat = sort_lattice(alg, sort)
        assert [pf.generator for pf in prime_filters(lat)] == generators
        assert passes == runs
        assert {key[0] for key in alg._tables}.isdisjoint({"defects", "prime filters"})
        assert ("lattice", sort) in alg._tables


@pytest.mark.parametrize("universe, sort, size", [(2, 3, 256), (3, 2, 512)])
def test_packed_check_at_one_and_four_byte_lanes(universe, sort, size):
    """Sorts of 256 and 512 elements: the concrete form is Boolean by
    construction, and the table form's stored rows pack in one-byte lanes
    and in four-byte array items.  One meet entry off in the last row of
    the 512-element table fails the packed check, and the general route
    raises its own message."""
    base = concrete(Universe(universe), FO, sort)
    for alg in (base, as_table_algebra(base)):
        lattice = SortLattice(alg, sort)
        assert (lattice.size, alg.boolean_in_canonical_order(sort)) == (size, True)
        assert lattice.join_irreducibles == tuple(1 << p for p in range(size.bit_length() - 1))
    if size == 512:
        mutated = corrupted(base, sort, "meet", size - 1, 5)
        message = lattice_outcome(mutated, sort)
        assert not mutated.boolean_in_canonical_order(sort)
        assert message == "meet of sort-2 elements 511,5 is not their greatest lower bound"


@pytest.mark.parametrize("universe", [1, 2])
def test_table_forms_prove_every_sort_and_answer_as_their_concrete_algebras(universe):
    """The verdict is sound: each sort of a first-order algebra's table form
    is proved from its stored rows, the AND and OR it then serves are the
    stored entries, and its lattice is the concrete algebra's."""
    rng = Random(universe)
    for fragment in (f for base in (PQF, QF, PE, FO) for f in (base, base.with_equality())):
        base = concrete(Universe(universe), fragment, 2)
        tables = as_table_algebra(base)
        for n in range(3):
            label = (str(fragment), n)
            assert tables.boolean_in_canonical_order(n), label
            assert tables._tables[("boolean", n)] is True, label
            size = tables.sort_size(n)
            xs = [rng.randrange(size) for _ in range(300)]
            ys = [rng.randrange(size) for _ in xs]
            for op in ("meet", "join"):
                assert (getattr(tables, op + "_all")(n, xs, ys)
                        == _look_up_all(tables._tables[(op, n)], xs, ys)), (*label, op)
            assert_same_lattice(sort_lattice(tables, n), sort_lattice(base, n), label, rng)


def test_a_changed_meet_entry_fails_the_verdict_and_is_served_as_stored(monkeypatch):
    """One meet entry of a Boolean-sized sort moved to the next element: the
    verdict is False and stored, meet_all gathers the changed entry, and the
    lattice takes the general route to the same outcome as the verdict made
    to fail."""
    cases = [(1, FO, 1, 1, 0, "order not antisymmetric at sort-1 element 0"),
             (1, PE, 2, 0, 0, "meet not idempotent at sort-2 element 0"),
             (2, FO, 2, 15, 6, "meet of sort-2 elements 15,6 is not their greatest lower bound"),
             (2, PQF, 1, 1, 2, "join of sort-1 elements 1,2 is not their least upper bound"),
             (2, QF.with_equality(), 2, 5, 5, "meet not idempotent at sort-2 element 5"),
             (2, PE, 2, 0, 15, "bounds fail at sort-2 element 0")]
    for universe, fragment, sort, a, b, message in cases:
        base = concrete(Universe(universe), fragment, 2)
        mutated = corrupted(base, sort, "meet", a, b)
        assert not mutated.boolean_in_canonical_order(sort)
        assert mutated._tables[("boolean", sort)] is False
        top = mutated.sort_size(sort) - 1
        assert mutated.meet_all(sort, [a, top], [b, top]) == [((a & b) + 1) % (top + 1), top]
        assert lattice_outcome(mutated, sort) == message
        with pytest.raises(NotALatticeError, match=f"^{message}$"):
            general_route(monkeypatch, corrupted(base, sort, "meet", a, b), sort)


FRAGMENTS = [f for base in (PQF, QF, PE, FO) for f in (base, base.with_equality())]


def test_the_verdict_is_the_packed_row_check_where_the_fact_lives():
    """Against the reference that reads every row by meet_all and join_all:
    equal on every sort of concrete algebras over |W| 0-3 (sorts 0-3, 0-2
    for |W| = 3) and two-block products (sorts 0-2), in every fragment, and
    on the tabulated and served sorts of table forms; on generated sorts the
    verdict is the reference's exactly where the closure is the parent's
    whole sort, and False elsewhere, Boolean or not."""
    checked = 0
    for fragment in FRAGMENTS:
        algebras = [concrete(Universe(u), fragment, 2 if u == 3 else 3) for u in range(4)]
        algebras += [product([concrete(Universe(u), fragment, 2), concrete(Universe(v), fragment, 2)])
                     for u, v in ((0, 2), (1, 1), (1, 2), (2, 2))]
        for alg in algebras:
            for n in range(alg.max_sort + 1):
                assert alg.boolean_in_canonical_order(n) is boolean_rows_packed(alg, n) is True, \
                    (alg.provenance, str(fragment), n)
                checked += 1
    assert checked == 8 * (4 * 3 + 3 + 4 * 3)
    for make in (lambda: concrete(W2, FO, 1), lambda: concrete(Universe(3), PQF, 1),
                 lambda: gallery_diamond()[0]):
        served = as_table_algebra(make(), with_extension=True).extend(2)
        for n in range(3):
            assert served.boolean_in_canonical_order(n) is boolean_rows_packed(served, n), n
    assert not as_table_algebra(chain_algebra(4)).boolean_in_canonical_order(0)
    assert not complement_relabelled(concrete(W2, PQF, 2)).boolean_in_canonical_order(2)
    whole, proper = 0, 0
    for alg in (generated_subalgebra(concrete(W2, PQF, 2), [(2, 1), (2, 2), (2, 4), (2, 8)]),
                generated_subalgebra(concrete(W2, PQF, 2), [(1, 0b01), (2, 0b0110)]),
                generated_subalgebra(concrete(Universe(3), PQF, 1), [(1, 0b011), (1, 0b100)]),
                generated_subalgebra(concrete(Universe(3), QF, 2), [(2, 1)]),
                generated_subalgebra(as_table_algebra(concrete(W2, FO, 2)), [(1, 1)]),
                generated_subalgebra(chain_algebra(4), [(0, 2)])):
        for n in range(alg.max_sort + 1):
            is_whole = alg.sort_size(n) == alg.parent.sort_size(n)
            whole, proper = whole + is_whole, proper + (not is_whole and boolean_rows_packed(alg, n))
            assert alg.boolean_in_canonical_order(n) is (is_whole and boolean_rows_packed(alg, n))
    assert (whole, proper) == (9, 3)


def gathered(tables):
    """A copy of a table algebra whose meet_all and join_all look up its
    stored rows on every tabulated sort, the verdict made False."""
    rows = copy.copy(tables)
    rows._tables = {**tables._tables, **{key: False for key in tables._tables if key[0] == "boolean"}}
    return rows


def test_the_verdict_made_at_construction_is_the_row_oracle():
    """The table forms of the algebras the verdict test above covers, and
    of other sorts of Boolean size: the verdict stored at construction is
    the reference's, read off the stored rows by gathering."""
    checked = 0
    for fragment in FRAGMENTS:
        algebras = [concrete(Universe(u), fragment, 2 if u == 3 else 3) for u in range(4)]
        algebras += [product([concrete(Universe(u), fragment, 2), concrete(Universe(v), fragment, 2)])
                     for u, v in ((0, 2), (1, 1), (1, 2), (2, 2))]
        for alg in map(as_table_algebra, algebras):
            for n in range(alg.max_sort + 1):
                assert alg._tables[("boolean", n)] is boolean_rows_packed(gathered(alg), n) is True, \
                    (alg.provenance, str(fragment), n)
                checked += 1
    assert checked == 8 * (4 * 3 + 3 + 4 * 3)
    others = [(as_table_algebra(chain_algebra(4)), 0), (complement_relabelled(concrete(W2, PQF, 2)), 2),
              (corrupted(concrete(W2, PQF, 2), 2, "join", 15, 3), 2),
              (corrupted(concrete(Universe(3), FO, 2), 2, "meet", 511, 5), 2)]
    for alg, sort in others:
        assert alg._tables[("boolean", sort)] is boolean_rows_packed(gathered(alg), sort) is False
    for make in (lambda: concrete(W2, FO, 1), lambda: concrete(Universe(3), PQF, 1),
                 lambda: gallery_diamond()[0]):
        tables = as_table_algebra(make(), with_extension=True)
        served = gathered(tables).extend(2)
        for n in range(3):
            assert tables.extend(2).boolean_in_canonical_order(n) is boolean_rows_packed(served, n), n


def test_proved_sorts_keep_packed_rows_and_other_sorts_lists():
    """Meet and join rows stay packed on a proved sort, bytes up to 256
    elements and two-byte arrays above; a sort of Boolean size that is not
    proved holds lists, whether its rows arrived packed (as_table_algebra)
    or as lists (a file), and answers meet_all and join_all by looking them
    up, as it did with list rows only."""
    tables = as_table_algebra(concrete(Universe(3), FO, 2))
    for n, kind in ((0, bytes), (1, bytes), (2, array)):
        assert {type(row) for op in ("meet", "join") for row in tables._tables[(op, n)]} == {kind}, n
    assert tables._tables[("meet", 2)][0].typecode == "H"
    rng = Random(39)
    relabelled = complement_relabelled(concrete(W2, PQF, 2))
    # index x stands for the bitset 15 - x: meet is OR and join is AND
    for alg, sort, meet, join in ((relabelled, 2, operator.or_, operator.and_),
                                  (as_table_algebra(relabelled), 2, operator.or_, operator.and_),
                                  (chain_algebra(4), 0, min, max),
                                  (as_table_algebra(chain_algebra(4)), 0, min, max)):
        assert not alg.boolean_in_canonical_order(sort)
        size = alg.sort_size(sort)
        for op, expected in (("meet", meet), ("join", join)):
            assert {type(row) for row in alg._tables[(op, sort)]} == {list}, (alg.provenance, op)
            for xs in ([rng.randrange(size) for _ in range(60)], [size - 1] * 60):
                ys = [rng.randrange(size) for _ in xs]
                assert getattr(alg, op + "_all")(sort, xs, ys) == list(map(expected, xs, ys))
                assert [getattr(alg, op)(sort, x, y) for x, y in zip(xs, ys)] == list(map(expected, xs, ys))


def test_a_concrete_verdict_and_a_proved_lattice_make_no_batched_call(monkeypatch):
    base = concrete(Universe(3), FO, 2)
    algebras = [base, product([concrete(W2, PQF, 2), concrete(Universe(1), PQF, 2)]),
                generated_subalgebra(concrete(W2, PQF, 2), [(2, 1), (2, 2), (2, 4), (2, 8)]),
                as_table_algebra(base), as_table_algebra(concrete(W2, FO, 1), with_extension=True).extend(3)]
    proper = generated_subalgebra(concrete(Universe(3), PQF, 1), [(1, 0b011), (1, 0b100)])
    calls = []
    for name in ("meet_all", "join_all"):
        def counted(self, n, xs, ys, _op=getattr(FiniteAlgebra, name)):
            calls.append((self.provenance, n))
            return _op(self, n, xs, ys)
        monkeypatch.setattr(FiniteAlgebra, name, counted)
    for alg in algebras:
        for n in range(alg.max_sort + 1):
            assert alg.boolean_in_canonical_order(n)
            assert SortLattice(alg, n).join_irreducibles == tuple(
                1 << p for p in range(alg.sort_size(n).bit_length() - 1))
    assert calls == []
    # the spy sees the general route's rows
    SortLattice(proper, 1)
    assert calls.count(("generated(concrete(3))", 1)) == 3 * 4
