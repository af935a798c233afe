import dataclasses
import pickle
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relalg import (
    FO,
    PQF,
    ArityError,
    FormatError,
    Relation,
    Substitution,
    Universe,
    assoc_cylindrification,
    concrete,
    delta,
    exists_last,
    partitioning,
    rel_apply,
    relation_literal,
)
from relalg.relations import (
    _exists_last_bits,
    _index_map,
    _rel_apply_bits,
    all_substitutions,
    index_tuple,
    tuple_index,
)

import oracles
from oracles import (as_set, compose, diagonal, from_set, inverse_image, parse_relation_literal,
                     project_last, tuple_apply)


W2 = Universe(2)


def full(n: int, size: int = 2) -> int:
    """The bits of the full n-ary relation over a universe of the given size."""
    return (1 << size**n) - 1


def image(alpha: Substitution, bits: int) -> int:
    """The bits of rel_apply(alpha, r) for the relation r over W2 with these bits."""
    return rel_apply(alpha, Relation(W2, alpha.dom, bits)).bits


def test_tuple_index_round_trip():
    for size in (1, 2, 3):
        for arity in (0, 1, 2, 3):
            for idx in range(size**arity):
                assert tuple_index(size, index_tuple(size, arity, idx)) == idx


def test_tuple_apply_swap():
    swap = Substitution(2, 2, (2, 1))
    assert tuple_apply(swap, (0, 1)) == (1, 0)


def test_tuple_apply_repetition_pattern():
    # R(x,x,y,x) over the context (x,y,z)
    alpha = Substitution(4, 3, (1, 1, 2, 1))
    assert tuple_apply(alpha, ("a", "b", "c")) == ("a", "a", "b", "a")


def test_tuple_apply_identity():
    for n in range(4):
        ident = Substitution.identity(n)
        x = tuple(range(n))
        assert tuple_apply(ident, x) == x


def test_tuple_apply_length_mismatch():
    with pytest.raises(ArityError):
        tuple_apply(Substitution(1, 2, (1,)), (0,))


def test_rel_apply_cylinder():
    c1 = partitioning(1, 1)[0]
    r = from_set(2, 1, [(0,)])
    assert as_set(rel_apply(c1, r)) == {(0, 0), (0, 1)}


def test_rel_apply_swap_singleton():
    swap = Substitution(2, 2, (2, 1))
    r = from_set(2, 2, [(0, 1)])
    assert as_set(rel_apply(swap, r)) == {(1, 0)}


def test_rel_apply_diagonal_restriction():
    alpha = Substitution(2, 1, (1, 1))
    r = from_set(2, 2, [(0, 0), (0, 1)])
    expected = {(x,) for x in range(2) if (x, x) in as_set(r)}
    assert as_set(rel_apply(alpha, r)) == expected == {(0,)}


def test_rel_apply_arity_mismatch():
    with pytest.raises(ArityError):
        rel_apply(Substitution(2, 1, (1, 1)), from_set(2, 1, [(0,)]))


@given(st.integers(0, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_rel_apply_matches_set_oracle(size, data):
    dom = data.draw(st.integers(0, 2))
    cod = data.draw(st.integers(0, 2))
    entries = tuple(data.draw(st.integers(1, cod)) for _ in range(dom)) if cod else ()
    if dom and not cod:
        return
    alpha = Substitution(dom, cod, entries)
    bits = data.draw(st.integers(0, (1 << size**dom) - 1))
    r = Relation(Universe(size), dom, bits)
    assert as_set(rel_apply(alpha, r)) == inverse_image(alpha.map, cod, size, as_set(r))


def test_compose_example():
    beta = Substitution(2, 1, (1, 1))
    alpha = Substitution(2, 2, (2, 1))
    assert compose(beta, alpha) == Substitution(2, 1, (1, 1))


def test_compose_identity_left_right():
    alpha = Substitution(2, 3, (3, 1))
    assert compose(Substitution.identity(3), alpha) == alpha
    assert compose(alpha, Substitution.identity(2)) == alpha


def test_compose_functoriality_exhaustive_small():
    # all composable pairs with sorts <= 2 over |W| = 2, all relations
    for n in range(3):
        for k in range(3):
            for alpha in all_substitutions(n, k):
                for m in range(3):
                    for beta in all_substitutions(k, m):
                        for bits in range(1 << 2**n):
                            r = Relation(W2, n, bits)
                            assert rel_apply(compose(beta, alpha), r) == rel_apply(
                                beta, rel_apply(alpha, r)
                            )


def test_compose_functoriality_w3_arity2():
    u3 = Universe(3)
    for n in range(3):
        for k in range(3):
            for alpha in all_substitutions(n, k):
                for m in range(3):
                    for beta in all_substitutions(k, m):
                        for bits in (0, 1, (1 << 3**n) - 1, 0b1011 % (1 << 3**n)):
                            r = Relation(u3, n, bits)
                            assert rel_apply(compose(beta, alpha), r) == rel_apply(
                                beta, rel_apply(alpha, r)
                            )


def test_lattice_ops_examples():
    """The algebra of all relations over W2 meets, joins and negates bitsets."""
    alg = concrete(W2, FO, 2)
    a = from_set(2, 2, [(0, 1)])
    b = from_set(2, 2, [(0, 1), (1, 1)])
    assert alg.meet(2, a.bits, b.bits) == a.bits
    assert alg.join(2, a.bits, b.bits) == b.bits
    assert as_set(Relation(W2, 1, alg.neg(1, alg.zero(1)))) == {(0,), (1,)}


def test_empty_universe_degeneracy():
    alg = concrete(Universe(0), PQF, 1)
    assert alg.one(0) == 1  # the empty tuple is present
    assert alg.one(1) == alg.zero(1) == 0


def test_substitution_preserves_lattice_ops_exhaustive():
    for n in range(3):
        for k in range(3):
            for alpha in all_substitutions(n, k):
                for rb in range(1 << 2**n):
                    assert image(alpha, rb ^ full(n)) == image(alpha, rb) ^ full(k)
                    for sb in range(1 << 2**n):
                        assert image(alpha, rb & sb) == image(alpha, rb) & image(alpha, sb)
                        assert image(alpha, rb | sb) == image(alpha, rb) | image(alpha, sb)


def test_substitution_preserves_lattice_ops_arity3_sampled():
    from random import Random

    rng = Random(31415)
    pairs = [(n, k) for n in range(4) for k in range(4) if max(n, k) == 3]
    for n, k in pairs:
        substitutions = list(all_substitutions(n, k))
        for alpha in substitutions:
            assert image(alpha, full(n)) == full(k)
            assert image(alpha, 0) == 0
            for _ in range(40):
                rb, sb = rng.getrandbits(2**n), rng.getrandbits(2**n)
                assert image(alpha, rb ^ full(n)) == image(alpha, rb) ^ full(k)
                assert image(alpha, rb & sb) == image(alpha, rb) & image(alpha, sb)
                assert image(alpha, rb | sb) == image(alpha, rb) | image(alpha, sb)


def test_exists_last_examples():
    assert as_set(exists_last(from_set(2, 2, [(0, 1)]))) == {(0,)}
    assert exists_last(Relation(W2, 3, 0)) == Relation(W2, 2, 0)
    assert as_set(exists_last(from_set(2, 2, [(0, 0), (1, 0)]))) == {(0,), (1,)}


def test_exists_last_arity_zero_rejected():
    with pytest.raises(ArityError):
        exists_last(Relation(W2, 0, 1))


@given(st.integers(0, 3), st.integers(1, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_exists_last_matches_set_oracle(size, arity, data):
    bits = data.draw(st.integers(0, (1 << size**arity) - 1))
    r = Relation(Universe(size), arity, bits)
    assert as_set(exists_last(r)) == project_last(as_set(r))


def test_exists_preserves_bottom_and_join():
    def project(bits):
        return exists_last(Relation(W2, 2, bits)).bits

    for rb in range(16):
        for sb in range(16):
            assert project(rb | sb) == project(rb) | project(sb)
    assert project(0) == 0


def test_delta_examples():
    assert as_set(delta(W2, 2, 1, 2)) == {(0, 0), (1, 1)}
    for n in (1, 2, 3):
        for i in range(1, n + 1):
            assert delta(W2, n, i, i).bits == full(n)
    assert delta(W2, 2, 1, 2) == delta(W2, 2, 2, 1)
    assert as_set(delta(Universe(3), 3, 1, 3)) == diagonal(3, 3, 1, 3)


def test_delta_index_out_of_range():
    with pytest.raises(ArityError):
        delta(W2, 2, 0, 1)
    with pytest.raises(ArityError):
        delta(W2, 2, 1, 3)


def test_partitioning_examples():
    c1, c2 = partitioning(1, 1)
    assert c1 == Substitution(1, 2, (1,))
    assert c2 == Substitution(1, 2, (2,))
    (ident,) = partitioning(3)
    assert ident == Substitution.identity(3)
    assert partitioning() == []
    for c in partitioning(2, 1, 3):
        assert all(a < b for a, b in zip(c.map, c.map[1:]))  # strictly increasing


def test_partitioning_refuses_a_negative_block():
    with pytest.raises(ArityError, match="^negative block arity -1$"):
        partitioning(-1)


def test_contains_refuses_a_wrong_length_and_misses_foreign_elements():
    r = from_set(2, 2, [(0, 1)])
    assert r.contains((0, 1)) and not r.contains((1, 0))
    with pytest.raises(ArityError, match="^tuple of length 1 tested against arity 2$"):
        r.contains((0,))
    assert not r.contains((0, 2))
    assert not r.contains((-1, 1))


def test_partitioning_blocks_select_their_slice():
    cs = partitioning(2, 1)
    x = (10, 11, 12)
    assert tuple_apply(cs[0], x) == (10, 11)
    assert tuple_apply(cs[1], x) == (12,)


def test_assoc_cylindrification():
    c = assoc_cylindrification(2)
    assert tuple_apply(c, (5, 6, 7)) == (5, 6)
    c0 = assoc_cylindrification(0)
    assert c0.map == ()
    assert image(c0, full(0)) == full(1)
    assert image(c0, 0) == 0
    c1 = assoc_cylindrification(1)
    assert as_set(rel_apply(c1, from_set(2, 1, [(0,)]))) == {(0, 0), (0, 1)}


def test_projection_cylinder_galois_connection():
    c = assoc_cylindrification(1)
    for rb in range(16):
        r = Relation(W2, 2, rb)
        for sb in range(4):
            s = Relation(W2, 1, sb)
            lhs = exists_last(r).bits & s.bits == exists_last(r).bits
            rhs = r.bits & rel_apply(c, s).bits == r.bits
            assert lhs == rhs
        # the adjunction laws themselves
        assert r.bits & rel_apply(c, exists_last(r)).bits == r.bits
    for rb in range(16):
        r = Relation(W2, 2, rb)
        for sb in range(4):
            assert exists_last(Relation(W2, 2, rb & image(c, sb))).bits == exists_last(r).bits & sb


@given(st.integers(0, 3), st.integers(0, 2), st.data())
@settings(max_examples=80, deadline=None)
def test_galois_connection_random(size, arity, data):
    u = Universe(size)
    c = assoc_cylindrification(arity)
    r = Relation(u, arity + 1, data.draw(st.integers(0, (1 << size ** (arity + 1)) - 1)))
    s = Relation(u, arity, data.draw(st.integers(0, (1 << size**arity) - 1)))
    projected, cylinder = exists_last(r).bits, rel_apply(c, s).bits
    assert (projected & s.bits == projected) == (r.bits & cylinder == r.bits)


def test_relation_literal_round_trip_examples():
    r = from_set(3, 2, [(0, 1), (2, 0)])
    text = relation_literal(r)
    assert text == "arity=2 universe=3 {(0,1),(2,0)}"
    assert parse_relation_literal(text) == r
    assert parse_relation_literal("arity=2  universe=3  { ( 0 , 1 ) , ( 2 , 0 ) }") == r
    assert parse_relation_literal("arity=0 universe=2 {()}") == Relation(W2, 0, 1)
    assert parse_relation_literal("arity=1 universe=2 {}") == Relation(W2, 1, 0)


def test_relation_literal_malformed():
    for bad in ("arity=2 universe=3 {(0,1)", "universe=3 {(0)}", "arity=1 universe=2 {(0,)} "):
        with pytest.raises(FormatError):
            parse_relation_literal(bad)


@given(st.integers(0, 3), st.integers(0, 3), st.data())
@settings(max_examples=80, deadline=None)
def test_relation_literal_round_trip_random(size, arity, data):
    bits = data.draw(st.integers(0, (1 << size**arity) - 1))
    r = Relation(Universe(size), arity, bits)
    assert parse_relation_literal(relation_literal(r)) == r


def test_relation_validation():
    with pytest.raises(ValueError):
        Relation(W2, 1, 4)  # only 2 tuples exist
    with pytest.raises(ArityError):
        Relation.from_tuples(W2, 2, [(0,)])
    with pytest.raises(ValueError):
        Relation.from_tuples(W2, 1, [(5,)])


def test_relations_are_immutable():
    r = Relation(W2, 1, full(1))
    with pytest.raises(Exception):
        r.bits = 0


def test_substitution_validation():
    with pytest.raises(ArityError):
        Substitution(2, 1, (1,))
    with pytest.raises(ArityError):
        Substitution(1, 1, (2,))
    with pytest.raises(ArityError):
        Substitution(1, 1, (0,))


def test_substitution_hash_is_stored_once_and_follows_equality():
    """A substitution hashes once, when built; equal ones built apart hash
    equal, and the hash survives pickling and dataclasses.replace."""
    alpha, again = Substitution(3, 2, (2, 1, 2)), Substitution(3, 2, [2, 1, 2])
    assert alpha == again and alpha is not again and hash(alpha) == hash(again)
    assert {alpha: "a"}[again] == "a"
    assert hash(alpha) == hash((3, 2, (2, 1, 2)))  # the hash of the generated __hash__
    assert repr(alpha) == "Substitution(dom=3, cod=2, map=(2, 1, 2))"
    assert [f.name for f in dataclasses.fields(alpha)] == ["dom", "cod", "map"]
    copy = pickle.loads(pickle.dumps(alpha))
    assert copy == alpha and hash(copy) == hash(alpha)
    moved = dataclasses.replace(alpha, map=(1, 1, 2))
    assert moved == Substitution(3, 2, (1, 1, 2)) and hash(moved) == hash(Substitution(3, 2, (1, 1, 2)))
    assert dataclasses.replace(moved, map=(2, 1, 2)) == alpha
    assert hash(dataclasses.replace(moved, map=(2, 1, 2))) == hash(alpha)
    with pytest.raises(dataclasses.FrozenInstanceError):
        alpha.map = (1, 1, 1)
    # the bad maps are refused as before, replace included
    for args, message in [((-1, 1, ()), "negative sort in substitution -1->1"),
                          ((2, 1, (1,)), "substitution map has length 1, expected 2"),
                          ((1, 1, (2,)), "substitution entry 2 outside 1..1"),
                          ((1, 1, (0,)), "substitution entry 0 outside 1..1")]:
        with pytest.raises(ArityError) as caught:
            Substitution(*args)
        assert str(caught.value) == message
    with pytest.raises(ArityError) as caught:
        dataclasses.replace(alpha, cod=1)
    assert str(caught.value) == "substitution entry 2 outside 1..1"


# The C-speed kernels against their per-tuple definitions in oracles.py


@given(st.randoms(use_true_random=False))
@settings(max_examples=10, deadline=None)
def test_every_substitution_kernel_matches_the_per_tuple_oracle(rng):
    for size in range(5):
        for dom in range(4):
            for cod in range(4):
                for alpha in all_substitutions(dom, cod):
                    assert _index_map(alpha, size) == oracles.index_map(alpha, size), (alpha, size)
                    for bits in (0, (1 << size**dom) - 1, rng.getrandbits(size**dom)):
                        assert _rel_apply_bits(alpha, size, bits) == oracles.rel_apply_bits(
                            alpha, size, bits), (alpha, size, bits)


def fo_eval_substitutions() -> list[tuple[int, Substitution]]:
    """42 seeded (|W|, alpha) at the shapes fo-eval feeds the kernel: |W| 5
    and 6 with dom and cod up to 6, cod 0 among them, and the maps at
    |W| = 1 too, where every gather has one entry."""
    rng = Random(31)
    maps = [Substitution(0, 0, ()), Substitution(0, 3, ()), Substitution(6, 1, (1,) * 6),
            Substitution(1, 6, (6,)), Substitution(6, 6, (6, 5, 4, 3, 2, 1))]
    while len(maps) < 14:
        dom, cod = rng.randint(1, 6), rng.randint(1, 6)
        maps.append(Substitution(dom, cod, tuple(rng.randint(1, cod) for _ in range(dom))))
    return [(size, alpha) for alpha in maps for size in (1, 5, 6)]


def test_substitution_kernel_matches_the_oracle_at_fo_eval_shapes():
    cases = fo_eval_substitutions()
    maps = {alpha for _, alpha in cases}
    assert len(cases) == 42 and len(maps) == 14
    assert any(alpha.cod == 0 for alpha in maps)
    assert any(len(set(alpha.map)) < alpha.dom for alpha in maps)  # not injective
    assert any(len(set(alpha.map)) < alpha.cod for alpha in maps)  # not surjective
    rng = Random(32)
    for size, alpha in cases:
        for bits in (0, full(alpha.dom, size), rng.getrandbits(size**alpha.dom)):
            assert _rel_apply_bits(alpha, size, bits) == oracles.rel_apply_bits(alpha, size, bits), \
                (size, alpha, bits)


@given(st.integers(0, 4), st.integers(1, 4), st.data())
@settings(max_examples=200, deadline=None)
def test_exists_last_kernel_matches_the_per_tuple_oracle(size, arity, data):
    bits = data.draw(st.integers(0, (1 << size**arity) - 1))
    assert _exists_last_bits(size, arity, bits) == oracles.exists_last_bits(size, arity, bits)


def test_exists_last_kernel_on_single_tuples():
    for size in range(5):
        for arity in range(1, 5):
            for idx in range(size**arity):
                assert _exists_last_bits(size, arity, 1 << idx) == \
                    oracles.exists_last_bits(size, arity, 1 << idx), (size, arity, idx)


def test_delta_matches_the_per_tuple_oracle():
    """Every diagonal with i < j, i > j and i == j, universes of size 0 to 4."""
    for size in range(5):
        u = Universe(size)
        for arity in range(1, 5):
            for i in range(1, arity + 1):
                for j in range(1, arity + 1):
                    assert delta(u, arity, i, j).bits == oracles.delta_bits(size, arity, i, j), \
                        (size, arity, i, j)


@given(st.integers(0, 4), st.integers(0, 4), st.data())
@settings(max_examples=200, deadline=None)
def test_tuples_match_a_bit_by_bit_walk(size, arity, data):
    r = Relation(Universe(size), arity, data.draw(st.integers(0, (1 << size**arity) - 1)))
    assert list(r.tuples()) == oracles.tuple_walk(r)
