import io

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from relalg import (
    Bounds,
    InsufficientSortsError,
    ObstructionError,
    PreconditionError,
    PrimeFilter,
    Relation,
    SchemaInstance,
    Universe,
    as_table_algebra,
    check_fragment,
    concrete,
    embed,
    filter_to_morphism,
    find_obligations,
    gallery_pe_theory,
    generated_subalgebra,
    kernel,
    master_filter_model,
    prime_filters,
    product,
    replay_instance,
    saturate,
    sort_lattice,
    verify_morphism,
)
from relalg.fragments import FO, PE, PQF, QF
from relalg.representation import separating_family, witness_stage

from oracles import as_set, separating_family_pairwise


W2 = Universe(2)


def bits(size, arity, tuples):
    return Relation.from_tuples(Universe(size), arity, tuples).bits


def test_filter_model_worked_example():
    alg = concrete(W2, PQF, 2)
    f = next(pf for pf in prime_filters(sort_lattice(alg, 2))
             if pf.generator == bits(2, 2, [(0, 1)]))
    model = filter_to_morphism(alg, f)
    assert model.universe.size == 2
    assert as_set(model.phi[1][bits(2, 1, [(0,)])]) == {(0,)}
    assert model.verification.ok


def test_filter_model_preserves_bounds():
    alg = concrete(W2, PQF, 2)
    for f in prime_filters(sort_lattice(alg, 1)):
        model = filter_to_morphism(alg, f)
        for k in range(3):
            assert model.phi[k][alg.zero(k)].bits == 0
            assert model.phi[k][alg.one(k)] == Relation(
                model.universe, k, (1 << model.universe.size**k) - 1
            )


def test_filter_model_equality_identification():
    alg = concrete(W2, PQF.with_equality(), 2)
    f = next(pf for pf in prime_filters(sort_lattice(alg, 2))
             if pf.generator == bits(2, 2, [(0, 0)]))
    assert alg.delta(2, 1, 2) in sort_lattice(alg, 2).up_set(f.generator)
    model = filter_to_morphism(alg, f)
    assert model.universe.size == 1
    assert model.class_of == (0, 0)
    assert model.verification.ok


def test_filter_models_all_fragments_all_small_filters():
    for size in (1, 2):
        for frag in (PQF, QF, PE, FO, PQF.with_equality(), QF.with_equality(),
                     PE.with_equality(), FO.with_equality()):
            alg = concrete(Universe(size), frag, 2)
            for sort in (1, 2):
                for f in prime_filters(sort_lattice(alg, sort)):
                    model = filter_to_morphism(alg, f)  # verifies on construction
                    assert model.verification.ok
                    if frag.exists:
                        # containment direction of projection, explicitly
                        target = concrete(model.universe, frag, 2)
                        for n in range(2):
                            for a in alg.elements(n + 1):
                                lhs = target.exists(n, model.phi[n + 1][a].bits)
                                rhs = model.phi[n][alg.exists(n, a)].bits
                                assert lhs & rhs == lhs


def separating_model(alg, sort, r, s):
    """The model read off the least join-irreducible below exactly one of r
    and s, as separating_family chooses it."""
    return filter_to_morphism(alg, PrimeFilter(sort, sort_lattice(alg, sort).separator(r, s)))


def test_separate_examples():
    alg = concrete(W2, PQF, 2)
    r, s = bits(2, 1, [(0,)]), bits(2, 1, [(1,)])
    model = separating_model(alg, 1, r, s)
    assert model.filter.generator == r
    assert model.phi[1][r] != model.phi[1][s]
    # comparable pair: the filter contains exactly one of them
    low, high = alg.zero(1), bits(2, 1, [(0,)])
    lattice = sort_lattice(alg, 1)
    inside = lattice.up_set(lattice.separator(low, high))
    assert (low in inside) != (high in inside)


def test_separate_diamond(diamond):
    alg, _ = diamond
    a, b = 1, 2
    model = separating_model(alg, 1, a, b)
    assert model.filter.generator == a
    assert model.phi[1][a] != model.phi[1][b]


def test_separate_rejects_equal():
    lattice = sort_lattice(concrete(W2, PQF, 2), 1)
    with pytest.raises(PreconditionError, match="^sort-1 elements 3 and 3 are not distinct$"):
        lattice.separator(3, 3)
    for r, s in [(-1, 0), (0, 16)]:
        with pytest.raises(PreconditionError, match="not both sort-1 elements"):
            lattice.separator(r, s)


def test_separating_family_matches_the_pairwise_scan(diamond):
    for alg, scope in [(concrete(W2, FO, 2), 2), (diamond[0], 2),
                       (as_table_algebra(concrete(W2, QF, 3)), 3)]:
        assert separating_family(alg, scope) == separating_family_pairwise(alg, scope)


def test_embed_pqf_tables_with_extension():
    base = concrete(Universe(1), PQF, 2)
    tables = as_table_algebra(base, with_extension=True)
    cert = embed(tables, scope=2)
    assert cert.status == "full"
    assert cert.injective
    assert cert.target_size == 3  # sum of the three filter sorts 0+1+2
    assert cert.verification.ok
    # transported tables agree with the original on scoped sorts
    fmap = {n: [rel.bits for rel in rels] for n, rels in cert.phi.items()}
    target = concrete(Universe(cert.target_size), PQF, 2)
    assert verify_morphism(fmap, tables, target).ok


def test_embed_qf_tables_with_extension():
    base = concrete(Universe(1), QF, 2)
    tables = as_table_algebra(base, with_extension=True)
    cert = embed(tables, scope=2)
    assert cert.status == "full"
    assert cert.injective
    assert cert.verification.ok


@pytest.mark.parametrize("frag", [PE, FO], ids=str)
def test_embed_tables_past_the_element_cap(frag):
    # the verification target at the master sort is never enumerated, so the
    # element cap of the user-facing concrete() must not stop the embedding
    tables = as_table_algebra(concrete(Universe(1), frag, 3), with_extension=True)
    cert = embed(tables, scope=2)
    assert cert.status == "full"
    assert cert.injective
    assert cert.verification.ok


def test_embed_equality_variant():
    cert = embed(concrete(Universe(1), PQF.with_equality(), 2), scope=2)
    assert cert.status == "full"
    assert cert.injective


def test_embed_scope_zero_single_filter():
    cert = embed(concrete(Universe(1), PQF, 2), scope=0)
    assert cert.status == "full"
    assert cert.target_size == 0  # the single sort-0 filter has arity 0
    assert cert.injective


def test_embed_diamond_obstruction(diamond):
    alg, _ = diamond
    with pytest.raises(ObstructionError) as exc:
        embed(alg, scope=2)
    assert exc.value.axiom_id == 0


def test_embed_tables_without_extension_fail():
    tables = as_table_algebra(concrete(Universe(1), PQF, 2))
    with pytest.raises(InsufficientSortsError):
        embed(tables, scope=2)


def test_master_model_is_one_to_one_almost_morphism():
    alg = concrete(Universe(1), PE, 2)
    model, family = master_filter_model(alg, scope=2)
    assert [pf.sort for pf in family] == [0, 1, 2]
    for n in range(3):
        images = [model.phi[n][a] for a in alg.elements(n)]
        assert len(set(images)) == len(images)
    assert model.verification.ok


def test_saturate_pe_one_point_full_quickly():
    alg = concrete(Universe(1), PE, 2)
    model, _ = master_filter_model(alg, scope=2)
    cert = saturate(alg, model, rounds=5)
    assert cert.status == "full"
    assert cert.rounds_used <= 5
    assert cert.injective
    assert cert.verification.ok


def test_saturate_already_full_uses_zero_rounds():
    alg = concrete(Universe(1), PE, 2)
    model, _ = master_filter_model(alg, scope=2)
    cert = saturate(alg, model, rounds=0)
    assert cert.status == "full"
    assert cert.rounds_used == 0


def _unsaturated_start():
    alg = concrete(W2, PE, 2)
    f = next(pf for pf in prime_filters(sort_lattice(alg, 1))
             if pf.generator == bits(2, 1, [(0,)]))
    return alg, filter_to_morphism(alg, f)


def test_saturate_budget_zero_reports_honest_almost():
    alg, start = _unsaturated_start()
    cert = saturate(alg, start, rounds=0)
    assert cert.status == "almost"
    assert cert.rounds_used == 0
    assert len(cert.obligations) == 2


def test_saturate_completes_and_shrinks_kernel():
    alg, start = _unsaturated_start()
    cert = saturate(alg, start, rounds=5)
    assert cert.status == "full"
    assert cert.rounds_used == 1
    assert cert.target_size == 3
    start_map = start.fmap()
    final_map = {n: [rel.bits for rel in rels] for n, rels in cert.phi.items()}
    for n in range(3):
        assert kernel(final_map, n) <= kernel(start_map, n)
    # the start actually identified elements, the saturated map does not
    assert kernel(start_map, 1)
    assert not kernel(final_map, 1)


def test_saturate_fo_fragment():
    alg = concrete(Universe(1), FO, 2)
    model, _ = master_filter_model(alg, scope=2)
    cert = saturate(alg, model, rounds=5)
    assert cert.status == "full"
    assert cert.injective


def test_embed_pe_delegates_to_saturation():
    cert = embed(concrete(Universe(1), PE, 2), scope=2, rounds=5)
    assert cert.status == "full"
    assert cert.injective


def test_witness_stage_preserves_diagram():
    alg, start = _unsaturated_start()
    obligations = find_obligations(start, 2)
    assert len(obligations) == 2
    stage = witness_stage(start, obligations, 2)  # asserts preservation internally
    assert stage.universe.size == 3
    assert stage.filter.sort == start.universe.size + len(obligations)  # one packed filter
    assert not find_obligations(stage, 2)


def test_saturate_two_point_universe_scope_one():
    alg = concrete(W2, PE, 2)
    model, family = master_filter_model(alg, scope=1)
    assert [pf.sort for pf in family] == [0, 1, 1]
    cert = saturate(alg, model, rounds=3)
    assert cert.status == "full"
    assert cert.target_size == 2
    for n in range(2):  # one-to-one on the scoped sorts
        column = [cert.phi[n][a] for a in alg.elements(n)]
        assert len(set(column)) == len(column)


def test_master_filter_scale_limit_fails_loudly():
    from relalg import ElementCapExceededError

    alg = concrete(W2, PE, 2)
    # separating all 16 sort-2 elements needs a master sort of 10; the sort-10
    # lattice over a 2-point universe is astronomically past the element cap
    with pytest.raises(ElementCapExceededError):
        master_filter_model(alg, scope=2)


def test_certificates_are_deterministic():
    alg = concrete(Universe(1), PQF, 2)
    assert embed(alg, scope=2) == embed(alg, scope=2)
    pe = concrete(Universe(1), PE, 2)
    m1, _ = master_filter_model(pe, scope=2)
    m2, _ = master_filter_model(pe, scope=2)
    assert saturate(pe, m1, rounds=3) == saturate(pe, m2, rounds=3)


def test_unmet_pullback_of_a_broken_table_exits_2(tmp_path, capsys):
    # The obligation search and witness_filter read the pullback of a prime
    # filter one sort down; a table that maps sort 0 into sort 1 wrongly
    # makes that pullback empty, which is refused as a usage error rather
    # than ending in a failed morphism check.
    import json

    from relalg import Substitution, TableAlgebra, witness_filter
    from relalg.cli import main

    data = json.loads(as_table_algebra(concrete(Universe(1), PE, 2)).to_json())
    data["subst"]["0->1:[]"] = [0, 0]
    alg = TableAlgebra.from_json(json.dumps(data))
    message = "empty member set is not a filter on sort 0"
    with pytest.raises(PreconditionError) as exc:
        embed(alg, 0)
    assert str(exc.value) == message
    b0 = prime_filters(sort_lattice(alg, 0))[0]
    g = prime_filters(sort_lattice(alg, 1))[0]
    with pytest.raises(PreconditionError) as exc:
        witness_filter(alg, b0, [(g, Substitution(0, 0, ()))])
    assert str(exc.value) == message
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(data))
    out = io.StringIO()
    assert main(["embed", "--algebra", str(path), "--scope", "0"], out=out) == 2
    assert out.getvalue() == ""
    assert capsys.readouterr().err == f"error: {message}\n"


# (|W|, max_sort) of the concrete factors the representability oracle draws from
ORACLE_SHAPES = [(1, 2), (2, 1)]


@seed(13)
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_subalgebras_of_concrete_algebras_are_representable(data):
    """A subalgebra of a concrete algebra is representable by construction:
    it passes every axiom, and embed certifies it.  Without projection the
    certificate is full and injective; with projection it is full, or almost
    with its witness requests listed, and never an obstruction.  Products
    are not representable in general: a subalgebra of a product of two
    concrete algebras passes axioms (1)-(13), while (0) may fail."""
    size, max_sort = data.draw(st.sampled_from(ORACLE_SHAPES))
    fragment = data.draw(st.sampled_from([f for base in (PQF, QF, PE, FO)
                                          for f in (base, base.with_equality())]))
    factors = [concrete(Universe(size), fragment, max_sort)
               for _ in range(data.draw(st.integers(1, 2)))]
    parent = factors[0] if len(factors) == 1 else product(factors)
    generators = []
    for _ in range(data.draw(st.integers(1, 3))):
        n = data.draw(st.integers(0, max_sort))
        generators.append((n, data.draw(st.integers(0, parent.sort_size(n) - 1))))
    alg = generated_subalgebra(parent, generators)
    failing = [r.axiom for r in check_fragment(alg, Bounds(max_sort=max_sort)) if not r.ok]
    if len(factors) == 2:
        assert failing in ([], [0]), (generators, failing)
        return
    assert failing == [], (generators, failing)
    cert = embed(alg, scope=max_sort)
    if cert.status == "full":
        assert cert.injective and cert.verification.ok, generators
    else:
        assert fragment.exists and cert.obligations, generators


def test_a_subalgebra_of_a_product_can_fail_axiom_zero():
    """Why the oracle does not expect products to embed: this subalgebra of
    concrete(W1) x concrete(W2) fails axiom (0), exhaustively, and nothing
    else, so embed meets the obstruction."""
    fragment = FO.with_equality()
    parent = product([concrete(Universe(1), fragment, 1), concrete(W2, fragment, 1)])
    alg = generated_subalgebra(parent, [(1, 4), (0, 3), (1, 6)])
    reports = check_fragment(alg, Bounds(max_sort=1))
    assert [r.axiom for r in reports if not r.ok] == [0]
    assert reports[0].mode == "exhaustive"
    assert reports[0].violations[0].params == {"shape": [0, 0]}
    with pytest.raises(ObstructionError):
        embed(alg, scope=1)


def test_pe_theory_pair_obstruction_past_the_cap_replays():
    """The pe-theory master sort is past the element cap; the first pair of
    family filters that obstructs is reported instead, and its instance is a
    violation the axiom (0) checker reproduces."""
    alg = gallery_pe_theory()[0]
    with pytest.raises(ObstructionError) as exc:
        master_filter_model(alg, scope=2)
    err = exc.value
    assert (err.axiom_id, list(err.shape), list(err.r_elems), list(err.s_elems)) == (
        0, [1, 1], [2, 3], [4, 7])
    instance = SchemaInstance(0, "", {"shape": list(err.shape)},
                              tuple(err.r_elems) + tuple(err.s_elems))
    assert replay_instance(alg, instance, Bounds(max_sort=2))


def test_diamond_sort_zero_pair_obstruction_replays(diamond):
    """The pair the diamond's table file reports, blocks [0, 0], is a
    violation the axiom (0) checker reproduces."""
    instance = SchemaInstance(0, "", {"shape": [0, 0]}, (1, 2, 2, 1))
    assert replay_instance(as_table_algebra(diamond[0]), instance, Bounds(max_sort=2))
