import pytest

from relalg import (
    InsufficientSortsError,
    ObstructionError,
    PreconditionError,
    Relation,
    Universe,
    as_table_algebra,
    concrete,
    embed,
    filter_to_morphism,
    find_obligations,
    kernel,
    master_filter_model,
    prime_filters,
    saturate,
    separate,
    sort_lattice,
    verify_morphism,
)
from relalg.fragments import FO, PE, PQF, QF
from relalg.representation import separating_filter, witness_stage

from oracles import as_set


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
    assert alg.delta(2, 1, 2) in f.members
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


def test_separate_examples():
    alg = concrete(W2, PQF, 2)
    r, s = bits(2, 1, [(0,)]), bits(2, 1, [(1,)])
    model = separate(alg, 1, r, s)
    assert model.filter.generator == r
    assert model.phi[1][r] != model.phi[1][s]
    # comparable pair: the filter contains exactly one of them
    low, high = alg.zero(1), bits(2, 1, [(0,)])
    pf = separating_filter(alg, 1, low, high)
    assert (low in pf.members) != (high in pf.members)


def test_separate_diamond(diamond):
    alg, _ = diamond
    a, b = 1, 2
    model = separate(alg, 1, a, b)
    assert model.filter.generator == a
    assert model.phi[1][a] != model.phi[1][b]


def test_separate_rejects_equal():
    alg = concrete(W2, PQF, 2)
    with pytest.raises(PreconditionError):
        separate(alg, 1, 1, 1)


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
    assert verify_morphism(fmap, tables, target, max_sort=2).ok


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
