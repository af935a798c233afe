"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are exact (bit-level) throughout.
"""

import io
import time
from random import Random

import pytest

from relalg import (
    Bounds,
    ObstructionError,
    Signature,
    Substitution,
    Universe,
    as_table_algebra,
    check_axiom,
    check_fragment,
    compile_fo,
    concrete,
    embed,
    eval_fo_naive,
    eval_term,
    filter_to_morphism,
    gallery_diamond,
    gallery_pe_theory,
    generated_subalgebra,
    kernel,
    master_filter_model,
    parse_fo,
    prime_filters,
    product,
    pullback,
    random_formula,
    random_structure,
    saturate,
    sort_lattice,
    sum_filters,
    verify_morphism,
)
from relalg.cli import main as cli_main
from relalg.formulas import Sub, Sym
from relalg.fragments import FO, PE, PQF, QF
from relalg.relations import partitioning

from oracles import as_set, from_set, is_prime_filter_pairwise


ACCEPTANCE_SEED = 20260810
FRAGMENTS = (PQF, QF, PE, FO, FO.with_equality())


def test_criterion_1_soundness_suite():
    bounds = Bounds(max_sort=3, exhaustive_cap=10**6, samples=10**5, seed=ACCEPTANCE_SEED)
    started = time.monotonic()
    covered = set()
    total_instances = 0
    for size in (0, 1, 2):
        for fragment in FRAGMENTS:
            algebra = concrete(Universe(size), fragment, 3)
            for report in check_fragment(algebra, bounds):
                covered.add(report.axiom)
                total_instances += report.instances_checked
                assert report.ok, (
                    f"axiom ({report.axiom}) violated on concrete({size}) in {fragment}: "
                    f"{report.violations}"
                )
                if "sampled" in report.mode:
                    assert f"count={bounds.samples}" in report.mode
    elapsed = time.monotonic() - started
    assert covered == set(range(14))
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 1 (soundness suite): PASS  "
          f"axioms 0-13, |W| in {{0,1,2}}, max sort 3, {total_instances} instances, "
          f"{elapsed:.1f}s")


def test_criterion_2_compiler_oracle():
    signature = Signature((("P", 0), ("R1", 1), ("R2", 2), ("R3", 3)))
    rng = Random(ACCEPTANCE_SEED)
    checked = 0
    for _ in range(1000):
        size = rng.choice((0, 1, 2, 3, 3, 3))
        structure = random_structure(rng, signature, size)
        formula = random_formula(rng, signature, rng.randint(0, 3), rng.randint(0, 4))
        compiled = eval_term(compile_fo(formula), structure)
        naive = eval_fo_naive(formula, structure)
        assert compiled == naive
        assert compiled.bits == naive.bits  # bit-exact, not just set-equal
        checked += 1
    assert checked == 1000

    # fixed fixture 1: projection of an intersection
    structure = from_set(2, 2, [(0, 0), (0, 1)])
    fixture = parse_fo(
        "[x] exists y (R1(x,y) & R2(x,y))", Signature((("R1", 2), ("R2", 2)))
    )
    from relalg import Structure

    s1 = Structure(Universe(2), {
        "R1": from_set(2, 2, [(0, 0), (0, 1)]),
        "R2": from_set(2, 2, [(0, 1), (1, 1)]),
    })
    assert as_set(eval_term(compile_fo(fixture), s1)) == {(0,)}
    assert eval_term(compile_fo(fixture), s1) == eval_fo_naive(fixture, s1)

    # fixed fixture 2: an atom in a larger variable context is a cylindrification
    sig2 = Signature((("R", 2),))
    fixture2 = parse_fo("[x,y,z] R(x,y)", sig2)
    term2 = compile_fo(fixture2)
    assert term2 == Sub(Substitution(2, 3, (1, 2)), Sym("R", 2))
    s2 = Structure(Universe(2), {"R": from_set(2, 2, [(1, 0)])})
    assert as_set(eval_term(term2, s2)) == {(1, 0, 0), (1, 0, 1)}
    assert eval_term(term2, s2) == eval_fo_naive(fixture2, s2)
    print(f"\nACCEPTANCE 2 (compiler oracle): PASS  "
          f"{checked} random formulas bit-exact + 2 fixed fixtures")


def _prime_subset_oracle(algebra, sort):
    """Exact set of prime filters by the pairwise predicate: full subset enumeration
    when feasible, principal up-sets otherwise (prime filters in a finite
    lattice are principal: the meet of the members is a member)."""
    size = algebra.sort_size(sort)
    found = set()
    if size <= 16:
        for mask in range(1, 1 << size):
            members = frozenset(a for a in range(size) if mask >> a & 1)
            if is_prime_filter_pairwise(algebra, sort, members):
                found.add(members)
    else:
        for g in algebra.elements(sort):
            members = frozenset(
                b for b in algebra.elements(sort) if algebra.leq(sort, g, b)
            )
            if is_prime_filter_pairwise(algebra, sort, members):
                found.add(members)
    return found


def test_criterion_3_duality():
    lattices = 0
    for size in (0, 1, 2):
        algebra = concrete(Universe(size), PQF, 2)
        for sort in range(3):
            lattice = sort_lattice(algebra, sort)
            identity = Substitution.identity(sort)
            computed = {pullback(algebra, pf, identity) for pf in prime_filters(lattice)}
            assert computed == _prime_subset_oracle(algebra, sort)
            for pf in prime_filters(lattice):
                assert pullback(algebra, pf, identity) == lattice.up_set(pf.generator)
                assert pf.generator in lattice.join_irreducibles
            lattices += 1

    rng = Random(ACCEPTANCE_SEED)
    generated = 0
    while generated < 20:
        size = rng.choice((1, 1, 2))
        if rng.random() < 0.3:
            base = concrete(Universe(1), PQF, 2)
            parent = product([base, base])
        else:
            parent = concrete(Universe(size), PQF, 2)
        n_gens = rng.randint(1, 2)
        gens = []
        for _ in range(n_gens):
            sort = rng.randint(1, 2)
            gens.append((sort, rng.randrange(parent.sort_size(sort))))
        algebra = generated_subalgebra(parent, gens)
        generated += 1
        for sort in range(3):
            if algebra.sort_size(sort) > 64:
                continue
            lattice = sort_lattice(algebra, sort)
            identity = Substitution.identity(sort)
            computed = {pullback(algebra, pf, identity) for pf in prime_filters(lattice)}
            assert computed == _prime_subset_oracle(algebra, sort)
            lattices += 1
    print(f"\nACCEPTANCE 3 (duality): PASS  {lattices} sort lattices, "
          f"prime filters == up-sets of join-irreducibles == direct-predicate subsets")


def test_criterion_4_master_filter_postcondition():
    algebra = concrete(Universe(2), PQF, 3)
    filters_by_sort = {
        1: prime_filters(sort_lattice(algebra, 1)),
        2: prime_filters(sort_lattice(algebra, 2)),
    }
    calls = 0
    for sorts in ((1, 1), (1, 2), (2, 1)):
        for f1 in filters_by_sort[sorts[0]]:
            for f2 in filters_by_sort[sorts[1]]:
                master = sum_filters([f1, f2], algebra)
                target = sorts[0] + sorts[1]
                assert target <= 4
                blocks = partitioning(*sorts)
                inside = sort_lattice(algebra, target).up_set(master.generator)
                for pf, c in zip((f1, f2), blocks):
                    for r in algebra.elements(pf.sort):
                        assert (algebra.subst(c, r) in inside) == (
                            r in sort_lattice(algebra, pf.sort).up_set(pf.generator))
                calls += 1
    assert calls == 2 * 2 + 2 * 4 + 4 * 2
    print(f"\nACCEPTANCE 4 (master filter): PASS  {calls}/{calls} calls verified "
          f"blockwise on sorts (1,1), (1,2), (2,1)")


def test_criterion_5_filter_model_family():
    fragments = (PQF, QF, PE, FO, PQF.with_equality(), QF.with_equality(),
                 PE.with_equality(), FO.with_equality())
    models = 0
    for size in (0, 1, 2):
        for fragment in fragments:
            algebra = concrete(Universe(size), fragment, 2)
            for sort in range(3):
                for pf in prime_filters(sort_lattice(algebra, sort)):
                    model = filter_to_morphism(algebra, pf)
                    assert model.verification.ok, (size, str(fragment), sort, pf)
                    if fragment.exists:
                        target = concrete(model.universe, fragment, 2)
                        for n in range(2):
                            for a in algebra.elements(n + 1):
                                lhs = target.exists(n, model.phi[n + 1][a].bits)
                                rhs = model.phi[n][algebra.exists(n, a)].bits
                                assert lhs & rhs == lhs  # exists(phi(r)) <= phi(exists(r))
                    models += 1
    print(f"\nACCEPTANCE 5 (filter models): PASS  {models} prime-filter models, "
          f"all morphic (or almost-morphic with containment) and verified")


def test_criterion_6_gallery_fidelity():
    bounds = Bounds(max_sort=2, seed=ACCEPTANCE_SEED, samples=10**4)

    diamond, diamond_report = gallery_diamond()
    inst = diamond_report.violations[0]
    a, b, zero = 1, 2, diamond.zero(1)
    assert inst.params == {"shape": [1, 1]}
    assert inst.slot_values == (a, b, b, zero)
    c1, c2 = partitioning(1, 1)
    premise_lhs = diamond.meet(2, diamond.subst(c1, a), diamond.subst(c2, b))
    premise_rhs = diamond.join(2, diamond.subst(c1, b), diamond.subst(c2, zero))
    assert premise_lhs == diamond.zero(2)
    assert diamond.leq(2, premise_lhs, premise_rhs)
    assert not diamond.leq(1, a, b) and not diamond.leq(1, b, zero)
    for axiom in (1, 2, 3, 4, 5, 6):
        assert check_axiom(diamond, axiom, bounds).ok

    pe_algebra, pe_report = gallery_pe_theory()
    assert pe_algebra.sort_size(0) == 2
    inst2 = pe_report.violations[0]
    i_a, i_b, i_r, i_r2 = inst2.slot_values
    assert i_r == i_r2
    lhs = pe_algebra.meet(2, pe_algebra.subst(c1, i_a), pe_algebra.subst(c2, i_b))
    rhs = pe_algebra.join(2, pe_algebra.subst(c1, i_r), pe_algebra.subst(c2, i_r))
    assert pe_algebra.leq(2, lhs, rhs)
    assert not pe_algebra.leq(1, i_a, i_r) and not pe_algebra.leq(1, i_b, i_r)
    for axiom in (1, 2, 3, 4, 7, 8, 9, 10):
        assert check_axiom(pe_algebra, axiom, bounds).ok
    assert not check_axiom(pe_algebra, 0, bounds).ok
    print("\nACCEPTANCE 6 (gallery fidelity): PASS  diamond instance exact + "
          "axioms (1)-(6); pe-theory has 2 sort-0 elements, passes (1)-(4),(7)-(10), "
          "violates (0)")


def test_criterion_7_embedding_round_trip():
    for fragment in (PQF, QF):
        base = concrete(Universe(1), fragment, 2)
        tables = as_table_algebra(base, with_extension=True)
        cert = embed(tables, scope=2)
        assert cert.status == "full"
        assert cert.injective
        assert cert.verification is not None and cert.verification.ok
        fmap = {n: [rel.bits for rel in rels] for n, rels in cert.phi.items()}
        target = concrete(Universe(cert.target_size), fragment, 2)
        report = verify_morphism(fmap, tables, target)
        assert report.ok
        for n in range(3):
            assert len(set(fmap[n])) == len(fmap[n])

    diamond, _ = gallery_diamond()
    with pytest.raises(ObstructionError) as exc:
        embed(diamond, scope=2)
    assert exc.value.axiom_id == 0
    print("\nACCEPTANCE 7 (embedding round trip): PASS  pqf and qf table "
          "presentations embed with full verified certificates; diamond obstructs at axiom (0)")


def test_criterion_8_saturation():
    algebra = concrete(Universe(1), PE, 2)
    start, _ = master_filter_model(algebra, scope=2)
    for n in range(3):
        values = [start.phi[n][a] for a in algebra.elements(n)]
        assert len(set(values)) == len(values)  # one-to-one start
    cert = saturate(algebra, start, rounds=5)
    assert cert.status == "full"
    assert cert.rounds_used <= 5
    assert cert.verification is not None and cert.verification.ok
    start_map = start.fmap()
    final_map = {n: [rel.bits for rel in rels] for n, rels in cert.phi.items()}
    for n in range(3):
        assert kernel(final_map, n) <= kernel(start_map, n)

    # budget 0 with outstanding witness requests reports an honest almost status
    w2 = concrete(Universe(2), PE, 2)
    pf = next(p for p in prime_filters(sort_lattice(w2, 1)) if p.generator == 1)
    unsaturated = filter_to_morphism(w2, pf)
    budget0 = saturate(w2, unsaturated, rounds=0)
    assert budget0.status == "almost"
    assert budget0.rounds_used == 0
    assert budget0.obligations
    completed = saturate(w2, unsaturated, rounds=5)
    assert completed.status == "full"
    final = {n: [rel.bits for rel in rels] for n, rels in completed.phi.items()}
    starting = unsaturated.fmap()
    for n in range(3):
        assert kernel(final, n) <= kernel(starting, n)
    print(f"\nACCEPTANCE 8 (saturation): PASS  pe one-point algebra saturates in "
          f"{cert.rounds_used} round(s) <= 5 with kernel containment; "
          f"budget-0 reports almost with {len(budget0.obligations)} obligation(s)")


def test_criterion_9_determinism():
    # library level: identical bounds reproduce identical reports (sampling included)
    algebra = concrete(Universe(2), PQF, 2)
    bounds = Bounds(max_sort=2, seed=ACCEPTANCE_SEED, samples=2000, exhaustive_cap=100)
    first = check_fragment(algebra, bounds)
    second = check_fragment(algebra, bounds)
    assert first == second
    assert any("sampled" in r.mode for r in first)

    # CLI level: byte-for-byte equal output when re-run with the printed seed
    args = ["--seed", str(ACCEPTANCE_SEED), "--samples", "2000",
            "--exhaustive-cap", "100", "axioms", "check",
            "--algebra", "builtin:concrete:2", "--fragment", "fo+eq", "--max-sort", "2"]
    out1, out2 = io.StringIO(), io.StringIO()
    code1 = cli_main(list(args), out=out1)
    code2 = cli_main(list(args), out=out2)
    assert code1 == code2 == 0
    assert out1.getvalue() == out2.getvalue()
    assert f"seed: {ACCEPTANCE_SEED}" in out1.getvalue()

    # fuzz suite level: the seeded formula stream replays identically
    signature = Signature((("R1", 1), ("R2", 2)))
    def stream():
        rng = Random(ACCEPTANCE_SEED)
        out = []
        for _ in range(50):
            structure = random_structure(rng, signature, rng.randint(0, 3))
            formula = random_formula(rng, signature, rng.randint(0, 2), rng.randint(0, 3))
            out.append(eval_fo_naive(formula, structure))
        return out
    assert stream() == stream()
    print("\nACCEPTANCE 9 (determinism): PASS  reports, CLI output and fuzz "
          "streams reproduce byte-for-byte under their seeds")
