"""Schema instantiation and bounded verification of the axiom list (0)-(13)
against a finite algebra, plus the two counterexample galleries.

Each axiom is a schema; checking enumerates all schema parameterizations in
bounds (sorts, block shapes, substitution tuples) and, per parameterization,
either every element tuple (when the tuple space fits the exhaustive cap) or
a seeded uniform sample.  Violations carry enough structure to re-evaluate
bit-exactly via replay_instance.

Applicability: (0)-(4) everywhere; (5)-(6) need negation; (7)-(10) need
projection; (11)-(13) need equality constants.  Axiom (0) is the single
non-equational schema (its conclusion is a disjunction); the reports keep it
labeled apart so equational-only runs can be read off.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from math import prod
from random import Random
from typing import Callable, Iterator

from .algebras import FiniteAlgebra, concrete, generated_subalgebra, product
from .errors import FragmentError
from .fragments import Fragment, PE, QF
from .relations import (
    Substitution,
    Universe,
    all_substitutions,
    assoc_cylindrification,
    partitioning,
)


@dataclass(frozen=True)
class Bounds:
    max_sort: int
    exhaustive_cap: int = 10**6
    samples: int = 10**5
    seed: int = 0
    max_blocks: int = 3
    max_subst_count: int = 2
    violation_cap: int = 5


@dataclass
class SchemaInstance:
    axiom: int
    label: str
    params: dict
    slot_values: tuple[int, ...]
    detail: str = ""


@dataclass
class CheckReport:
    axiom: int
    fragment: str
    mode: str
    params_checked: int
    instances_checked: int
    violations: list[SchemaInstance]
    seed: int
    note: str = ""

    @property
    def ok(self) -> bool:
        return not self.violations


def applicable_axioms(fragment: Fragment) -> list[int]:
    out = [0, 1, 2, 3, 4]
    if fragment.negation:
        out += [5, 6]
    if fragment.exists:
        out += [7, 8, 9, 10]
    if fragment.equality:
        out += [11, 12, 13]
    return out


def _require_applicable(algebra: FiniteAlgebra, axiom: int) -> None:
    if axiom not in applicable_axioms(algebra.fragment):
        raise FragmentError(
            f"axiom ({axiom}) is not applicable to fragment {algebra.fragment}"
        )


# A parameterization: (params dict, slot sorts, check).  The check receives
# the element tuple and returns None or a (label, detail) pair.
Param = tuple[dict, tuple[int, ...], Callable[[tuple[int, ...]], tuple[str, str] | None]]


def check_axiom(algebra: FiniteAlgebra, axiom: int, bounds: Bounds) -> CheckReport:
    _require_applicable(algebra, axiom)
    params = list(_params_for(algebra, axiom, bounds))
    rng = Random(bounds.seed)
    violations: list[SchemaInstance] = []
    instances = 0
    sampled = False
    for pdict, slots, check in params:
        sizes = [algebra.sort_size(s) for s in slots]
        space = prod(sizes)
        if space <= bounds.exhaustive_cap:
            element_iter: Iterator[tuple[int, ...]] = iproduct(*[range(sz) for sz in sizes])
        else:
            sampled = True
            element_iter = (
                tuple(rng.randrange(sz) for sz in sizes) for _ in range(bounds.samples)
            )
        for elems in element_iter:
            instances += 1
            hit = check(elems)
            if hit is not None and len(violations) < bounds.violation_cap:
                label, detail = hit
                shown = ", ".join(
                    algebra.element_label(s, v) for s, v in zip(slots, elems)
                )
                if shown:
                    detail = f"{detail}; elements: [{shown}]" if detail else f"elements: [{shown}]"
                violations.append(SchemaInstance(axiom, label, pdict, tuple(elems), detail))
    mode = "exhaustive" if not sampled else f"sampled(seed={bounds.seed},count={bounds.samples})"
    note = "non-Horn schema: conclusion is a disjunction" if axiom == 0 else ""
    return CheckReport(axiom, str(algebra.fragment), mode, len(params), instances,
                       violations, bounds.seed, note)


def check_fragment(algebra: FiniteAlgebra, bounds: Bounds) -> list[CheckReport]:
    """Run every axiom applicable to the algebra's fragment."""
    return [check_axiom(algebra, ax, bounds) for ax in applicable_axioms(algebra.fragment)]


def replay_instance(algebra: FiniteAlgebra, instance: SchemaInstance, bounds: Bounds) -> bool:
    """Re-evaluate a reported violation; True when it reproduces."""
    for pdict, _slots, check in _params_for(algebra, instance.axiom, bounds):
        if pdict == instance.params:
            return check(instance.slot_values) is not None
    return False


# ---------------------------------------------------------------------------
# Parameterization generators


def _params_for(algebra: FiniteAlgebra, axiom: int, bounds: Bounds) -> Iterator[Param]:
    gen = _GENERATORS[axiom]
    yield from gen(algebra, min(bounds.max_sort, algebra.max_sort), bounds)


def _ser(alpha: Substitution) -> list:
    return [alpha.dom, alpha.cod, list(alpha.map)]


def _shapes(max_sort: int, max_blocks: int) -> Iterator[tuple[int, ...]]:
    yield ()
    for m in range(1, max_blocks + 1):
        for ks in iproduct(range(max_sort + 1), repeat=m):
            if sum(ks) <= max_sort:
                yield ks


def _ax0(alg: FiniteAlgebra, n_max: int, bounds: Bounds) -> Iterator[Param]:
    for ks in _shapes(n_max, bounds.max_blocks):
        n = sum(ks)
        m = len(ks)
        ctabs = [alg.subst_table(c) for c in partitioning(*ks)]
        one_n, zero_n = alg.one(n), alg.zero(n)
        pdict = {"shape": list(ks)}
        slots = tuple(ks) + tuple(ks)

        def check(elems, ks=ks, ctabs=ctabs, n=n, m=m, one_n=one_n, zero_n=zero_n):
            lhs = one_n
            for tab, r in zip(ctabs, elems[:m]):
                lhs = alg.meet(n, lhs, tab[r])
            rhs = zero_n
            for tab, s in zip(ctabs, elems[m:]):
                rhs = alg.join(n, rhs, tab[s])
            if alg.meet(n, lhs, rhs) != lhs:
                return None  # premise fails
            for i in range(m):
                if alg.leq(ks[i], elems[i], elems[m + i]):
                    return None
            return ("", f"blocks {list(ks)}: the join of the s-cylinders covers the "
                        f"meet of the r-cylinders but no s_i >= r_i (slots list r then s)")

        yield pdict, slots, check


def _ax1(alg: FiniteAlgebra, n_max: int, bounds: Bounds) -> Iterator[Param]:
    for n in range(n_max + 1):
        zero_n, one_n = alg.zero(n), alg.one(n)

        def check(elems, n=n, zero_n=zero_n, one_n=one_n):
            a, b, c = elems
            meet, join = alg.meet, alg.join
            if meet(n, a, b) != meet(n, b, a) or join(n, a, b) != join(n, b, a):
                return ("commutativity", f"sort {n}")
            if meet(n, a, meet(n, b, c)) != meet(n, meet(n, a, b), c):
                return ("associativity", f"sort {n} (meet)")
            if join(n, a, join(n, b, c)) != join(n, join(n, a, b), c):
                return ("associativity", f"sort {n} (join)")
            if meet(n, a, a) != a or join(n, a, a) != a:
                return ("idempotence", f"sort {n}")
            if meet(n, a, join(n, a, b)) != a or join(n, a, meet(n, a, b)) != a:
                return ("absorption", f"sort {n}")
            if join(n, zero_n, a) != a or meet(n, one_n, a) != a:
                return ("bounds", f"sort {n}")
            if meet(n, a, join(n, b, c)) != join(n, meet(n, a, b), meet(n, a, c)):
                return ("distributivity", f"sort {n}")
            if join(n, a, meet(n, b, c)) != meet(n, join(n, a, b), join(n, a, c)):
                return ("distributivity", f"sort {n} (dual)")
            return None

        yield {"sort": n}, (n, n, n), check


def _ax2(alg: FiniteAlgebra, n_max: int, bounds: Bounds) -> Iterator[Param]:
    for n in range(n_max + 1):
        for k in range(n_max + 1):
            for alpha in all_substitutions(n, k):
                tab = alg.subst_table(alpha)

                def check_const(elems, n=n, k=k, tab=tab):
                    if tab[alg.zero(n)] != alg.zero(k):
                        return ("constants", "0 not preserved")
                    if tab[alg.one(n)] != alg.one(k):
                        return ("constants", "1 not preserved")
                    return None

                yield {"alpha": _ser(alpha), "part": "constants"}, (), check_const

                def check_pair(elems, n=n, k=k, tab=tab):
                    r, s = elems
                    if tab[alg.join(n, r, s)] != alg.join(k, tab[r], tab[s]):
                        return ("join", f"sort {n}->{k}")
                    if tab[alg.meet(n, r, s)] != alg.meet(k, tab[r], tab[s]):
                        return ("meet", f"sort {n}->{k}")
                    return None

                yield {"alpha": _ser(alpha), "part": "binary"}, (n, n), check_pair


def _ax3(alg: FiniteAlgebra, n_max: int, bounds: Bounds) -> Iterator[Param]:
    from .relations import compose

    for n in range(n_max + 1):
        for k in range(n_max + 1):
            for alpha in all_substitutions(n, k):
                atab = alg.subst_table(alpha)
                for m in range(n_max + 1):
                    for beta in all_substitutions(k, m):
                        btab = alg.subst_table(beta)
                        ctab = alg.subst_table(compose(beta, alpha))

                        def check(elems, atab=atab, btab=btab, ctab=ctab):
                            (r,) = elems
                            if ctab[r] != btab[atab[r]]:
                                return ("", "composite substitution differs")
                            return None

                        yield {"alpha": _ser(alpha), "beta": _ser(beta)}, (n,), check


def _ax4(alg: FiniteAlgebra, n_max: int, bounds: Bounds) -> Iterator[Param]:
    for n in range(n_max + 1):
        tab = alg.subst_table(Substitution.identity(n))

        def check(elems, tab=tab):
            (r,) = elems
            return None if tab[r] == r else ("", "identity substitution moves an element")

        yield {"sort": n}, (n,), check


def _ax5(alg: FiniteAlgebra, n_max: int, bounds: Bounds) -> Iterator[Param]:
    for n in range(n_max + 1):
        neg_n = alg.neg_table(n)
        for k in range(n_max + 1):
            neg_k = alg.neg_table(k)
            for alpha in all_substitutions(n, k):
                tab = alg.subst_table(alpha)

                def check(elems, tab=tab, neg_n=neg_n, neg_k=neg_k):
                    (r,) = elems
                    if tab[neg_n[r]] != neg_k[tab[r]]:
                        return ("", "substitution does not commute with negation")
                    return None

                yield {"alpha": _ser(alpha)}, (n,), check


def _ax6(alg: FiniteAlgebra, n_max: int, bounds: Bounds) -> Iterator[Param]:
    for n in range(n_max + 1):
        neg_n = alg.neg_table(n)
        zero_n, one_n = alg.zero(n), alg.one(n)

        def check(elems, n=n, neg_n=neg_n, zero_n=zero_n, one_n=one_n):
            (r,) = elems
            if alg.join(n, r, neg_n[r]) != one_n:
                return ("excluded-middle", f"sort {n}")
            if alg.meet(n, r, neg_n[r]) != zero_n:
                return ("non-contradiction", f"sort {n}")
            return None

        yield {"sort": n}, (n,), check


def _ax7(alg: FiniteAlgebra, n_max: int, bounds: Bounds) -> Iterator[Param]:
    for n in range(n_max):
        ex = alg.exists_table(n)
        zero_lo, zero_hi = alg.zero(n), alg.zero(n + 1)

        def check_zero(elems, ex=ex, zero_lo=zero_lo, zero_hi=zero_hi):
            if ex[zero_hi] != zero_lo:
                return ("zero", "projection does not preserve 0")
            return None

        yield {"sort": n, "part": "zero"}, (), check_zero

        def check_join(elems, n=n, ex=ex):
            r, s = elems
            if ex[alg.join(n + 1, r, s)] != alg.join(n, ex[r], ex[s]):
                return ("join", "projection does not preserve joins")
            return None

        yield {"sort": n, "part": "join"}, (n + 1, n + 1), check_join


def _ax8(alg: FiniteAlgebra, n_max: int, bounds: Bounds) -> Iterator[Param]:
    for n in range(n_max):
        ex = alg.exists_table(n)
        ctab = alg.subst_table(assoc_cylindrification(n))

        def check(elems, n=n, ex=ex, ctab=ctab):
            (r,) = elems
            if not alg.leq(n + 1, r, ctab[ex[r]]):
                return ("", "element not below the cylinder of its projection")
            return None

        yield {"sort": n}, (n + 1,), check


def _ax9(alg: FiniteAlgebra, n_max: int, bounds: Bounds) -> Iterator[Param]:
    for n in range(n_max):
        ex = alg.exists_table(n)
        ctab = alg.subst_table(assoc_cylindrification(n))

        def check(elems, n=n, ex=ex, ctab=ctab):
            r, s = elems
            if ex[alg.meet(n + 1, r, ctab[s])] != alg.meet(n, ex[r], s):
                return ("", "projection of a cylinder-restricted element differs")
            return None

        yield {"sort": n}, (n + 1, n), check


def _ax10(alg: FiniteAlgebra, n_max: int, bounds: Bounds) -> Iterator[Param]:
    for n_w in range(1, bounds.max_subst_count + 1):
        for m in range(n_max - n_w + 1):
            for ks in iproduct(range(n_max), repeat=n_w):
                alpha_lists = [list(all_substitutions(k, m)) for k in ks]
                if any(not lst for lst in alpha_lists):
                    continue
                for alphas in iproduct(*alpha_lists):
                    betas = [
                        Substitution(k + 1, m + n_w, alpha.map + (m + i,))
                        for i, (k, alpha) in enumerate(zip(ks, alphas), start=1)
                    ]
                    btabs = [alg.subst_table(beta) for beta in betas]
                    atabs = [alg.subst_table(alpha) for alpha in alphas]
                    extabs = [alg.exists_table(k) for k in ks]
                    chain = [alg.exists_table(lvl) for lvl in range(m, m + n_w)]
                    one_hi, one_m = alg.one(m + n_w), alg.one(m)

                    def check(elems, ks=ks, btabs=btabs, atabs=atabs, extabs=extabs,
                              chain=chain, one_hi=one_hi, one_m=one_m, m=m, n_w=n_w):
                        lhs = one_hi
                        for btab, r in zip(btabs, elems):
                            lhs = alg.meet(m + n_w, lhs, btab[r])
                        for lvl in range(n_w - 1, -1, -1):
                            lhs = chain[lvl][lhs]
                        rhs = one_m
                        for atab, extab, r in zip(atabs, extabs, elems):
                            rhs = alg.meet(m, rhs, atab[extab[r]])
                        if lhs != rhs:
                            return ("", "batched projection differs from separate projections")
                        return None

                    yield (
                        {"m": m, "ks": list(ks), "alphas": [_ser(a) for a in alphas]},
                        tuple(k + 1 for k in ks),
                        check,
                    )


def _ax11(alg: FiniteAlgebra, n_max: int, bounds: Bounds) -> Iterator[Param]:
    for n in range(1, n_max + 1):
        one_n = alg.one(n)
        for i in range(1, n + 1):

            def check_a(elems, n=n, i=i, one_n=one_n):
                if alg.delta(n, i, i) != one_n:
                    return ("11a", f"diagonal ({i},{i}) of sort {n} is not 1")
                return None

            yield {"sort": n, "part": "a", "i": i}, (), check_a
        for i in range(1, n + 1):
            for j in range(1, n + 1):

                def check_b(elems, n=n, i=i, j=j):
                    if alg.delta(n, i, j) != alg.delta(n, j, i):
                        return ("11b", f"diagonal of sort {n} not symmetric at ({i},{j})")
                    return None

                yield {"sort": n, "part": "b", "i": i, "j": j}, (), check_b
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for k in range(1, n + 1):

                    def check_c(elems, n=n, i=i, j=j, k=k):
                        lhs = alg.meet(n, alg.delta(n, i, j), alg.delta(n, j, k))
                        if not alg.leq(n, lhs, alg.delta(n, i, k)):
                            return ("11c", f"diagonal transitivity fails at ({i},{j},{k}) of sort {n}")
                        return None

                    yield {"sort": n, "part": "c", "i": i, "j": j, "k": k}, (), check_c


def _ax12(alg: FiniteAlgebra, n_max: int, bounds: Bounds) -> Iterator[Param]:
    for k in range(n_max + 1):
        for n in range(n_max + 1):
            if n == 0 and k > 0:
                continue
            for alpha in all_substitutions(k, n):
                atab = alg.subst_table(alpha)
                for beta in all_substitutions(k, n):
                    btab = alg.subst_table(beta)
                    agree = alg.one(n)
                    for l in range(k):
                        agree = alg.meet(n, agree, alg.delta(n, alpha.map[l], beta.map[l]))

                    def check(elems, n=n, atab=atab, btab=btab, agree=agree):
                        (r,) = elems
                        if alg.meet(n, atab[r], agree) != alg.meet(n, btab[r], agree):
                            return ("", "substitutions differ under the agreement diagonal")
                        return None

                    yield {"alpha": _ser(alpha), "beta": _ser(beta)}, (k,), check


def _ax13(alg: FiniteAlgebra, n_max: int, bounds: Bounds) -> Iterator[Param]:
    for k in range(1, n_max + 1):
        for n in range(1, n_max + 1):
            for alpha in all_substitutions(k, n):
                tab = alg.subst_table(alpha)
                for i in range(1, k + 1):
                    for j in range(1, k + 1):

                        def check(elems, k=k, n=n, alpha=alpha, tab=tab, i=i, j=j):
                            if tab[alg.delta(k, i, j)] != alg.delta(n, alpha.map[i - 1], alpha.map[j - 1]):
                                return ("", "substitution image of a diagonal differs")
                            return None

                        yield {"alpha": _ser(alpha), "i": i, "j": j}, (), check


_GENERATORS = {
    0: _ax0, 1: _ax1, 2: _ax2, 3: _ax3, 4: _ax4, 5: _ax5, 6: _ax6,
    7: _ax7, 8: _ax8, 9: _ax9, 10: _ax10, 11: _ax11, 12: _ax12, 13: _ax13,
}


# ---------------------------------------------------------------------------
# Galleries


def gallery_diamond(bounds: Bounds | None = None) -> tuple[FiniteAlgebra, CheckReport]:
    """Product of two one-point quantifier-free algebras: every sort is the
    four-element diamond 0 < a,b < 1.  The equational axioms all hold (it is a
    product), the non-Horn schema fails: with the two unary blocks,
    c1(b) v c2(0) >= c1(a) ^ c2(b) yet b is not above a and 0 is not above b.
    """
    bounds = bounds or Bounds(max_sort=2)
    one_point = Universe(1)
    alg = product([concrete(one_point, QF, 2), concrete(one_point, QF, 2)])
    a, b = 1, 2  # the incomparable middle elements of sort 1, canonical order
    zero1 = alg.zero(1)
    instance = SchemaInstance(
        axiom=0,
        label="",
        params={"shape": [1, 1]},
        slot_values=(a, b, b, zero1),
        detail="c1(b) v c2(0) >= c1(a) ^ c2(b), but b is not >= a and 0 is not >= b",
    )
    if not replay_instance(alg, instance, bounds):
        raise AssertionError("diamond gallery instance failed to reproduce")
    report = CheckReport(
        axiom=0, fragment=str(alg.fragment), mode="targeted", params_checked=1,
        instances_checked=1, violations=[instance], seed=bounds.seed,
        note="diamond gallery: product of two one-point quantifier-free algebras",
    )
    return alg, report


def gallery_pe_theory(bounds: Bounds | None = None) -> tuple[FiniteAlgebra, CheckReport]:
    """A positive-existential algebra with exactly two sort-0 elements that
    still fails the non-Horn schema.  Two structures over {0,1,2} interpret
    A={0,1}, B={1,2} and R as A in the first and B in the second; the
    subalgebra of the product generated by R, A, B satisfies the equational
    laws but c1(A) ^ c2(B) <= c1(R) v c2(R) with A and B both not below R.
    """
    bounds = bounds or Bounds(max_sort=2)
    three = Universe(3)
    base = concrete(three, PE, 2)
    a_bits = 0b011  # {0,1}
    b_bits = 0b110  # {1,2}
    pair = product([base, base])
    # a sort-1 element of the pair: the first factor's 3 bits above the second's
    e_r = a_bits << 3 | b_bits
    e_a = a_bits << 3 | a_bits
    e_b = b_bits << 3 | b_bits
    alg = generated_subalgebra(pair, [(1, e_r), (1, e_a), (1, e_b)], names=["R", "A", "B"])
    if alg.sort_size(0) != 2:
        raise AssertionError(f"generated algebra has {alg.sort_size(0)} sort-0 elements, expected 2")
    i_r = alg.from_parent(1, e_r)
    i_a = alg.from_parent(1, e_a)
    i_b = alg.from_parent(1, e_b)
    instance = SchemaInstance(
        axiom=0,
        label="",
        params={"shape": [1, 1]},
        slot_values=(i_a, i_b, i_r, i_r),
        detail="c1(A) ^ c2(B) <= c1(R) v c2(R), but A is not <= R and B is not <= R",
    )
    if not replay_instance(alg, instance, bounds):
        raise AssertionError("positive-existential gallery instance failed to reproduce")
    report = CheckReport(
        axiom=0, fragment=str(alg.fragment), mode="targeted", params_checked=1,
        instances_checked=1, violations=[instance], seed=bounds.seed,
        note="pe-theory gallery: generated subalgebra with a two-element sort 0",
    )
    return alg, report
