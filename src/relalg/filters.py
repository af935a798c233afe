"""Order theory of one sort of a finite algebra: the lattice structure is
verified on construction, join-irreducibles are computed, and prime filters
are realized as their principal up-sets.

Membership in a prime filter is decided by PrimeFilter.__contains__ for one
element and by pullback for a whole sort: pullback(algebra, F, alpha) is the
set alpha*F of sort-alpha.dom elements r with alpha(r) in F, read off the
algebra's cached substitution table.

Every filter and ideal here is principal (the lattices are finite), so it is
given by its generator, a plain element.  Prime-filter existence arguments
are replaced by a deterministic choice: the least join-irreducible in the
algebra's canonical element order that witnesses the required separation.
SortLattice.separator(r, s) and extend_to_prime make that choice in one step
from the join-irreducible masks: the join-irreducible at the lowest set bit
of the masks' XOR, or of the filter generator's mask less the ideal's.
The three amalgamation constructions (sum_filters, project_filter,
witness_filter) build their filter/ideal generators, extend to a prime
filter, and re-verify their postconditions exhaustively, as set comparisons
of pullbacks.

sort_lattice keeps each SortLattice in its algebra's store (see
FiniteAlgebra.cached), so a lattice lives exactly as long as its algebra.

Verification is row-batched: SortLattice and is_prime_filter check every
pair, but ask the algebra for one row at a time, the meets or joins of one
element against a list of others in a single meet_all/join_all call.
SortLattice computes the order once and reads its down-sets by transposition;
bounds and distributivity take one meet row and one join row per element.
Beyond the order rows (two int bitmasks per element), a check holds O(size)
values per row and never a size x size operation table.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce
from itertools import compress, count
from typing import Sequence

from .algebras import FiniteAlgebra
from .errors import ObstructionError, PreconditionError, RelAlgError
from .relations import (Substitution, _bitmask, _flags, _transpose, assoc_cylindrification,
                        partitioning)


@dataclass(frozen=True)
class PrimeFilter:
    """A prime filter, stored as the up-set of its witnessing join-irreducible."""

    sort: int
    generator: int
    members: frozenset[int]

    def __contains__(self, element: int) -> bool:
        return element in self.members


class NotALatticeError(RelAlgError):
    pass


class SortLattice:
    """One sort of an algebra, as a bounded distributive lattice.

    Construction verifies that meet/join are greatest lower and least upper
    bounds of the order a <= b iff a = a^b, that 0 and 1 bound everything, and
    that the lattice is distributive (join-irreducible membership masks must
    turn joins into unions).  Order rows are int bitmasks.
    """

    def __init__(self, algebra: FiniteAlgebra, sort: int):
        algebra.ensure_enumerable(sort)
        self.algebra = algebra
        self.sort = sort
        self.size = algebra.sort_size(sort)
        self.zero = algebra.zero(sort)
        self.one = algebra.one(sort)
        self._build_order()
        self._prime_filters: list[PrimeFilter] | None = None

    def _build_order(self) -> None:
        alg, n, size = self.algebra, self.sort, self.size
        elems = list(range(size))
        # up[a] holds the b with a^b = a (meet row a); down[b] the a with
        # a^b = a, the same relation read by transposition.
        up = []
        for a in elems:
            row = [a] * size
            up.append(_bitmask(map(operator.eq, alg.meet_all(n, row, elems), row)))
        down = _transpose(up, size)
        self.up = up
        self.down = down
        for a in range(size):
            if not up[a] >> a & 1:
                raise NotALatticeError(f"meet not idempotent at sort-{n} element {a}")
            if up[a] & down[a] != 1 << a:
                raise NotALatticeError(f"order not antisymmetric at sort-{n} element {a}")
            if not up[self.zero] >> a & 1 or not up[a] >> self.one & 1:
                raise NotALatticeError(f"bounds fail at sort-{n} element {a}")
        self._find_join_irreducibles()
        ji_mask = self._ji_mask
        # Row a checks every meet and join of a on the order rows.  Once the
        # rows before a have passed, (a, b) with b < a fails exactly where
        # meet or join does not commute on it, as down- and up-sets determine
        # their element.  The first distributivity failure is raised only
        # after every row has passed; joins commute then, so b >= a suffices.
        gains = None
        for a in elems:
            row = [a] * size
            meets = alg.meet_all(n, row, elems)
            joins = alg.join_all(n, row, elems)
            glb = list(map(operator.eq, map(down[a].__and__, down), map(down.__getitem__, meets)))
            lub = list(map(operator.eq, map(up[a].__and__, up), map(up.__getitem__, joins)))
            if not (all(glb) and all(lub)):
                b = next(b for b in elems if not (glb[b] and lub[b]))
                if not glb[b]:
                    raise NotALatticeError(
                        f"meet of sort-{n} elements {a},{b} is not their greatest lower bound"
                    )
                raise NotALatticeError(
                    f"join of sort-{n} elements {a},{b} is not their least upper bound"
                )
            if gains is None:
                union = list(map(operator.eq, map(ji_mask.__getitem__, joins[a:]),
                                 map(ji_mask[a].__or__, ji_mask[a:])))
                if not all(union):
                    gains = a, a + union.index(False)
        if gains is not None:
            raise NotALatticeError(
                f"sort {n} is not distributive: join of {gains[0]},{gains[1]} gains "
                f"join-irreducibles below neither"
            )

    def _find_join_irreducibles(self) -> None:
        """j is join-irreducible when the join of the elements strictly below
        it (0 for none) is not j.  This runs before meets and joins are
        verified, and its result is used only after they are: joins are then
        least upper bounds, so that join is the element whose up-set is the
        intersection of theirs, and up-sets decide it.  _ji_mask[a] has bit p
        where the p-th join-irreducible lies below a."""
        up, elems = self.up, range(self.size)
        irr = []
        for j in elems:
            below = compress(elems, _flags(self.down[j] & ~(1 << j)))
            if reduce(operator.and_, map(up.__getitem__, below), up[self.zero]) != up[j]:
                irr.append(j)
        self.join_irreducibles = tuple(irr)
        self._ji_mask = _transpose([up[j] for j in irr], self.size) if irr else [0] * self.size

    def leq(self, a: int, b: int) -> bool:
        return bool(self.up[a] >> b & 1)

    def up_set(self, a: int) -> frozenset[int]:
        return frozenset(compress(range(self.size), _flags(self.up[a])))

    def separator(self, r: int, s: int) -> int:
        """The least join-irreducible below exactly one of r and s: the
        lowest set bit of their join-irreducible masks' difference, which is
        nonzero exactly when r != s because the lattice is distributive."""
        mask_r, mask_s = self._masks(r, s)
        diff = mask_r ^ mask_s
        if not diff:
            raise PreconditionError(f"sort-{self.sort} elements {r} and {s} are not distinct")
        return self.join_irreducibles[(diff & -diff).bit_length() - 1]

    def _masks(self, r: int, s: int) -> tuple[int, int]:
        if not (0 <= r < self.size and 0 <= s < self.size):
            raise PreconditionError(f"{r} and {s} are not both sort-{self.sort} elements")
        return self._ji_mask[r], self._ji_mask[s]


def sort_lattice(algebra: FiniteAlgebra, sort: int) -> SortLattice:
    """The sort's lattice, kept in the algebra's own store."""
    return algebra.cached(("lattice", sort), lambda: SortLattice(algebra, sort))


def join_irreducibles(lattice: SortLattice) -> list[int]:
    """Nonzero elements that are not the join of two strictly smaller ones."""
    return list(lattice.join_irreducibles)


def is_prime_filter(algebra: FiniteAlgebra, sort: int, members: frozenset[int] | set[int]) -> bool:
    """Direct primality predicate, independent of the join-irreducible route:
    proper, upward-closed, meet-closed, and join-prime.  Each clause runs over
    the pairs on which it can fail, one batched row per element: no member
    below a non-member, no meet of members outside, no join of non-members
    inside."""
    size = algebra.sort_size(sort)
    if not members or algebra.zero(sort) in members:
        return False
    if any(not 0 <= a < size for a in members):
        return False
    members = frozenset(members)
    inside = sorted(members)
    outside = [b for b in range(size) if b not in members]
    for a in inside:
        if a in algebra.meet_all(sort, [a] * len(outside), outside):
            return False
    for a in inside:
        if not members.issuperset(algebra.meet_all(sort, [a] * len(inside), inside)):
            return False
    for a in outside:
        if not members.isdisjoint(algebra.join_all(sort, [a] * len(outside), outside)):
            return False
    return True


def prime_filters(lattice: SortLattice) -> list[PrimeFilter]:
    """All prime filters: exactly the up-sets of join-irreducibles.  Each
    output is re-verified by the direct primality predicate."""
    if lattice._prime_filters is None:
        out = []
        for j in lattice.join_irreducibles:
            pf = PrimeFilter(lattice.sort, j, lattice.up_set(j))
            if not is_prime_filter(lattice.algebra, lattice.sort, pf.members):
                raise AssertionError(
                    f"up-set of join-irreducible {j} fails the direct primality test"
                )
            out.append(pf)
        lattice._prime_filters = out
    return list(lattice._prime_filters)


def prime_filter_from_members(algebra: FiniteAlgebra, sort: int, members,
                              verify: bool = True) -> PrimeFilter:
    members = frozenset(members)
    if not members:
        raise PreconditionError(f"empty member set is not a filter on sort {sort}")
    gen = None
    for a in sorted(members):
        gen = a if gen is None else algebra.meet(sort, gen, a)
    if gen not in members:
        raise PreconditionError(f"member set of sort {sort} is not meet-closed")
    if verify and not is_prime_filter(algebra, sort, members):
        raise PreconditionError(f"member set of sort {sort} is not a prime filter")
    return PrimeFilter(sort, gen, members)


def extend_to_prime(lattice: SortLattice, gen_f: int, gen_i: int) -> PrimeFilter:
    """A prime filter containing the principal filter generated by gen_f and
    missing the principal ideal generated by gen_i: the up-set of the least
    join-irreducible below gen_f but not below gen_i: the lowest set bit of
    their masks' difference, which is nonzero exactly when gen_f is not below
    gen_i because the lattice is distributive."""
    mask_f, mask_i = lattice._masks(gen_f, gen_i)
    diff = mask_f & ~mask_i
    if not diff:
        raise PreconditionError(
            f"filter generator {gen_f} lies below ideal generator "
            f"{gen_i}; no separating prime filter exists"
        )
    j = lattice.join_irreducibles[(diff & -diff).bit_length() - 1]
    return PrimeFilter(lattice.sort, j, lattice.up_set(j))


def pullback(algebra: FiniteAlgebra, filt: PrimeFilter, alpha: Substitution) -> frozenset[int]:
    """alpha*F: the sort-alpha.dom elements r with alpha(r) in the filter."""
    if alpha.cod != filt.sort:
        raise PreconditionError(f"substitution {alpha} does not land in the "
                                f"filter's sort {filt.sort}")
    return frozenset(compress(count(), map(filt.members.__contains__, algebra.subst_table(alpha))))


def complement_max(algebra: FiniteAlgebra, pf: PrimeFilter) -> int:
    """Largest non-member: the complement of a prime filter is a principal
    ideal, generated by the join of all non-members."""
    out = algebra.zero(pf.sort)
    for a in algebra.elements(pf.sort):
        if a not in pf:
            out = algebra.join(pf.sort, out, a)
    if out in pf:
        raise AssertionError("complement of a prime filter must be join-closed")
    return out


def sum_filters(filters: Sequence[PrimeFilter], algebra: FiniteAlgebra) -> PrimeFilter:
    """One master prime filter G on the sum sort, encoding the given family
    blockwise: c_i(r) in G iff r in F^i for the partitioning cylindrifications
    c_i.  Fails with an axiom-(0) obstruction when the blockwise filter/ideal
    pair is not disjoint."""
    ks = [f.sort for f in filters]
    n = sum(ks)
    alg = algebra.extend(n)
    blocks = partitioning(*ks)
    gen_f = alg.one(n)
    gen_i = alg.zero(n)
    maxes = []
    for pf, c in zip(filters, blocks):
        gen_f = alg.meet(n, gen_f, alg.subst(c, pf.generator))
        m = complement_max(alg, pf)
        maxes.append(m)
        gen_i = alg.join(n, gen_i, alg.subst(c, m))
    if alg.leq(n, gen_f, gen_i):
        raise ObstructionError(
            "axiom (0) obstruction: the blockwise filter meets the blockwise ideal",
            axiom_id=0,
            shape=ks,
            r_elems=[f.generator for f in filters],
            s_elems=maxes,
        )
    master = extend_to_prime(sort_lattice(alg, n), gen_f, gen_i)
    for pf, c in zip(filters, blocks):
        differ = pullback(alg, master, c) ^ pf.members
        if differ:
            raise AssertionError(f"master filter postcondition fails at block sort "
                                 f"{pf.sort}, element {min(differ)}")
    return master


def project_filter(algebra: FiniteAlgebra, filt: PrimeFilter, r: int) -> PrimeFilter:
    """A prime filter G one sort up with r in G whose pullback along the
    associated cylindrification is the given filter.  Requires exists(r) in
    the filter."""
    n = filt.sort
    alg = algebra.extend(n + 1)
    if alg.exists(n, r) not in filt:
        raise PreconditionError(
            f"projection of element {r} does not belong to the sort-{n} filter"
        )
    c = assoc_cylindrification(n)
    gen_f = alg.meet(n + 1, r, alg.subst(c, filt.generator))
    gen_i = alg.subst(c, complement_max(alg, filt))
    if alg.leq(n + 1, gen_f, gen_i):
        raise ObstructionError(
            "projection obstruction: the filter/ideal pair for the lifted "
            "filter is not disjoint (the projection laws fail in this algebra)",
            axiom_id=9,
            shape=[n],
            r_elems=[filt.generator, r],
            s_elems=[gen_i],
        )
    lifted = extend_to_prime(sort_lattice(alg, n + 1), gen_f, gen_i)
    if r not in lifted:
        raise AssertionError("lifted filter lost its defining element")
    differ = pullback(alg, lifted, c) ^ filt.members
    if differ:
        raise AssertionError(f"pullback of the lifted filter differs at element {min(differ)}")
    return lifted


def pullback_filter(algebra: FiniteAlgebra, above: PrimeFilter) -> PrimeFilter:
    """The inverse image along the associated cylindrification; always a prime
    filter one sort down."""
    if above.sort < 1:
        raise PreconditionError("cannot pull a sort-0 filter back")
    n = above.sort - 1
    members = pullback(algebra, above, assoc_cylindrification(n))
    return prime_filter_from_members(algebra, n, members)


def _pullback_filter_members(algebra: FiniteAlgebra, above: PrimeFilter) -> frozenset[int]:
    """The members of pullback_filter on a filter above sort 0, unchecked for
    primality; an empty or not meet-closed pullback is still refused."""
    n = above.sort - 1
    members = pullback(algebra, above, assoc_cylindrification(n))
    return prime_filter_from_members(algebra, n, members, verify=False).members


def witness_filter(algebra: FiniteAlgebra, base: PrimeFilter,
                   pairs: Sequence[tuple[PrimeFilter, Substitution]]) -> PrimeFilter:
    """A prime filter H on sort m+n packing the base type (sort m) together
    with n witness requests.  Each pair (G_i, alpha_i) asks for a fresh last
    coordinate realizing G_i over the subtuple selected by alpha_i; the
    hypothesis is that G_i pulls back to the image filter of the base along
    alpha_i.

    H satisfies: (I) beta_0(r) in H iff r in base, and (II) r in G_i implies
    beta_i(r) in H, where beta_0 embeds sort m and beta_i appends witness i to
    the alpha_i-subtuple.
    """
    m = base.sort
    n_w = len(pairs)
    alg = algebra.extend(m + n_w)
    betas = []
    for i, (g, alpha) in enumerate(pairs, start=1):
        if alpha.cod != m:
            raise PreconditionError(f"witness request {i}: substitution lands in sort "
                                    f"{alpha.cod}, base filter lives on sort {m}")
        if g.sort != alpha.dom + 1:
            raise PreconditionError(f"witness request {i}: filter sort {g.sort} does not "
                                    f"extend the selected subtuple of length {alpha.dom}")
        if _pullback_filter_members(alg, g) != pullback(alg, base, alpha):
            raise PreconditionError(
                f"witness request {i}: the requested filter does not pull back to "
                f"the type of the selected subtuple"
            )
        betas.append(Substitution(alpha.dom + 1, m + n_w, alpha.map + (m + i,)))
    beta0 = Substitution(m, m + n_w, tuple(range(1, m + 1)))
    gen_f = alg.subst(beta0, base.generator)
    for (g, _), beta in zip(pairs, betas):
        gen_f = alg.meet(m + n_w, gen_f, alg.subst(beta, g.generator))
    gen_i = alg.subst(beta0, complement_max(alg, base))
    if alg.leq(m + n_w, gen_f, gen_i):
        raise ObstructionError(
            "witness obstruction: the packed filter meets the packed ideal "
            "(the projection laws fail in this algebra)",
            axiom_id=10,
            shape=[m] + [g.sort for g, _ in pairs],
            r_elems=[base.generator] + [g.generator for g, _ in pairs],
            s_elems=[gen_i],
        )
    packed = extend_to_prime(sort_lattice(alg, m + n_w), gen_f, gen_i)
    differ = pullback(alg, packed, beta0) ^ base.members
    if differ:
        raise AssertionError(f"packed filter condition (I) fails at element {min(differ)}")
    for (g, _), beta in zip(pairs, betas):
        missing = g.members - pullback(alg, packed, beta)
        if missing:
            raise AssertionError(f"packed filter condition (II) fails at element {min(missing)}")
    return packed
