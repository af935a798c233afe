"""Order theory of one sort of a finite algebra: the lattice structure is
verified on construction, join-irreducibles are computed, and prime filters
are realized as their principal up-sets.

A prime filter is its sort and generator; membership is decided here alone:
by algebra.leq(sort, generator, x) for one element, and for a whole sort by
pullback(algebra, F, alpha), the sort-alpha.dom elements r with alpha(r) in
F: one meet_all row of the generator against a cached substitution table.

Every filter and ideal here is principal (the lattices are finite), so it is
given by its generator, a plain element.  Prime-filter existence arguments
are replaced by a deterministic choice: the least join-irreducible in the
algebra's canonical element order that witnesses the required separation.
SortLattice.separator(r, s) and extend_to_prime make that choice in one step
from the join-irreducible masks: the join-irreducible at the lowest set bit
of the masks' XOR, or of the filter generator's mask less the ideal's.
The two amalgamation constructions (sum_filters, witness_filter) build
their filter/ideal generators, extend to a prime filter, and re-verify their
postconditions exhaustively, as set comparisons of pullbacks.

sort_lattice keeps each SortLattice in its algebra's store (see
FiniteAlgebra.cached), so it lives exactly as long as its algebra.

Verification is one homomorphism pass (Birkhoff): a finite lattice is
distributive exactly when a -> {join-irreducibles below a} is an injective
(meet, join)-homomorphism into a powerset.  SortLattice runs the pass on
its join-irreducible masks, every pair by one meet_all and one join_all row
per element, and only a sort that fails runs the pairwise checks on the
order rows that name the failure.  A sort the algebra knows Boolean in
canonical order (see FiniteAlgebra.boolean_in_canonical_order: a concrete
sort by construction, a generated one as its parent's whole sort, a table's
by its stored rows) needs no pass: its masks are its indices and its atoms
1, 2, 4, ... are its join-irreducibles.  Once the masks are proved, the
order is mask containment, so leq and up_set read the masks alone.  The
same pass proves prime_filters: its coordinate p is the indicator of the
p-th join-irreducible's up-set, so that up-set is prime, and there are no
others.  is_prime_filter is the independent direct predicate, for member
sets from anywhere else.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partial, reduce
from itertools import compress, count
from typing import Sequence

from .algebras import FiniteAlgebra
from .errors import ObstructionError, PreconditionError, RelAlgError
from .relations import (Substitution, _bitmask, _flags, _transpose,
                        assoc_cylindrification, partitioning)


@dataclass(frozen=True)
class PrimeFilter:
    """A prime filter, given by its generator: its members lie above it."""

    sort: int
    generator: int


class NotALatticeError(RelAlgError):
    pass


class SortLattice:
    """One sort of an algebra, as a bounded distributive lattice, kept as its
    join-irreducibles and their masks: bit p of _ji_mask[a] is set where the
    p-th join-irreducible lies below a.

    Construction verifies that the order a <= b iff a = a^b is reflexive,
    antisymmetric and bounded by 0 and 1, and that the masks are an
    injective (meet, join)-homomorphism into a powerset: then the sort is a
    distributive lattice in that order, with meet and join its bounds, and
    a <= b exactly when a's mask is contained in b's.  A sort the algebra
    knows Boolean in canonical order is that lattice with atoms 1, 2, 4, ...
    and its indices as masks, and builds nothing.  Only a sort that fails
    runs the pairwise checks, which name the first failing pair.
    """

    def __init__(self, algebra: FiniteAlgebra, sort: int):
        algebra.ensure_enumerable(sort)
        self.algebra = algebra
        self.sort = sort
        self.size = algebra.sort_size(sort)
        self.zero = algebra.zero(sort)
        self.one = algebra.one(sort)
        if algebra.boolean_in_canonical_order(sort):
            self.join_irreducibles = tuple(1 << p for p in range(self.size.bit_length() - 1))
            self._ji_mask = range(self.size)
        else:
            self._build_order()

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
        for a in range(size):
            if not up[a] >> a & 1:
                raise NotALatticeError(f"meet not idempotent at sort-{n} element {a}")
            if up[a] & down[a] != 1 << a:
                raise NotALatticeError(f"order not antisymmetric at sort-{n} element {a}")
            if not up[self.zero] >> a & 1 or not up[a] >> self.one & 1:
                raise NotALatticeError(f"bounds fail at sort-{n} element {a}")
        # j is join-irreducible when the join of the elements strictly below
        # it (0 for none) is not j: in a lattice, the element whose up-set is
        # the intersection of theirs.  The masks verify meets and joins: as an
        # injective homomorphism into a powerset they make the sort a
        # distributive lattice, whose join-irreducibles these then are.
        irr = []
        for j in elems:
            below = compress(elems, _flags(down[j] & ~(1 << j)))
            if reduce(operator.and_, map(up.__getitem__, below), up[self.zero]) != up[j]:
                irr.append(j)
        ji_mask = _transpose([up[j] for j in irr], size) if irr else [0] * size
        self.join_irreducibles, self._ji_mask = tuple(irr), ji_mask
        if len(set(ji_mask)) == size and _homomorphism_pass(alg, n, ji_mask):
            return
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
        raise AssertionError(f"sort {n} passes the pairwise checks, but its join-irreducible "
                             f"masks are not an injective lattice homomorphism")

    def leq(self, a: int, b: int) -> bool:
        """a <= b: a's join-irreducible mask lies inside b's."""
        mask_a, mask_b = self._masks(a, b)
        return not mask_a & ~mask_b

    def up_set(self, a: int) -> frozenset[int]:
        """The elements whose join-irreducible masks contain a's."""
        mask, = self._masks(a)
        above = map(mask.__eq__, map(mask.__and__, self._ji_mask))
        return frozenset(compress(range(self.size), above))

    def separator(self, r: int, s: int) -> int:
        """The least join-irreducible below exactly one of r and s: the
        lowest set bit of their join-irreducible masks' difference, which is
        nonzero exactly when r != s because the lattice is distributive."""
        mask_r, mask_s = self._masks(r, s)
        diff = mask_r ^ mask_s
        if not diff:
            raise PreconditionError(f"sort-{self.sort} elements {r} and {s} are not distinct")
        return self.join_irreducibles[(diff & -diff).bit_length() - 1]

    def _masks(self, *elements: int) -> list[int]:
        """The elements' join-irreducible masks; each must be a sort element."""
        if not all(0 <= x < self.size for x in elements):
            if len(elements) == 1:
                raise PreconditionError(f"{elements[0]} is not a sort-{self.sort} element")
            raise PreconditionError(f"{' and '.join(map(str, elements))} are not both "
                                    f"sort-{self.sort} elements")
        return list(map(self._ji_mask.__getitem__, elements))


def sort_lattice(algebra: FiniteAlgebra, sort: int) -> SortLattice:
    """The sort's lattice, kept in the algebra's own store."""
    return algebra.cached(("lattice", sort), lambda: SortLattice(algebra, sort))


def _homomorphism_pass(algebra: FiniteAlgebra, sort: int, phi: list[int]) -> bool:
    """Whether x -> {p : phi[x] >> p & 1} sends every meet to an AND and every
    join to an OR: a (meet, join)-homomorphism into the powerset of phi's
    bits.  Every pair is checked, one meet row and one join row per element,
    up to the first row that fails."""
    elems, image = list(range(len(phi))), phi.__getitem__
    for a in elems:
        row = [a] * len(elems)
        for combine, apply_all in ((phi[a].__and__, algebra.meet_all), (phi[a].__or__, algebra.join_all)):
            if list(map(image, apply_all(sort, row, elems))) != list(map(combine, phi)):
                return False
    return True


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
    """All prime filters: exactly the up-sets of join-irreducibles.  A
    SortLattice exists only once its join-irreducible masks passed as an
    injective (meet, join)-homomorphism into a powerset.  Coordinate p of
    that map is the indicator of the up-set of the p-th join-irreducible, so
    that up-set is a prime filter, and a finite distributive lattice has no
    other prime filters."""
    return [PrimeFilter(lattice.sort, j) for j in lattice.join_irreducibles]


def prime_filter_from_members(algebra: FiniteAlgebra, sort: int, members) -> PrimeFilter:
    """The filter on the members' meet, which must be a member; not checked prime."""
    members = frozenset(members)
    if not members:
        raise PreconditionError(f"empty member set is not a filter on sort {sort}")
    gen = None
    for a in sorted(members):
        gen = a if gen is None else algebra.meet(sort, gen, a)
    if gen not in members:
        raise PreconditionError(f"member set of sort {sort} is not meet-closed")
    return PrimeFilter(sort, gen)


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
    return PrimeFilter(lattice.sort, lattice.join_irreducibles[(diff & -diff).bit_length() - 1])


def pullback(algebra: FiniteAlgebra, filt: PrimeFilter, alpha: Substitution) -> frozenset[int]:
    """alpha*F: the sort-alpha.dom elements r with alpha(r) in the filter."""
    if alpha.cod != filt.sort:
        raise PreconditionError(f"substitution {alpha} does not land in the "
                                f"filter's sort {filt.sort}")
    return _members(algebra, filt, algebra.table(("subst", alpha)))


def _members(algebra: FiniteAlgebra, filt: PrimeFilter, xs=None) -> frozenset[int]:
    """The positions in xs (default: the sort's elements, so the member set)
    of the filter's members, from one meet_all row of its generator."""
    g, xs = filt.generator, algebra.elements(filt.sort) if xs is None else xs
    return frozenset(compress(count(), map(g.__eq__, algebra.meet_all(filt.sort, [g] * len(xs), xs))))


def complement_max(algebra: FiniteAlgebra, pf: PrimeFilter) -> int:
    """Largest non-member: the complement of a prime filter is a principal
    ideal, generated by the join of all non-members."""
    members = _members(algebra, pf)
    out = reduce(partial(algebra.join, pf.sort),
                 (a for a in algebra.elements(pf.sort) if a not in members), algebra.zero(pf.sort))
    if out in members:
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
    maxes = [complement_max(alg, pf) for pf in filters]
    for pf, c, m in zip(filters, blocks, maxes):
        gen_f = alg.meet(n, gen_f, alg.subst(c, pf.generator))
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
        differ = pullback(alg, master, c) ^ _members(alg, pf)
        if differ:
            raise AssertionError(f"master filter postcondition fails at block sort "
                                 f"{pf.sort}, element {min(differ)}")
    return master


def _pullback_one_down(algebra: FiniteAlgebra, above: PrimeFilter) -> frozenset[int]:
    """The pullback of a filter above sort 0 along the associated
    cylindrification, one sort down, unchecked for primality; an empty or not
    meet-closed pullback is refused."""
    members = pullback(algebra, above, assoc_cylindrification(above.sort - 1))
    prime_filter_from_members(algebra, above.sort - 1, members)
    return members


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
        if _pullback_one_down(alg, g) != pullback(alg, base, alpha):
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
    differ = pullback(alg, packed, beta0) ^ _members(alg, base)
    if differ:
        raise AssertionError(f"packed filter condition (I) fails at element {min(differ)}")
    for (g, _), beta in zip(pairs, betas):
        missing = _members(alg, g) - pullback(alg, packed, beta)
        if missing:
            raise AssertionError(f"packed filter condition (II) fails at element {min(missing)}")
    return packed
