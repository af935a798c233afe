"""Finite, sort-truncated multisorted algebras of relations.

An algebra carries sorts 0..max_sort; sort n is a finite list of elements
addressed by indices 0..size-1.  Operation symbols: the lattice constants and
operations on every sort, all substitutions between in-bounds sorts,
projection (per fragment), negation (per fragment) and diagonal constants
(per fragment).  operations() lists them, one key per symbol; the table
algebras and verify_morphism read that list.  FiniteAlgebra guards each
symbol once, for every kind: the fragment feature, then the sorts, then a
diagonal's indices.  A kind supplies _apply(key, *args) and _apply_all(key,
xs, ys), keyed as in operations(), and may supply map_all(key, column), a
unary symbol over a column in bulk.  Operations whose sorts exceed the bound
raise InsufficientSortsError; algebras with concrete, product or generated
provenance can materialize higher sorts via extend().

Concrete algebras are bitset algebras over an ordered list of universes
(blocks): concrete() builds one block, and product() of concrete factors is a
concrete algebra over their concatenated blocks, so lattice operations are
plain bitwise ones and the rest run block by block.  The element cap guards
where sorts are enumerated, plus eagerly in concrete() and extend().

A table algebra is one table per symbol key.  Every algebra has one store,
FiniteAlgebra.cached: operation tables under their symbol keys (a table
algebra's given tables, or the unary tables table(key) builds on first use),
a concrete algebra's diagonals and plane index lists, a table algebra's
verdict of boolean_in_canonical_order on each sort it tabulates, and the
lattice filters.py keeps per sort.  That verdict is decided where the fact
lives: a concrete sort is Boolean in canonical order by construction, a
generated one exactly when it is its parent's whole Boolean sort, and a
table's by its rows, as they arrive; a proved table sort keeps them packed.
All algebras are immutable after construction, with two exceptions: the
command line sets element_cap on a gallery or table file it has loaded, and
a generated subalgebra of a concrete parent finds its witness terms on first
use.  The store takes no lock: nothing starts a thread, and under the GIL
dict.get and setdefault keep the first value stored; so an algebra pickles,
store included.
"""

from __future__ import annotations

import copy
import json
import operator
import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property, partial, reduce
from itertools import islice, product as iproduct
from typing import Iterable, Sequence

from .errors import (
    ArityError,
    ElementCapExceededError,
    FormatError,
    FragmentError,
    InsufficientSortsError,
    RelAlgError,
)
from .fragments import Fragment, parse_fragment
from .relations import (
    Relation,
    Substitution,
    Universe,
    all_substitutions,
    _exists_last_bits,
    _index_map,
    _rel_apply_bits,
    _transpose,
    delta as rel_delta,
    relation_literal,
)

DEFAULT_ELEMENT_CAP = 1 << 20
MORPHISM_VIOLATION_CAP = 5  # violations a MorphismReport lists
WITNESS_PAIR_CAP = 1 << 22  # pairs the witness search meets in a concrete parent before it refuses


class FiniteAlgebra:
    """Base interface.  Elements of sort n are the integers 0..sort_size(n)-1
    in the algebra's canonical order; every deterministic tie-break in the
    package uses this order.

    Each public operation is guarded once, here: _require for its fragment
    feature, then _check_sort on each sort it touches, then, for delta, the
    index check.  It then hands its symbol's key (see operations()) to the
    kind's hook: _apply(key, *args) for one application, _apply_all(key, xs,
    ys) for meet_all and join_all.  A kind supplies sort_size, extend and
    the two hooks, and may override map_all."""

    fragment: Fragment
    max_sort: int
    element_cap: int
    provenance: str

    def __init__(self, fragment: Fragment, max_sort: int, element_cap: int, provenance: str):
        if max_sort < 0:
            raise ArityError(f"max_sort must be >= 0, got {max_sort}")
        self.fragment = fragment
        self.max_sort = max_sort
        self.element_cap = element_cap
        self.provenance = provenance
        self._tables: dict = {}  # see cached()

    # -- sizes and guards ---------------------------------------------------

    def sort_size(self, n: int) -> int:
        raise NotImplementedError

    def _check_sort(self, n: int) -> None:
        if not 0 <= n <= self.max_sort:
            raise InsufficientSortsError(
                f"sort {n} outside bounds 0..{self.max_sort} ({self.provenance})"
            )

    def ensure_enumerable(self, n: int) -> None:
        self._check_sort(n)
        size = self.sort_size(n)
        if size > self.element_cap:
            shown = _power_text(size.bit_length() - 1) if size & (size - 1) == 0 else size
            raise ElementCapExceededError(f"sort {n} has {shown} elements, cap is {self.element_cap}")

    def elements(self, n: int) -> range:
        self.ensure_enumerable(n)
        return range(self.sort_size(n))

    # -- operations ---------------------------------------------------------

    def zero(self, n: int) -> int:
        self._check_sort(n)
        return self._apply(("zero", n))

    def one(self, n: int) -> int:
        self._check_sort(n)
        return self._apply(("one", n))

    def meet(self, n: int, a: int, b: int) -> int:
        self._check_sort(n)
        return self._apply(("meet", n), a, b)

    def join(self, n: int, a: int, b: int) -> int:
        self._check_sort(n)
        return self._apply(("join", n), a, b)

    def neg(self, n: int, a: int) -> int:
        self._require("negation")
        self._check_sort(n)
        return self._apply(("neg", n), a)

    def subst(self, alpha: Substitution, a: int) -> int:
        """Apply the substitution symbol alpha: dom -> cod to a sort-dom element."""
        self._check_sort(alpha.dom)
        self._check_sort(alpha.cod)
        return self._apply(("subst", alpha), a)

    def exists(self, n: int, a: int) -> int:
        """Project a sort-(n+1) element to sort n."""
        self._require("exists")
        self._check_sort(n)
        self._check_sort(n + 1)
        return self._apply(("exists", n), a)

    def delta(self, n: int, i: int, j: int) -> int:
        self._require("equality")
        self._check_sort(n)
        if not (1 <= i <= n and 1 <= j <= n):
            raise ArityError(f"diagonal indices ({i},{j}) outside 1..{n}")
        return self._apply(("delta", n, i, j))

    def leq(self, n: int, a: int, b: int) -> bool:
        return self.meet(n, a, b) == a

    def meet_all(self, n: int, xs: list[int], ys: list[int]) -> list[int]:
        """meet(n, x, y) for each pair of two equally long columns."""
        self._check_sort(n)
        return self._apply_all(("meet", n), xs, ys)

    def join_all(self, n: int, xs: list[int], ys: list[int]) -> list[int]:
        self._check_sort(n)
        return self._apply_all(("join", n), xs, ys)

    def boolean_in_canonical_order(self, n: int) -> bool:
        """Whether the algebra knows sort n to be Boolean in canonical order:
        2**w elements, 0 first and 1 last, meet and join the AND and OR of
        the indices.  A kind answers where the fact lives; False claims
        nothing about the sort."""
        self._check_sort(n)
        return False

    def _require(self, feature: str) -> None:
        if not getattr(self.fragment, feature):
            raise FragmentError(f"{feature} not available in fragment {self.fragment}")

    # -- the per-algebra store ------------------------------------------------

    def cached(self, key, build):
        """The value stored under key, built on first use; the first value
        stored wins.  This is the algebra's one store: operation tables under
        their symbol's key (see operations()), a concrete algebra's diagonals
        under theirs and its plane index lists under ("planes", *fields),
        a table algebra's verdicts of boolean_in_canonical_order on its
        tabulated sorts under ("boolean", n) (False is a value; written at
        construction, never built here), a generated
        subalgebra's witness refusals under ("refused", pair cap), and sort
        lattices under ("lattice", n)."""
        value = self._tables.get(key)
        if value is None:
            value = self._tables.setdefault(key, build())
        return value

    def map_all(self, key, column: Sequence[int]) -> list[int]:
        """A unary symbol's value at each element of a column of its argument
        sort: the guarded operation, applied element by element.  A concrete
        algebra maps in bulk, with the same errors in the same order."""
        return list(map(partial(getattr(self, key[0]), *key[1:]), column))

    def table(self, key) -> list[int]:
        """map_all over elements() of a unary symbol's argument sort, stored
        under the symbol's key."""
        return self.cached(key, lambda: self.map_all(key, self.elements(_sorts(key)[0])))

    # -- reporting ----------------------------------------------------------

    def element_label(self, n: int, a: int) -> str:
        self._check_sort(n)
        return str(a)


# ---------------------------------------------------------------------------
# Concrete algebras of relations and their products


class ConcreteAlgebra(FiniteAlgebra):
    """Relations over an ordered list of universes, the blocks.  A sort-n
    element is the concatenation of one sort-n bitset per block, first block
    most significant; its index IS that integer, so canonical order is
    numeric order.  Block sort sizes are powers of two, so this is also the
    mixed-radix index of the tuple of block bitsets.  One block is the algebra
    of all relations over a universe; several are the product of those."""

    def __init__(self, blocks: Sequence[Universe], fragment: Fragment, max_sort: int,
                 element_cap: int = DEFAULT_ELEMENT_CAP, provenance: str | None = None):
        self.blocks = tuple(blocks)
        self._widths: dict[int, int] = {}
        if provenance is None:
            provenance = f"concrete({self.blocks[0].size})"
        super().__init__(fragment, max_sort, element_cap, provenance)

    def width(self, n: int) -> int:
        """The number of bits of a sort-n element, summed once per sort."""
        if (w := self._widths.get(n)) is None:
            w = self._widths[n] = sum(u.size**n for u in self.blocks)
        return w

    def _parts(self, n: int, a: int) -> list[int]:
        """The block bitsets of a sort-n element, first block first."""
        parts = []
        for u in reversed(self.blocks):
            width = u.size**n
            parts.append(a & ((1 << width) - 1))
            a >>= width
        parts.reverse()
        return parts

    def _blockwise(self, n_in: int, n_out: int, a: int, kernel) -> int:
        """Concatenate kernel(universe, block bits) over the blocks of a
        sort-n_in element; each result is a sort-n_out block."""
        out = 0
        for u, bits in zip(self.blocks, self._parts(n_in, a)):
            out = out << u.size**n_out | kernel(u, bits)
        return out

    def sort_size(self, n: int) -> int:
        self._check_sort(n)
        return 1 << self.width(n)

    def boolean_in_canonical_order(self, n: int) -> bool:
        """True: a sort-n index is its bitset, and meet and join are its AND
        and OR."""
        self._check_sort(n)
        return True

    def _apply(self, key, *args) -> int:
        """Bitwise for the lattice symbols and negation, block by block for
        the rest."""
        name, param = key[0], key[1]
        if name == "meet":
            return args[0] & args[1]
        if name == "join":
            return args[0] | args[1]
        if name == "zero":
            return 0
        if name == "one":
            return (1 << self.width(param)) - 1
        if name == "neg":
            return args[0] ^ ((1 << self.width(param)) - 1)
        if name == "subst":
            return self._blockwise(param.dom, param.cod, args[0],
                                   lambda u, bits: _rel_apply_bits(param, u.size, bits))
        if name == "exists":
            return self._blockwise(param + 1, param, args[0],
                                   lambda u, bits: _exists_last_bits(u.size, param + 1, bits))
        _, n, i, j = key  # a diagonal, built once and stored under its key
        return self.cached(key, lambda: self._blockwise(
            n, n, 0, lambda u, _: rel_delta(u, n, i, j).bits))

    def _apply_all(self, key, xs: list[int], ys: list[int]) -> list[int]:
        return _and_or_all(key, xs, ys)

    def subst_planes(self, alpha: Substitution) -> list[int]:
        """For each bit of subst(alpha, a), lowest first, the bit of a it
        copies: relations._index_map, block by block from the last block."""
        # by alpha's fields: a hit compares tuples, not two Substitutions
        key = ("planes", "subst", alpha.dom, alpha.cod, alpha.map)
        if (planes := self._tables.get(key)) is not None:
            return planes  # a store hit, without building the closure
        def build() -> list[int]:
            self._check_sort(alpha.dom)
            self._check_sort(alpha.cod)
            out, low = [], 0
            for u in reversed(self.blocks):
                out += [low + i for i in _index_map(alpha, u.size)]
                low += u.size**alpha.dom
            return out
        return self.cached(key, build)

    def exists_planes(self, n: int) -> list[range]:
        """For each bit of exists(n, a), lowest first, the bits of a whose OR
        it is: the |U| tuples that extend it by one coordinate, per block."""
        if (planes := self._tables.get(("planes", "exists", n))) is not None:
            return planes
        def build() -> list[range]:
            self._require("exists")
            self._check_sort(n)
            self._check_sort(n + 1)
            out, low = [], 0
            for u in reversed(self.blocks):
                out += [range(low + t * u.size, low + (t + 1) * u.size) for t in range(u.size**n)]
                low += u.size ** (n + 1)
            return out
        return self.cached(("planes", "exists", n), build)

    def map_all(self, key, column: Sequence[int]) -> list[int]:
        """In bulk, on a nonempty column: the symbol guarded through its plane
        index lists, then the column's planes gathered, flipped or ORed as
        formulas.Planes does, transposed back; a result of width 0 is zeros."""
        (name, param), size = key, len(column)
        if name == "subst":
            index = self.subst_planes(param)
            gather = lambda x: list(map(x.__getitem__, index))
        elif name == "exists":
            index = self.exists_planes(param)
            gather = lambda x: [reduce(operator.or_, map(x.__getitem__, bits), 0) for bits in index]
        else:
            self._require("negation")
            self._check_sort(param)
            gather = lambda x: list(map(((1 << size) - 1).__xor__, x))
        planes = gather(_transpose(column, self.width(_sorts(key)[0])))
        return _transpose(planes, size) if planes else [0] * size

    def extend(self, new_max_sort: int) -> "ConcreteAlgebra":
        if new_max_sort <= self.max_sort:
            return self
        return _capped(ConcreteAlgebra(self.blocks, self.fragment, new_max_sort,
                                       self.element_cap, self.provenance))

    def element_label(self, n: int, a: int) -> str:
        self._check_sort(n)
        labels = [relation_literal(Relation(u, n, bits))
                  for u, bits in zip(self.blocks, self._parts(n, a))]
        if self.provenance.startswith("product("):
            return "(" + ", ".join(labels) + ")"
        return labels[0]


def _capped(algebra: ConcreteAlgebra) -> ConcreteAlgebra:
    """Refuse, eagerly, a block whose top sort could never be enumerated.
    Only the user-facing constructors guard; internal targets that are never
    enumerated are built uncapped.  The sizes are compared as bit widths:
    2**width > cap exactly when width >= cap.bit_length()."""
    n = algebra.max_sort
    for u in algebra.blocks:
        if _power_at_least(u.size, n, max(algebra.element_cap, 0).bit_length()):
            raise ElementCapExceededError(
                f"sort {n} over universe of size {u.size} has "
                f"{_power_text(u.size, n)} elements, cap is {algebra.element_cap}"
            )
    return algebra


def _power_at_least(base: int, exponent: int, bound: int) -> bool:
    """base**exponent >= bound, never building a power much past the bound:
    for base >= 2, base**e >= 2**e > bound at e = bound.bit_length()."""
    return base**min(exponent, bound.bit_length()) >= bound


def _power_text(base: int, exponent: int = 1) -> str:
    """2**width for width = base**exponent: in decimal where Python will
    print it, else as 2**width, else, when the width itself has too many
    digits, as 2**(base**exponent).  For Python's digit limit L, 2**width has
    more than L digits exactly when width >= (10**L).bit_length()."""
    limit = sys.get_int_max_str_digits()
    if limit and _power_at_least(base, exponent, 10**limit):
        return f"2**({base}**{exponent})"
    width = base**exponent
    if limit and width >= (10**limit).bit_length():
        return f"2**{width}"
    return str(1 << width)


def concrete(universe: Universe, fragment: Fragment, max_sort: int,
             element_cap: int = DEFAULT_ELEMENT_CAP) -> ConcreteAlgebra:
    return _capped(ConcreteAlgebra([universe], fragment, max_sort, element_cap))


def product(factors: Sequence[ConcreteAlgebra]) -> ConcreteAlgebra:
    """Componentwise product of concrete algebras: the factors' blocks,
    concatenated in order."""
    factors = list(factors)
    if not factors:
        raise ArityError("product needs at least one factor")
    first = factors[0]
    for f in factors:
        if not isinstance(f, ConcreteAlgebra):
            raise TypeError(f"product factors must be concrete algebras, got {f.provenance}")
        if f.fragment != first.fragment:
            raise FragmentError(
                f"product factors have different fragments {first.fragment} and {f.fragment}"
            )
        if f.max_sort != first.max_sort:
            raise ArityError(
                f"product factors have different sort bounds {first.max_sort} and {f.max_sort}"
            )
    return ConcreteAlgebra([u for f in factors for u in f.blocks], first.fragment,
                           first.max_sort,
                           provenance=f"product({', '.join(f.provenance for f in factors)})")


# ---------------------------------------------------------------------------
# Generated subalgebras


class GeneratedSubalgebra(FiniteAlgebra):
    """Least subset of the parent closed under all in-bounds operations.

    Elements are identified by their parent value; the local index is the rank
    in parent canonical order.  In a concrete parent (meet is AND, join is OR)
    the elements are a fixed point of two steps: per sort, the lattice step
    (_lattice, after Birkhoff), then the unary step, each unary symbol's
    parent map_all on the g(u) that generate the lattice.  Each element
    records the first witnessing term found by breadth-first search
    (generators in input order), in the term grammar over the generator
    names.  The search runs in waves, one per queue snapshot: each unary
    symbol maps the wave's elements of a sort in one parent map_all call, and
    then each element, in queue order, adds its unary images and its row,
    which meets and joins it with its sort as found so far, in one meet_all
    and one join_all call, leaving out the earlier rows that met it already;
    new values are added in row order, meet before join.  It closes any other
    parent.  In a concrete one it runs on the first witness_term or
    element_label call, skips the rows of a sort found in full, stops once
    every sort is, and refuses past WITNESS_PAIR_CAP pairs.  There axioms.py
    runs clauses on the elements' parent values (_to_parent) and maps only
    violations back through _wrap; meet_all and join_all here serve
    filters.py and as_table_algebra."""

    def __init__(self, parent: FiniteAlgebra, generators: Sequence[tuple[int, int]],
                 names: Sequence[str] | None = None):
        super().__init__(parent.fragment, parent.max_sort, DEFAULT_ELEMENT_CAP,
                         f"generated({parent.provenance})")
        self.parent = parent
        self.generators = tuple((s, g) for s, g in generators)
        if names is None:
            names = [f"g{i + 1}" for i in range(len(self.generators))]
        if len(names) != len(self.generators):
            raise ArityError("one name per generator required")
        self.generator_names = tuple(names)
        for sort, g in self.generators:
            if not all(isinstance(v, int) and not isinstance(v, bool) for v in (sort, g)):
                raise ArityError(f"generator {(sort, g)!r} is not a pair of integers")
            self._check_sort(sort)
            if not 0 <= g < parent.sort_size(sort):
                raise ArityError(f"generator {g} outside parent sort {sort}")
        lazy = isinstance(parent, ConcreteAlgebra)
        found = self._fixed_point() if lazy else self._search()
        self._to_parent = [sorted(vals) for vals in found]
        self._from_parent = [{val: idx for idx, val in enumerate(vals)}
                             for vals in self._to_parent]
        if not lazy:
            self._witness = [[found[n][val] for val in vals]
                             for n, vals in enumerate(self._to_parent)]

    @cached_property
    def _witness(self) -> list[list[str]]:
        """Each element's first witnessing term by rank, searched for on first
        use.  A search refused at a pair cap is not run again under that cap."""
        if (refusal := self._tables.get(("refused", WITNESS_PAIR_CAP))) is not None:
            raise RelAlgError(refusal)
        found = self._search([len(vals) for vals in self._to_parent])
        return [[found[n][val] for val in vals] for n, vals in enumerate(self._to_parent)]

    def _seeds(self) -> Iterable[tuple[int, int, str]]:
        """(sort, parent value, term) of the constants, then of the generators."""
        for n in range(self.max_sort + 1):
            yield n, self.parent.zero(n), f"bot {n}"
            yield n, self.parent.one(n), f"top {n}"
            if self.fragment.equality:
                for i, j in iproduct(range(1, n + 1), repeat=2):
                    yield n, self.parent.delta(n, i, j), f"delta {n} {i} {j}"
        yield from ((s, g, name) for (s, g), name in zip(self.generators, self.generator_names))

    def _unary(self) -> list[list[tuple]]:
        """Per sort: each unary symbol's key, result sort and term template."""
        frag, bound, unary = self.fragment, self.max_sort, []
        for n in range(bound + 1):
            ops = [(("neg", n), n, "not({})")] if frag.negation else []
            if frag.exists and n >= 1:
                ops.append((("exists", n - 1), n - 1, "exists({})"))
            unary.append(ops + [(("subst", alpha), k, alpha.term_prefix() + " {}")
                                for k in range(bound + 1) for alpha in all_substitutions(n, k)])
        return unary

    def _check_cap(self, n: int, size: int) -> None:
        if size > self.element_cap:
            raise ElementCapExceededError(
                f"closure of sort {n} exceeds element cap {self.element_cap}")

    def _fixed_point(self) -> list[set[int]]:
        """Each sort's parent values in a concrete parent.  A substitution
        keeps ORs and ANDs, projection ORs, and negation turns ORs into ANDs,
        so the unary step maps only the g(u) that generate each lattice."""
        fresh = [{v for s, v, _ in self._seeds() if s == n} for n in range(self.max_sort + 1)]
        unary, found, gens = self._unary(), [set() for _ in fresh], [set() for _ in fresh]
        while any(fresh):
            for n in range(len(fresh)):
                new, fresh[n] = fresh[n] - found[n], set()
                if new:
                    found[n], gens[n] = self._lattice(n, gens[n] | new)
                    column = [0, *gens[n]]  # 0's images are constants; it keeps the column nonempty
                    for key, k, _ in unary[n]:
                        fresh[k].update(self.parent.map_all(key, column))
        return found

    def _lattice(self, n: int, members: set[int]) -> tuple[set[int], set[int]]:
        """The sublattice that members, 0 and the full mask generate, and the
        g(u) that generate it: the ORs of subsets of {g(u)}, g(u) being the
        AND of the members with bit u; in time output size times width."""
        planes = _transpose(list(members), self.parent.width(n))  # plane u: the members with bit u
        out, gens = {0}, set()
        for p in planes:  # out: the ORs of subsets of the g(u) so far, so closed under OR
            g = sum(1 << v for v, q in enumerate(planes) if p & q == p)
            if g not in out:
                gens.add(g)
                out.update([g | x for x in out])
                self._check_cap(n, len(out))
        return out, gens

    def _search(self, sizes: list[int] | None = None) -> list[dict[int, str]]:
        """Each sort's parent values and first witnessing terms; given the
        sort sizes, the search stops early and refuses past the pair cap."""
        parent, bound = self.parent, self.max_sort
        found: list[dict[int, str]] = [dict() for _ in range(bound + 1)]
        queue: list[tuple[int, int]] = []

        def add(n: int, val: int, term: str) -> None:
            if val not in found[n]:
                if sizes is None:
                    self._check_cap(n, len(found[n]) + 1)
                found[n][val] = term
                queue.append((n, val))

        for n, val, term in self._seeds():
            add(n, val, term)
        unary, total = self._unary(), sum(sizes) if sizes else None
        reach: list[list[int]] = [[] for _ in range(bound + 1)]  # each sort-n row's snapshot length
        head = pairs = 0
        while head < len(queue) != total:  # until the queue is drained or holds every element
            chunk, head = queue[head:], len(queue)
            columns: dict[int, list[int]] = {}
            for n, val in chunk:
                columns.setdefault(n, []).append(val)
            images = {n: zip(*[parent.map_all(key, column) for key, _, _ in unary[n]])
                      for n, column in columns.items()}
            for n, val in chunk:
                if len(queue) == total:
                    break
                term = found[n][val]
                for (_, k, template), image in zip(unary[n], next(images[n])):
                    if image not in found[k]:
                        add(k, image, template.format(term))
                # val is row i of sort n; earlier rows whose snapshots reached past i met it
                seen, i = found[n], len(reach[n])
                reach[n].append(len(seen))  # > i, so it leaves the bisect below alone
                if sizes and len(seen) == sizes[n]:  # the row's meets and joins are all in seen
                    continue
                others = list(seen)
                del others[bisect_right(reach[n], i):i]
                pairs += len(others)
                if sizes and pairs > WITNESS_PAIR_CAP:
                    refusal = (f"witness search met more than {WITNESS_PAIR_CAP} pairs "
                               f"({self.provenance})")
                    raise RelAlgError(self.cached(("refused", WITNESS_PAIR_CAP), lambda: refusal))
                row = [val] * len(others)
                meets = parent.meet_all(n, row, others)
                joins = parent.join_all(n, row, others)
                if not seen.keys() >= {*meets, *joins}:
                    for other, m, j in zip(others, meets, joins):
                        if m not in seen:
                            add(n, m, f"and({term}, {seen[other]})")
                        if j not in seen:
                            add(n, j, f"or({term}, {seen[other]})")
        return found

    def sort_size(self, n: int) -> int:
        self._check_sort(n)
        return len(self._to_parent[n])

    def boolean_in_canonical_order(self, n: int) -> bool:
        """The parent's verdict where the closure is the parent's whole sort,
        so that the ranks are the parent's indices; False elsewhere."""
        return (self.sort_size(n) == self.parent.sort_size(n)
                and self.parent.boolean_in_canonical_order(n))

    def to_parent(self, n: int, a: int) -> int:
        self._check_sort(n)
        return self._to_parent[n][a]

    def from_parent(self, n: int, val: int) -> int:
        self._check_sort(n)
        return self._from_parent[n][val]

    def witness_term(self, n: int, a: int) -> str:
        self._check_sort(n)
        return self._witness[n][a]

    def _wrap(self, n: int, val: int) -> int:
        idx = self._from_parent[n].get(val)
        if idx is None:
            raise AssertionError(f"closure not closed: sort {n} value {val}")
        return idx

    def _apply(self, key, *args) -> int:
        """The parent's operation on the arguments' parent values, wrapped."""
        arg_sort, result = _sorts(key)
        up = self._to_parent[arg_sort]
        return self._wrap(result, getattr(self.parent, key[0])(*key[1:], *(up[a] for a in args)))

    def _apply_all(self, key, xs: list[int], ys: list[int]) -> list[int]:
        """The parent's batched operation on two columns of local indices."""
        name, n = key
        up = self._to_parent[n].__getitem__
        vals = getattr(self.parent, name + "_all")(n, list(map(up, xs)), list(map(up, ys)))
        try:
            return list(map(self._from_parent[n].__getitem__, vals))
        except KeyError as missing:
            self._wrap(n, missing.args[0])  # raises: the first value outside the closure
            raise

    def extend(self, new_max_sort: int) -> "GeneratedSubalgebra":
        """Re-close over the extended parent.  Only conservative extensions are
        allowed: if closure through the new sorts would add elements to an old
        sort (possible once projection is in the signature), the old element
        indices would shift, so we refuse instead."""
        if new_max_sort <= self.max_sort:
            return self
        bigger = GeneratedSubalgebra(self.parent.extend(new_max_sort), self.generators,
                                     self.generator_names)
        for n in range(self.max_sort + 1):
            if bigger._to_parent[n] != self._to_parent[n]:
                raise InsufficientSortsError(
                    f"extension to sort {new_max_sort} is not conservative: "
                    f"sort {n} grows from {len(self._to_parent[n])} to "
                    f"{len(bigger._to_parent[n])} elements"
                )
        return bigger

    def element_label(self, n: int, a: int) -> str:
        return self.witness_term(n, a)


def generated_subalgebra(parent: FiniteAlgebra, generators: Sequence[tuple[int, int]],
                         names: Sequence[str] | None = None) -> GeneratedSubalgebra:
    return GeneratedSubalgebra(parent, generators, names)


# ---------------------------------------------------------------------------
# Explicit table presentations


def operations(fragment: Fragment, max_sort: int):
    """Each operation symbol within sorts 0..max_sort once, as (key, argument
    sorts, result sort).  A key is the method name followed by its leading
    arguments, so getattr(alg, key[0])(*key[1:], *args) applies the symbol."""
    sorts = range(max_sort + 1)
    for n in sorts:
        yield ("zero", n), (), n
        yield ("one", n), (), n
        yield ("meet", n), (n, n), n
        yield ("join", n), (n, n), n
        if fragment.negation:
            yield ("neg", n), (n,), n
        if fragment.equality:
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    yield ("delta", n, i, j), (), n
    for n in sorts:
        for k in sorts:
            for alpha in all_substitutions(n, k):
                yield ("subst", alpha), (n,), k
    if fragment.exists:
        for n in range(max_sort):
            yield ("exists", n), (n + 1,), n


def _sorts(key) -> tuple[int, int]:
    """A symbol key's argument sort (that of any argument) and result sort."""
    if key[0] == "subst":
        return key[1].dom, key[1].cod
    if key[0] == "exists":
        return key[1] + 1, key[1]
    return key[1], key[1]


def _symbol(key) -> str:
    return " ".join(map(str, key))


class TableAlgebra(FiniteAlgebra):
    """One table per operation symbol, keyed as in operations(): an element
    for a constant, a list over the argument sort for a unary symbol, and
    rows for meet and join.  The given tables are validated, copied into the
    algebra's store and read from there by the operations and table(key).
    Construction decides, per tabulated sort, whether its rows prove it
    Boolean in canonical order, and stores that verdict under ("boolean",
    n).  A proved sort keeps its meet and join rows packed (bytes up to 256
    elements, an unsigned array above), and its meet_all and join_all are
    the AND and OR of the indices; any other sort keeps list rows and
    gathers from them.  Has no sorts above the bound unless
    a backing algebra was attached at construction; extend() then serves
    them from it."""

    def __init__(self, fragment: Fragment, max_sort: int, sizes: Sequence[int], tables: dict,
                 extension: FiniteAlgebra | None = None):
        if type(max_sort) is not int:
            raise FormatError(f"max_sort is not an integer: {max_sort!r}")
        super().__init__(fragment, max_sort, DEFAULT_ELEMENT_CAP, "tables")
        self.sizes = list(sizes)
        self._extension = extension
        if len(self.sizes) != max_sort + 1:
            raise FormatError(f"expected data for {max_sort + 1} sorts")
        for n, size in enumerate(self.sizes):
            if type(size) is not int:
                raise FormatError(f"sort {n} has a size that is not an integer: {size!r}")
            if size <= 0:
                raise FormatError(f"sort {n} has non-positive size {size}")
        for key, arg_sorts, result in operations(fragment, max_sort):
            if key not in tables:
                raise FormatError(f"missing table for {_symbol(key)}")
            self._tables[key] = self._checked(key, tables[key], arg_sorts, result)
        for n in range(max_sort + 1):
            self._tables[("boolean", n)] = self._proved(n)
        # Projection and diagonal tables outside the signature are kept,
        # unchecked, for to_json alone; no operation or table(key) serves them.
        self._unchecked = {key: t for key, t in tables.items() if key not in self._tables}
        for key in self._unchecked:
            if key[0] not in ("exists", "delta"):
                raise FormatError(f"{_symbol(key)} is outside the signature of "
                                  f"{fragment} up to sort {max_sort}")

    def _checked(self, key, table, arg_sorts, result):
        """A copy of the given table, made by arity and seen as rows: its
        shape must follow the argument sorts, and its entries must be element
        indices of the result sort; a bool is not one.  A valid row is
        checked in one pass of builtins; a packed row (bytes or an unsigned
        array) holds no bool and no negative, so only its bound is.  _proved
        copies every row of meet and join, the only tables with rows."""
        if len(arg_sorts) == 2:
            table = rows = [row if _is_packed(row) else list(row) for row in table]
            shape = (self.sizes[arg_sorts[0]], self.sizes[arg_sorts[1]])
        elif arg_sorts:
            table = list(table)
            rows, shape = [table], (1, self.sizes[arg_sorts[0]])
        else:
            rows, shape = [[table]], (1, 1)
        if len(rows) != shape[0] or any(len(row) != shape[1] for row in rows):
            raise FormatError(f"table for {_symbol(key)} has the wrong shape")
        size = self.sizes[result]
        for row in rows:
            if not (max(row) < size if _is_packed(row) else
                    set(map(type, row)) <= {int} and 0 <= min(row) and max(row) < size):
                bad = next(x for x in row if type(x) is not int or not 0 <= x < size)
                raise FormatError(f"table for {_symbol(key)} has an entry outside "
                                  f"sort {result}: {bad!r}")
        return table

    def _proved(self, n: int) -> bool:
        """Whether sort n's stored rows prove it Boolean in canonical order:
        each element a's meet and join rows, packed as w-bit lanes, against
        idx & a*rep and idx | a*rep.  A proved sort keeps its rows packed,
        any other sort as lists."""
        size, keys = self.sizes[n], (("meet", n), ("join", n))
        w = size.bit_length() - 1
        if size == 1 << w and (self._tables[("zero", n)], self._tables[("one", n)]) == (0, size - 1):
            meets, joins = packed = [[_packed(row, w) for row in self._tables[key]] for key in keys]
            pack = partial(int.from_bytes, byteorder=sys.byteorder)  # lanes as stored
            idx, rep = pack(_packed(range(size), w)), pack(_packed([1] * size, w))
            if all(pack(m) == idx & a * rep and pack(j) == idx | a * rep
                   for a, (m, j) in enumerate(zip(meets, joins))):
                self._tables.update(zip(keys, packed))
                return True
        elements = list(range(size))  # one int object per element, shared by the rows
        for key in keys:
            self._tables[key] = [list(map(elements.__getitem__, row)) for row in self._tables[key]]
        return False

    def sort_size(self, n: int) -> int:
        self._check_sort(n)
        return self.sizes[n] if n < len(self.sizes) else self._extension.sort_size(n)

    def _apply(self, key, *args) -> int:
        if (entry := self._tables.get(key)) is None:  # a symbol above the checked sorts
            return self._extension._apply(key, *args)
        for a in args:
            entry = entry[a]
        return entry

    def _apply_all(self, key, xs: list[int], ys: list[int]) -> list[int]:
        if (table := self._tables.get(key)) is None:
            return self._extension._apply_all(key, xs, ys)
        if self._tables[("boolean", key[1])]:
            return _and_or_all(key, xs, ys)
        return _look_up_all(table, xs, ys)

    def boolean_in_canonical_order(self, n: int) -> bool:
        """A tabulated sort's verdict, proved from its rows at construction
        and kept under ("boolean", n); a served sort's is the backing's."""
        if (verdict := self._tables.get(("boolean", n))) is None:
            self._check_sort(n)
            return self._extension.boolean_in_canonical_order(n)
        return verdict

    def map_all(self, key, column: Sequence[int]) -> list[int]:
        """Above the checked sorts, in bounds, the backing's own map_all."""
        if (self._extension is not None and column and key not in self._tables
                and 0 <= min(sorts := _sorts(key)) and max(sorts) <= self.max_sort):
            return self._extension.map_all(key, column)
        return super().map_all(key, column)

    def extend(self, new_max_sort: int) -> "TableAlgebra":
        if new_max_sort <= self.max_sort:
            return self
        if self._extension is None:
            raise InsufficientSortsError(
                f"table algebra has no sorts above {self.max_sort}"
            )
        served = copy.copy(self)
        served.max_sort, served._extension = new_max_sort, self._extension.extend(new_max_sort)
        served._extension.ensure_enumerable(new_max_sort)  # past the cap, embed tries pairs
        served._tables = {k: self._tables[k] for k, _, _ in operations(self.fragment, len(self.sizes) - 1)}
        served._tables.update({k: v for k, v in self._tables.items() if k[0] == "boolean"})
        return served

    # -- JSON ----------------------------------------------------------------

    @classmethod
    def from_json(cls, text: str) -> "TableAlgebra":
        """Read the file format: per-sort size, meet, join, zero, one and (with
        negation) neg entries, and "subst", "exists" and "delta" sections
        keyed "dom->cod:[map]", "n" and "n:i,j"."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"bad algebra file: {exc}") from exc
        try:
            fragment = parse_fragment(data["fragment"])
            max_sort = data["max_sort"]
            sorts = data["sorts"]
            kinds = ("zero", "one", "meet", "join") + (("neg",) if fragment.negation else ())
            tables = {(kind, n): entry[kind] for n, entry in enumerate(sorts) for kind in kinds}
            for key, table in data.get("subst", {}).items():
                tables[("subst", _parse_subst_key(key))] = table
            for key, table in data.get("exists", {}).items():
                tables[("exists", int(key))] = table
            for key, value in data.get("delta", {}).items():
                n_part, ij = key.split(":")
                i_part, j_part = ij.split(",")
                tables[("delta", int(n_part), int(i_part), int(j_part))] = value
            return cls(fragment, max_sort, [entry["size"] for entry in sorts], tables)
        except (AttributeError, KeyError, TypeError, ValueError, IndexError) as exc:
            raise FormatError(f"bad algebra file: {exc!r}") from exc

    def to_json(self) -> str:
        if self.max_sort >= len(self.sizes):  # served sorts are tabulated first
            return as_table_algebra(self).to_json()
        sorts = [{"size": size} for size in self.sizes]
        data = {"fragment": str(self.fragment), "max_sort": self.max_sort, "sorts": sorts,
                "subst": {}}
        symbols = {key: self._tables[key] for key, _, _ in operations(self.fragment, self.max_sort)}
        for (name, *args), table in {**symbols, **self._unchecked}.items():
            if name == "subst":
                data["subst"][_subst_key(args[0])] = table
            elif name == "exists":
                data.setdefault("exists", {})[str(args[0])] = table
            elif name == "delta":
                data.setdefault("delta", {})["{}:{},{}".format(*args)] = table
            else:
                sorts[args[0]][name] = list(map(list, table)) if name in ("meet", "join") else table
        return json.dumps(data, sort_keys=True)


def _packed(row: Iterable[int], width: int) -> bytes | array:
    """A row of values below 2**width as bytes, or past 8 bits as the
    narrowest unsigned array that holds them.  Values, not buffers, are
    read: an array's items into bytes, and bytes' items into an array."""
    if width <= 8:
        return bytes(row.tolist() if type(row) is array else row)
    code = next(c for c in "HILQ" if array(c).itemsize * 8 >= width)
    return array(code, list(row) if type(row) is bytes else row)


def _is_packed(row) -> bool:
    return type(row) is bytes or type(row) is array and row.typecode in "BHILQ"


def _and_or_all(key, xs: list[int], ys: list[int]) -> list[int]:
    """meet_all or join_all as the AND or OR of the indices."""
    return list(map(operator.and_ if key[0] == "meet" else operator.or_, xs, ys))


def _look_up_all(table: list[list[int]], xs: list[int], ys: list[int]) -> list[int]:
    """table[x][y] for each pair of two equally long columns; where xs
    repeats one element, that is one row of the table."""
    if xs and xs.count(xs[0]) == len(xs):
        return list(map(table[xs[0]].__getitem__, ys))
    return list(map(operator.getitem, map(table.__getitem__, xs), ys))


def _subst_key(alpha: Substitution) -> str:
    return f"{alpha.dom}->{alpha.cod}:[{','.join(str(i) for i in alpha.map)}]"


def _parse_subst_key(key: str) -> Substitution:
    m = key.split(":")
    if len(m) != 2:
        raise FormatError(f"bad substitution key {key!r}")
    doms, brack = m
    dom_s, cod_s = doms.split("->")
    if not (brack.startswith("[") and brack.endswith("]")):
        raise FormatError(f"bad substitution key {key!r}")
    inner = brack[1:-1]
    entries = tuple(int(x) for x in inner.split(",")) if inner else ()
    return Substitution(int(dom_s), int(cod_s), entries)


def as_table_algebra(algebra: FiniteAlgebra, with_extension: bool = False) -> TableAlgebra:
    """Re-present an algebra as anonymous operation tables, one per symbol.
    With with_extension=True the original is kept as a backing: extend()
    serves the sorts above max_sort from it, operation by operation, and
    never tabulates them."""
    sizes = []
    for n in range(algebra.max_sort + 1):
        algebra.ensure_enumerable(n)
        sizes.append(algebra.sort_size(n))
    tables = {}
    for key, arg_sorts, _ in operations(algebra.fragment, algebra.max_sort):
        name, params = key[0], key[1:]
        if len(arg_sorts) == 2:  # meet and join: one batched row per element
            batch, elems = getattr(algebra, name + "_all"), list(range(sizes[arg_sorts[0]]))
            width = (len(elems) - 1).bit_length()
            tables[key] = [_packed(batch(*params, [a] * len(elems), elems), width) for a in elems]
        elif arg_sorts:
            tables[key] = algebra.table(key)
        else:
            tables[key] = getattr(algebra, name)(*params)
    return TableAlgebra(algebra.fragment, algebra.max_sort, sizes, tables,
                        extension=algebra if with_extension else None)


# ---------------------------------------------------------------------------
# Morphism verification


@dataclass
class MorphismReport:
    ok: bool
    checks: int
    violations: list[str] = field(default_factory=list)


# How verify_morphism words a symbol it finds not preserved: the positional
# format arguments are the symbol's key parameters, then its arguments, and
# sorts holds the argument sorts.
_MORPHISM_MESSAGES = {
    "zero": "constant 0 of sort {0} not preserved",
    "one": "constant 1 of sort {0} not preserved",
    "join": "join of sort-{0} elements {1},{2} not preserved",
    "meet": "meet of sort-{0} elements {1},{2} not preserved",
    "neg": "negation of sort-{0} element {1} not preserved",
    "delta": "diagonal ({0},{1},{2}) not preserved",
    "subst": "substitution {0} at sort-{0.dom} element {1} not preserved",
    "exists": "projection of sort-{sorts[0]} element {1} not preserved",
    "containment": "projection containment fails at sort-{sorts[0]} element {1}",
}


def verify_morphism(fmap: dict[int, Sequence[int]], src: FiniteAlgebra, dst: FiniteAlgebra,
                    mode: str = "full") -> MorphismReport:
    """Check that the per-sort element map preserves every symbol that
    operations() lists for src's fragment, on every argument tuple, by one
    batched call per run of tuples that vary only the last argument.
    Violations are named in tuple order, join before meet.  mode "almost"
    demands only the containment exists(f(r)) <= f(exists(r)) for projection
    instead of equality, checked by one batched meet."""
    if mode not in ("full", "almost"):
        raise ValueError(f"unknown mode {mode!r}")
    violations: list[str] = []
    checks = 0
    for key, arg_sorts, result in operations(src.fragment, min(src.max_sort, dst.max_sort)):
        if key[0] == "meet":
            continue
        elems = [list(src.elements(n)) for n in arg_sorts[:1]]
        runs = [((), elems)] if len(arg_sorts) < 2 else \
            (((a,), [[a] * len(elems[0]), elems[0]]) for a in elems[0])
        for prefix, columns in runs:
            images = [list(map(fmap[n].__getitem__, c)) for n, c in zip(arg_sorts, columns)]
            held = []
            for name in (("join", "meet") if key[0] == "join" else key[:1]):
                values = list(map(fmap[result].__getitem__, _on_columns(src, name, key, columns)))
                targets = _on_columns(dst, name, key, images)
                checks += len(values)
                if name == "exists" and mode == "almost":
                    name, values = "containment", dst.meet_all(result, targets, values)
                held.append((name, list(map(operator.eq, values, targets))))
            if len(violations) < MORPHISM_VIOLATION_CAP and not all(all(ok) for _, ok in held):
                # the tuple at position i is (*prefix, i), cut to the symbol's arity
                violations += islice((_MORPHISM_MESSAGES[name].format(
                    *key[1:], *(*prefix, i)[:len(arg_sorts)], sorts=arg_sorts)
                    for i, oks in enumerate(zip(*(ok for _, ok in held)))
                    for (name, _), ok in zip(held, oks) if not ok),
                    MORPHISM_VIOLATION_CAP - len(violations))
    return MorphismReport(not violations, checks, violations)


def _on_columns(algebra: FiniteAlgebra, name: str, key, columns: list[list[int]]) -> list[int]:
    """The symbol name with key's parameters, on argument columns: a constant
    once, a unary symbol by map_all, join or meet by join_all or meet_all."""
    if not columns:
        return [getattr(algebra, name)(*key[1:])]
    if len(columns) == 1:
        return algebra.map_all(key, columns[0])
    return getattr(algebra, name + "_all")(*key[1:], *columns)


def kernel(fmap: dict[int, Sequence[int]], sort: int) -> set[tuple[int, int]]:
    """Pairs of same-sort elements identified by the map."""
    f = fmap[sort]
    out = set()
    for a in range(len(f)):
        for b in range(a + 1, len(f)):
            if f[a] == f[b]:
                out.add((a, b))
    return out


def is_injective(fmap: dict[int, Sequence[int]], sorts: Iterable[int]) -> bool:
    return all(len(set(fmap[n])) == len(fmap[n]) for n in sorts)
