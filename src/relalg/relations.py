"""Exact finite relations over an explicit universe.

An n-ary relation over a universe of size s is a bitset over the s**n tuple
indices.  Tuple (x1,...,xn) gets index sum(x_i * s**(n-i)), i.e. x1 is the
most significant base-s digit.  File formats and frozen test vectors depend
on this encoding, so it must not change.

Substitutions are index maps alpha: {1..n} -> {1..k}; they act on k-tuples
by selection and on n-ary relations by inverse image, landing in arity k.
All surface syntax uses 1-based indices; conversion to 0-based is internal.

No kernel walks the tuples one by one: an index map is a mixed-radix sum,
substitution gathers _flags byte lanes through it, projection ORs |W|
strided slices of the binary digits, and a diagonal is built by repetition.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, count, product as iproduct
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .errors import ArityError


@dataclass(frozen=True)
class Universe:
    """Ground set {0, .., size-1}; size 0 is legal."""

    size: int

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"universe size must be >= 0, got {self.size}")


def tuple_index(size: int, tup: Sequence[int]) -> int:
    idx = 0
    for x in tup:
        idx = idx * size + x
    return idx


def index_tuple(size: int, arity: int, idx: int) -> tuple[int, ...]:
    out = [0] * arity
    for i in range(arity - 1, -1, -1):
        idx, out[i] = divmod(idx, size)
    return tuple(out)


@dataclass(frozen=True)
class Substitution:
    """Index map {1..dom} -> {1..cod}, stored 1-based as in all surface syntax."""

    dom: int
    cod: int
    map: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "map", tuple(self.map))
        if self.dom < 0 or self.cod < 0:
            raise ArityError(f"negative sort in substitution {self.dom}->{self.cod}")
        if len(self.map) != self.dom:
            raise ArityError(f"substitution map has length {len(self.map)}, expected {self.dom}")
        for entry in self.map:
            if not 1 <= entry <= self.cod:
                raise ArityError(f"substitution entry {entry} outside 1..{self.cod}")
        # hashed once: the evaluator's stores look a substitution up per clause
        object.__setattr__(self, "_hash", hash((self.dom, self.cod, self.map)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def identity(cls, n: int) -> "Substitution":
        return cls(n, n, tuple(range(1, n + 1)))

    def __str__(self) -> str:
        return f"[{','.join(str(i) for i in self.map)}]:{self.dom}->{self.cod}"

    def term_prefix(self) -> str:
        """'sub [i1,...,in]' in the term grammar, with '->k' exactly where the
        parser's default codomain, the largest index (0 if none), is wrong."""
        arrow = "" if self.cod == max(self.map, default=0) else f"->{self.cod}"
        return f"sub [{','.join(str(i) for i in self.map)}]{arrow}"


def all_substitutions(dom: int, cod: int) -> Iterator[Substitution]:
    """All index maps {1..dom} -> {1..cod}, in lexicographic order."""
    for entries in iproduct(range(1, cod + 1), repeat=dom):
        yield Substitution(dom, cod, entries)


@dataclass(frozen=True)
class Relation:
    universe: Universe
    arity: int
    bits: int

    def __post_init__(self) -> None:
        if self.arity < 0:
            raise ArityError(f"negative arity {self.arity}")
        if not 0 <= self.bits < (1 << self.num_tuples):
            raise ValueError(f"bitset out of range for arity {self.arity} over size {self.universe.size}")

    @property
    def num_tuples(self) -> int:
        return self.universe.size ** self.arity

    @classmethod
    def from_tuples(cls, universe: Universe, arity: int, tuples: Iterable[Sequence[int]]) -> "Relation":
        bits = 0
        for tup in tuples:
            if len(tup) != arity:
                raise ArityError(f"tuple {tuple(tup)} has length {len(tup)}, expected {arity}")
            for x in tup:
                if not 0 <= x < universe.size:
                    raise ValueError(f"element {x} outside universe of size {universe.size}")
            bits |= 1 << tuple_index(universe.size, tup)
        return cls(universe, arity, bits)

    def contains(self, tup: Sequence[int]) -> bool:
        if len(tup) != self.arity:
            raise ArityError(f"tuple of length {len(tup)} tested against arity {self.arity}")
        for x in tup:
            if not 0 <= x < self.universe.size:
                return False
        return bool(self.bits >> tuple_index(self.universe.size, tup) & 1)

    def tuples(self) -> Iterator[tuple[int, ...]]:
        size, arity = self.universe.size, self.arity
        for idx in compress(count(), _flags(self.bits)):
            yield index_tuple(size, arity, idx)

    def __str__(self) -> str:
        return relation_literal(self)


@lru_cache(maxsize=None)
def _index_map(alpha: Substitution, size: int) -> tuple[int, ...]:
    """For each target tuple index (arity cod) the source index (arity dom),
    a mixed-radix sum: target coordinate j weighs the source place values
    of the coordinates alpha sends to j."""
    weights = [0] * alpha.cod
    for i, j in enumerate(alpha.map):
        weights[j - 1] += size ** (alpha.dom - 1 - i)
    out = [0]
    for w in weights:
        steps = [d * w for d in range(size)]
        out = [v + s for v in out for s in steps]
    return tuple(out)


def _rel_apply_bits(alpha: Substitution, size: int, bits: int) -> int:
    """Gather the source's _flags bytes through the index map by one
    itemgetter, which returns a scalar for one index."""
    idx = _index_map(alpha, size)
    if not idx:
        return 0
    flags = _flags(bits).ljust(size**alpha.dom, b"\0")
    return _bitmask(itemgetter(*idx)(flags) if len(idx) > 1 else (flags[idx[0]],))


def rel_apply(alpha: Substitution, r: Relation) -> Relation:
    """Inverse image: x in result iff (x[alpha(1)], ..., x[alpha(dom)]) in r.
    Arity dom -> cod."""
    if r.arity != alpha.dom:
        raise ArityError(f"relation of arity {r.arity} fed to substitution {alpha}")
    return Relation(r.universe, alpha.cod, _rel_apply_bits(alpha, r.universe.size, r.bits))


def exists_last(r: Relation) -> Relation:
    """Project away the last coordinate: x in result iff xy in r for some y."""
    if r.arity < 1:
        raise ArityError("cannot project a relation of arity 0")
    return Relation(r.universe, r.arity - 1, _exists_last_bits(r.universe.size, r.arity, r.bits))


def _exists_last_bits(size: int, arity: int, bits: int) -> int:
    """OR of the |W| strided slices of the binary digits, most significant
    first: slice y holds the tuples whose last coordinate is size-1-y."""
    digits = bin(bits)[2:].zfill(size**arity)
    out = 0
    for y in range(size):
        out |= int(digits[y::size], 2)
    return out


def delta(universe: Universe, arity: int, i: int, j: int) -> Relation:
    """The n-ary relation holding of a tuple iff coordinates i and j agree (1-based)."""
    if not (1 <= i <= arity and 1 <= j <= arity):
        raise ArityError(f"diagonal indices ({i},{j}) outside 1..{arity}")
    if i == j:
        return Relation(universe, arity, (1 << universe.size**arity) - 1)
    size, (lo, hi) = universe.size, sorted((i, j))
    # Coordinate lo = x repeats, once per tuple of those between, a run of 1s
    # where coordinate hi = x; those before lo repeat it all.  x -> size-1-x
    # reverses tuple order and keeps the diagonal: the digits are a palindrome.
    after = size ** (arity - hi)
    block = "".join(("0" * (x * after) + "1" * after + "0" * ((size - 1 - x) * after))
                    * size ** (hi - lo - 1) for x in range(size))
    return Relation(universe, arity, int(block * size ** (lo - 1) or "0", 2))


# ---------------------------------------------------------------------------
# Bit planes: a batch of values as one int per bit, bit r for row r

# _DIGITS[p] maps each byte to the binary digit (ASCII) of its bit p: runs
# of 2**p zeros and ones.
_DIGITS = [(b"0" * (1 << p) + b"1" * (1 << p)) * (128 >> p) for p in range(8)]
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")
# The narrowest of the array codes that convert an item by one PyLong call
# ('B' and 'H' take the generic argument parser) whose item holds k bytes.
_LANE_CODES = {k: next(c for c in "ILQ" if array(c).itemsize >= k) for k in range(2, 9)}


def _lanes(column: Sequence[int], width: int) -> tuple[bytes, int]:
    """A column of values below 2**width as little-endian lanes, and their
    size: bytes() for 1 byte, an array item up to 8, to_bytes past that."""
    k = (width + 7) // 8
    if k <= 1:
        return bytes(column), 1
    if k > 8:
        return b"".join([v.to_bytes(k, "little") for v in column]), k
    items = array(_LANE_CODES[k], column)
    if sys.byteorder == "big":
        items.byteswap()
    return items.tobytes(), items.itemsize


def _bitmask(flags) -> int:
    """The int with bit i set where the i-th of the (nonempty) flags is true."""
    return int(bytes(flags)[::-1].translate(_DIGITS[0]), 2)


def _flags(mask: int) -> bytes:
    """Byte i is bit i of the mask, up to its highest set bit."""
    return bin(mask)[:1:-1].encode().translate(_DIGIT_FLAGS)


def _transpose(column: Sequence[int], width: int) -> list[int]:
    """The bit planes of a nonempty column of values below 2**width: plane p
    has bit r set where column[r] has bit p.  Each value becomes a lane of k
    little-endian bytes (_lanes: one byte, a 4- or 8-byte array item, or
    to_bytes past 64 bits), and the whole string is reversed: then every k-th
    byte from k-1-j on is byte j of each value, last row first, and one
    translate per bit turns those bytes into the binary digits of a plane."""
    if not width:
        return []
    data, k = _lanes(column, width)
    data = data[::-1]
    planes = []
    for p in range(width):
        if p % 8 == 0:
            lane = data[k - 1 - p // 8::k]
        planes.append(int(lane.translate(_DIGITS[p % 8]), 2))
    return planes


def partitioning(*arities: int) -> list[Substitution]:
    """Block-inclusion cylindrifications c_i: k_i -> k_1+..+k_m, where c_i
    maps 1..k_i onto the positions of block i, so that rel_apply(c_i, r)
    holds of x_1...x_m iff r holds of the block x_i.  The empty call yields
    the empty family on target sort 0."""
    total = sum(arities)
    out = []
    offset = 0
    for k in arities:
        if k < 0:
            raise ArityError(f"negative block arity {k}")
        out.append(Substitution(k, total, tuple(range(offset + 1, offset + k + 1))))
        offset += k
    return out


def assoc_cylindrification(n: int) -> Substitution:
    """The cylindrification n -> n+1 mapping i to i, so that rel_apply(c, r)
    holds of xy iff r holds of x: it ignores the last coordinate."""
    return Substitution(n, n + 1, tuple(range(1, n + 1)))


def relation_literal(r: Relation) -> str:
    body = ",".join("(" + ",".join(str(x) for x in t) + ")" for t in r.tuples())
    return f"arity={r.arity} universe={r.universe.size} {{{body}}}"
