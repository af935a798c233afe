"""The axiom list (0)-(13) as term clauses, checked in bounds against a
finite algebra, plus the two counterexample galleries.

A schema yields one Clause per parameterization in bounds (sorts, block
shapes, substitution tuples): slot variables with their sorts, and labelled
equations between terms of the operation signature (formulas.py, the
``eval --syntax term`` grammar).  (1)-(13) are equations that must all hold.
(0), the one non-equational schema, has a premise: where it holds, some
equation must; reports label (0) apart.  Each term repeats its schema's
operation sequence (folds start from 1 or 0; a <= b is meet(a, b) = a),
since on tables that break the laws equivalent terms can disagree.  A
subterm that clauses repeat, such as sub(alpha, r) in (3), is built once per
schema call and shared; values are memoized by identity, per run of clauses
that share one batch and the same slot objects, else per batch of one clause.
A schema's clauses depend only on the axiom and the sort bound, so a Bounds
keeps each list that its checks ask for twice, as a tuple that later checks
and replays iterate; a first request streams the schema and keeps nothing.

A clause runs over batches of slot tuples, and _batches is their one source:
a replayed tuple alone, all of them when the space fits the exhaustive cap,
else a seeded uniform sample.  It also decides where the clause runs: a
subalgebra generated in a concrete algebra (a concrete() or a product()) in
that parent, on its elements' images; any other algebra in itself.  In a
concrete host a batch holds each slot as bit planes, plane p being the int
whose bit r is bit p of row r's element; elsewhere one column of elements
per slot.  Exhaustive batches run in lexicographic row order.  A concrete
sort has 2**w elements, so plane p of a slot is bit e + p of the row index,
e the later slots' widths; a mapped-up slot's planes are built per clause
where they repeat or run long, else joined from runs of equal values as a
column of parent values and transposed; exhaustive columns are joined from
runs too.  A space that fits one batch is built once per check_axiom for
each tuple of slot sorts and shared by its clauses.  A sample is the stream
of Random(seed).randrange(n), row by row and slot by slot, one generator per
check_axiom shared by its clauses: a concrete algebra whose sorts have below
2**32 elements draws it straight into planes, 32-bit words at a time through
byte lanes; other algebras draw columns through randrange's own getrandbits
loop.  Columns, sampled or replayed, are mapped up to the host and, in a
concrete host, transposed by byte lanes (relations._transpose) at its
widths; only a violation's elements are mapped back, through the closure
check.  A clause's terms go through formulas.term_value, the one term
evaluator, which eval_term also runs on structures: batched slot values
through the batch's representation, slot-free terms through the host's
scalar operations.  An equation's failing rows are a row mask, and so is a
premise.  A violation's params and slot values replay it bit-exactly through
replay_instance, a batch of one, which refuses values that do not fit the
clause's slots.  Applicability: (0)-(4) everywhere; (5)-(6) need negation,
(7)-(10) projection, (11)-(13) equality constants.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass, field, fields
from functools import reduce
from itertools import chain, compress, count, product as iproduct
from math import prod
from random import Random
from typing import Iterable, Iterator, NamedTuple, Sequence

from .algebras import (ConcreteAlgebra, FiniteAlgebra, GeneratedSubalgebra, concrete,
                       generated_subalgebra, product)
from .errors import FragmentError, PreconditionError
from .formulas import (And, Bot, Columns, Delta, Exists, Not, Or, Planes, Sub, Sym, Term, Top,
                       Values, _lookup, term_value)
from .fragments import Fragment, PE, QF
from .relations import (
    Substitution,
    Universe,
    _DIGITS,
    _flags,
    _transpose,
    all_substitutions,
    assoc_cylindrification,
    partitioning,
)

# Slot tuples per evaluator batch: large enough to amortize the per-term
# work, small enough that no exhaustive space is ever materialized whole.
BATCH = 4096
# A mapped-up exhaustive slot that repeats within PATTERN rows has its planes
# built once per clause and sliced; one whose runs of equal values are at
# least SHORT_RUN rows long ORs each run in as a row mask instead.
SHORT_RUN = 64
PATTERN = 1 << 18
# _ROW_BITS[b] has bit r set where r has bit b, for the rows r of a batch:
# runs of 2**b zeros and ones, the unit run pair repeated by one division.
_ROW_BITS = [(((1 << (1 << b)) - 1) << (1 << b)) * ((1 << BATCH) - 1) // ((1 << (2 << b)) - 1)
             for b in range(BATCH.bit_length() - 1)]
# Schema (0) takes up to MAX_BLOCKS blocks; schema (10) packs up to
# MAX_WITNESSES witness requests.
MAX_BLOCKS = 3
MAX_WITNESSES = 2
# The bytes of a sampler lane whose bit 7 is set: words randrange rejects.
_REJECTED = bytes(range(128, 256))


@dataclass(frozen=True)
class Bounds:
    """The bounds of a check.  A Bounds also keeps the clause lists that its
    checks ask for more than once (_clauses), keyed by (axiom, sort bound):
    they are not fields for ==, hash or repr, a copy made by
    dataclasses.replace starts without them, and they go with the Bounds."""

    max_sort: int
    exhaustive_cap: int = 10**6
    samples: int = 10**5
    seed: int = 0
    violation_cap: int = 5
    _clause_lists: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.init and (not isinstance(value, int) or isinstance(value, bool)):
                raise PreconditionError(f"{f.name} must be an int, got {value!r}")
        # below these a check passes vacuously: no sort is in bounds, a
        # sampled clause checks nothing, or no violation can be kept; a
        # negative cap is no space's size
        for name, least in (("max_sort", 0), ("exhaustive_cap", 0), ("samples", 1),
                            ("violation_cap", 1)):
            if getattr(self, name) < least:
                raise PreconditionError(f"{name} must be >= {least}, got {getattr(self, name)}")


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


Equation = tuple[str, str, Term, Term]  # label, detail, lhs, rhs


class Clause(NamedTuple):
    """One parameterization of a schema.  Without a premise, every equation
    must hold, and the first that fails names a violation.  With a premise,
    at least one equation must hold wherever the premise does, and the
    premise's label and detail name a violation."""

    params: dict
    slots: tuple[Sym, ...]
    equations: tuple[Equation, ...]
    premise: Equation | None = None


def applicable_axioms(fragment: Fragment) -> list[int]:
    out = [0, 1, 2, 3, 4]
    if fragment.negation:
        out += [5, 6]
    if fragment.exists:
        out += [7, 8, 9, 10]
    if fragment.equality:
        out += [11, 12, 13]
    return out


def check_axiom(algebra: FiniteAlgebra, axiom: int, bounds: Bounds) -> CheckReport:
    _require_applicable(algebra, axiom)
    rng = Random(bounds.seed)
    violations: list[SchemaInstance] = []
    params = instances = 0
    sampled = False
    one_batch: dict = {}  # the exhaustive space of each tuple of slot sorts that fits a batch
    # the running group of clauses on one such space with the same slot objects:
    # their slot ids, the memo they share, and the clauses, which pin its ids
    group, memo, pinned = None, None, []
    for clause in _clauses(algebra, axiom, bounds):
        params += 1
        if (slots := tuple(map(id, clause.slots))) != group:  # a new group, or none
            sorts = tuple(slot.sort for slot in clause.slots)
            if (batches := one_batch.get(sorts)) is None:
                space = prod(map(algebra.sort_size, sorts))
                sampled |= space > bounds.exhaustive_cap
                batches = _batches(algebra, sorts, bounds, rng)
                if space <= min(BATCH, bounds.exhaustive_cap):
                    batches = one_batch[sorts] = list(batches)
            shared = sorts in one_batch
            group, pinned = slots if shared else None, []
            memo = dict(zip(slots, batches[0][1])) if shared else None
        pinned.append(clause)
        for values, slot_values in batches:
            instances += values.size
            for row, label, detail in _failures(values, clause, slot_values, memo):
                if len(violations) >= bounds.violation_cap:
                    break
                elems = tuple(values.element(s, v, row) for s, v in zip(sorts, slot_values))
                if values.alg is not algebra:  # run in the parent: map the elements back
                    elems = tuple(map(algebra._wrap, sorts, elems))
                shown = ", ".join(algebra.element_label(s, v) for s, v in zip(sorts, elems))
                if shown:
                    detail = f"{detail}; elements: [{shown}]" if detail else f"elements: [{shown}]"
                # a copy: the clause may be kept on bounds for later checks
                violations.append(SchemaInstance(axiom, label, deepcopy(clause.params),
                                                 elems, detail))
    mode = "exhaustive" if not sampled else f"sampled(seed={bounds.seed},count={bounds.samples})"
    note = "non-Horn schema: conclusion is a disjunction" if axiom == 0 else ""
    return CheckReport(axiom, str(algebra.fragment), mode, params, instances,
                       violations, bounds.seed, note)


def check_fragment(algebra: FiniteAlgebra, bounds: Bounds) -> list[CheckReport]:
    """Run every axiom applicable to the algebra's fragment."""
    return [check_axiom(algebra, ax, bounds) for ax in applicable_axioms(algebra.fragment)]


def replay_instance(algebra: FiniteAlgebra, instance: SchemaInstance, bounds: Bounds) -> bool:
    """Re-evaluate a reported violation; True when it reproduces, False when
    no clause in bounds has its params.  An axiom outside the algebra's
    fragment, or slot values that do not fit the clause's slots, are refused."""
    _require_applicable(algebra, instance.axiom)
    for clause in _clauses(algebra, instance.axiom, bounds):
        if clause.params == instance.params:
            given = instance.slot_values
            if len(given) != len(clause.slots):
                raise PreconditionError(f"axiom ({instance.axiom}) with params {clause.params} "
                                        f"has {len(clause.slots)} slots, got {len(given)} values")
            for i, (slot, v) in enumerate(zip(clause.slots, given), start=1):
                size = algebra.sort_size(slot.sort)
                if type(v) is not int or not 0 <= v < size:
                    wide = type(v) is int and v.bit_length() > 64  # too long to print
                    shown = f"a {v.bit_length()}-bit int" if wide else repr(v)
                    raise PreconditionError(f"slot {i} holds an element of sort {slot.sort}, "
                                            f"an index below {size}, got {shown}")
            sorts = [slot.sort for slot in clause.slots]
            (values, slot_values), = _batches(algebra, sorts, bounds, None, given)
            return bool(_failures(values, clause, slot_values))
    return False


def _require_applicable(algebra: FiniteAlgebra, axiom: int) -> None:
    if axiom not in applicable_axioms(algebra.fragment):
        raise FragmentError(f"axiom ({axiom}) is not applicable to fragment {algebra.fragment}")


# ---------------------------------------------------------------------------
# Clauses on batches of slot tuples


def _exhaustive_batches(sizes: list[int]) -> Iterator[tuple[list[list[int]], int]]:
    """Every slot tuple, in lexicographic order, as (columns, size) batches.
    Row i holds (i // stride) % n in a slot of n elements, stride being the
    product of the later slots' sizes: runs of stride equal values, repeating
    with period n * stride.  Each column is joined from its runs: [v] * run,
    or consecutive values where the stride is 1."""
    total = prod(sizes)
    strides = [prod(sizes[j + 1:]) for j in range(len(sizes))]
    for start in range(0, total, BATCH):
        stop = min(start + BATCH, total)
        yield ([_column(range(n), stride, start, stop) for n, stride in zip(sizes, strides)],
               stop - start)


def _column(values: Sequence[int], stride: int, start: int, stop: int) -> list[int]:
    """Rows start..stop of a slot whose row i holds values[(i // stride) % n],
    n = len(values), values being range(n) or a map up to the host: joined
    from its runs, consecutive values where stride is 1, else one repeated."""
    col: list[int] = []
    for _, v, run in _runs(len(values), stride, start, stop):
        col += values[v:v + run] if stride == 1 else [values[v]] * run
    return col


def _runs(n: int, stride: int, start: int, stop: int) -> Iterator[tuple[int, int, int]]:
    """(row, value, length) of each run of rows start..stop in a slot of n
    elements: equal values, or consecutive ones from value where stride is 1."""
    i = start
    while i < stop:
        v, off = divmod(i, stride)
        v %= n
        run = min(n - v if stride == 1 else stride - off, stop - i)
        yield i, v, run
        i += run


def _sampled_batches(sizes: list[int], count: int,
                     rng: Random) -> Iterator[tuple[list[list[int]], int]]:
    """count uniform slot tuples as (columns, size) batches, drawn row by row
    and slot by slot.  Each draw is CPython's randrange(n) inlined (its
    _randbelow_with_getrandbits): getrandbits(n.bit_length()) until the value
    is below n.  So the values, and the generator's state after them, are
    those of rng.randrange(n) called slot by slot.  A concrete algebra with
    sorts below 2**32 elements draws the same stream straight into planes
    (_sampled_planes); generated algebras, table algebras and wider sorts
    draw here."""
    getrandbits = rng.getrandbits
    slots = [(n, n.bit_length()) for n in sizes]
    width = len(slots)
    for start in range(0, count, BATCH):
        size = min(BATCH, count - start)
        flat: list[int] = []
        append = flat.append
        for n, k in slots * size:
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            append(r)
        yield [flat[j::width] for j in range(width)], size


def _sampled_planes(widths: list[int], count: int,
                    rng: Random) -> Iterator[tuple[list[list[int]], int]]:
    """The batches of _sampled_batches for sorts of 2**w elements, w <= 31,
    as (planes per slot, size): the planes _transpose makes of its columns,
    with the generator left where it leaves it.  randrange(2**w) takes one
    32-bit word per attempt, its top w+1 bits, and keeps it exactly when
    bit 31 is clear, whatever the slot.  So a batch of need values is the
    first need words with bit 31 clear, drawn need - got at a time with one
    getrandbits(32 * m), word i at bits 32i.., which never draws past
    randrange's last word.  Lane c holds bits 24-7c..30-7c of each word in
    bits 0..6 of a byte, and bit 31 in bit 7: lanes 0-3 in bytes 3..0 of
    the word, lane 4 (bits -4..2) in byte 0 of a second block.  Deleting
    the bytes of 128 and up drops the rejected words from every lane at
    once.  Plane p of a w-bit slot is bit 31-w+p of its words: one
    translate of every width-th byte of a lane, reversed."""
    getrandbits = rng.getrandbits
    width = len(widths)
    lanes_used = (max(widths, default=0) + 6) // 7
    unit = int.from_bytes(b"\1\0\0\0" * min(count, BATCH) * width, "little")
    # each of these is as long as a batch of words: keep only those in use
    bit7, low4 = unit << 7, unit * 0x70 if lanes_used > 4 else 0
    masks = [unit * (0x7F << 24 - 8 * c) for c in range(min(lanes_used, 4))]
    del unit
    for start in range(0, count, BATCH):
        size = min(BATCH, count - start)
        need = size * width
        kept, kept4, got = [], [], 0
        while got < need:
            m = need - got
            block = getrandbits(32 * m)
            packed = flags = (block >> 24 & bit7) * 0x01010101  # bit 31 in every bit 7
            for c, mask in enumerate(masks):
                packed |= block >> c & mask
            kept.append(packed.to_bytes(4 * m, "little").translate(None, _REJECTED))
            got += len(kept[-1]) >> 2
            if lanes_used > 4:
                lane4 = (block << 4 & low4 | flags).to_bytes(4 * m, "little")
                kept4.append(lane4.translate(None, _REJECTED))
        words = b"".join(kept)
        lanes = [words[3 - c::4] for c in range(len(masks))] + [b"".join(kept4)[::4]]
        batch = []
        for j, w in enumerate(widths):
            rows = [lane[j::width][::-1] for lane in lanes[:(w + 6) // 7]]
            batch.append([int(rows[(w - 1 - p) // 7].translate(_DIGITS[(p - w) % 7]), 2)
                          for p in range(w)])
        yield batch, size


def _batches(algebra: FiniteAlgebra, sorts: Sequence[int], bounds: Bounds, rng: Random | None,
             given: Sequence[int] | None = None) -> Iterator[tuple[Values, list]]:
    """The (values, slot values) batches of a clause whose slots have these
    sorts: the given slot tuple alone; else every slot tuple, in
    lexicographic order, when they number at most bounds.exhaustive_cap;
    else bounds.samples draws from rng.  A subalgebra generated in a concrete
    algebra runs in its parent, on its elements' images (so the same rows
    fail); any other algebra in itself.  A concrete host holds each slot as
    bit planes, read off the row index (_row_planes) or drawn as planes
    (_sampled_planes) where it can, else as columns of slot elements mapped
    up and transposed; any other host holds the columns."""
    sizes = [algebra.sort_size(s) for s in sorts]
    host, ups = algebra, None
    if isinstance(algebra, GeneratedSubalgebra) and isinstance(algebra.parent, ConcreteAlgebra):
        host, ups = algebra.parent, [algebra._to_parent[s] for s in sorts]
    widths = [*map(host.width, sorts)] if isinstance(host, ConcreteAlgebra) else None
    # columns: the batches hold columns of slot elements, not yet the host's values
    if given is not None:
        columns, batches = True, [([[v] for v in given], 1)]
    elif prod(sizes) <= bounds.exhaustive_cap:
        columns = widths is None
        batches = _exhaustive_batches(sizes) if columns else _row_planes(ups, widths, sizes)
    else:
        columns = widths is None or ups is not None or max(widths, default=0) > 31
        batches = (_sampled_batches(sizes, bounds.samples, rng) if columns
                   else _sampled_planes(widths, bounds.samples, rng))
    for batch, size in batches:
        if columns and ups is not None:
            batch = [_lookup(up, col) for up, col in zip(ups, batch)]
        if columns and widths is not None:
            batch = [_transpose(col, w) for col, w in zip(batch, widths)]
        yield (Columns if widths is None else Planes)(host, size), batch


def _row_planes(ups: list[list[int]] | None, widths: list[int], sizes: list[int]
                ) -> Iterator[tuple[list[list[int]], int]]:
    """Every slot tuple, in lexicographic order, as (planes per slot, size)
    batches: slot j of row i holds v = (i // stride) % n, n = sizes[j] and
    stride the later sizes' product, as widths[j] planes of v, or of
    ups[j][v] given ups.  Without ups, n = 2**w and stride = 2**e: the slot
    is bits e..e+w of the row index, the pattern _ROW_BITS below BATCH's bit
    and the batch start's bit above.  A mapped-up slot that repeats within
    PATTERN rows transposes one period once, doubled until each batch is a
    shifted slice of it; one with runs of SHORT_RUN rows or more ORs each
    run's row mask into its value's planes; any other is mapped up and
    transposed batch by batch."""
    total = prod(sizes)
    slots, stride = [], total
    for up, w, n in zip(ups or [None] * len(sizes), widths, sizes):
        stride //= n
        period, repeated = n * stride, None
        if up is not None and period <= PATTERN:
            col = up if stride == 1 else list(chain.from_iterable([u] * stride for u in up))
            repeated = _transpose(col, w)
            need, reach = min(total, period + BATCH - 1), period
            while reach < need:
                repeated = [p | p << reach for p in repeated]
                reach *= 2
        slots.append((up, w, n, stride, period, repeated))
    for start in range(0, total, BATCH):
        stop = min(start + BATCH, total)
        rows = (1 << stop - start) - 1
        batch = []
        for up, w, n, stride, period, repeated in slots:
            if up is None:
                e = stride.bit_length() - 1
                planes = [_ROW_BITS[b] & rows if b < len(_ROW_BITS) else
                          rows if start >> b & 1 else 0 for b in range(e, e + w)]
            elif repeated is not None:
                off = start % period
                planes = [p >> off & rows for p in repeated]
            elif stride >= SHORT_RUN:
                planes = [0] * w
                for i, v, run in _runs(n, stride, start, stop):
                    mask = ((1 << run) - 1) << i - start
                    for p in compress(count(), _flags(up[v])):
                        planes[p] |= mask
            else:
                planes = _transpose(_column(up, stride, start, stop), w)
            batch.append(planes)
        yield batch, stop - start


def _failures(values: Values, clause: Clause, slot_values: list[list[int]],
              memo: dict | None = None) -> list[tuple[int, str, str]]:
    """(row, label, detail) for each row of the batch that violates the
    clause, in row order: where the premise holds and no equation does, or
    where an equation fails first, each set of rows a row mask.  The
    term_value memo is the given one, which a group of clauses on one shared
    batch with the same slots passes on from clause to clause; it is keyed by
    id, so the caller keeps every term it holds alive.  Without one, a fresh
    memo starts from the clause's slot values and ends with this batch."""
    if memo is None:
        memo = dict(zip(map(id, clause.slots), slot_values))
    if clause.premise is not None:
        label, detail, lhs, rhs = clause.premise
        bad = values.rows & ~_differ(values, lhs, rhs, memo)
        for _, _, lhs, rhs in clause.equations:
            if not bad:
                break
            bad &= _differ(values, lhs, rhs, memo)
        return [(row, label, detail) for row in _rows(bad)]
    failures, seen = [], 0
    for label, detail, lhs, rhs in clause.equations:
        new = _differ(values, lhs, rhs, memo) & ~seen
        if new:
            failures += [(row, label, detail) for row in _rows(new)]
            seen |= new
    return sorted(failures)


def _differ(values: Values, lhs: Term, rhs: Term, memo: dict) -> int:
    """The row mask of the rows where lhs = rhs fails."""
    x = term_value(values, lhs, memo)
    y = term_value(values, rhs, memo)
    if x == y:
        return 0
    if not isinstance(x, list) and not isinstance(y, list):
        return values.rows
    return values.differ(values.lift(lhs.sort, x), values.lift(rhs.sort, y))


def _rows(mask: int) -> list[int]:
    return list(compress(count(), _flags(mask)))


# ---------------------------------------------------------------------------
# The schemas, one clause per parameterization


def _clauses(algebra: FiniteAlgebra, axiom: int, bounds: Bounds) -> Iterable[Clause]:
    """The axiom's clauses up to n = min(bounds.max_sort, algebra.max_sort),
    which are all they depend on.  The first request for (axiom, n) streams
    the schema and records the key on bounds; the second builds the list as
    a tuple and keeps it there, and later ones iterate that tuple.  So one
    check_fragment keeps nothing, and a sweep that passes one Bounds to many
    algebras builds each list twice."""
    key = (axiom, min(bounds.max_sort, algebra.max_sort))
    kept = bounds._clause_lists
    if (clauses := kept.get(key)) is not None:
        return clauses
    schema = (_ax0, _ax1, _ax2, _ax3, _ax4, _ax5, _ax6,
              _ax7, _ax8, _ax9, _ax10, _ax11, _ax12, _ax13)[axiom]
    if key not in kept:
        kept[key] = None
        return schema(key[1])
    clauses = kept[key] = tuple(schema(key[1]))
    return clauses


def _ser(alpha: Substitution) -> list:
    return [alpha.dom, alpha.cod, list(alpha.map)]


def _shapes(max_sort: int) -> Iterator[tuple[int, ...]]:
    yield ()
    for m in range(1, MAX_BLOCKS + 1):
        for ks in iproduct(range(max_sort + 1), repeat=m):
            if sum(ks) <= max_sort:
                yield ks


def _ax0(n_max: int) -> Iterator[Clause]:
    for ks in _shapes(n_max):
        n = sum(ks)
        rs = [Sym(f"r{i}", k) for i, k in enumerate(ks, start=1)]
        ss = [Sym(f"s{i}", k) for i, k in enumerate(ks, start=1)]
        cyls = partitioning(*ks)
        lhs = reduce(And, (Sub(c, r) for c, r in zip(cyls, rs)), Top(n))
        rhs = reduce(Or, (Sub(c, s) for c, s in zip(cyls, ss)), Bot(n))
        detail = (f"blocks {list(ks)}: the join of the s-cylinders covers the "
                  f"meet of the r-cylinders but no s_i >= r_i (slots list r then s)")
        yield Clause({"shape": list(ks)}, (*rs, *ss),
                     tuple(("", "", And(r, s), r) for r, s in zip(rs, ss)),
                     premise=("", detail, And(lhs, rhs), lhs))


def _ax1(n_max: int) -> Iterator[Clause]:
    for n in range(n_max + 1):
        a, b, c = Sym("a", n), Sym("b", n), Sym("c", n)
        d = f"sort {n}"
        yield Clause({"sort": n}, (a, b, c), (
            ("commutativity", d, And(a, b), And(b, a)),
            ("commutativity", d, Or(a, b), Or(b, a)),
            ("associativity", f"{d} (meet)", And(a, And(b, c)), And(And(a, b), c)),
            ("associativity", f"{d} (join)", Or(a, Or(b, c)), Or(Or(a, b), c)),
            ("idempotence", d, And(a, a), a),
            ("idempotence", d, Or(a, a), a),
            ("absorption", d, And(a, Or(a, b)), a),
            ("absorption", d, Or(a, And(a, b)), a),
            ("bounds", d, Or(Bot(n), a), a),
            ("bounds", d, And(Top(n), a), a),
            ("distributivity", d, And(a, Or(b, c)), Or(And(a, b), And(a, c))),
            ("distributivity", f"{d} (dual)", Or(a, And(b, c)), And(Or(a, b), Or(a, c))),
        ))


def _ax2(n_max: int) -> Iterator[Clause]:
    for n, k in iproduct(range(n_max + 1), repeat=2):
        r, s = Sym("r", n), Sym("s", n)
        bot, top, r_or_s, r_and_s = Bot(n), Top(n), Or(r, s), And(r, s)
        d = f"sort {n}->{k}"
        for alpha in all_substitutions(n, k):
            yield Clause({"alpha": _ser(alpha), "part": "constants"}, (), (
                ("constants", "0 not preserved", Sub(alpha, bot), Bot(k)),
                ("constants", "1 not preserved", Sub(alpha, top), Top(k)),
            ))
            ar, as_ = Sub(alpha, r), Sub(alpha, s)  # shared: values are memoized by identity
            yield Clause({"alpha": _ser(alpha), "part": "binary"}, (r, s), (
                ("join", d, Sub(alpha, r_or_s), Or(ar, as_)),
                ("meet", d, Sub(alpha, r_and_s), And(ar, as_)),
            ))


def _ax3(n_max: int) -> Iterator[Clause]:
    sorts = range(n_max + 1)
    subs = {(k, m): [(a, _ser(a)) for a in all_substitutions(k, m)]
            for k, m in iproduct(sorts, repeat=2)}
    rs = [Sym("r", n) for n in sorts]
    slots = [(r,) for r in rs]  # shared: a kept list holds one tuple per sort
    # Sub(gamma, r) for each gamma in subs, by codomain and map: the composites
    composites = {(a.cod, a.map): Sub(a, rs[a.dom]) for pairs in subs.values() for a, _ in pairs}
    for n, k in iproduct(sorts, repeat=2):
        for alpha, alpha_ser in subs[n, k]:
            ar, index = Sub(alpha, rs[n]), [a - 1 for a in alpha.map]
            for m in sorts:
                for beta, beta_ser in subs[k, m]:
                    composite = composites[m, tuple(map(beta.map.__getitem__, index))]
                    yield Clause({"alpha": alpha_ser, "beta": beta_ser}, slots[n], (
                        ("", "composite substitution differs", composite, Sub(beta, ar)),
                    ))


def _ax4(n_max: int) -> Iterator[Clause]:
    for n in range(n_max + 1):
        r = Sym("r", n)
        yield Clause({"sort": n}, (r,), (
            ("", "identity substitution moves an element", Sub(Substitution.identity(n), r), r),
        ))


def _ax5(n_max: int) -> Iterator[Clause]:
    for n, k in iproduct(range(n_max + 1), repeat=2):
        r = Sym("r", n)
        not_r = Not(r)
        for alpha in all_substitutions(n, k):
            yield Clause({"alpha": _ser(alpha)}, (r,), (
                ("", "substitution does not commute with negation",
                 Sub(alpha, not_r), Not(Sub(alpha, r))),
            ))


def _ax6(n_max: int) -> Iterator[Clause]:
    for n in range(n_max + 1):
        r = Sym("r", n)
        yield Clause({"sort": n}, (r,), (
            ("excluded-middle", f"sort {n}", Or(r, Not(r)), Top(n)),
            ("non-contradiction", f"sort {n}", And(r, Not(r)), Bot(n)),
        ))


def _ax7(n_max: int) -> Iterator[Clause]:
    for n in range(n_max):
        yield Clause({"sort": n, "part": "zero"}, (), (
            ("zero", "projection does not preserve 0", Exists(Bot(n + 1)), Bot(n)),
        ))
        r, s = Sym("r", n + 1), Sym("s", n + 1)
        yield Clause({"sort": n, "part": "join"}, (r, s), (
            ("join", "projection does not preserve joins",
             Exists(Or(r, s)), Or(Exists(r), Exists(s))),
        ))


def _ax8(n_max: int) -> Iterator[Clause]:
    for n in range(n_max):
        r = Sym("r", n + 1)
        yield Clause({"sort": n}, (r,), (
            ("", "element not below the cylinder of its projection",
             And(r, Sub(assoc_cylindrification(n), Exists(r))), r),
        ))


def _ax9(n_max: int) -> Iterator[Clause]:
    for n in range(n_max):
        r, s = Sym("r", n + 1), Sym("s", n)
        yield Clause({"sort": n}, (r, s), (
            ("", "projection of a cylinder-restricted element differs",
             Exists(And(r, Sub(assoc_cylindrification(n), s))), And(Exists(r), s)),
        ))


def _ax10(n_max: int) -> Iterator[Clause]:
    for n_w in range(1, MAX_WITNESSES + 1):
        for m in range(n_max - n_w + 1):
            for ks in iproduct(range(n_max), repeat=n_w):
                rs = tuple(Sym(f"r{i}", k + 1) for i, k in enumerate(ks, start=1))
                projections, top_lhs, top_rhs = [*map(Exists, rs)], Top(m + n_w), Top(m)
                for alphas in iproduct(*(all_substitutions(k, m) for k in ks)):
                    betas = [
                        Substitution(k + 1, m + n_w, alpha.map + (m + i,))
                        for i, (k, alpha) in enumerate(zip(ks, alphas), start=1)
                    ]
                    lhs = reduce(And, (Sub(beta, r) for beta, r in zip(betas, rs)), top_lhs)
                    for _ in range(n_w):
                        lhs = Exists(lhs)
                    rhs = reduce(And, map(Sub, alphas, projections), top_rhs)
                    yield Clause({"m": m, "ks": list(ks), "alphas": [_ser(a) for a in alphas]},
                                 rs, (("", "batched projection differs from separate projections",
                                       lhs, rhs),))


def _ax11(n_max: int) -> Iterator[Clause]:
    for n in range(1, n_max + 1):
        idx, top = range(1, n + 1), Top(n)
        deltas = {(i, j): Delta(n, i, j) for i, j in iproduct(idx, idx)}
        for i in idx:
            yield Clause({"sort": n, "part": "a", "i": i}, (), (
                ("11a", f"diagonal ({i},{i}) of sort {n} is not 1", deltas[i, i], top),
            ))
        for i, j in iproduct(idx, idx):
            yield Clause({"sort": n, "part": "b", "i": i, "j": j}, (), (
                ("11b", f"diagonal of sort {n} not symmetric at ({i},{j})",
                 deltas[i, j], deltas[j, i]),
            ))
        for i, j, k in iproduct(idx, idx, idx):
            both = And(deltas[i, j], deltas[j, k])
            yield Clause({"sort": n, "part": "c", "i": i, "j": j, "k": k}, (), (
                ("11c", f"diagonal transitivity fails at ({i},{j},{k}) of sort {n}",
                 And(both, deltas[i, k]), both),
            ))


def _ax12(n_max: int) -> Iterator[Clause]:
    for k, n in iproduct(range(n_max + 1), repeat=2):
        r, top = Sym("r", k), Top(n)
        slots = (r,)
        deltas = {(a, b): Delta(n, a, b) for a, b in iproduct(range(1, n + 1), repeat=2)}
        subs = [(a, Sub(a, r), _ser(a)) for a in all_substitutions(k, n)]
        folds: dict = {}  # each prefix of an agreement fold, keyed by its diagonals' pairs
        for alpha, ar, alpha_ser in subs:
            for beta, br, beta_ser in subs:
                agree, pairs = top, tuple(zip(alpha.map, beta.map))
                for i in range(1, k + 1):
                    if (fold := folds.get(pairs[:i])) is None:
                        fold = folds[pairs[:i]] = And(agree, deltas[pairs[i - 1]])
                    agree = fold
                yield Clause({"alpha": alpha_ser, "beta": beta_ser}, slots, (
                    ("", "substitutions differ under the agreement diagonal",
                     And(ar, agree), And(br, agree)),
                ))


def _ax13(n_max: int) -> Iterator[Clause]:
    for k, n in iproduct(range(1, n_max + 1), repeat=2):
        diagonals = [(i, j, Delta(k, i, j)) for i, j in iproduct(range(1, k + 1), repeat=2)]
        deltas = {(a, b): Delta(n, a, b) for a, b in iproduct(range(1, n + 1), repeat=2)}
        for alpha in all_substitutions(k, n):
            alpha_ser = _ser(alpha)
            for i, j, delta in diagonals:
                yield Clause({"alpha": alpha_ser, "i": i, "j": j}, (), (
                    ("", "substitution image of a diagonal differs",
                     Sub(alpha, delta), deltas[alpha.map[i - 1], alpha.map[j - 1]]),
                ))


# ---------------------------------------------------------------------------
# Galleries


def _gallery_report(alg: FiniteAlgebra, slot_values: tuple, detail: str, note: str,
                    name: str) -> CheckReport:
    """The report of a gallery's axiom-(0) instance of shape [1, 1], once the
    instance replays as a violation at max_sort 2."""
    bounds = Bounds(max_sort=2)
    instance = SchemaInstance(axiom=0, label="", params={"shape": [1, 1]},
                              slot_values=slot_values, detail=detail)
    if not replay_instance(alg, instance, bounds):
        raise AssertionError(f"{name} gallery instance failed to reproduce")
    return CheckReport(
        axiom=0, fragment=str(alg.fragment), mode="targeted", params_checked=1,
        instances_checked=1, violations=[instance], seed=bounds.seed, note=note,
    )


def gallery_diamond() -> tuple[FiniteAlgebra, CheckReport]:
    """Product of two one-point quantifier-free algebras: every sort is the
    four-element diamond 0 < a,b < 1.  The equational axioms all hold (it is a
    product), the non-Horn schema fails: with the two unary blocks,
    c1(b) v c2(0) >= c1(a) ^ c2(b) yet b is not above a and 0 is not above b.
    """
    one_point = Universe(1)
    alg = product([concrete(one_point, QF, 2), concrete(one_point, QF, 2)])
    a, b = 1, 2  # the incomparable middle elements of sort 1, canonical order
    return alg, _gallery_report(
        alg, (a, b, b, alg.zero(1)),
        "c1(b) v c2(0) >= c1(a) ^ c2(b), but b is not >= a and 0 is not >= b",
        "diamond gallery: product of two one-point quantifier-free algebras", "diamond")


def gallery_pe_theory() -> tuple[FiniteAlgebra, CheckReport]:
    """A positive-existential algebra with exactly two sort-0 elements that
    still fails the non-Horn schema.  Two structures over {0,1,2} interpret
    A={0,1}, B={1,2} and R as A in the first and B in the second; the
    subalgebra of the product generated by R, A, B satisfies the equational
    laws but c1(A) ^ c2(B) <= c1(R) v c2(R) with A and B both not below R.
    """
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
    return alg, _gallery_report(
        alg, (i_a, i_b, i_r, i_r),
        "c1(A) ^ c2(B) <= c1(R) v c2(R), but A is not <= R and B is not <= R",
        "pe-theory gallery: generated subalgebra with a two-element sort 0", "positive-existential")
