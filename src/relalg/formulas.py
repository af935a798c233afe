"""Formula DSL: free-algebra terms, surface first-order formulas with variable
contexts, a compiler from the surface syntax to terms, the one term evaluator
and an independent naive satisfaction checker.

The term evaluator, term_value, runs a term in any finite algebra on a batch
of slot values; axioms.py runs its clauses through it.  The batch's Values
say how batched values are held and operated on: Columns, one element per
row through the algebra's tables, fit any algebra; Planes, one int per bit of
a concrete algebra's elements with bit r for row r, turn substitution into a
reordering of planes, projection into ORs of plane groups and meet, join and
negation into bitwise operations, and never tabulate a sort.  axioms.py
builds each batch's slot values already held as its Values hold them, and
runs a subalgebra generated in a concrete algebra on its parent's planes.  A
structure over W assigns its symbols elements of the algebra of all
relations over W, and eval_term is term_value there.  eval_fo_naive
enumerates every context tuple and every witness instead, without the
relation kernels: it is the oracle the compiled pipeline is checked against.
It walks the formula once per call into closures that read each variable at
a fixed env position and each atom straight from its relation's bits.

Term grammar (v1, one-based indices):

    term := 'sub' '[' i1,...,in ']' ['->' k] term
          | 'and' '(' term ',' term ')' | 'or' '(' term ',' term ')'
          | 'not' '(' term ')' | 'exists' '(' term ')'
          | 'top' n | 'bot' n | 'delta' n i j
          | NAME                (a signature symbol)

When '->k' is omitted the codomain defaults to the largest index in the
bracket (0 for an empty bracket).  The printer emits '->k' exactly when the
default would be wrong, so parse(print(t)) == t structurally.

Surface first-order grammar:

    formula := '[' x1,...,xk ']' expr
    expr    := or-expr;  '|' < '&' < '!' in binding strength
    atom    := NAME '(' vars ')' | var '=' var | 'true' | 'false' | '⊤' | '⊥'
             | 'exists' var '(' expr ')' | '(' expr ')'

The only quantifier is 'exists'; it binds a fresh variable appended to the
context.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import reduce
from itertools import product
from operator import and_, mul, ne, or_, xor
from random import Random

from .algebras import ConcreteAlgebra, FiniteAlgebra
from .errors import ArityError, FormatError, FragmentError, UniverseMismatchError
from .fragments import FO, Fragment
from .relations import Relation, Substitution, Universe, _bitmask


@dataclass(frozen=True)
class Signature:
    symbols: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "symbols", tuple((n, a) for n, a in self.symbols))
        seen = set()
        for name, arity in self.symbols:
            if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", name) or name in _KEYWORDS:
                raise FormatError(f"bad relation symbol name {name!r}")
            if arity < 0:
                raise ArityError(f"negative arity for symbol {name}")
            if name in seen:
                raise FormatError(f"duplicate symbol {name!r}")
            seen.add(name)

    def arity(self, name: str) -> int:
        for n, a in self.symbols:
            if n == name:
                return a
        raise FormatError(f"unknown relation symbol {name!r}")

    def __contains__(self, name: str) -> bool:
        return any(n == name for n, _ in self.symbols)


# ---------------------------------------------------------------------------
# Terms of the operation signature


class Term:
    sort: int  # a field of the leaves; set once by __post_init__ in the other nodes


@dataclass(frozen=True)
class Sym(Term):
    name: str
    sort: int


@dataclass(frozen=True)
class Sub(Term):
    alpha: Substitution
    child: Term

    def __post_init__(self) -> None:
        if self.child.sort != self.alpha.dom:
            raise ArityError(f"substitution {self.alpha} applied to term of sort {self.child.sort}")
        object.__setattr__(self, "sort", self.alpha.cod)


@dataclass(frozen=True)
class Top(Term):
    sort: int


@dataclass(frozen=True)
class Bot(Term):
    sort: int


@dataclass(frozen=True)
class And(Term):
    left: Term
    right: Term

    def __post_init__(self) -> None:
        if self.left.sort != self.right.sort:
            raise ArityError(f"conjunction of sorts {self.left.sort} and {self.right.sort}")
        object.__setattr__(self, "sort", self.left.sort)


@dataclass(frozen=True)
class Or(Term):
    left: Term
    right: Term

    def __post_init__(self) -> None:
        if self.left.sort != self.right.sort:
            raise ArityError(f"disjunction of sorts {self.left.sort} and {self.right.sort}")
        object.__setattr__(self, "sort", self.left.sort)


@dataclass(frozen=True)
class Not(Term):
    child: Term

    def __post_init__(self) -> None:
        object.__setattr__(self, "sort", self.child.sort)


@dataclass(frozen=True)
class Exists(Term):
    child: Term

    def __post_init__(self) -> None:
        if self.child.sort < 1:
            raise ArityError("projection of a sort-0 term")
        object.__setattr__(self, "sort", self.child.sort - 1)


@dataclass(frozen=True)
class Delta(Term):
    sort: int
    i: int
    j: int

    def __post_init__(self) -> None:
        if not (1 <= self.i <= self.sort and 1 <= self.j <= self.sort):
            raise ArityError(f"diagonal indices ({self.i},{self.j}) outside 1..{self.sort}")


# ---------------------------------------------------------------------------
# Tokenizer shared by both parsers

_KEYWORDS = {"sub", "and", "or", "not", "exists", "top", "bot", "delta", "true", "false"}

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    rf"|(?P<name>{_NAME_RE.pattern})"
    r"|(?P<int>\d+)"
    r"|(?P<op>->|[()\[\],=&|!⊤⊥])"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormatError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Cursor:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str) -> tuple[str, str, int]:
        kind, got, pos = self.next()
        if got != value:
            raise FormatError(f"expected {value!r}, found {got or 'end of input'!r}", pos)
        return kind, got, pos

    def expect_int(self) -> int:
        kind, got, pos = self.next()
        if kind != "int":
            raise FormatError(f"expected an integer, found {got or 'end of input'!r}", pos)
        return int(got)

    def at_end(self) -> bool:
        return self.peek()[0] == "eof"


# ---------------------------------------------------------------------------
# Term parser and printer


def parse_term(text: str, signature: Signature) -> Term:
    cur = _Cursor(text)
    t = _parse_term(cur, signature)
    if not cur.at_end():
        kind, got, pos = cur.peek()
        raise FormatError(f"trailing input {got!r}", pos)
    return t


def _parse_term(cur: _Cursor, sig: Signature) -> Term:
    kind, got, pos = cur.next()
    if kind != "name":
        raise FormatError(f"expected a term, found {got or 'end of input'!r}", pos)
    if got == "sub":
        cur.expect("[")
        entries = []
        if cur.peek()[1] != "]":
            entries.append(cur.expect_int())
            while cur.peek()[1] == ",":
                cur.next()
                entries.append(cur.expect_int())
        cur.expect("]")
        cod = max(entries, default=0)
        if cur.peek()[1] == "->":
            cur.next()
            cod = cur.expect_int()
        child = _parse_term(cur, sig)
        try:
            alpha = Substitution(len(entries), cod, tuple(entries))
            return Sub(alpha, child)
        except ArityError as exc:
            raise FormatError(str(exc), pos) from exc
    if got in ("and", "or"):
        cur.expect("(")
        left = _parse_term(cur, sig)
        cur.expect(",")
        right = _parse_term(cur, sig)
        cur.expect(")")
        try:
            return (And if got == "and" else Or)(left, right)
        except ArityError as exc:
            raise FormatError(str(exc), pos) from exc
    if got in ("not", "exists"):
        cur.expect("(")
        child = _parse_term(cur, sig)
        cur.expect(")")
        try:
            return Not(child) if got == "not" else Exists(child)
        except ArityError as exc:
            raise FormatError(str(exc), pos) from exc
    if got in ("top", "bot"):
        n = cur.expect_int()
        return Top(n) if got == "top" else Bot(n)
    if got == "delta":
        n = cur.expect_int()
        i = cur.expect_int()
        j = cur.expect_int()
        try:
            return Delta(n, i, j)
        except ArityError as exc:
            raise FormatError(str(exc), pos) from exc
    if got in sig:
        return Sym(got, sig.arity(got))
    raise FormatError(f"unknown symbol {got!r}", pos)


def print_term(t: Term) -> str:
    if isinstance(t, Sym):
        return t.name
    if isinstance(t, Sub):
        return f"{t.alpha.term_prefix()} {print_term(t.child)}"
    if isinstance(t, And):
        return f"and({print_term(t.left)}, {print_term(t.right)})"
    if isinstance(t, Or):
        return f"or({print_term(t.left)}, {print_term(t.right)})"
    if isinstance(t, Not):
        return f"not({print_term(t.child)})"
    if isinstance(t, Exists):
        return f"exists({print_term(t.child)})"
    if isinstance(t, Top):
        return f"top {t.sort}"
    if isinstance(t, Bot):
        return f"bot {t.sort}"
    if isinstance(t, Delta):
        return f"delta {t.sort} {t.i} {t.j}"
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# Surface first-order formulas


class FONode:
    pass


@dataclass(frozen=True)
class FOAtom(FONode):
    name: str
    args: tuple[int, ...]  # 1-based context indices


@dataclass(frozen=True)
class FOEq(FONode):
    i: int
    j: int


@dataclass(frozen=True)
class FOTop(FONode):
    pass


@dataclass(frozen=True)
class FOBot(FONode):
    pass


@dataclass(frozen=True)
class FOAnd(FONode):
    left: FONode
    right: FONode


@dataclass(frozen=True)
class FOOr(FONode):
    left: FONode
    right: FONode


@dataclass(frozen=True)
class FONot(FONode):
    child: FONode


@dataclass(frozen=True)
class FOExists(FONode):
    var: str
    body: FONode


@dataclass(frozen=True)
class FOFormula:
    context: tuple[str, ...]
    body: FONode

    def __post_init__(self) -> None:
        object.__setattr__(self, "context", tuple(self.context))
        _check_bound(self.body, reduce(_bind, self.context, []))


def _bind(ctx: list[str], name: str) -> list[str]:
    """ctx with name bound last, refused where parse_fo refuses its text."""
    if not _NAME_RE.fullmatch(name) or name in _KEYWORDS:
        raise FormatError(f"expected a variable name, found {name!r}")
    if name in ctx:
        raise FormatError(f"variable {name!r} already bound")
    return ctx + [name]


def _check_bound(node: FONode, ctx: list[str]) -> None:
    if isinstance(node, (FOAtom, FOEq)):
        for i in node.args if isinstance(node, FOAtom) else (node.i, node.j):
            if not 1 <= i <= len(ctx):
                raise ArityError(f"variable index {i} outside context of length {len(ctx)}")
    elif isinstance(node, (FOAnd, FOOr)):
        _check_bound(node.left, ctx)
        _check_bound(node.right, ctx)
    elif isinstance(node, FONot):
        _check_bound(node.child, ctx)
    elif isinstance(node, FOExists):
        _check_bound(node.body, _bind(ctx, node.var))


def parse_fo(text: str, signature: Signature) -> FOFormula:
    cur = _Cursor(text)
    cur.expect("[")
    context: list[str] = []
    if cur.peek()[1] != "]":
        context.append(_expect_var(cur, signature, context))
        while cur.peek()[1] == ",":
            cur.next()
            context.append(_expect_var(cur, signature, context))
    cur.expect("]")
    body = _parse_or(cur, signature, context)
    if not cur.at_end():
        kind, got, pos = cur.peek()
        raise FormatError(f"trailing input {got!r}", pos)
    return FOFormula(tuple(context), body)


def _expect_var(cur: _Cursor, sig: Signature, context: list[str]) -> str:
    kind, got, pos = cur.next()
    if kind != "name" or got in _KEYWORDS:
        raise FormatError(f"expected a variable name, found {got or 'end of input'!r}", pos)
    if got in sig:
        raise FormatError(f"variable {got!r} clashes with a relation symbol", pos)
    if got in context:
        raise FormatError(f"variable {got!r} already bound", pos)
    return got


def _parse_or(cur: _Cursor, sig: Signature, ctx: list[str]) -> FONode:
    node = _parse_and(cur, sig, ctx)
    while cur.peek()[1] == "|":
        cur.next()
        node = FOOr(node, _parse_and(cur, sig, ctx))
    return node


def _parse_and(cur: _Cursor, sig: Signature, ctx: list[str]) -> FONode:
    node = _parse_unary(cur, sig, ctx)
    while cur.peek()[1] == "&":
        cur.next()
        node = FOAnd(node, _parse_unary(cur, sig, ctx))
    return node


def _parse_unary(cur: _Cursor, sig: Signature, ctx: list[str]) -> FONode:
    kind, got, pos = cur.peek()
    if got == "!":
        cur.next()
        return FONot(_parse_unary(cur, sig, ctx))
    if got == "exists":
        cur.next()
        var = _expect_var(cur, sig, ctx)
        cur.expect("(")
        ctx.append(var)
        body = _parse_or(cur, sig, ctx)
        ctx.pop()
        cur.expect(")")
        return FOExists(var, body)
    return _parse_atom(cur, sig, ctx)


def _parse_atom(cur: _Cursor, sig: Signature, ctx: list[str]) -> FONode:
    kind, got, pos = cur.next()
    if got == "(":
        node = _parse_or(cur, sig, ctx)
        cur.expect(")")
        return node
    if got in ("true", "⊤"):
        return FOTop()
    if got in ("false", "⊥"):
        return FOBot()
    if kind != "name":
        raise FormatError(f"expected an atom, found {got or 'end of input'!r}", pos)
    if got in sig:
        cur.expect("(")
        args: list[int] = []
        if cur.peek()[1] != ")":
            args.append(_var_index(cur, ctx))
            while cur.peek()[1] == ",":
                cur.next()
                args.append(_var_index(cur, ctx))
        cur.expect(")")
        want = sig.arity(got)
        if len(args) != want:
            raise FormatError(f"symbol {got} has arity {want}, got {len(args)} arguments", pos)
        return FOAtom(got, tuple(args))
    if got in ctx:
        left = ctx.index(got) + 1
        cur.expect("=")
        return FOEq(left, _var_index(cur, ctx))
    raise FormatError(f"unknown symbol or unbound variable {got!r}", pos)


def _var_index(cur: _Cursor, ctx: list[str]) -> int:
    kind, got, pos = cur.next()
    if kind != "name":
        raise FormatError(f"expected a variable, found {got or 'end of input'!r}", pos)
    if got not in ctx:
        raise FormatError(f"unbound variable {got!r}", pos)
    return ctx.index(got) + 1


def print_fo(f: FOFormula) -> str:
    return f"[{','.join(f.context)}] {_print_fo(f.body, list(f.context))}"


def _print_fo(node: FONode, ctx: list[str]) -> str:
    if isinstance(node, FOAtom):
        return f"{node.name}({','.join(ctx[i - 1] for i in node.args)})"
    if isinstance(node, FOEq):
        return f"{ctx[node.i - 1]} = {ctx[node.j - 1]}"
    if isinstance(node, FOTop):
        return "true"
    if isinstance(node, FOBot):
        return "false"
    if isinstance(node, FOAnd):
        return f"({_print_fo(node.left, ctx)} & {_print_fo(node.right, ctx)})"
    if isinstance(node, FOOr):
        return f"({_print_fo(node.left, ctx)} | {_print_fo(node.right, ctx)})"
    if isinstance(node, FONot):
        return f"!{_print_fo(node.child, ctx)}"
    if isinstance(node, FOExists):
        return f"exists {node.var} ({_print_fo(node.body, ctx + [node.var])})"
    raise TypeError(f"not a formula node: {node!r}")


# ---------------------------------------------------------------------------
# Compiler: surface formula -> term


def compile_fo(f: FOFormula, fragment: Fragment | None = None) -> Term:
    """Compile to a term of sort len(context).  Atoms become substitutions of
    their symbol, equalities become diagonal constants, and a quantifier, whose
    variable always takes the new last context slot, becomes projection of the
    last coordinate.  No simplification except dropping identity
    substitutions."""
    return _compile(f.body, len(f.context), fragment)


def _compile(node: FONode, k: int, frag: Fragment | None) -> Term:
    if isinstance(node, FOAtom):
        alpha = Substitution(len(node.args), k, node.args)
        sym = Sym(node.name, len(node.args))
        if alpha == Substitution.identity(k):
            return sym
        return Sub(alpha, sym)
    if isinstance(node, FOEq):
        if frag is not None and not frag.equality:
            raise FragmentError(f"equality atom not available in fragment {frag}")
        return Delta(k, node.i, node.j)
    if isinstance(node, FOTop):
        return Top(k)
    if isinstance(node, FOBot):
        return Bot(k)
    if isinstance(node, FOAnd):
        return And(_compile(node.left, k, frag), _compile(node.right, k, frag))
    if isinstance(node, FOOr):
        return Or(_compile(node.left, k, frag), _compile(node.right, k, frag))
    if isinstance(node, FONot):
        if frag is not None and not frag.negation:
            raise FragmentError(f"negation not available in fragment {frag}")
        return Not(_compile(node.child, k, frag))
    if isinstance(node, FOExists):
        if frag is not None and not frag.exists:
            raise FragmentError(f"quantifier not available in fragment {frag}")
        return Exists(_compile(node.body, k + 1, frag))
    raise TypeError(f"not a formula node: {node!r}")


# ---------------------------------------------------------------------------
# Structures, the term evaluator and the naive oracle


@dataclass(frozen=True)
class Structure:
    universe: Universe
    relations: dict[str, Relation] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, rel in self.relations.items():
            if rel.universe != self.universe:
                raise UniverseMismatchError(f"relation {name} lives over a different universe")

    def signature(self) -> Signature:
        return Signature(tuple((name, rel.arity) for name, rel in self.relations.items()))

    @classmethod
    def from_json(cls, text: str) -> "Structure":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"bad structure file: {exc}") from exc
        if not isinstance(data, dict) or "universe" not in data:
            raise FormatError("structure file must be an object with a 'universe' key")
        try:
            universe = Universe(_json_int(data["universe"], "universe"))
            rels = {}
            for name, spec in data.get("relations", {}).items():
                arity = _json_int(spec["arity"], f"arity of {name}")
                tuples = [tuple(_json_int(x, f"element of {name}") for x in t)
                          for t in spec.get("tuples", [])]
                rels[name] = Relation.from_tuples(universe, arity, tuples)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad structure file: {exc!r}") from exc
        except (MemoryError, OverflowError) as exc:
            raise FormatError("bad structure file: a relation too large to represent") from exc
        return cls(universe, rels)

    def to_json(self) -> str:
        return json.dumps(
            {
                "universe": self.universe.size,
                "relations": {
                    name: {"arity": rel.arity, "tuples": [list(t) for t in rel.tuples()]}
                    for name, rel in sorted(self.relations.items())
                },
            },
            sort_keys=True,
        )


def _json_int(value, what: str) -> int:
    if type(value) is not int:
        raise FormatError(f"bad structure file: {what} is not an integer: {value!r}")
    return value


def eval_term(t: Term, structure: Structure) -> Relation:
    """t run by term_value in the algebra of all relations over the universe,
    up to the largest sort in t, with each symbol's relation as a constant.
    Symbols are checked left to right, so the first bad one is reported; a
    shared subterm is walked once, on its first visit."""
    memo: dict[int, int] = {}  # term_value's memo, seeded with each symbol's relation
    seen: set[int] = set()
    max_sort, stack = 0, [t]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        max_sort = max(max_sort, node.sort)
        if isinstance(node, Sym):
            rel = structure.relations.get(node.name)
            if rel is None:
                raise FormatError(f"structure does not interpret symbol {node.name!r}")
            if rel.arity != node.sort:
                raise ArityError(f"symbol {node.name} has arity {rel.arity} in the structure, "
                                 f"term expects {node.sort}")
            memo[id(node)] = rel.bits
        else:
            stack.extend(reversed([c for c in vars(node).values() if isinstance(c, Term)]))
    algebra = ConcreteAlgebra([structure.universe], FO.with_equality(), max_sort)
    return Relation(structure.universe, t.sort, term_value(Planes(algebra, 1), t, memo))


def term_value(values: "Values", t: Term, memo: dict) -> int | list[int]:
    """The value of t in values.alg on a batch of values.size rows.  memo
    maps id(term) to the term's value on this batch, seeded with the value of
    each slot or symbol; it may serve several terms on the same batch, and
    whoever keeps it keeps their terms alive, so no id is reused while it
    lives.  A batched value is a list in the representation of values
    (Columns or Planes), and a term over one is batched too.  A slot-free
    term is one element from the algebra's scalar operations, so its sorts
    are never tabulated, and is broadcast where it meets a batched value,
    once per batch.  The memo is keyed by id because a term's hash recurses
    through all of it, two frames a level."""
    v = memo.get(id(t))
    if v is not None:
        return v
    alg, kind = values.alg, type(t)  # the most common kinds first
    if kind is Sub:
        x = term_value(values, t.child, memo)
        v = values.subst(t.alpha, x) if isinstance(x, list) else alg.subst(t.alpha, x)
    elif kind is And or kind is Or:
        x = term_value(values, t.left, memo)
        y = term_value(values, t.right, memo)
        name = "meet" if kind is And else "join"
        if isinstance(x, list) or isinstance(y, list):
            v = getattr(values, name)(t.sort, values.lift(t.sort, x), values.lift(t.sort, y))
        else:
            v = getattr(alg, name)(t.sort, x, y)
    elif kind is Not:
        x = term_value(values, t.child, memo)
        v = values.neg(t.sort, x) if isinstance(x, list) else alg.neg(t.sort, x)
    elif kind is Exists:
        x = term_value(values, t.child, memo)
        v = values.exists(t.sort, x) if isinstance(x, list) else alg.exists(t.sort, x)
    elif kind is Top:
        v = alg.one(t.sort)
    elif kind is Bot:
        v = alg.zero(t.sort)
    elif kind is Delta:
        v = alg.delta(t.sort, t.i, t.j)
    else:
        raise TypeError(f"no value for term {t!r}")
    memo[id(t)] = v
    return v


class Values:
    """How the values of a batch of size rows in alg are held: a subclass
    broadcasts, reads and operates on them, term_value walks the term."""

    def __init__(self, alg: FiniteAlgebra, size: int):
        self.alg, self.size = alg, size
        self.rows = (1 << size) - 1  # the row mask: bit r for row r
        self._lifted: dict = {}  # (n, v) -> v broadcast, shared: no op mutates its inputs

    def lift(self, n: int, v: int | list[int]) -> list[int]:
        """A batched value as it is; a sort-n element broadcast to every row,
        once per batch."""
        if isinstance(v, list):
            return v
        if (lifted := self._lifted.get((n, v))) is None:
            lifted = self._lifted[n, v] = self._broadcast(n, v)
        return lifted


class Columns(Values):
    """Batched values as columns: a list of one element per row, read off
    the algebra's cached tables and its batched meet and join.  Any finite
    algebra's values can be columns."""

    def _broadcast(self, n: int, v: int) -> list[int]:
        return [v] * self.size

    def element(self, n: int, v: list[int], row: int) -> int:
        """The sort-n element a batched value holds at a row."""
        return v[row]

    def subst(self, alpha: Substitution, x: list[int]) -> list[int]:
        return _lookup(self.alg.table(("subst", alpha)), x)

    def neg(self, n: int, x: list[int]) -> list[int]:
        return _lookup(self.alg.table(("neg", n)), x)

    def exists(self, n: int, x: list[int]) -> list[int]:
        return _lookup(self.alg.table(("exists", n)), x)

    def meet(self, n: int, x: list[int], y: list[int]) -> list[int]:
        return self.alg.meet_all(n, x, y)

    def join(self, n: int, x: list[int], y: list[int]) -> list[int]:
        return self.alg.join_all(n, x, y)

    def differ(self, x: list[int], y: list[int]) -> int:
        """The row mask of the rows where x and y differ."""
        return _bitmask(map(ne, x, y))


class Planes(Values):
    """Batched values of a concrete algebra as bit planes: a sort-n value is
    width(n) ints, plane p holding bit p of every row's element, bit r for
    row r.  Substitution reorders planes, projection ORs groups of them (the
    algebra's plane index lists), negation flips them against the row mask,
    meet and join combine them pairwise; no sort is ever tabulated."""

    alg: ConcreteAlgebra

    def _broadcast(self, n: int, v: int) -> list[int]:
        rows = self.rows
        return [rows if v >> p & 1 else 0 for p in range(self.alg.width(n))]

    def element(self, n: int, v: list[int], row: int) -> int:
        return sum((plane >> row & 1) << p for p, plane in enumerate(v))

    def subst(self, alpha: Substitution, x: list[int]) -> list[int]:
        return list(map(x.__getitem__, self.alg.subst_planes(alpha)))

    def neg(self, n: int, x: list[int]) -> list[int]:
        return list(map(self.rows.__xor__, x))

    def exists(self, n: int, x: list[int]) -> list[int]:
        return [reduce(or_, map(x.__getitem__, bits), 0) for bits in self.alg.exists_planes(n)]

    def meet(self, n: int, x: list[int], y: list[int]) -> list[int]:
        return list(map(and_, x, y))

    def join(self, n: int, x: list[int], y: list[int]) -> list[int]:
        return list(map(or_, x, y))

    def differ(self, x: list[int], y: list[int]) -> int:
        return reduce(or_, map(xor, x, y), 0)


def _lookup(table: list[int], column: list[int]) -> list[int]:
    return list(map(table.__getitem__, column))


def eval_fo_naive(f: FOFormula, structure: Structure) -> Relation:
    """Direct satisfaction semantics, independent of the compiled pipeline
    and the relation kernels: every context tuple, in index order, and every
    witness of each quantifier is tried.  The formula is walked once per call
    into closures sat(env) that read variable i at env[i-1]: the context
    fills 0..k-1, and each witness the slot after its quantifier's context,
    its depth.  An unknown symbol or an arity mismatch raises only when
    evaluation reaches it."""
    n, k = structure.universe.size, len(f.context)
    width = k

    def build(node: FONode, depth: int):
        nonlocal width
        if isinstance(node, FOAtom):
            rel = structure.relations.get(node.name)
            if rel is None:
                return _failing(FormatError, f"structure does not interpret symbol {node.name!r}")
            if rel.arity != len(node.args):
                return _failing(ArityError, f"symbol {node.name} has arity {rel.arity}, "
                                            f"atom has {len(node.args)} arguments")
            bits, pos = rel.bits, [i - 1 for i in node.args]
            if len(pos) == 1:
                return lambda env, p=pos[0]: bits >> env[p] & 1
            if len(pos) == 2:
                return lambda env, p=pos[0], q=pos[1]: bits >> (env[p] * n + env[q]) & 1
            if len(pos) == 3:
                return lambda env, p=pos[0], q=pos[1], r=pos[2]: \
                    bits >> ((env[p] * n + env[q]) * n + env[r]) & 1
            weights = [n ** e for e in range(len(pos) - 1, -1, -1)]
            return lambda env: bits >> sum(map(mul, map(env.__getitem__, pos), weights)) & 1
        if isinstance(node, FOEq):
            return lambda env, p=node.i - 1, q=node.j - 1: env[p] == env[q]
        if isinstance(node, (FOTop, FOBot)):
            return lambda env, truth=isinstance(node, FOTop): truth
        if isinstance(node, (FOAnd, FOOr)):
            left, right = build(node.left, depth), build(node.right, depth)
            if isinstance(node, FOAnd):
                return lambda env: left(env) and right(env)
            return lambda env: left(env) or right(env)
        if isinstance(node, FONot):
            child = build(node.child, depth)
            return lambda env: not child(env)
        if isinstance(node, FOExists):
            body = build(node.body, depth + 1)
            width = max(width, depth + 1)

            def exists(env):
                for env[depth] in range(n):
                    if body(env):
                        return True
                return False
            return exists
        raise TypeError(f"not a formula node: {node!r}")

    sat = build(f.body, k)
    env, out = [0] * width, 0
    for idx, tup in enumerate(product(range(n), repeat=k)):
        env[:k] = tup
        if sat(env):
            out |= 1 << idx
    return Relation(structure.universe, k, out)


def _failing(error: type, message: str):
    def sat(env):
        raise error(message)
    return sat


# ---------------------------------------------------------------------------
# Seeded random formulas and structures, for oracle cross-checking


def random_formula(
    rng: Random,
    signature: Signature,
    context_len: int,
    depth: int,
    fragment: Fragment | None = None,
) -> FOFormula:
    names = [f"x{i}" for i in range(1, context_len + 1)]
    body = _random_node(rng, signature, context_len, depth, fragment)
    return FOFormula(tuple(names), body)


def _random_node(rng: Random, sig: Signature, k: int, depth: int, frag: Fragment | None) -> FONode:
    choices = ["atom", "top", "bot"]
    if frag is None or frag.equality:
        choices.append("eq")
    if depth > 0:
        choices += ["and", "or", "and"]
        if frag is None or frag.negation:
            choices.append("not")
        if frag is None or frag.exists:
            choices += ["exists", "exists"]
    kind = rng.choice(choices)
    if kind == "eq" and k == 0:
        kind = "top"
    if kind == "atom":
        candidates = [(n, a) for n, a in sig.symbols if a == 0 or k > 0]
        if not candidates:
            return FOTop()
        name, arity = rng.choice(candidates)
        return FOAtom(name, tuple(rng.randrange(1, k + 1) for _ in range(arity)))
    if kind == "eq":
        return FOEq(rng.randrange(1, k + 1), rng.randrange(1, k + 1))
    if kind == "top":
        return FOTop()
    if kind == "bot":
        return FOBot()
    if kind == "and":
        return FOAnd(_random_node(rng, sig, k, depth - 1, frag), _random_node(rng, sig, k, depth - 1, frag))
    if kind == "or":
        return FOOr(_random_node(rng, sig, k, depth - 1, frag), _random_node(rng, sig, k, depth - 1, frag))
    if kind == "not":
        return FONot(_random_node(rng, sig, k, depth - 1, frag))
    return FOExists(f"y{k + 1}", _random_node(rng, sig, k + 1, depth - 1, frag))


def random_structure(rng: Random, signature: Signature, size: int) -> Structure:
    u = Universe(size)
    rels = {}
    for name, arity in signature.symbols:
        rels[name] = Relation(u, arity, rng.getrandbits(size**arity) if size**arity else 0)
    return Structure(u, rels)
