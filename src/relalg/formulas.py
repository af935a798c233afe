"""Formula DSL: free-algebra terms, surface first-order formulas with variable
contexts, a compiler from the surface syntax to terms, the one term evaluator
and an independent naive satisfaction checker.

The term evaluator, term_value, runs a term in any finite algebra on a batch
of slot values; axioms.py runs its clauses through it.  A structure over W
assigns its symbols elements of the algebra of all relations over W, and
eval_term is term_value there.  eval_fo_naive enumerates tuples and witnesses
instead: it is the oracle the compiled pipeline is checked against.

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
from random import Random

from .algebras import ConcreteAlgebra, FiniteAlgebra
from .errors import ArityError, FormatError, FragmentError, UniverseMismatchError
from .fragments import FO, Fragment
from .relations import Relation, Substitution, Universe


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

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
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
    # Position (1-based) the bound variable occupies in the extended context.
    # None means appended last; the parser always appends.
    at: int | None = None


@dataclass(frozen=True)
class FOFormula:
    context: tuple[str, ...]
    body: FONode

    def __post_init__(self) -> None:
        object.__setattr__(self, "context", tuple(self.context))
        _check_bound(self.body, len(self.context))


def _check_bound(node: FONode, k: int) -> None:
    if isinstance(node, FOAtom):
        for i in node.args:
            if not 1 <= i <= k:
                raise ArityError(f"variable index {i} outside context of length {k}")
    elif isinstance(node, FOEq):
        for i in (node.i, node.j):
            if not 1 <= i <= k:
                raise ArityError(f"variable index {i} outside context of length {k}")
    elif isinstance(node, (FOAnd, FOOr)):
        _check_bound(node.left, k)
        _check_bound(node.right, k)
    elif isinstance(node, FONot):
        _check_bound(node.child, k)
    elif isinstance(node, FOExists):
        if node.at is not None and not 1 <= node.at <= k + 1:
            raise ArityError(f"bound position {node.at} outside 1..{k + 1}")
        _check_bound(node.body, k + 1)


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
        at = node.at if node.at is not None else len(ctx) + 1
        ctx2 = ctx[: at - 1] + [node.var] + ctx[at - 1 :]
        return f"exists {node.var} ({_print_fo(node.body, ctx2)})"
    raise TypeError(f"not a formula node: {node!r}")


# ---------------------------------------------------------------------------
# Compiler: surface formula -> term


def compile_fo(f: FOFormula, fragment: Fragment | None = None) -> Term:
    """Compile to a term of sort len(context).  Atoms become substitutions of
    their symbol, equalities become diagonal constants, and a quantifier over
    an interior variable becomes the rotation moving it to the last slot,
    followed by projection.  No simplification except dropping identity
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
        inner = _compile(node.body, k + 1, frag)
        at = node.at if node.at is not None else k + 1
        if at != k + 1:
            # Cycle the interior slot to the end: positions below `at` stay,
            # slot `at` reads the new last coordinate, later slots shift down.
            rotation = Substitution(
                k + 1,
                k + 1,
                tuple(range(1, at)) + (k + 1,) + tuple(range(at, k + 1)),
            )
            inner = Sub(rotation, inner)
        return Exists(inner)
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
            universe = Universe(int(data["universe"]))
            rels = {}
            for name, spec in data.get("relations", {}).items():
                arity = int(spec["arity"])
                rels[name] = Relation.from_tuples(universe, arity, [tuple(t) for t in spec.get("tuples", [])])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad structure file: {exc!r}") from exc
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


def eval_term(t: Term, structure: Structure) -> Relation:
    """t run by term_value in the algebra of all relations over the universe,
    up to the largest sort in t, with each symbol's relation as a constant.
    Symbols are checked left to right, so the first bad one is reported; a
    shared subterm is walked once, on its first visit."""
    symbols: dict[int, int] = {}
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
            symbols[id(node)] = rel.bits
        else:
            stack.extend(reversed([c for c in vars(node).values() if isinstance(c, Term)]))
    algebra = ConcreteAlgebra([structure.universe], FO.with_equality(), max_sort)
    return Relation(structure.universe, t.sort, term_value(algebra, t, {}, symbols, 1))


def term_value(alg: FiniteAlgebra, t: Term, env: dict, consts: dict, size: int) -> int | list[int]:
    """The value of t in alg on a batch of size rows.  env maps id(slot) to
    its column, one element per row; a term over a slot is a column too, read
    off the algebra's cached tables and batched meet and join.  A slot-free
    term is one element from the scalar operations, so its sorts are never
    tabulated.  Values are memoized by id(t), columns in env and elements in
    consts: a term's hash recurses through all of it, two frames a level."""
    key = id(t)
    if key in env:
        return env[key]
    if key in consts:
        return consts[key]
    match t:
        case Top(n):
            v = alg.one(n)
        case Bot(n):
            v = alg.zero(n)
        case Delta(n, i, j):
            v = alg.delta(n, i, j)
        case Sub(alpha, child):
            x = term_value(alg, child, env, consts, size)
            v = _lookup(alg.subst_table(alpha), x) if isinstance(x, list) else alg.subst(alpha, x)
        case Not(child):
            x = term_value(alg, child, env, consts, size)
            v = _lookup(alg.neg_table(t.sort), x) if isinstance(x, list) else alg.neg(t.sort, x)
        case Exists(child):
            x = term_value(alg, child, env, consts, size)
            v = _lookup(alg.exists_table(t.sort), x) if isinstance(x, list) else alg.exists(t.sort, x)
        case And(left, right) | Or(left, right):
            x = term_value(alg, left, env, consts, size)
            y = term_value(alg, right, env, consts, size)
            if isinstance(x, list) or isinstance(y, list):
                op = alg.meet_all if isinstance(t, And) else alg.join_all
                v = op(t.sort, as_column(x, size), as_column(y, size))
            else:
                v = (alg.meet if isinstance(t, And) else alg.join)(t.sort, x, y)
        case _:
            raise TypeError(f"no value for term {t!r}")
    (env if isinstance(v, list) else consts)[key] = v
    return v


def as_column(v: int | list[int], size: int) -> list[int]:
    return v if isinstance(v, list) else [v] * size


def _lookup(table: list[int], column: list[int]) -> list[int]:
    return list(map(table.__getitem__, column))


def eval_fo_naive(f: FOFormula, structure: Structure) -> Relation:
    """Direct satisfaction semantics: enumerate all context tuples, and all
    witnesses for each quantifier.  Independent of the compiled pipeline."""
    u = structure.universe
    k = len(f.context)
    bits = 0
    env = [0] * k
    for idx in range(u.size ** k):
        m = idx
        for i in range(k - 1, -1, -1):
            m, env[i] = divmod(m, u.size)
        if _sat(f.body, env, structure):
            bits |= 1 << idx
    return Relation(u, k, bits)


def _sat(node: FONode, env: list[int], structure: Structure) -> bool:
    if isinstance(node, FOAtom):
        rel = structure.relations.get(node.name)
        if rel is None:
            raise FormatError(f"structure does not interpret symbol {node.name!r}")
        if rel.arity != len(node.args):
            raise ArityError(f"symbol {node.name} has arity {rel.arity}, atom has {len(node.args)} arguments")
        return rel.contains(tuple(env[i - 1] for i in node.args))
    if isinstance(node, FOEq):
        return env[node.i - 1] == env[node.j - 1]
    if isinstance(node, FOTop):
        return True
    if isinstance(node, FOBot):
        return False
    if isinstance(node, FOAnd):
        return _sat(node.left, env, structure) and _sat(node.right, env, structure)
    if isinstance(node, FOOr):
        return _sat(node.left, env, structure) or _sat(node.right, env, structure)
    if isinstance(node, FONot):
        return not _sat(node.child, env, structure)
    if isinstance(node, FOExists):
        at = node.at if node.at is not None else len(env) + 1
        for w in range(structure.universe.size):
            env.insert(at - 1, w)
            ok = _sat(node.body, env, structure)
            env.pop(at - 1)
            if ok:
                return True
        return False
    raise TypeError(f"not a formula node: {node!r}")


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
