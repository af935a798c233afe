"""Set-of-tuples reference implementations.

Everything here works on plain Python sets of tuples and never touches the
bitset engine or its index encoding, so agreement is a genuine cross-check.
The exceptions: is_prime_filter_pairwise asks an algebra for one scalar
meet, join or order test per pair and never for a batch, and projection
splits a concrete algebra's elements into their factor components.
parse_relation_literal reads the text relation_literal prints, and
tuple_apply and compose are the substitutions' action on tuples and their
composite.  closure_bfs asks its parent for one scalar operation per
application and never for a batch.

The per-tuple kernels at the end are the definitions the bitset kernels of
relalg.relations compute: they walk the encoding one tuple index at a time
through index_tuple and tuple_index, and check the C-speed kernels bit for
bit.  eval_fo_definitional is the same for formulas: the per-tuple
satisfaction recursion that relalg.formulas.eval_fo_naive compiles into
closures once per formula.
"""

import re
from itertools import combinations, product

from relalg import (ArityError, FormatError, PrimeFilter, Relation, Substitution, Universe,
                    sort_lattice)
from relalg.formulas import FOAnd, FOAtom, FOBot, FOEq, FOExists, FONot, FOOr, FOTop
from relalg.relations import all_substitutions, index_tuple, tuple_index


def all_tuples(size: int, arity: int) -> list[tuple[int, ...]]:
    return list(product(range(size), repeat=arity))


def as_set(rel: Relation) -> set[tuple[int, ...]]:
    return set(rel.tuples())


def from_set(size: int, arity: int, tuples) -> Relation:
    return Relation.from_tuples(Universe(size), arity, tuples)


_LITERAL_RE = re.compile(r"arity=(\d+)universe=(\d+)\{(.*)\}\Z")


def parse_relation_literal(text: str) -> Relation:
    """Parse ``arity=2 universe=3 {(0,1),(2,0)}``; whitespace-insensitive."""
    squeezed = re.sub(r"\s+", "", text)
    m = _LITERAL_RE.match(squeezed)
    if m is None:
        raise FormatError(f"malformed relation literal: {text!r}")
    arity, size, body = int(m.group(1)), int(m.group(2)), m.group(3)
    parts = re.findall(r"\(([\d,]*)\)", body)
    if ",".join(f"({p})" for p in parts) != body:
        raise FormatError(f"malformed tuple list in relation literal: {text!r}")
    tuples = []
    for p in parts:
        if p and not re.fullmatch(r"\d+(,\d+)*", p):
            raise FormatError(f"malformed tuple ({p}) in relation literal")
        tuples.append(tuple(int(x) for x in p.split(",")) if p else ())
    try:
        return Relation.from_tuples(Universe(size), arity, tuples)
    except (ArityError, ValueError) as exc:
        raise FormatError(f"bad relation literal: {exc}") from exc


def projection(algebra, i: int) -> dict[int, list[int]]:
    """The projection of a concrete algebra onto its i-th block, a factor of
    a product, as a per-sort element map."""
    return {n: [algebra._parts(n, a)[i] for a in algebra.elements(n)]
            for n in range(algebra.max_sort + 1)}


def apply_tuple(alpha_map, x):
    return tuple(x[i - 1] for i in alpha_map)


def tuple_apply(alpha: Substitution, x) -> tuple:
    """Select coordinates: result[i] = x[alpha(i)].  Needs len(x) == alpha.cod."""
    if len(x) != alpha.cod:
        raise ArityError(f"tuple of length {len(x)} fed to substitution expecting {alpha.cod}")
    return apply_tuple(alpha.map, x)


def compose(beta: Substitution, alpha: Substitution) -> Substitution:
    """Composite with rel_apply(compose(beta, alpha), r) == rel_apply(beta, rel_apply(alpha, r))."""
    if beta.dom != alpha.cod:
        raise ArityError(f"cannot compose {beta} after {alpha}")
    return Substitution(alpha.dom, beta.cod, apply_tuple(alpha.map, beta.map))


def inverse_image(alpha_map, cod: int, size: int, rel_set) -> set:
    return {x for x in all_tuples(size, cod) if apply_tuple(alpha_map, x) in rel_set}


def project_last(rel_set) -> set:
    return {x[:-1] for x in rel_set}


def diagonal(size: int, n: int, i: int, j: int) -> set:
    return {x for x in all_tuples(size, n) if x[i - 1] == x[j - 1]}


def powerset_relations(size: int, arity: int):
    """Every relation of the given sort, as bitsets 0..2^(size^arity)-1."""
    u = Universe(size)
    return [Relation(u, arity, bits) for bits in range(1 << size**arity)]


def is_prime_filter_pairwise(algebra, sort: int, members) -> bool:
    """The primality predicate pair by pair, on a plain set of element
    indices: proper, upward-closed, meet-closed and join-prime."""
    members = set(members)
    size = algebra.sort_size(sort)
    if not members or algebra.zero(sort) in members:
        return False
    if any(not 0 <= a < size for a in members):
        return False
    for a in members:
        for b in range(size):
            if algebra.leq(sort, a, b) and b not in members:
                return False
    for a in members:
        for b in members:
            if algebra.meet(sort, a, b) not in members:
                return False
    for a in range(size):
        for b in range(size):
            if algebra.join(sort, a, b) in members and a not in members and b not in members:
                return False
    return True


def separating_family_pairwise(algebra, scope: int) -> list:
    """One prime filter per pair of distinct elements in sorts up to the
    scope, pair by pair: the up-set of the least join-irreducible below
    exactly one of the two, scanned through the order, in the order the
    pairs first need it."""
    family = []
    for k in range(scope + 1):
        lattice = sort_lattice(algebra, k)
        for a, b in combinations(range(lattice.size), 2):
            j = next(j for j in lattice.join_irreducibles if lattice.leq(j, a) != lattice.leq(j, b))
            pf = PrimeFilter(k, j)
            if pf not in family:
                family.append(pf)
    return family


def extend_to_prime_scan(lattice, gen_f: int, gen_i: int):
    """The prime filter extending gen_f away from gen_i by a scan through the
    order: the up-set of the first join-irreducible in canonical order below
    gen_f and not below gen_i."""
    j = next(j for j in lattice.join_irreducibles
             if lattice.leq(j, gen_f) and not lattice.leq(j, gen_i))
    return PrimeFilter(lattice.sort, j)


def closure_bfs(parent, generators, names=None):
    """The generated subalgebra's closure by plain breadth-first search: each
    dequeued element takes its negation, projection and substitutions, then
    meets and joins every element of its sort found so far, one scalar
    operation per pair, meet before join.  Returns the sorted parent values
    and their first witness terms per sort, and the number of pairs met."""
    bound, frag = parent.max_sort, parent.fragment
    names = names or [f"g{i + 1}" for i in range(len(generators))]
    found = [dict() for _ in range(bound + 1)]
    queue = []

    def add(n, val, term):
        if val not in found[n]:
            found[n][val] = term
            queue.append((n, val))

    for n in range(bound + 1):
        add(n, parent.zero(n), f"bot {n}")
        add(n, parent.one(n), f"top {n}")
        if frag.equality:
            for i, j in product(range(1, n + 1), repeat=2):
                add(n, parent.delta(n, i, j), f"delta {n} {i} {j}")
    for (sort, g), name in zip(generators, names):
        add(sort, g, name)
    pairs = 0
    for n, val in queue:  # the loop reaches what the adds append
        term, seen = found[n][val], found[n]
        if frag.negation:
            add(n, parent.neg(n, val), f"not({term})")
        if frag.exists and n >= 1:
            add(n - 1, parent.exists(n - 1, val), f"exists({term})")
        for k in range(bound + 1):
            for alpha in all_substitutions(n, k):
                add(k, parent.subst(alpha, val), f"{alpha.term_prefix()} {term}")
        for other in list(seen):
            pairs += 1
            if (m := parent.meet(n, val, other)) not in seen:
                add(n, m, f"and({term}, {seen[other]})")
            if (j := parent.join(n, val, other)) not in seen:
                add(n, j, f"or({term}, {seen[other]})")
    to_parent = [sorted(vals) for vals in found]
    witness = [[vals[v] for v in sorted(vals)] for vals in found]
    return to_parent, witness, pairs


def index_map(alpha, size: int) -> tuple[int, ...]:
    """For each target tuple index (arity cod) the source index (arity dom)."""
    out = []
    for ti in range(size**alpha.cod):
        x = index_tuple(size, alpha.cod, ti)
        out.append(tuple_index(size, apply_tuple(alpha.map, x)))
    return tuple(out)


def rel_apply_bits(alpha, size: int, bits: int) -> int:
    out = 0
    for ti, si in enumerate(index_map(alpha, size)):
        if bits >> si & 1:
            out |= 1 << ti
    return out


def exists_last_bits(size: int, arity: int, bits: int) -> int:
    chunk_mask = (1 << size) - 1
    out = 0
    for t in range(size ** (arity - 1)):
        if bits >> (t * size) & chunk_mask:
            out |= 1 << t
    return out


def delta_bits(size: int, arity: int, i: int, j: int) -> int:
    bits = 0
    for idx in range(size**arity):
        t = index_tuple(size, arity, idx)
        if t[i - 1] == t[j - 1]:
            bits |= 1 << idx
    return bits


def tuple_walk(rel: Relation) -> list[tuple[int, ...]]:
    """The tuples of rel in index order, one bit at a time."""
    size, bits = rel.universe.size, rel.bits
    return [index_tuple(size, rel.arity, idx) for idx in range(size**rel.arity) if bits >> idx & 1]


def eval_fo_definitional(f, structure) -> Relation:
    """Tarskian satisfaction as defined, one recursive walk of the formula per
    context tuple and per witness: the reference eval_fo_naive's compiled
    closures are checked against."""
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


def _sat(node, env: list[int], structure) -> bool:
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
        for w in range(structure.universe.size):
            env.append(w)
            ok = _sat(node.body, env, structure)
            env.pop()
            if ok:
                return True
        return False
    raise TypeError(f"not a formula node: {node!r}")
