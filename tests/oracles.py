"""Set-of-tuples reference implementations.

Everything here works on plain Python sets of tuples and never touches the
bitset engine or its index encoding, so agreement is a genuine cross-check.
The one exception, is_prime_filter_pairwise, asks an algebra for one scalar
meet, join or order test per pair and never for a batch.

The per-tuple kernels at the end are the definitions the bitset kernels of
relalg.relations compute: they walk the encoding one tuple index at a time
through index_tuple and tuple_index, and check the C-speed kernels bit for
bit.  eval_fo_definitional is the same for formulas: the per-tuple
satisfaction recursion that relalg.formulas.eval_fo_naive compiles into
closures once per formula.
"""

from itertools import combinations, product

from relalg import ArityError, FormatError, PrimeFilter, Relation, Universe, sort_lattice
from relalg.formulas import FOAnd, FOAtom, FOBot, FOEq, FOExists, FONot, FOOr, FOTop
from relalg.relations import index_tuple, tuple_index


def all_tuples(size: int, arity: int) -> list[tuple[int, ...]]:
    return list(product(range(size), repeat=arity))


def as_set(rel: Relation) -> set[tuple[int, ...]]:
    return set(rel.tuples())


def from_set(size: int, arity: int, tuples) -> Relation:
    return Relation.from_tuples(Universe(size), arity, tuples)


def apply_tuple(alpha_map, x):
    return tuple(x[i - 1] for i in alpha_map)


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
            pf = PrimeFilter(k, j, lattice.up_set(j))
            if pf not in family:
                family.append(pf)
    return family


def extend_to_prime_scan(lattice, gen_f: int, gen_i: int):
    """The prime filter extending gen_f away from gen_i by a scan through the
    order: the up-set of the first join-irreducible in canonical order below
    gen_f and not below gen_i."""
    j = next(j for j in lattice.join_irreducibles
             if lattice.leq(j, gen_f) and not lattice.leq(j, gen_i))
    return PrimeFilter(lattice.sort, j, lattice.up_set(j))


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
        at = node.at if node.at is not None else len(env) + 1
        for w in range(structure.universe.size):
            env.insert(at - 1, w)
            ok = _sat(node.body, env, structure)
            env.pop(at - 1)
            if ok:
                return True
        return False
    raise TypeError(f"not a formula node: {node!r}")
