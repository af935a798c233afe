"""From prime filters to concrete models of relations.

A prime filter F on sort n induces a map into the relations over an n-point
universe: the tuple picked out by an index map alpha belongs to the image of r
exactly when alpha(r) lands in F.  So a model is read off its filter by
pullback: what holds of a tuple is the set alpha*F (filters.pullback), and its
type is that set as a prime filter.  With equality constants present,
positions are first merged along the diagonal memberships of F.  This map is
a morphism for the substitution/lattice (and negation) symbols and at least
almost morphic for projection.

Embeddings are built by separating every pair of distinct elements with one
prime filter each, packing the chosen family into a single master filter on
the sum sort, and reading the induced model off.  For fragments with
projection the result may only be an almost morphism; bounded witness
saturation then adds stage models until projection becomes exact or the
round budget runs out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iproduct

from .algebras import (
    ConcreteAlgebra,
    FiniteAlgebra,
    MorphismReport,
    is_injective,
    kernel,
    verify_morphism,
)
from .errors import IllDefinedMapError, PreconditionError
from .filters import (
    PrimeFilter,
    prime_filter_from_members,
    prime_filters,
    pullback,
    _pullback_filter_members,
    sort_lattice,
    sum_filters,
    witness_filter,
)
from .relations import Relation, Substitution, Universe, all_substitutions, tuple_index


@dataclass
class FilterModel:
    """The model read off a prime filter: a universe of size = number of
    merged filter positions, the per-sort interpretation map, and its
    verification report."""

    algebra: FiniteAlgebra
    filter: PrimeFilter
    universe: Universe
    class_of: tuple[int, ...]  # 0-based: position i+1 of the filter sort -> universe element
    reps: tuple[int, ...]  # universe element -> least 1-based position representing it
    phi: dict[int, list[Relation]]
    verification: MorphismReport | None = None

    @property
    def bound(self) -> int:
        return max(self.phi)

    def fmap(self) -> dict[int, list[int]]:
        return {n: [rel.bits for rel in rels] for n, rels in self.phi.items()}

    def satisfied(self, tup: tuple[int, ...]) -> frozenset[int]:
        """Everything holding of the given universe tuple: the pullback of the
        filter along the tuple's representative positions."""
        gamma = Substitution(len(tup), self.filter.sort, tuple(self.reps[q] for q in tup))
        return pullback(self.algebra, self.filter, gamma)

    def type_of(self, tup: tuple[int, ...]) -> PrimeFilter:
        """The prime filter of everything holding of the given universe tuple."""
        return prime_filter_from_members(self.algebra, len(tup), self.satisfied(tup), verify=False)


def filter_to_morphism(algebra: FiniteAlgebra, filt: PrimeFilter,
                       up_to: int | None = None) -> FilterModel:
    """Build the model induced by a prime filter, for all sorts up to the
    bound.  With equality, positions i and j merge exactly when the diagonal
    constant (i,j) belongs to the filter; well-definedness of the merged map
    is checked and an ambiguity is reported with the witnessing pair."""
    frag = algebra.fragment
    class_of = _merge_positions(algebra, filt) if frag.equality else tuple(range(filt.sort))
    w = max(class_of, default=-1) + 1
    reps = tuple(class_of.index(q) + 1 for q in range(w))
    universe = Universe(w)
    bound = algebra.max_sort if up_to is None else min(up_to, algebra.max_sort)

    model = FilterModel(algebra, filt, universe, class_of, reps, {})
    for k in range(bound + 1):
        bits = [0] * len(algebra.elements(k))
        # The first map of each merged pattern is its reps map; a later map
        # with the same pattern must pull the filter back alike.
        first: dict[tuple[int, ...], tuple[Substitution, frozenset[int]]] = {}
        for alpha in all_substitutions(k, filt.sort):
            pattern = tuple(class_of[i - 1] for i in alpha.map)
            pulled = pullback(algebra, filt, alpha)
            seen = first.setdefault(pattern, (alpha, pulled))
            if seen[0] is alpha:
                t = tuple_index(w, pattern)
                for r in pulled:
                    bits[r] |= 1 << t
            elif seen[1] != pulled:
                raise IllDefinedMapError(
                    f"merged positions make the sort-{k} map ambiguous",
                    alpha=seen[0], beta=alpha,
                )
        model.phi[k] = [Relation(universe, k, b) for b in bits]
    model.verification = recheck_model(model)
    if not model.verification.ok:
        raise AssertionError(
            "filter-induced map failed verification: " + "; ".join(model.verification.violations)
        )
    return model


def _merge_positions(algebra: FiniteAlgebra, filt: PrimeFilter) -> tuple[int, ...]:
    n = filt.sort
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            if algebra.delta(n, i + 1, j + 1) in filt:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    roots = sorted({find(i) for i in range(n)})
    rank = {root: q for q, root in enumerate(roots)}
    return tuple(rank[find(i)] for i in range(n))


def recheck_model(model: FilterModel, mode: str | None = None) -> MorphismReport:
    """Verify the model's map against a concrete target.  Default mode:
    full morphism when projection is absent from the fragment, almost
    morphism (containment for projection) when it is present."""
    frag = model.algebra.fragment
    if mode is None:
        mode = "almost" if frag.exists else "full"
    # the target is only operated on, never enumerated: no eager cap guard
    target = ConcreteAlgebra([model.universe], frag, model.bound)
    return verify_morphism(model.fmap(), model.algebra, target, mode=mode)


# ---------------------------------------------------------------------------
# Separation and master-filter embeddings


def separate(algebra: FiniteAlgebra, sort: int, r: int, s: int) -> FilterModel:
    """A model distinguishing two distinct same-sort elements, built from the
    least join-irreducible lying below exactly one of them."""
    if r == s:
        raise PreconditionError("cannot separate an element from itself")
    pf = separating_filter(algebra, sort, r, s)
    model = filter_to_morphism(algebra, pf)
    if model.phi[sort][r] == model.phi[sort][s]:
        raise AssertionError("separating filter did not separate")
    return model


def separating_filter(algebra: FiniteAlgebra, sort: int, r: int, s: int) -> PrimeFilter:
    lattice = sort_lattice(algebra, sort)
    j = lattice.separator(r, s)
    return PrimeFilter(sort, j, lattice.up_set(j))


def separating_family(algebra: FiniteAlgebra, scope: int) -> list[PrimeFilter]:
    """One prime filter per unordered pair of distinct elements in sorts up to
    the scope (least canonical choice), duplicates dropped: each filter is
    built once, for the first pair its generator separates."""
    family: list[PrimeFilter] = []
    for k in range(scope + 1):
        size = algebra.sort_size(k)
        if size <= 1:
            continue
        lattice = sort_lattice(algebra, k)
        seen: set[int] = set()
        for a in algebra.elements(k):
            for b in range(a + 1, size):
                j = lattice.separator(a, b)
                if j not in seen:
                    seen.add(j)
                    family.append(PrimeFilter(k, j, lattice.up_set(j)))
    return family


def master_filter_model(algebra: FiniteAlgebra, scope: int) -> tuple[FilterModel, list[PrimeFilter]]:
    """Pack one separating filter per pair into a master filter and read off
    the induced model; it distinguishes all elements in sorts up to the scope.
    For fragments with projection this is the one-to-one almost morphism that
    saturation starts from."""
    if scope < 0:
        raise PreconditionError(f"scope must be >= 0, got {scope}")
    if scope > algebra.max_sort:
        raise PreconditionError(f"scope {scope} exceeds sort bound {algebra.max_sort}")
    family = separating_family(algebra, scope)
    ext = algebra.extend(sum(pf.sort for pf in family))
    master = sum_filters(family, ext)
    model = filter_to_morphism(ext, master, up_to=algebra.max_sort)
    return model, family


@dataclass
class EmbeddingCertificate:
    status: str  # "full" or "almost"
    fragment: str
    scope: int
    target_size: int
    phi: dict[int, list[Relation]]
    injective: bool
    rounds_used: int
    transcript: list[str]
    obligations: list[str] = field(default_factory=list)
    verification: MorphismReport | None = None


def embed(algebra: FiniteAlgebra, scope: int, rounds: int = 5) -> EmbeddingCertificate:
    """Constructive embedding into a concrete algebra of relations, verified.

    Without projection in the fragment the master-filter model is already a
    morphism and the certificate is immediate.  With projection, the master
    model starts a witness saturation run with the given round budget.
    Raises ObstructionError (axiom 0) when the master filter cannot exist and
    InsufficientSortsError when the needed sorts cannot be materialized.
    """
    if rounds < 0:
        raise PreconditionError(f"rounds must be >= 0, got {rounds}")
    model, family = master_filter_model(algebra, scope)
    transcript = [
        f"separating family: {len(family)} prime filter(s) on sorts "
        f"{[pf.sort for pf in family]}",
        f"master filter on sort {sum(pf.sort for pf in family)}, "
        f"generator {model.filter.generator}",
    ]
    if algebra.fragment.exists:
        cert = saturate(algebra, model, rounds)
        cert.transcript = transcript + cert.transcript
        cert.scope = scope
        return cert
    report = model.verification
    injective = is_injective(model.fmap(), range(scope + 1))
    transcript.append(f"morphic conditions checked: {report.checks}, violations: {len(report.violations)}")
    transcript.append(f"injective on sorts 0..{scope}: {injective}")
    status = "full" if report.ok and injective else "almost"
    return EmbeddingCertificate(
        status=status,
        fragment=str(algebra.fragment),
        scope=scope,
        target_size=model.universe.size,
        phi=model.phi,
        injective=injective,
        rounds_used=0,
        transcript=transcript,
        verification=report,
    )


# ---------------------------------------------------------------------------
# Witness saturation


def find_obligations(model: FilterModel, bound: int) -> list[tuple[tuple[int, ...], PrimeFilter]]:
    """Unmet witness requests: tuples whose type extends to a prime filter one
    sort up that no element of the model weakly realizes."""
    alg = model.algebra
    w = model.universe.size
    out = []
    for length in range(bound):
        target = length + 1
        candidates = [(g, _pullback_filter_members(alg, g))
                      for g in prime_filters(sort_lattice(alg, target))]
        for tup in iproduct(range(w), repeat=length):
            p = model.type_of(tup)
            extending = [g for g, pulled in candidates if pulled == p.members]
            if extending:
                realized = [model.satisfied(tup + (b,)) for b in range(w)]
                out += [(tup, g) for g in extending
                        if not any(g.members <= sat for sat in realized)]
    return out


def witness_stage(model: FilterModel, obligations, bound: int) -> FilterModel:
    """One saturation round: pack the whole current universe and every
    obligation into a single filter on sort (universe + batch), and read off
    the next stage model.  The previous universe embeds via the packed
    positions; its literal diagram is preserved and checked."""
    w = model.universe.size
    alg = model.algebra.extend(w + len(obligations))
    base = model.type_of(tuple(range(w)))
    pairs = [(g, Substitution(len(tup), w, tuple(q + 1 for q in tup))) for tup, g in obligations]
    packed = witness_filter(alg, base, pairs)
    new = filter_to_morphism(alg, packed, up_to=bound)
    embed_old = [new.class_of[q] for q in range(w)]
    if len(set(embed_old)) != w:
        raise AssertionError("stage construction merged previously distinct elements")
    for k in range(bound + 1):
        for r in model.algebra.elements(k):
            old_rel = model.phi[k][r]
            new_rel = new.phi[k][r]
            for tup in iproduct(range(w), repeat=k):
                mapped = tuple(embed_old[q] for q in tup)
                if old_rel.contains(tup) != new_rel.contains(mapped):
                    raise AssertionError(
                        f"stage construction changed the diagram at sort {k}, "
                        f"element {r}, tuple {tup}"
                    )
    return new


def saturate(algebra: FiniteAlgebra, start: FilterModel, rounds: int) -> EmbeddingCertificate:
    """Run witness rounds until projection is exact or the budget is spent.
    Status "full" certificates are complete verified morphisms; "almost"
    status lists the outstanding obligations honestly.  The final map never
    identifies more than the starting map did (checked)."""
    bound = algebra.max_sort
    model = start
    transcript = []
    built = 0
    while True:
        obligations = find_obligations(model, bound)
        transcript.append(f"round {built}: {len(obligations)} outstanding witness request(s)")
        if not obligations:
            status = "full"
            break
        if built >= rounds:
            status = "almost"
            break
        model = witness_stage(model, obligations, bound)
        built += 1
        transcript.append(f"round {built}: universe grew to {model.universe.size}")

    pending = [
        f"tuple {tup}: filter on sort {g.sort} generated by {g.generator}"
        for tup, g in obligations
    ]
    report = None
    if status == "full":
        report = recheck_model(model, mode="full")
        transcript.append(
            f"exact morphism check: {report.checks} checks, {len(report.violations)} violation(s)"
        )
        if not report.ok:
            raise AssertionError("saturated model failed the exact morphism check")
    start_map, final_map = start.fmap(), model.fmap()
    for n in range(bound + 1):
        merged = kernel(final_map, n) - kernel(start_map, n)
        if merged:
            a, b = min(merged)
            raise AssertionError(f"saturation identified sort-{n} elements {a},{b} that the "
                                 f"starting map distinguished")
    injective = is_injective(final_map, range(bound + 1))
    transcript.append(f"injective on sorts 0..{bound}: {injective}")
    return EmbeddingCertificate(
        status=status,
        fragment=str(algebra.fragment),
        scope=bound,
        target_size=model.universe.size,
        phi=model.phi,
        injective=injective,
        rounds_used=built,
        transcript=transcript,
        obligations=pending,
        verification=report,
    )
