"""Microbenchmarks for the traced run: the public bitset kernels at fo-eval
shapes, and meet/join/subst on each algebra kind the workload built."""

from __future__ import annotations

import statistics
from random import Random
from time import perf_counter

KINDS = {"concrete": "concrete", "product": "product", "generated": "generated", "tables": "table"}
REPEATS = 5
OPERAND_PAIRS = 2000


def _median_time(fn) -> float:
    times = []
    for _ in range(REPEATS):
        started = perf_counter()
        fn()
        times.append(perf_counter() - started)
    return statistics.median(times)


def kernels(load_relalg, seed: int) -> dict[str, float]:
    """ns per tuple of the larger relation in each call, universe of size 6.
    rel_apply runs on a fresh import each repeat, so its index-map cache starts
    empty as it does in every fo-eval pass; each map is then reused four times."""
    rng = Random(seed)
    bits3 = [rng.getrandbits(6**3) for _ in range(4)]
    bits4 = [rng.getrandbits(6**4) for _ in range(16)]

    def rel_apply_pass():
        api = load_relalg()
        u = api.Universe(6)
        rels = [api.Relation(u, 3, b) for b in bits3]
        started = perf_counter()
        for alpha in api.all_substitutions(3, 4):
            for r in rels:
                api.rel_apply(alpha, r)
        return perf_counter() - started

    rel_apply_s = statistics.median(rel_apply_pass() for _ in range(REPEATS))
    api = load_relalg()
    u = api.Universe(6)
    rels4 = [api.Relation(u, 4, b) for b in bits4]
    exists_s = _median_time(lambda: [api.exists_last(r) for r in rels4])
    pairs = [(i, j) for i in range(1, 5) for j in range(1, 5) if i != j]
    delta_s = _median_time(lambda: [api.delta(u, 4, i, j) for i, j in pairs])
    return {
        "relations.rel_apply.ns_per_tuple": rel_apply_s * 1e9 / (4**3 * len(bits3) * 6**4),
        "relations.exists_last.ns_per_tuple": exists_s * 1e9 / (len(rels4) * 6**4),
        "relations.delta.ns_per_tuple": delta_s * 1e9 / (len(pairs) * 6**4),
    }


def algebra_ops(api, algebras, seed: int) -> dict[str, float]:
    """ns per meet/join/subst at the top sort of the largest algebra of each
    kind; 0 for a kind the workload did not build."""
    largest = {}
    for algebra in algebras:
        kind = KINDS.get(algebra.provenance.split("(", 1)[0])
        size = algebra.sort_size(algebra.max_sort)
        if kind and size > largest.get(kind, (0, None))[0]:
            largest[kind] = (size, algebra)
    out = {f"algebras.{kind}.ns_per_op": 0.0 for kind in KINDS.values()}
    rng = Random(seed)
    for kind, (size, algebra) in largest.items():
        n = algebra.max_sort
        alpha = api.Substitution(n, n, tuple(range(n, 0, -1)))
        operands = [(rng.randrange(size), rng.randrange(size)) for _ in range(OPERAND_PAIRS)]

        def ops():
            for a, b in operands:
                algebra.meet(n, a, b)
                algebra.join(n, a, b)
                algebra.subst(alpha, a)

        out[f"algebras.{kind}.ns_per_op"] = _median_time(ops) * 1e9 / (3 * OPERAND_PAIRS)
    return out
