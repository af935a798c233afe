"""Closures against definable relations.

Take a structure M and a fragment F.  The F-definable relations of M with at
most n variables are the subalgebra of concrete(M.universe, F, n) that M's
relations generate: the Lindenbaum algebra of M's theory in F, up to sort n.
So two independent routes must agree on it: the closure, read through its
witness terms and eval_term, and the naive satisfaction checker
eval_fo_naive on random F-formulas whose quantifiers stay within sort n.
"""

from random import Random

import pytest

from relalg import (
    FO,
    PE,
    PQF,
    QF,
    Signature,
    eval_fo_naive,
    eval_term,
    generated_subalgebra,
    parse_term,
    random_formula,
    random_structure,
)
from relalg.algebras import ConcreteAlgebra
from relalg.formulas import FOAnd, FOExists, FONot, FOOr

SIG = Signature((("R", 2), ("P", 1)))
FRAGMENTS = [f for base in (PQF, QF, PE, FO) for f in (base, base.with_equality())]
# (|W|, max sort).  Sort 3 over three points has 2**27 elements: a random
# structure's closure there often passes the element cap, or has too many
# elements for the witness search, so that shape is left out.
SHAPES = [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3)]


def nested_sort(node, k: int) -> int:
    """The largest sort a formula's evaluation reaches from context length k."""
    if isinstance(node, (FOAnd, FOOr)):
        return max(nested_sort(node.left, k), nested_sort(node.right, k))
    if isinstance(node, FONot):
        return nested_sort(node.child, k)
    if isinstance(node, FOExists):
        return nested_sort(node.body, k + 1)
    return k


@pytest.mark.parametrize("fragment", FRAGMENTS, ids=str)
def test_closure_holds_exactly_the_definable_relations(fragment):
    rng = Random(f"definable {fragment}")
    formulas = 0
    for size, bound in SHAPES:
        structure = random_structure(rng, SIG, size)
        parent = ConcreteAlgebra([structure.universe], fragment, bound)
        gens = [(arity, structure.relations[name].bits) for name, arity in SIG.symbols]
        alg = generated_subalgebra(parent, gens, [name for name, _ in SIG.symbols])
        for n in range(bound + 1):
            for a in alg.elements(n):
                term = parse_term(alg.witness_term(n, a), SIG)
                assert eval_term(term, structure).bits == alg.to_parent(n, a), (size, n, a)
        for _ in range(40):
            k = rng.randint(0, bound)
            f = random_formula(rng, SIG, k, rng.randint(0, 4), fragment)
            if nested_sort(f.body, k) <= bound:
                formulas += 1
                assert eval_fo_naive(f, structure).bits in alg._from_parent[k], (size, f)
        flipped = generated_subalgebra(parent, gens[::-1], ["P", "R"])
        assert flipped._to_parent == alg._to_parent
    assert formulas >= 100
