"""Golden outcomes of the representation layer.

Pinned, one record per line, in embed_golden.jsonl:

- embed certificates (status, target size, injectivity, rounds, transcript,
  obligations and the phi literals) for concrete algebras over one- and
  two-point universes and their table forms, in every fragment with and
  without equality, at every scope the master sort allows; at the scope
  where it does not, the error;
- the budget-0 "almost" certificate of a two-point PE model with witness
  requests outstanding;
- the diamond's axiom-(0) obstruction;
- the members of every prime filter, per sort, of small algebras;
- the model read off each of those prime filters (its merged positions and
  phi literals), so that the equality fragments reach position merging.

Regenerate (only when an outcome is meant to change) with:

    PYTHONPATH=src python tests/test_embed_golden.py > tests/embed_golden.jsonl
"""

import json
from pathlib import Path

from relalg import (
    ObstructionError,
    RelAlgError,
    Universe,
    as_table_algebra,
    concrete,
    embed,
    gallery_diamond,
    generated_subalgebra,
)
from relalg.filters import prime_filters, pullback, sort_lattice
from relalg.fragments import FO, PE, PQF, QF
from relalg.relations import Substitution, relation_literal
from relalg.representation import filter_to_morphism, saturate

GOLDEN = Path(__file__).with_name("embed_golden.jsonl")

FRAGMENTS = [f for base in (PQF, QF, PE, FO) for f in (base, base.with_equality())]


def literals(phi) -> dict[str, list[str]]:
    return {str(n): [relation_literal(rel) for rel in rels] for n, rels in sorted(phi.items())}


def certificate(cert) -> dict:
    return {"status": cert.status, "fragment": cert.fragment, "scope": cert.scope,
            "target_size": cert.target_size, "injective": cert.injective,
            "rounds_used": cert.rounds_used, "transcript": cert.transcript,
            "obligations": cert.obligations, "phi": literals(cert.phi)}


def embed_records():
    for size in (1, 2):
        for fragment in FRAGMENTS:
            for kind in ("concrete", "tables"):
                algebra = concrete(Universe(size), fragment, 2)
                if kind == "tables":
                    algebra = as_table_algebra(algebra, with_extension=True)
                for scope in range(3):
                    record = {"case": "embed", "algebra": f"{kind} |W|={size}",
                              "fragment": str(fragment), "scope_asked": scope}
                    try:
                        record.update(certificate(embed(algebra, scope=scope)))
                    except RelAlgError as exc:
                        record["error"] = f"{type(exc).__name__}: {exc}"
                    yield record


def budget_zero_record():
    w2 = concrete(Universe(2), PE, 2)
    pf = next(p for p in prime_filters(sort_lattice(w2, 1)) if p.generator == 1)
    return {"case": "budget 0", **certificate(saturate(w2, filter_to_morphism(w2, pf), rounds=0))}


def diamond_record():
    try:
        embed(gallery_diamond()[0], scope=2)
    except ObstructionError as exc:
        return {"case": "diamond", "message": str(exc), "axiom_id": exc.axiom_id,
                "shape": list(exc.shape), "r_elems": list(exc.r_elems),
                "s_elems": list(exc.s_elems)}
    raise AssertionError("the diamond embedded")


def small_algebras():
    """(name, algebra, sorts) whose prime filters are pinned."""
    for size in (1, 2):
        for fragment in FRAGMENTS:
            yield f"concrete |W|={size}", concrete(Universe(size), fragment, 2), range(3)
    yield "diamond", gallery_diamond()[0], range(3)
    parent = concrete(Universe(2), PQF, 2)
    yield "generated", generated_subalgebra(parent, [(1, 0b01), (2, 0b0110)]), range(3)


def filter_records():
    for name, algebra, sorts in small_algebras():
        for sort in sorts:
            filters = prime_filters(sort_lattice(algebra, sort))
            yield {"case": "prime filters", "algebra": name, "fragment": str(algebra.fragment),
                   "sort": sort,
                   "filters": [[pf.generator, sorted(pullback(algebra, pf, Substitution.identity(sort)))]
                               for pf in filters]}
            if not name.startswith("concrete"):
                continue
            for pf in filters:
                model = filter_to_morphism(algebra, pf)
                yield {"case": "filter model", "algebra": name,
                       "fragment": str(algebra.fragment), "sort": sort,
                       "generator": pf.generator, "class_of": list(model.class_of),
                       "phi": literals(model.phi)}


def golden_records() -> list[dict]:
    return [*embed_records(), budget_zero_record(), diamond_record(), *filter_records()]


def test_representation_outcomes_match_golden():
    expected = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    actual = [json.loads(json.dumps(record, sort_keys=True)) for record in golden_records()]
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got == want, {k: v for k, v in want.items() if k in ("case", "algebra", "fragment")}
    cases = {r["case"] for r in expected}
    assert cases == {"embed", "budget 0", "diamond", "prime filters", "filter model"}
    assert any(r.get("status") == "full" and r["rounds_used"] > 0 for r in expected)
    assert any("error" in r for r in expected)
    assert any(len(set(r["class_of"])) < len(r["class_of"])
               for r in expected if r["case"] == "filter model")


if __name__ == "__main__":
    for record in golden_records():
        print(json.dumps(record, sort_keys=True))
