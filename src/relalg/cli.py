"""Command-line front end.

Exit codes are a stable contract: 0 = pass, 1 = a mathematical violation,
disagreement, obstruction or incomplete certificate, 2 = usage or parse
error.  A well-formed algebra that breaks the laws (a sort that is not a
lattice, an ill-defined filter map, a construction's failed postcondition)
is a mathematical failure: one line on stdout naming the failed check.
Every randomized report prints its seed; re-running with that seed
reproduces the output byte for byte.

Algebra specifiers: a JSON table-algebra file path, or one of the builtins
``builtin:concrete:<size>`` (fragment and sort bound from the flags),
``builtin:diamond``, ``builtin:pe-theory``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from functools import partial

from .algebras import FiniteAlgebra, TableAlgebra, _power_at_least, concrete
from .axioms import (
    Bounds,
    CheckReport,
    check_fragment,
    gallery_diamond,
    gallery_pe_theory,
)
from .errors import ElementCapExceededError, IllDefinedMapError, ObstructionError, RelAlgError
from .filters import NotALatticeError, prime_filters, sort_lattice
from .formulas import (
    Structure,
    compile_fo,
    eval_fo_naive,
    eval_term,
    parse_fo,
    parse_term,
)
from .fragments import parse_fragment
from .relations import Universe, relation_literal
from .representation import embed


def _load_algebra(args: argparse.Namespace, max_sort: int) -> FiniteAlgebra:
    # galleries and table files carry their own bound, so the flag is checked here
    if args.max_sort < 0:
        raise RelAlgError(f"max_sort must be >= 0, got {args.max_sort}")
    spec = args.algebra
    if spec.startswith("builtin:"):
        parts = spec.split(":")
        if parts[1] == "concrete" and len(parts) == 3:
            try:
                universe = Universe(int(parts[2]))
            except ValueError:
                raise RelAlgError(f"universe size is not a non-negative integer: "
                                  f"{parts[2]!r}") from None
            return concrete(universe, parse_fragment(args.fragment), max_sort,
                            element_cap=args.element_cap)
        if parts[1] == "diamond" and len(parts) == 2:
            algebra = gallery_diamond()[0]
        elif parts[1] in ("pe-theory", "pe_theory") and len(parts) == 2:
            algebra = gallery_pe_theory()[0]
        else:
            raise RelAlgError(f"unknown builtin algebra {spec!r}")
    else:
        with open(spec, "r", encoding="utf-8") as fh:
            algebra = TableAlgebra.from_json(fh.read())
    # a gallery's own closure runs at the default cap; the flag guards what follows
    algebra.element_cap = args.element_cap
    return algebra


def _report_lines(report: CheckReport) -> list[str]:
    verdict = "PASS" if report.ok else "FAIL"
    suffix = f"  ({report.note})" if report.note else ""
    lines = [
        f"axiom ({report.axiom}): {verdict}  mode={report.mode} "
        f"params={report.params_checked} instances={report.instances_checked}{suffix}"
    ]
    for v in report.violations:
        label = f" [{v.label}]" if v.label else ""
        lines.append(f"  violation{label}: params={json.dumps(v.params, sort_keys=True)} "
                     f"elements={list(v.slot_values)}")
        if v.detail:
            lines.append(f"    {v.detail}")
    return lines


def _report_json(report: CheckReport) -> str:
    return json.dumps(
        {
            "axiom": report.axiom,
            "fragment": report.fragment,
            "mode": report.mode,
            "params": report.params_checked,
            "instances": report.instances_checked,
            "seed": report.seed,
            "ok": report.ok,
            "violations": [
                {"label": v.label, "params": v.params,
                 "elements": list(v.slot_values), "detail": v.detail}
                for v in report.violations
            ],
        },
        sort_keys=True,
    )


def _cmd_eval(args: argparse.Namespace, out) -> int:
    with open(args.structure, "r", encoding="utf-8") as fh:
        structure = Structure.from_json(fh.read())
    signature = structure.signature()
    if args.formula_file:
        with open(args.formula_file, "r", encoding="utf-8") as fh:
            text = fh.read().strip()
    else:
        text = args.formula
    if text is None:
        raise RelAlgError("no formula given (positional argument or --formula-file)")
    if args.syntax == "term":
        term = parse_term(text, signature)
        if args.mode != "compiled":
            raise RelAlgError("term syntax has no naive evaluator; use --mode compiled")
        print(relation_literal(eval_term(term, structure)), file=out)
        return 0
    formula = parse_fo(text, signature)
    size, k, cap = structure.universe.size, len(formula.context), args.element_cap
    if args.mode != "compiled" and _power_at_least(size, k, max(cap, 0) + 1):
        raise ElementCapExceededError(f"naive evaluation enumerates {size}**{k} context "
                                      f"tuples, cap is {cap}")
    compiled = naive = None
    if args.mode in ("compiled", "both"):
        compiled = eval_term(compile_fo(formula), structure)
    if args.mode in ("naive", "both"):
        naive = eval_fo_naive(formula, structure)
    if args.mode == "both" and compiled != naive:
        print("EVALUATOR DISAGREEMENT", file=out)
        print(f"compiled: {relation_literal(compiled)}", file=out)
        print(f"naive:    {relation_literal(naive)}", file=out)
        return 1
    print(relation_literal(compiled if compiled is not None else naive), file=out)
    return 0


def _cmd_axioms(args: argparse.Namespace, out) -> int:
    algebra = _load_algebra(args, args.max_sort)
    bounds = Bounds(max_sort=args.max_sort, exhaustive_cap=args.exhaustive_cap,
                    samples=args.samples, seed=args.seed)
    reports = check_fragment(algebra, bounds)
    failed = [r for r in reports if not r.ok]
    if args.format == "jsonl":
        for report in reports:
            print(_report_json(report), file=out)
    else:
        print(f"algebra: {algebra.provenance}  fragment: {algebra.fragment}  "
              f"max-sort: {bounds.max_sort}  seed: {bounds.seed}", file=out)
        for report in reports:
            for line in _report_lines(report):
                print(line, file=out)
        if failed:
            print(f"verdict: {len(failed)} axiom(s) violated", file=out)
        else:
            print("verdict: fragment-consistent within bounds", file=out)
    return 1 if failed else 0


def _cmd_primefilters(args: argparse.Namespace, out) -> int:
    algebra = _load_algebra(args, max(args.sort, args.max_sort))
    lattice = sort_lattice(algebra, args.sort)
    filters = prime_filters(lattice)
    print(f"sort {args.sort}: {lattice.size} elements, "
          f"{len(lattice.join_irreducibles)} join-irreducible(s), "
          f"{len(filters)} prime filter(s)", file=out)
    for idx, pf in enumerate(filters):
        label = partial(algebra.element_label, pf.sort)
        members = ", ".join(map(label, sorted(lattice.up_set(pf.generator))))
        print(f"prime filter {idx}: generator {label(pf.generator)}", file=out)
        print(f"  members: {{{members}}}", file=out)
    return 0


def _cmd_embed(args: argparse.Namespace, out) -> int:
    algebra = _load_algebra(args, args.max_sort)
    try:
        cert = embed(algebra, args.scope, rounds=args.rounds)
    except ObstructionError as exc:
        print(f"OBSTRUCTION (axiom ({exc.axiom_id})): {exc}", file=out)
        if exc.shape is not None:
            print(f"  blocks: {list(exc.shape)}  r={list(exc.r_elems)}  s={list(exc.s_elems)}",
                  file=out)
        return 1
    if args.format == "jsonl":
        print(json.dumps({
            "status": cert.status, "fragment": cert.fragment, "scope": cert.scope,
            "target_size": cert.target_size, "injective": cert.injective,
            "rounds_used": cert.rounds_used,
            "obligations": cert.obligations,
            "phi": {str(n): [relation_literal(r) for r in rels] for n, rels in cert.phi.items()},
        }, sort_keys=True), file=out)
    else:
        print(f"status: {cert.status}  fragment: {cert.fragment}  "
              f"target universe size: {cert.target_size}", file=out)
        for line in cert.transcript:
            print(f"  {line}", file=out)
        for n in sorted(cert.phi):
            for a, rel in enumerate(cert.phi[n]):
                print(f"  sort {n} element {a} -> {relation_literal(rel)}", file=out)
        for line in cert.obligations:
            print(f"  outstanding: {line}", file=out)
    return 0 if cert.status == "full" else 1


def _cmd_gallery(args: argparse.Namespace, out) -> int:
    if args.which == "diamond":
        algebra, report = gallery_diamond()
        names = {0: "0", 1: "a", 2: "b", 3: "1"}
        label = names.get
        print("diamond gallery: product of two one-point quantifier-free algebras", file=out)
        print(f"sort 1 elements: {', '.join(names[i] for i in range(4))}", file=out)
    else:
        algebra, report = gallery_pe_theory()
        label = lambda v: algebra.element_label(1, v)  # noqa: E731
        print("pe-theory gallery: generated subalgebra of a product of two "
              "positive-existential algebras over {0,1,2}", file=out)
        print(f"sort 0 has exactly {algebra.sort_size(0)} elements", file=out)
    violation = report.violations[0]
    r1, r2, s1, s2 = violation.slot_values
    print(f"axiom (0) violation, blocks {violation.params['shape']}:", file=out)
    print(f"  {violation.detail}", file=out)
    print(f"  r = ({label(r1)}, {label(r2)})  s = ({label(s1)}, {label(s2)})", file=out)
    return 0


# How main names a law an algebra file breaks; AssertionError is a
# construction's postcondition.
_FAILED_CHECKS = {
    NotALatticeError: "NOT A LATTICE",
    IllDefinedMapError: "ILL-DEFINED MAP",
    AssertionError: "POSTCONDITION FAILED",
}


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--samples", type=int, default=argparse.SUPPRESS)
    common.add_argument("--exhaustive-cap", type=int, default=argparse.SUPPRESS)
    common.add_argument("--element-cap", type=int, default=argparse.SUPPRESS)
    common.add_argument("--format", choices=["text", "jsonl"], default=argparse.SUPPRESS)

    parser = argparse.ArgumentParser(
        prog="relalg",
        description="Workbench for multisorted algebras of finitary relations.",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=10**5)
    parser.add_argument("--exhaustive-cap", type=int, default=10**6)
    parser.add_argument("--element-cap", type=int, default=1 << 20)
    parser.add_argument("--format", choices=["text", "jsonl"], default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[common],
                            help="evaluate a formula against a structure file")
    p_eval.add_argument("--structure", required=True)
    p_eval.add_argument("formula", nargs="?")
    p_eval.add_argument("--formula-file")
    p_eval.add_argument("--syntax", choices=["fo", "term"], default="fo")
    p_eval.add_argument("--mode", choices=["compiled", "naive", "both"], default="both")

    p_ax = sub.add_parser("axioms", parents=[common], help="check axiom schemas against an algebra")
    ax_sub = p_ax.add_subparsers(dest="axioms_command", required=True)
    p_check = ax_sub.add_parser("check", parents=[common])
    p_check.add_argument("--algebra", required=True)
    p_check.add_argument("--fragment", default="pqf")
    p_check.add_argument("--max-sort", type=int, default=2)

    p_pf = sub.add_parser("primefilters", parents=[common], help="list the prime filters of one sort")
    p_pf.add_argument("--algebra", required=True)
    p_pf.add_argument("--sort", type=int, required=True)
    p_pf.add_argument("--fragment", default="pqf")
    p_pf.add_argument("--max-sort", type=int, default=2)

    p_embed = sub.add_parser("embed", parents=[common], help="build and verify an embedding certificate")
    p_embed.add_argument("--algebra", required=True)
    p_embed.add_argument("--fragment", default="pqf")
    p_embed.add_argument("--max-sort", type=int, default=2)
    p_embed.add_argument("--scope", type=int, required=True)
    p_embed.add_argument("--rounds", type=int, default=5)

    p_gallery = sub.add_parser("gallery", parents=[common], help="reproduce a counterexample")
    p_gallery.add_argument("which", choices=["diamond", "pe-theory"])

    args = parser.parse_args(argv)
    handlers = {"eval": _cmd_eval, "axioms": _cmd_axioms, "primefilters": _cmd_primefilters,
                "embed": _cmd_embed, "gallery": _cmd_gallery}
    buffer = io.StringIO()
    try:
        code = handlers[args.command](args, buffer)
    except (NotALatticeError, IllDefinedMapError, AssertionError) as exc:
        buffer = io.StringIO()
        print(f"{_FAILED_CHECKS[type(exc)]}: {exc}", file=buffer)
        code = 1
    except (OSError, RelAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError, OverflowError) as exc:
        what = "nested too deeply" if isinstance(exc, RecursionError) else "too large"
        print(f"error: input {what} to parse or evaluate", file=sys.stderr)
        return 2
    # written after the verdict, so a reader that stops early cannot change it
    try:
        out.writelines(buffer.getvalue().splitlines(keepends=True))
        out.flush()
    except BrokenPipeError:
        if out is sys.stdout:
            # the interpreter flushes stdout once more at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
