"""The four benchmark workloads.

Each workload is closed-loop: one process runs a fixed job list, one job after
another, and repeats it ("a pass") until the run's time is up.  ``setup``
builds a pass's inputs (this is what ``setup_s`` times, together with the
import); ``run`` executes the jobs through ``Pass.job`` and checks every
answer against the known one.

``answers`` recorded by a pass feed its digest; they leave out which sampled
schema instances were drawn, so a different sampler keeps the digest.
"""

from __future__ import annotations

import dataclasses
from random import Random

SWEEP_FRAGMENTS = ("pqf", "qf", "pe", "fo", "fo+eq")
SWEEP_SIZES = (0, 1, 2)
PE_AXIOMS = (1, 2, 3, 4, 7, 8, 9, 10)
PE_SORT_SIZES = [2, 10, 706]
FO_SIZES = (3, 4, 5, 6)
FO_PER_SIZE = 50
FO_MAX_ARITY = 6
FO_FORMULAS = "fo-eval/formulas/0"  # the stream the reference digest was recorded with


def mode_kind(report) -> str:
    return report.mode.split("(", 1)[0]


def expect(cond: bool, message: str) -> str | None:
    return None if cond else message


class Sweep:
    """scripts/run_soundness.py with default arguments, except that |W|=2 runs
    for fo+eq only: the other fragments repeat a subset of its checks on the
    same concrete algebra, and the full sweep does not fit in one run.  Every
    pass is the same job list, so pass times are comparable."""

    name = "sweep"

    def pass_key(self, index: int) -> str:
        return "pass"

    def setup(self, api, tr, seed: int, index: int):
        jobs = []
        for size in SWEEP_SIZES:
            for name in SWEEP_FRAGMENTS:
                if size < 2 or name == "fo+eq":
                    fragment = api.parse_fragment(name)
                    jobs.append((size, fragment, api.concrete(api.Universe(size), fragment, 3)))
        return jobs, api.Bounds(max_sort=3, seed=seed)

    def run(self, p, inputs) -> None:
        jobs, bounds = inputs
        for size, fragment, algebra in jobs:
            p.algebras.append(algebra)
            for ax in p.api.applicable_axioms(fragment):
                report = p.job(f"|W|={size} {fragment} ax{ax}",
                               lambda: p.check_axiom(algebra, ax, bounds),
                               lambda r: expect(r.ok, "FAIL"))
                if report is not None:
                    p.answers.append([size, str(fragment), ax, report.ok, report.instances_checked,
                                      report.params_checked, mode_kind(report)])


class Closure:
    """scripts/run_gallery.py in its order, plus the sampled axiom (0) run on
    the pe-theory algebra that must find violations."""

    name = "closure"

    def pass_key(self, index: int) -> str:
        return "pass"

    def setup(self, api, tr, seed: int, index: int):
        return api.Bounds(max_sort=2, samples=10**4, seed=seed)

    def run(self, p, bounds) -> None:
        api, tr = p.api, p.tracer
        built = p.job("gallery_diamond", lambda: tr.call("axioms.gallery_diamond", api.gallery_diamond),
                      lambda r: expect(len(r[1].violations) == 1, "diamond has no violation"))
        if built is not None:
            diamond, report = built
            p.algebras.append(diamond)
            p.answers.append(["diamond", list(report.violations[0].slot_values)])
            self._axioms(p, diamond, range(1, 7), bounds)
        built = p.job("gallery_pe_theory",
                      lambda: tr.call("axioms.gallery_pe_theory", api.gallery_pe_theory),
                      lambda r: expect([r[0].sort_size(n) for n in range(3)] == PE_SORT_SIZES,
                                       "pe-theory sort sizes differ from [2, 10, 706]"))
        if built is None:
            return
        pe, report = built
        p.algebras.append(pe)
        p.counts["algebras.closure_elements"] += sum(pe.sort_size(n) for n in range(3))
        p.answers.append(["pe-theory", [[pe.witness_term(n, a) for a in range(pe.sort_size(n))]
                                        for n in range(3)]])
        instance = report.violations[0]
        p.job("replay gallery instance",
              lambda: tr.call("axioms.replay_instance", api.replay_instance, pe, instance, bounds),
              lambda r: expect(r is True, "gallery instance does not reproduce"))
        p.answers.append(["pe-theory instance", list(instance.slot_values)])
        sampled = p.job("pe-theory ax0", lambda: p.check_axiom(pe, 0, bounds),
                        lambda r: expect(not r.ok and mode_kind(r) == "sampled",
                                         "sampled axiom (0) found no violation"))
        if sampled is not None:
            p.answers.append([0, sampled.ok, sampled.instances_checked, mode_kind(sampled)])
        if sampled is not None and sampled.violations:
            first = sampled.violations[0]
            p.job("replay sampled ax0 violation",
                  lambda: tr.call("axioms.replay_instance", api.replay_instance, pe, first, bounds),
                  lambda r: expect(r is True, "sampled violation does not reproduce"))
        self._axioms(p, pe, PE_AXIOMS, bounds)

    def _axioms(self, p, algebra, axioms, bounds) -> None:
        for ax in axioms:
            report = p.job(f"{algebra.provenance} ax{ax}", lambda: p.check_axiom(algebra, ax, bounds),
                           lambda r: expect(r.ok, "FAIL"))
            if report is not None:
                p.answers.append([ax, report.ok, report.instances_checked, mode_kind(report)])


class Duality:
    """Sort lattices and prime filters on Boolean sorts, in concrete and
    table form, then verified embeddings and the diamond obstruction.  The
    inputs are fixed; the seed does not enter."""

    name = "duality"

    def pass_key(self, index: int) -> str:
        return "pass"

    def setup(self, api, tr, seed: int, index: int):
        w1, w2, w3 = api.Universe(1), api.Universe(2), api.Universe(3)
        c23 = tr.call("algebras.concrete", api.concrete, w2, api.FO, 3)
        c32 = tr.call("algebras.concrete", api.concrete, w3, api.FO, 2)
        lattices = [("concrete(2) sort 3", c23, 3, 2**3), ("concrete(3) sort 2", c32, 2, 3**2),
                    ("tables(2) sort 3", tables(api, tr, c23), 3, 2**3),
                    ("tables(3) sort 2", tables(api, tr, c32), 2, 3**2)]
        embeds = []
        for fragment in (api.PQF, api.QF, api.PE, api.FO):
            for universe, bound, scope in ((w1, 2, 2), (w2, 1, 1)):
                base = tr.call("algebras.concrete", api.concrete, universe, fragment, bound)
                embeds.append((f"{fragment} |W|={universe.size} scope {scope}",
                               tables(api, tr, base, with_extension=True), scope))
        diamond, _ = tr.call("axioms.gallery_diamond", api.gallery_diamond)
        cap_case = tables(api, tr, tr.call("algebras.concrete", api.concrete, w1, api.PE, 3),
                          with_extension=True)
        return lattices, embeds, diamond, cap_case

    def run(self, p, inputs) -> None:
        api, tr = p.api, p.tracer
        lattices, embeds, diamond, cap_case = inputs
        for label, algebra, sort, atoms in lattices:
            p.algebras.append(algebra)
            started = p.now()
            lattice = p.job(f"sort_lattice {label}",
                            lambda: tr.call("filters.sort_lattice", api.sort_lattice, algebra, sort))
            if lattice is None:
                continue
            filters = p.job(f"prime_filters {label}",
                            lambda: tr.call("filters.prime_filters", api.prime_filters, lattice),
                            lambda r: expect(len(r) == len(lattice.join_irreducibles) == atoms,
                                             f"prime filters, join-irreducibles and atoms differ "
                                             f"from {atoms}"))
            p.add_work(lattice.size, p.now() - started)
            p.counts["filters.lattice_elements"] += lattice.size
            p.counts["filters.join_irreducibles"] += len(lattice.join_irreducibles)
            if filters is not None:
                p.answers.append([label, [pf.generator for pf in filters]])
        for label, algebra, scope in embeds:
            p.algebras.append(algebra)
            cert = p.job(f"embed {label}", lambda: self._embed(p, algebra, scope),
                         lambda r: expect(r.status == "full" and r.injective,
                                          f"certificate is {r.status}, injective={r.injective}"))
            if cert is not None:
                p.answers.append([label, cert.status, cert.injective, cert.target_size,
                                  cert.rounds_used, cert.transcript])
        p.algebras.append(diamond)
        outcome = p.job("embed diamond", lambda: self._obstruction(p, diamond),
                        lambda r: expect(r[:2] == ["obstruction", 0],
                                         "diamond did not raise ObstructionError at axiom (0)"))
        if outcome is not None:
            p.answers.append(["diamond", outcome])
        # ROADMAP item 2: this embedding should be full and injective, but the
        # verification target trips the element cap.  It runs as a probe so
        # that the defect shows (per-layer error_rate) without failing the run.
        p.probe("embed concrete(1) pe sort 3 scope 2 (cap defect)",
                lambda: self._embed(p, cap_case, 2),
                lambda r: expect(r.status == "full" and r.injective,
                                 f"certificate is {r.status}, injective={r.injective}"))

    def _embed(self, p, algebra, scope):
        cert = p.tracer.call("representation.embed", p.api.embed, algebra, scope=scope)
        p.counts["representation.target_size"] += cert.target_size
        return cert

    def _obstruction(self, p, algebra):
        try:
            self._embed(p, algebra, 2)
        except p.api.ObstructionError as exc:
            return ["obstruction", exc.axiom_id, list(exc.shape or ())]
        return ["embedded"]


class FoEval:
    """Random formulas over seeded random structures, cross-checked through
    print/parse, the compiled evaluator and the naive one.  Every pass
    evaluates the same formulas; pass 0 evaluates them on fixed reference
    structures and its answers are digested, later passes draw their
    structures from the seed."""

    name = "fo-eval"

    def pass_key(self, index: int) -> str | None:
        return "reference" if index == 0 else None

    def setup(self, api, tr, seed: int, index: int):
        # One formula batch for every pass of every run: its cost is set by
        # a few heavy formulas, so batches that differ from pass to pass make
        # the median pass time swing.  The seed draws the structures.
        shapes = Random(FO_FORMULAS)
        values = Random("fo-eval/reference" if index == 0 else f"fo-eval/{seed}/{index}")
        signature = api.Signature((("P", 1), ("E", 2), ("T", 3)))
        batch = []
        for size in FO_SIZES:
            structure = api.random_structure(values, signature, size)
            drawn = 0
            while drawn < FO_PER_SIZE:
                formula = api.random_formula(shapes, signature, shapes.randint(1, 3), 5)
                if max_arity(api.compile_fo(formula)) <= FO_MAX_ARITY:
                    batch.append((structure, formula))
                    drawn += 1
        return signature, batch

    def run(self, p, inputs) -> None:
        printer = p.api.formulas.print_fo
        signature, batch = inputs
        for i, (structure, formula) in enumerate(batch):
            started = p.now()
            outcome = p.job(f"formula {i}",
                            lambda: self._cross_check(p, printer, signature, structure, formula),
                            lambda r: r[2])
            if outcome is not None:
                p.add_work(1, p.now() - started)
                p.answers.append([structure.universe.size, outcome[0], outcome[1]])

    def _cross_check(self, p, printer, signature, structure, formula):
        """(printed text, result bits, problem or None); records the eval_term latency."""
        api, tr = p.api, p.tracer
        text = tr.call("formulas.print_fo", printer, formula)
        parsed = tr.call("formulas.parse_fo", api.parse_fo, text, signature)
        if parsed != formula:
            return text, None, "print/parse round trip changed the formula"
        term = tr.call("formulas.compile_fo", api.compile_fo, parsed)
        started = p.now()
        compiled = tr.call("formulas.eval_term", api.eval_term, term, structure)
        p.latencies.append((p.now() - started) * 1e3)
        naive = tr.call("formulas.eval_fo_naive", api.eval_fo_naive, formula, structure)
        if compiled != naive:
            return text, compiled.bits, f"evaluators disagree on {text!r}"
        if tr.enabled:
            nodes = term_nodes(term)
            size = structure.universe.size
            p.counts["formulas.term_nodes"] += len(nodes)
            p.counts["relations.tuples_materialized"] += sum(size**n.sort for n in nodes)
        return text, compiled.bits, None


def tables(api, tr, algebra, with_extension=False):
    return tr.call("algebras.as_table_algebra", api.as_table_algebra, algebra,
                   with_extension=with_extension)


def term_nodes(term) -> list:
    out = [term]
    for field in dataclasses.fields(term):
        child = getattr(term, field.name)
        if dataclasses.is_dataclass(child) and hasattr(child, "sort"):
            out += term_nodes(child)
    return out


def max_arity(term) -> int:
    return max(node.sort for node in term_nodes(term))


WORKLOADS = {w.name: w for w in (Sweep(), Closure(), Duality(), FoEval())}
