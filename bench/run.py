"""relalg benchmark.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Runs one workload (sweep, closure, duality, fo-eval; see workloads.py) against
this checkout's src/, single-threaded in this process, and checks every
answer.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

--trace 0 is the timed run: it repeats the workload's job list ("a pass")
until --seconds have passed, each pass on a fresh import of relalg, and
reports the end-to-end metrics (medians over passes).  Its times are scaled
to the reference host speed (see speed.py).  --trace 1 is the
per-layer run: pass 0 once untraced, then twice with spans and counters,
then the microbenchmarks.  It fails when the two traced passes count
differently or when any pass's answers differ from the untraced one.

Recorded answer digests, the layer map and the seed baselines are in
expected.json.  Outputs go to bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
MIN_SETUPS = 10

sys.path.insert(0, str(BENCH))

from microbench import algebra_ops, kernels  # noqa: E402
from speed import SpeedClock  # noqa: E402
from tracing import LAYERS, NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS, mode_kind  # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB", "work_per_s": "1/s"}


class SetupError(Exception):
    pass


def load_relalg():
    """Import relalg afresh from this checkout's src/ and return the package.

    Every pass re-imports, so module-level caches start empty as they do for a
    script run, and no pass warms the next."""
    for name in [m for m in sys.modules if m == "relalg" or m.startswith("relalg.")]:
        del sys.modules[name]
    relalg = importlib.import_module("relalg")
    if not Path(relalg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"relalg imported from {relalg.__file__}, not from {SRC}")
    return relalg


class Pass:
    """One run of a workload's job list: answers, failures, timings, counts."""

    def __init__(self, api, tracer, clock=None):
        self.api = api
        self.tracer = tracer
        self.clock = clock  # SpeedClock of the timed run
        self.algebras = []
        self.answers = []
        self.counts: Counter = Counter()
        self.latencies: list[float] = []  # ms per eval_term call (fo-eval)
        self.attempted = self.failed = 0
        self.probes = self.probes_failed = 0
        self.messages: list[str] = []
        self.units = 0
        self.unit_s = 0.0

    def _attempt(self, name, fn, check):
        try:
            with self.tracer.job(name):
                value = fn()
        except Exception as exc:  # a job that raises is a failed job; the run goes on
            return None, f"{name}: raised {type(exc).__name__}: {exc}"
        problem = check(value) if check else None
        return (None, f"{name}: {problem}") if problem else (value, None)

    def job(self, name, fn, check=None):
        """Run and check one job; None when it raised or answered wrongly."""
        self.attempted += 1
        value, problem = self._attempt(name, fn, check)
        if problem:
            self.failed += 1
            self.messages.append(problem)
        return value

    def probe(self, name, fn, check) -> None:
        """A job with a known defect: its outcome is reported, but it is kept
        out of attempted/failed and the digest."""
        self.probes += 1
        _, problem = self._attempt(name, fn, check)
        if problem:
            self.probes_failed += 1
            self.messages.append(f"known defect: {problem}")

    def now(self) -> float:
        """Seconds for timing work: the clock stops while the host speed is calibrated."""
        return self.clock.now() if self.clock is not None else perf_counter()

    def add_work(self, units, seconds) -> None:
        self.units += units
        self.unit_s += seconds

    def check_axiom(self, algebra, axiom, bounds):
        started = self.now()
        report = self.tracer.call(f"axioms.check.ax{axiom}", self.api.check_axiom,
                                  algebra, axiom, bounds)
        self.add_work(report.instances_checked, self.now() - started)
        self.counts[f"axioms.instances.ax{axiom}"] += report.instances_checked
        self.counts[f"axioms.{mode_kind(report)}_instances"] += report.instances_checked
        return report

    @property
    def digest(self) -> str:
        blob = json.dumps(self.answers, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def instrument(tracer: Tracer, api) -> None:
    """Install spans and counters on the freshly imported relalg.  Spans go on
    the public names each module looks up at call time; hot per-element
    algebra operations are counted only."""
    algebras, axioms, filters = api.algebras, api.axioms, api.filters
    representation, formulas = api.representation, api.formulas
    for cls_name, kind in (("ConcreteAlgebra", "concrete"), ("ProductAlgebra", "product"),
                           ("GeneratedSubalgebra", "generated"), ("TableAlgebra", "table")):
        cls = getattr(algebras, cls_name, None)
        if cls is not None:
            tracer.count_ops(cls, kind)
    tracer.patch(axioms, "generated_subalgebra", "algebras.closure")
    for name in ("rel_apply", "exists_last", "meet", "join", "complement", "top", "bottom", "delta"):
        tracer.patch(formulas, name, f"relations.{name}", count=lambda r: ("relations.calls", 1))
    tracer.patch(filters, "is_prime_filter", "filters.is_prime_filter")
    tracer.patch(representation, "sum_filters", "filters.sum_filters")
    tracer.patch(representation, "verify_morphism", "algebras.verify_morphism",
                 count=lambda r: ("algebras.verify_morphism_checks", r.checks))
    tracer.patch(representation, "master_filter_model", "representation.master_filter_model",
                 count=lambda r: ("representation.separating_family", len(r[1])))
    tracer.patch(representation, "saturate", "representation.saturate",
                 count=lambda r: ("representation.saturate_rounds", r.rounds_used))
    base = getattr(axioms, "Random", None)
    if base is not None:
        # the two clock reads cost about as much as a draw; take them off
        started = perf_counter()
        for _ in range(10**5):
            perf_counter() - perf_counter()
        clock_s = (perf_counter() - started) / 10**5
        tracer.sampler_s = 0.0

        class TimingRandom(base):
            """Draws the same stream as Random; adds the time of each draw."""

            def randrange(self, *args):
                started = perf_counter()
                try:
                    return super().randrange(*args)
                finally:
                    tracer.sampler_s += perf_counter() - started - clock_s

        axioms.Random = TimingRandom


def run_pass(workload, seed: int, index: int, tracer) -> tuple[Pass, float, float]:
    """One pass on a fresh import; returns it with its set-up and wall seconds."""
    started = perf_counter()
    api = load_relalg()
    if tracer.enabled:
        instrument(tracer, api)
    inputs = workload.setup(api, tracer, seed, index)
    setup_s = perf_counter() - started
    p = Pass(api, tracer)
    started = perf_counter()
    workload.run(p, inputs)
    return p, setup_s, perf_counter() - started


def timed_pass(workload, seed: int, index: int):
    """One untraced pass on a fresh import, timed by a SpeedClock.  Returns
    the pass, the (measured, scaled) seconds of its set-up and of its jobs."""
    with SpeedClock() as clock:
        api = load_relalg()
        inputs = workload.setup(api, NullTracer(), seed, index)
        setup = clock.lap()
        p = Pass(api, NullTracer(), clock)
        workload.run(p, inputs)
        return p, setup, clock.lap()


def check_digest(workload, index: int, p: Pass, expected: dict) -> str | None:
    key = workload.pass_key(index)
    if key is None:
        return None
    want = expected.get(workload.name, {}).get(key)
    print(f"digest {workload.name}/{key}: {p.digest}")
    if want != p.digest:
        return f"answer digest for {workload.name}/{key} is {p.digest}, expected {want}"
    return None


def timed_run(workload, seed: int, seconds: float, expected: dict):
    setups, walls, measured, rates, problems = [], [], [], [], []
    attempted = failed = 0
    deadline = perf_counter() + seconds
    index = 0
    # a pass starts only if one as long as the last still ends in time
    while not walls or perf_counter() + measured[-1] < deadline:
        p, (_, setup_s), (measured_s, wall_s) = timed_pass(workload, seed, index)
        problem = check_digest(workload, index, p, expected)
        problems += p.messages + ([problem] if problem else [])
        setups.append(setup_s)
        walls.append(wall_s)
        measured.append(measured_s)
        attempted, failed = attempted + p.attempted, failed + p.failed
        # units per scaled second; 0 when every job failed
        rates.append(p.units / p.unit_s * measured_s / wall_s if p.unit_s else 0.0)
        index += 1
        del p  # so that peak memory is that of one pass, however many run
        gc.collect()
    while len(setups) < MIN_SETUPS:
        with SpeedClock() as clock:
            workload.setup(load_relalg(), NullTracer(), seed, index)
            setups.append(clock.lap()[1])
        index += 1
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "work_per_s": statistics.median(rates),
    }
    print(f"passes: {len(walls)}, set-ups: {len(setups)}")
    print(json.dumps({"pass_wall_s": walls, "pass_measured_s": measured,
                      "pass_work_per_s": rates, "setup_s": setups}))
    return attempted, failed, problems, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


COUNT_METRICS = (
    ["relations.calls", "relations.tuples_materialized"]
    + [f"algebras.{k}.op_calls" for k in ("concrete", "product", "generated", "table")]
    + ["algebras.closure_elements", "algebras.verify_morphism_checks"]
    + [f"axioms.instances.ax{n}" for n in range(14)]
    + ["axioms.sampled_instances", "axioms.exhaustive_instances"]
    + ["filters.lattice_elements", "filters.join_irreducibles"]
    + ["representation.saturate_rounds", "representation.separating_family",
       "representation.target_size", "formulas.term_nodes"]
)
SPAN_METRICS = {
    "algebras.closure_s": "algebras.closure",
    "algebras.tabulate_s": "algebras.as_table_algebra",
    "algebras.verify_morphism_s": "algebras.verify_morphism",
    **{f"axioms.check_s.ax{n}": f"axioms.check.ax{n}" for n in range(14)},
    "filters.sort_lattice_s": "filters.sort_lattice",
    "filters.prime_filters_s": "filters.prime_filters",
    "filters.is_prime_filter_s": "filters.is_prime_filter",
    "filters.sum_filters_s": "filters.sum_filters",
    "representation.embed_s": "representation.embed",
    "representation.master_filter_s": "representation.master_filter_model",
    "representation.saturate_s": "representation.saturate",
    "formulas.parse_s": "formulas.parse_fo",
    "formulas.compile_s": "formulas.compile_fo",
    "formulas.eval_term_s": "formulas.eval_term",
    "formulas.eval_naive_s": "formulas.eval_fo_naive",
}


def layer_times(p: Pass) -> dict[str, float]:
    tracer = p.tracer
    spans = tracer.durations()
    out = {metric: spans.get(name, 0.0) for metric, name in SPAN_METRICS.items()}
    out.update({f"{layer}.self_s": s for layer, s in tracer.self_times().items() if layer in LAYERS})
    out["axioms.sampler_s"] = getattr(tracer, "sampler_s", 0.0)
    return out


def traced_run(workload, seed: int, expected: dict, metadata: dict):
    p, _, base_wall = run_pass(workload, seed, 0, NullTracer())
    problem = check_digest(workload, 0, p, expected)
    problems = p.messages + ([problem] if problem else [])
    base_digest = p.digest
    latency = {"formulas.eval_p50_ms": 0.0, "formulas.eval_p90_ms": 0.0}
    if len(p.latencies) >= 100:  # p90 with at least ten samples beyond it
        deciles = statistics.quantiles(p.latencies, n=10, method="inclusive")
        latency = {"formulas.eval_p50_ms": deciles[4], "formulas.eval_p90_ms": deciles[8]}
    runs = [(p.attempted, p.failed, p.probes, p.probes_failed)]
    counts, times, walls = [], [], []
    for _ in range(2):
        del p  # one pass in memory at a time
        gc.collect()
        p, _, wall_s = run_pass(workload, seed, 0, Tracer())
        p.counts.update(p.tracer.counts)
        problems += p.messages
        if p.digest != base_digest:
            problems.append("traced answers differ from the untraced pass")
        runs.append((p.attempted, p.failed, p.probes, p.probes_failed))
        counts.append({k: v for k, v in p.counts.items() if v})
        times.append(layer_times(p))
        walls.append(wall_s)
    if counts[0] != counts[1]:
        diff = sorted(k for k in counts[0].keys() | counts[1].keys()
                      if counts[0].get(k) != counts[1].get(k))
        problems.append(f"traced counts differ between two passes: {diff}")
    metrics = {k: (statistics.fmean(t[k] for t in times), "s") for k in times[0]}
    check_s = sum(v for k, (v, _) in metrics.items() if k.startswith("axioms.check_s."))
    metrics["axioms.sampler_share"] = (metrics["axioms.sampler_s"][0] / check_s if check_s else 0.0,
                                       "ratio")
    metrics.update({k: (counts[1].get(k, 0), "count") for k in COUNT_METRICS})
    metrics.update({k: (v, "ms") for k, v in latency.items()})
    metrics["trace.overhead_ratio"] = (statistics.fmean(walls) / base_wall, "ratio")
    attempted, failed, probes, probes_failed = (sum(column) for column in zip(*runs))
    metrics["error_rate"] = ((failed + probes_failed) / (attempted + probes), "ratio")
    metrics.update({k: (v, "ns") for k, v in algebra_ops(p.api, p.algebras, seed).items()})
    OUT.mkdir(exist_ok=True)
    p.tracer.dump(OUT / f"spans-{workload.name}-seed{seed}.jsonl", metadata)
    del p
    metrics.update({k: (v, "ns") for k, v in kernels(load_relalg, seed).items()})
    return attempted, failed, problems, metrics


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def src_lines() -> int:
    return sum(len(path.read_text().splitlines()) for path in sorted(SRC.rglob("*.py")))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "relalg" / "__init__.py").is_file():
        print(f"error: no relalg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        load_relalg()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    expected = json.loads((BENCH / "expected.json").read_text())["digests"]
    metadata = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
                "python": platform.python_version(), "cores": os.cpu_count(),
                "git_sha": git_sha(), "src_lines": src_lines()}
    print(json.dumps({"metadata": metadata}))

    if args.trace:
        attempted, failed, problems, metrics = traced_run(workload, args.seed, expected, metadata)
    else:
        attempted, failed, problems, metrics = timed_run(workload, args.seed, args.seconds, expected)
    for message, times in Counter(problems).items():
        print(message + (f" ({times} times)" if times > 1 else ""))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    correct = not any(not m.startswith("known defect:") for m in problems)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"metadata": metadata, "problems": problems, **result}, indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
