"""Smoke test of the benchmark itself, at its shortest run length.

    python3 bench/smoke.py

Runs every workload timed for one second, and the two fast workloads
(duality, fo-eval) traced.  Each run must exit 0 with a correct result as its
last stdout line, carrying every metric BENCHMARK.json names for that mode,
each with its declared unit.  Takes about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACED = ("duality", "fo-eval")


def run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if out.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} exited {out.returncode}:\n{out.stdout}{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1) if workload in TRACED else (0,):
            result = run(workload, trace)
            declared = spec["per_layer" if trace else "end_to_end"]
            emitted = result["metrics"]
            if not result["correct"] or result["attempted"] < 1:
                failures.append(f"{workload} trace={trace}: result not correct: {result}")
            for metric in declared:
                got = emitted.get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    failures.append(f"{workload} trace={trace}: {metric['name']} [{metric['unit']}] "
                                    f"emitted as {got}")
            extra = set(emitted) - {m["name"] for m in declared}
            if extra:
                failures.append(f"{workload} trace={trace}: undeclared metrics {sorted(extra)}")
            print(f"{workload} trace={trace}: {len(emitted)} metrics")
    for failure in failures:
        print(failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
