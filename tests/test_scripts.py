import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str, check: bool = True) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, env=env, timeout=120, check=check)


def test_run_soundness_stdout_is_reproducible():
    runs = [run_script("run_soundness.py", "--sizes", "0", "--max-sort", "1") for _ in range(2)]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.decode().splitlines()[-1] == "total: 0 failing axiom run(s)"
    assert runs[0].stderr.decode().startswith("elapsed: ")


@pytest.mark.parametrize("name", ["run_embeddings", "run_gallery", "run_soundness"])
def test_script_stdout_matches_golden(name):
    """Default arguments; the goldens are tests/<name>.out, and stderr holds
    only the elapsed time."""
    run = run_script(f"{name}.py", check=False)
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout.decode() == (ROOT / "tests" / f"{name}.out").read_text()
    assert re.fullmatch(r"elapsed: \d+\.\d+s\n", run.stderr.decode())
