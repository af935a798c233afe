import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_run_soundness_stdout_is_reproducible():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    runs = [
        subprocess.run([sys.executable, str(ROOT / "scripts" / "run_soundness.py"),
                        "--sizes", "0", "--max-sort", "1"],
                       capture_output=True, env=env, timeout=120, check=True)
        for _ in range(2)
    ]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.decode().splitlines()[-1] == "total: 0 failing axiom run(s)"
    assert runs[0].stderr.decode().startswith("elapsed: ")
