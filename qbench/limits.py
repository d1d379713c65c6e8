"""Documented-limits probe: each CLI size limit from the README and each
size target from the ROADMAP, run once with a time budget.  Not gated.

    python3 qbench/limits.py --budget 60

Rows run one after another, each in its own child process
(``python -m qcorr.cli`` on the checkout's ``src``).  A row that has not
finished within the budget is killed and reported as "over budget".  One
JSON object per row is printed as it finishes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def rows(workdir: Path, rng: np.random.Generator):
    """(name, argv) for every probed size."""
    for n in (4, 5, 6):
        yield f"speedup bv n={n}", ["speedup", "--problem", "bv", "--n", str(n)]
    yield "complexity parity n=2 OS", ["complexity", "--problem", "parity", "--n", "2", "--oracle", "OS"]
    for n in (5, 6):
        yield f"complexity bv n={n} OS", ["complexity", "--problem", "bv", "--n", str(n), "--oracle", "OS"]
    for m in range(8, 14):
        path = workdir / f"bv{m - 1}.json"
        k = [int(b) for b in rng.integers(0, 2, m - 1)]
        path.write_text(json.dumps({"n": m - 1, "k0": 0, "k": k}))
        yield (f"counterparts GRID m={m}",
               ["counterparts", "--oracle", "standard", "--bv", str(path), "--bases", "GRID"])
    k = "".join(str(int(b)) for b in rng.integers(0, 2, 16))
    yield "simulate bv n=16", ["simulate", "--algorithm", "bv", "--k", k]
    truth = "".join(str(int(b)) for b in rng.integers(0, 2, 1 << 12))
    yield "simulate parity n=12", ["simulate", "--algorithm", "parity", "--truth", truth]


def probe(argv: list[str], budget: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf_counter()
    try:
        done = subprocess.run([sys.executable, "-m", "qcorr.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=budget)
    except subprocess.TimeoutExpired:  # the child has been killed and reaped
        return {"status": "over budget", "seconds": perf_counter() - t0}
    return {"status": "ok" if done.returncode == 0 else f"exit {done.returncode}",
            "seconds": perf_counter() - t0, "stdout": done.stdout[:200],
            "stderr": done.stderr[-200:]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--budget", type=float, default=60.0, help="seconds per row")
    args = parser.parse_args(argv)
    if not (SRC / "qcorr" / "__init__.py").is_file():
        print(f"error: no qcorr package under {SRC}", file=sys.stderr)
        return 2
    workdir = ROOT / ".qbench" / f"limits-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        for name, row_argv in rows(workdir, np.random.default_rng(0)):
            result = probe(row_argv, args.budget)
            print(json.dumps({"row": name, "budget_s": args.budget, **result}), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
