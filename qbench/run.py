"""qcorr benchmark: one workload, one seed, one closed-loop client.

    python3 qbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository: the package is imported from the
checkout's ``src`` and nowhere else.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Diagnostics go to stderr.

Set-up (import of qcorr, the workload's reference answers, one warm-up job
of each kind, round 0's inputs and their answers) runs three times and
``setup_s`` is the median.  Then whole rounds of jobs run back to back, each
job timed on its own and checked after its timer stops, until ``--seconds``
have passed and at least ``MIN_JOBS`` jobs have run.  With ``--trace 1`` every other round is traced, and the
untraced rounds between them give the base for the tracing overhead.
Every reported time is scaled to a reference machine speed (``Speed``).
"""

from __future__ import annotations

import argparse
import bisect
import ctypes
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

from metrics import latency_summary, layer_metrics
from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".qbench"
SETUP_REPEATS = 3
# A run goes on past --seconds until it has this many jobs, so that p90 has
# at least ten samples beyond it even when the host is slow.
MIN_JOBS = 100
# Time of one calibration slice at quiet moments (the 10th percentile of 400
# slices) on the 2-core x86-64 sandbox the bounds were set on, Python 3.11,
# numpy 2.4; and the wall time between slices.
CAL_REF_S = 0.0043
CAL_EVERY_S = 0.1


def environment() -> dict:
    """Python, numpy, BLAS library and thread count, and cores."""
    env = {"python": sys.version.split()[0], "numpy": np.__version__, "nproc": os.cpu_count()}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        env["blas"] = "unknown"
    env["blas_threads"] = _openblas_threads()
    return env


def _openblas_threads():
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return "unknown"
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def fresh_qcorr():
    """Import qcorr from the checkout, dropping any earlier import first."""
    for key in [k for k in sys.modules if k == "qcorr" or k.startswith("qcorr.")]:
        del sys.modules[key]
    q = importlib.import_module("qcorr")
    importlib.import_module("qcorr.cli")
    if not Path(q.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"qcorr imported from {q.__file__}, not from {SRC}")
    return q


def run_job(job):
    """(start, end, cpu s, error or None, output) for one timed, then
    checked, job."""
    c0 = process_time()
    t0 = perf_counter()
    try:
        out = job.run()
        err = None
    except Exception as exc:  # an unexpected raise is a failed job, not a crash
        out, err = None, f"raised {exc!r}"
    t1 = perf_counter()
    c1 = process_time()
    if err is None:
        try:
            err = job.check(out)
        except Exception as exc:
            err = f"check raised {exc!r}"
    return t0, t1, c1 - c0, err, out


_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)


def calibrate() -> float:
    """Seconds for a fixed slice of work shaped like the package's own:
    single-qubit tensordots on a 5-qubit state and a dict-grouping loop.
    It uses no qcorr code, so a change to the package cannot move it."""
    t0 = perf_counter()
    state = np.arange(32, dtype=complex)
    for i in range(150):
        psi = np.moveaxis(state.reshape((2,) * 5), i % 5, 0)
        out = np.tensordot(_H, psi, axes=([1], [0]))
        state = np.moveaxis(out, 0, i % 5).reshape(-1)
    groups = {}
    for q in range(10000):
        groups.setdefault((q * 7919) % 64, []).append(q)
    return perf_counter() - t0


class Speed:
    """Machine speed over the run, from calibration slices taken between
    jobs once ``CAL_EVERY_S`` has passed since the last one.

    The host is shared, and its speed swings by tens of percent within a
    second as other tenants load it.  Every reported time is
    scaled by ``CAL_REF_S / c``, with c the mean of the slices just before
    and just after the timed interval.  This puts the time at the
    reference speed, so runs made at different moments stay comparable.
    """

    def __init__(self):
        self.ends: list[float] = []
        self.secs: list[float] = []
        self.take()

    def take(self):
        secs = calibrate()
        self.ends.append(perf_counter())
        self.secs.append(secs)

    def due(self) -> bool:
        return perf_counter() - self.ends[-1] >= CAL_EVERY_S

    def scale(self, start: float, end: float) -> float:
        """Factor that takes a time measured in [start, end] to reference speed."""
        before = bisect.bisect_right(self.ends, start) - 1
        after = min(bisect.bisect_left(self.ends, end), len(self.ends) - 1)
        return CAL_REF_S / ((self.secs[max(before, 0)] + self.secs[after]) / 2)


def set_up(workload: str, seed: int, workdir: Path, speed: Speed):
    """Import, build the workload, warm up, make round 0.

    Returns the set-up time at reference speed: each phase is timed on its
    own and scaled by the calibration slices around it.
    """
    total = 0.0

    def phase(fn):
        nonlocal total
        t0 = perf_counter()
        result = fn()
        t1 = perf_counter()
        speed.take()
        total += (t1 - t0) * speed.scale(t0, t1)
        return result

    q = phase(fresh_qcorr)
    wl = phase(lambda: WORKLOADS[workload](q, seed, workdir))
    errors = []
    for job in phase(wl.warmup):
        err = phase(lambda: run_job(job))[3]
        if err is not None:
            errors.append(f"warm-up {job.kind}: {err}")
    first = phase(lambda: wl.round(0))
    return total, q, wl, first, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "qcorr" / "__init__.py").is_file():
        print(f"error: no qcorr package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print("env: " + json.dumps(environment()), file=sys.stderr)

    workdir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path) -> int:
    speed = Speed()
    setups = []
    for _ in range(SETUP_REPEATS):
        seconds, q, wl, jobs, warm_errors = set_up(args.workload, args.seed, workdir, speed)
        setups.append(seconds)
    errors = list(warm_errors)

    tracer = Tracer() if args.trace else None
    # Per side (False untraced, True traced): raw walls, scaled walls and
    # cpu times, failures.
    raw = {False: [], True: []}
    lat = {False: [], True: []}
    cpu = {False: 0.0, True: 0.0}
    failed = {False: 0, True: 0}
    by_kind: dict[str, list[float]] = {}
    start = perf_counter()
    r = 0
    while True:
        traced = bool(args.trace) and r % 2 == 1
        if traced:
            tracer.attach(q)
        try:
            for job in jobs:
                if speed.due():
                    speed.take()
                if traced:
                    tracer.job = f"r{r}.{len(lat[True])}"
                t0, t1, cpu_s, err, out = run_job(job)
                raw[traced].append((t0, t1, cpu_s))
                by_kind.setdefault(job.kind, []).append(t1 - t0)
                if err is not None:
                    failed[traced] += 1
                    if len(errors) < 20:
                        errors.append(f"round {r} {job.kind} {job.key!r:.120}: {err}")
                elif traced and job.counts is not None:
                    for name, value in job.counts(out).items():
                        tracer.count(name, value)
        finally:
            if traced:
                tracer.detach()
        r += 1
        done = len(raw[False]) + len(raw[True])
        if (perf_counter() - start >= args.seconds and done >= MIN_JOBS
                and (r >= 2 or not args.trace)):
            break
        jobs = wl.round(r)
    speed.take()

    for side, samples in raw.items():
        for t0, t1, cpu_s in samples:
            factor = speed.scale(t0, t1)
            lat[side].append((t1 - t0) * factor)
            cpu[side] += cpu_s * factor

    for line in errors:
        print("FAIL " + line, file=sys.stderr)
    for kind, walls in sorted(by_kind.items(), key=lambda kv: statistics.median(kv[1])):
        print(f"  {kind:20s} {len(walls):5d} jobs, raw median {statistics.median(walls):.6f} s",
              file=sys.stderr)
    all_lat = lat[False] + lat[True]
    attempted = len(all_lat)
    n_failed = failed[False] + failed[True]
    passed = attempted - n_failed
    raw_wall = sum(t1 - t0 for side in raw.values() for t0, t1, _ in side)
    summary = latency_summary(all_lat)
    print(f"calibration: {len(speed.secs)} slices, median {statistics.median(speed.secs):.6f} s "
          f"(reference {CAL_REF_S} s); raw jobs_per_s {passed / raw_wall:.4f}", file=sys.stderr)
    print(f"rounds {r}, jobs {attempted}, p90 from {summary['n']} samples with "
          f"{summary['beyond_p90']} beyond it, scaled setups {setups}", file=sys.stderr)

    if args.trace:
        rates = [(len(lat[side]) - failed[side]) / sum(lat[side]) for side in (True, False)]
        time_scale = sum(lat[True]) / sum(t1 - t0 for t0, t1, _ in raw[True])
        metrics = layer_metrics(tracer.totals, len(lat[True]), *rates, time_scale)
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(span_file)
        print(f"{len(tracer.spans)} spans written to {span_file}", file=sys.stderr)
    else:
        metrics = {
            "jobs_per_s": {"value": passed / sum(all_lat), "unit": "1/s"},
            "job_s_p50": {"value": summary["p50"], "unit": "s"},
            "job_s_p90": {"value": summary["p90"], "unit": "s"},
            "cpu_s_per_job": {"value": (cpu[False] + cpu[True]) / attempted, "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
            "pass_frac": {"value": passed / attempted, "unit": "frac"},
        }
    print(json.dumps({
        "correct": n_failed == 0 and not warm_errors,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
