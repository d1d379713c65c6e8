"""Tests for the benchmark's own code: seeded generation, the output checks,
the percentile helper, the tracer and the output contract of run.py.

    python3 -m pytest qbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import qcorr
import qcorr.cli  # noqa: F401  (workloads reach the CLI as qcorr.cli)
import reference as ref
from metrics import PER_LAYER, latency_summary
from tracing import Tracer
from workloads import WORKLOADS, Audit, Cli, Grid, Minimax, check_report

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def _keys(workload, r):
    return [(job.kind, job.key) for job in workload.round(r)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generation_is_deterministic_in_the_seed(name, tmp_path):
    first = WORKLOADS[name](qcorr, 5, tmp_path / "a")
    again = WORKLOADS[name](qcorr, 5, tmp_path / "b")
    other = WORKLOADS[name](qcorr, 6, tmp_path / "c")
    assert _keys(first, 0) == _keys(again, 0)
    assert _keys(first, 1) == _keys(again, 1)
    assert _keys(first, 0) != _keys(first, 1)
    assert _keys(first, 0) != _keys(other, 0)
    # every round holds the same mix of kinds
    kinds = sorted(kind for kind, _ in _keys(first, 0))
    assert kinds == sorted(kind for kind, _ in _keys(other, 3))


def _job(workload, kind, r=0):
    return next(job for job in workload.round(r) if job.kind == kind)


def test_checker_flags_a_wrong_perm(tmp_path):
    job = _job(Grid(qcorr, 1, tmp_path), "fn5")
    found = job.run()
    assert job.check(found) is None
    assert found, "a random standard oracle always has the all-chi counterpart"
    name, bases, gp = found[0]
    perm = list(gp.perm)
    perm[0], perm[1] = perm[1], perm[0]
    tampered = [(name, bases, SimpleNamespace(perm=tuple(perm)))] + found[1:]
    assert job.check(tampered) is not None
    assert job.check(found[1:]) is not None


def test_checker_flags_a_wrong_count(tmp_path):
    job = _job(Minimax(qcorr, 1, tmp_path), "bv3.O_S")
    count = job.run()
    assert count == 4
    assert job.check(count) is None
    assert job.check(count + 1) is not None

    report = qcorr.speedup_report(qcorr.bv_problem(2)).as_dict()
    assert check_report(report, "bv", 2) is None
    report["entries"][0]["queries"] += 1
    assert check_report(report, "bv", 2) is not None


def test_audit_check_compares_against_the_canonical_report(tmp_path):
    audit = Audit(qcorr, 1, tmp_path)
    job = _job(audit, "parity1")
    report = job.run()
    assert job.check(report) is None
    wrong = SimpleNamespace(as_dict=lambda: {**report.as_dict(), "entries": []})
    assert job.check(wrong) is not None


def test_checker_flags_a_wrong_exit_code(tmp_path):
    cli = Cli(qcorr, 1, tmp_path)
    jobs = cli.round(0)
    malformed = next(job for job in jobs if job.kind == "malformed")
    code, out, err = malformed.run()
    assert code in (2, 3, 4) and malformed.check((code, out, err)) is None
    assert malformed.check((0, "{}", "")) is not None
    assert malformed.check((1 if code != 1 else 2, "", err)) is not None

    classify = next(job for job in jobs if job.kind == "classify.coset")
    code, out, err = classify.run()
    assert code == 0 and classify.check((code, out, err)) is None
    assert classify.check((2, "", "error")) is not None
    d = json.loads(out)
    d["cc_class"] = ["SWAT12"]
    assert classify.check((0, json.dumps(d), "")) is not None


def test_latency_summary_reports_its_sample_count():
    summary = latency_summary([float(i) for i in range(100, 0, -1)])
    assert summary["n"] == 100
    assert summary["p50"] == pytest.approx(50.5)
    assert summary["p90"] == pytest.approx(90.1)
    assert summary["beyond_p90"] == 10
    with pytest.raises(ValueError):
        latency_summary([])


def test_reference_cycle_notation_round_trip():
    perm = (0, 2, 3, 1, 5, 4)
    assert ref.perm_from_cycles(qcorr.cycle_notation(perm), 6) == perm
    assert ref.perm_from_cycles("id", 3) == (0, 1, 2)


def test_tracer_records_self_time_and_restores_names(tmp_path):
    original = qcorr.correspondence.extract_counterpart
    tracer = Tracer()
    tracer.attach(qcorr)
    try:
        assert qcorr.correspondence.extract_counterpart is not original
        job = _job(Grid(qcorr, 2, tmp_path), "fn5")
        tracer.job = "j0"
        assert job.check(job.run()) is None
    finally:
        tracer.detach()
    assert qcorr.correspondence.extract_counterpart is original
    assert qcorr.querylab.extract_counterpart is original

    totals = tracer.totals
    assert totals["correspondence.search_counterparts"]["calls"] == 1
    assert totals["correspondence.extract_counterpart"]["calls"] == 32
    detect = totals["matrixcore.detect_from_columns"]
    assert 0 < detect["self_s"] < detect["s"]
    columns = totals["correspondence.conjugate_column"]["calls"]
    assert totals["correspondence.conjugate_column"]["bytes"] == 16 * 32 * columns

    by_id = {span["id"]: span for span in tracer.spans}
    search = next(s for s in tracer.spans if s["name"] == "correspondence.search_counterparts")
    extracts = [s for s in tracer.spans if s["name"] == "correspondence.extract_counterpart"]
    assert all(s["parent"] == search["id"] and s["job"] == "j0" for s in extracts)
    for span in tracer.spans:
        if span["parent"] is not None:
            parent = by_id[span["parent"]]
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
    hot = sum(s["hot"].get("correspondence.conjugate_column", [0])[0] for s in tracer.spans)
    assert hot == columns


def _run_bench(cwd, *args):
    return subprocess.run([sys.executable, "qbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_every_declared_metric(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = _run_bench(ROOT, "--workload", "minimax", "--seed", "3", "--seconds", "1",
                      "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared


def test_per_layer_table_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "qbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run_bench(tmp_path, "--workload", "grid", "--seed", "1", "--seconds", "1",
                      "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
