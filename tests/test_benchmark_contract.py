"""The package names the benchmark under qbench/ calls or traces.

The benchmark's own tests take tens of seconds and stay out of this suite;
this check is sub-second, so a refactor that drops or renames one of these
names fails here instead of breaking the benchmark or silently zeroing one
of its per-layer metrics.
"""

import pytest

import qcorr.cli
from qcorr import correspondence, matrixcore, oracleforge, querylab

# Called directly by the workloads.
CALLED = [
    (qcorr.cli, "main"),
    (correspondence, "PauliGrid"),
    (correspondence, "RandomSample"),
    (correspondence, "search_counterparts"),
    (oracleforge, "BVInstance"),
    (oracleforge, "BooleanFunction"),
    (oracleforge, "bv_function"),
    (oracleforge, "phase_oracle"),
    (oracleforge, "standard_oracle"),
    (matrixcore, "GeneralizedPermutation"),
    (querylab, "ProblemSpec"),
    (querylab, "ClassicalOracleFamily"),
    (querylab, "bv_problem"),
    (querylab, "parity_problem"),
    (querylab, "deterministic_query_complexity"),
    (querylab, "speedup_report"),
]

# Wrapped by the tracer (qbench/tracing.py SPANS and HOT).  The tracer skips
# a missing name and its metrics read zero, so only this check notices.  The
# tracer's conjugate_column and detect_from_columns no longer exist, so
# their spans read zero.
TRACED = [
    (correspondence, "extract_counterpart"),
    (correspondence, "makhlin_invariants"),
    (matrixcore, "apply_single_qubit"),
    (matrixcore, "matrix_from_json"),
    (oracleforge.OracleAction, "apply"),
    (querylab, "family_extracted"),
    (querylab, "run_bv_quantum"),
    (querylab, "run_parity_quantum"),
]


def _id(owner, name):
    return f"{owner.__name__}.{name}"


@pytest.mark.parametrize("owner, name", CALLED + TRACED,
                         ids=[_id(o, n) for o, n in CALLED + TRACED])
def test_benchmark_names_exist(owner, name):
    assert callable(getattr(owner, name, None))


def test_engine_kernel_is_the_traced_function():
    # The tracer patches a function wherever a qcorr module holds it by
    # identity, so the extraction engine's 2x2 passes count as
    # matrixcore.apply_single_qubit calls only while it calls that object.
    assert correspondence.apply_single_qubit is matrixcore.apply_single_qubit


@pytest.mark.parametrize("make, run", [
    (querylab.bv_problem, "run_bv_quantum"),
    (querylab.parity_problem, "run_parity_quantum"),
])
def test_speedup_report_calls_the_patched_quantum_run(monkeypatch, make, run):
    # The tracer patches module attributes, so the report must look the
    # quantum run up in querylab's globals when it runs, not hold the function.
    calls = []
    original = getattr(querylab, run)

    def counting(instance):
        calls.append(instance)
        return original(instance)

    monkeypatch.setattr(querylab, run, counting)
    querylab.speedup_report(make(1))
    assert len(calls) == 1


def test_the_calls_the_benchmark_makes():
    # The minimax workload builds a family from a tuple of maps, by position,
    # the audit workload calls speedup_report with the problem alone, and
    # the grid workload reads each counterpart's perm.
    problem = querylab.bv_problem(2)
    functions = [querylab.hypothesis_function(h) for h in problem.hypotheses]
    maps = tuple(oracleforge.classical_OS(f) for f in functions)
    family = querylab.ClassicalOracleFamily("O_S", 3, maps)
    assert family.perms.tolist() == [list(gp.perm) for gp in maps]
    assert querylab.deterministic_query_complexity(problem, family) == 3
    report = querylab.speedup_report(problem)
    assert report.entries[0] == ("O_S", 3) and report.genuine_speedup == 1.0
    oracle = oracleforge.standard_oracle(functions[1])
    name, _, gp = correspondence.search_counterparts(oracle, correspondence.PauliGrid())[0]
    assert name == "CCC" and gp.perm == maps[1].perm
