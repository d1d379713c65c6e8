"""Unit tests for exact query complexity, the quantum algorithm simulations,
and the speed-up report."""

import math

import pytest

from qcorr.matrixcore import GeneralizedPermutation, SizeLimitError
from qcorr.oracleforge import BooleanFunction, BVInstance, bv_function, classical_OS
from qcorr.correspondence import RandomSample, parse_basis_word
from qcorr import querylab
from qcorr.querylab import (
    ClassicalOracleFamily,
    Hypothesis,
    ProblemSpec,
    bv_problem,
    decision_tree,
    deterministic_query_complexity,
    family_extracted,
    hypothesis_function,
    iter_boolean_functions,
    iter_bv_instances,
    named_family,
    parity_problem,
    run_bv_quantum,
    run_parity_quantum,
    speedup_report,
)


def test_iter_boolean_functions_order():
    truths = [f.truth for f in iter_boolean_functions(1)]
    assert truths == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_iter_bv_instances_order():
    insts = [(inst.k0, inst.k) for inst in iter_bv_instances(1)]
    assert insts == [(0, (0,)), (0, (1,)), (1, (0,)), (1, (1,))]


def test_parity_problem_shape():
    problem = parity_problem(2)
    assert problem.name == "parity"
    assert len(problem.hypotheses) == 16
    for h in problem.hypotheses:
        assert h.label == sum(h.instance.truth) % 2


def test_bv_problem_shape():
    problem = bv_problem(2)
    assert len(problem.hypotheses) == 8
    for h in problem.hypotheses:
        assert h.label == h.instance.k


def test_problem_size_limits():
    with pytest.raises(SizeLimitError):
        parity_problem(3)
    with pytest.raises(SizeLimitError):
        bv_problem(7)
    with pytest.raises(ValueError):
        parity_problem(0)
    with pytest.raises(ValueError):
        bv_problem(0)


def test_hypothesis_function():
    parity = parity_problem(1)
    assert hypothesis_function(parity.hypotheses[1]) is parity.hypotheses[1].instance
    bv = bv_problem(1)
    h = bv.hypotheses[1]
    assert hypothesis_function(h).truth == bv_function(h.instance).truth


def test_family_constructors():
    problem = bv_problem(1)
    assert named_family(problem, "OS").m == 2
    assert named_family(problem, "OA").m == 2
    assert named_family(problem, "OB").m == 2
    assert named_family(problem, "OBT").m == 1
    assert [named_family(problem, o).name for o in ("OS", "OA", "OB", "OBT")] == [
        "O_S", "O_A", "O_B", "O_Btilde"]
    with pytest.raises(ValueError, match="unknown oracle 'OC'"):
        named_family(problem, "OC")
    with pytest.raises(ValueError):
        ClassicalOracleFamily(
            "bad",
            2,
            (
                classical_OS(BooleanFunction(1, (0, 1))),
                classical_OS(BooleanFunction(2, (0, 1, 1, 0))),
            ),
        )


def test_named_family_domain():
    # the shift oracles need a hidden string
    for oracle in ("OB", "OBT"):
        with pytest.raises(ValueError, match=f"{oracle} is only defined for the bv problem"):
            named_family(parity_problem(1), oracle)


PARITY_COUNTS = [(1, 2, 1), (2, 4, 2)]


@pytest.mark.parametrize("n,expected_os,expected_oa", PARITY_COUNTS)
def test_parity_minimax_counts(n, expected_os, expected_oa):
    problem = parity_problem(n)
    d_os = deterministic_query_complexity(problem, named_family(problem, "OS"))
    d_oa = deterministic_query_complexity(problem, named_family(problem, "OA"))
    assert d_os == expected_os
    assert d_oa == expected_oa
    assert d_os <= 1 << (n + 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_bv_minimax_counts(n):
    problem = bv_problem(n)
    assert deterministic_query_complexity(problem, named_family(problem, "OS")) == n + 1
    assert deterministic_query_complexity(problem, named_family(problem, "OB")) == 1
    assert deterministic_query_complexity(problem, named_family(problem, "OBT")) == 1


@pytest.mark.parametrize(
    "n,word", [(1, "HH"), (2, "HCH")], ids=["n1", "n2"]
)
def test_extracted_family_matches_oa_count(n, word):
    problem = parity_problem(n)
    fam = family_extracted(problem, parse_basis_word(word))
    assert fam is not None
    d_extracted = deterministic_query_complexity(problem, fam)
    d_oa = deterministic_query_complexity(problem, named_family(problem, "OA"))
    assert d_extracted == d_oa


def test_extracted_family_inadmissible_is_none():
    # the all-eta assignment fails on nonlinear hypotheses
    problem = parity_problem(2)
    assert family_extracted(problem, parse_basis_word("HHH")) is None


def test_unsolvable_family_is_infinite():
    # chi on the input, eta on the target leaves only invisible phases
    problem = bv_problem(1)
    fam = family_extracted(problem, parse_basis_word("CH"))
    assert fam is not None
    assert all(gp.perm == (0, 1, 2, 3) for gp in fam.maps)
    assert math.isinf(deterministic_query_complexity(problem, fam))


def test_minimax_zero_when_labels_agree():
    functions = [BooleanFunction(1, (0, 0)), BooleanFunction(1, (1, 1))]
    hyps = tuple(Hypothesis(i, f, f.parity()) for i, f in enumerate(functions))
    problem = ProblemSpec("parity", 1, hyps)
    assert deterministic_query_complexity(problem, named_family(problem, "OS")) == 0


def test_minimax_family_size_mismatch():
    problem = parity_problem(1)
    other = parity_problem(2)
    with pytest.raises(ValueError):
        deterministic_query_complexity(problem, named_family(other, "OS"))


def test_minimax_width_limit():
    functions = [BooleanFunction(12, (0,) * 4096), BooleanFunction(12, (1,) * 4096)]
    hyps = tuple(Hypothesis(i, f, f.parity()) for i, f in enumerate(functions))
    problem = ProblemSpec("parity", 12, hyps)
    with pytest.raises(SizeLimitError):
        deterministic_query_complexity(problem, named_family(problem, "OS"))


def test_minimax_hypothesis_limit():
    f = BooleanFunction(1, (0, 1))
    gp = classical_OS(f)
    count = 65537
    hyps = tuple(Hypothesis(i, f, i % 2) for i in range(count))
    problem = ProblemSpec("parity", 1, hyps)
    family = ClassicalOracleFamily("O_S", 2, (gp,) * count)
    with pytest.raises(SizeLimitError):
        deterministic_query_complexity(problem, family)


def test_minimax_too_deep_is_a_size_limit():
    # hypothesis i swaps strings 2i and 2i+1, so each query peels one
    # hypothesis off the rest and the search nests 1000 sets deep
    m, count = 11, 1000
    ones = (1 + 0j,) * (1 << m)
    maps = []
    for i in range(count):
        perm = list(range(1 << m))
        perm[2 * i], perm[2 * i + 1] = perm[2 * i + 1], perm[2 * i]
        maps.append(GeneralizedPermutation(m, tuple(perm), ones))
    hyps = tuple(Hypothesis(i, None, i) for i in range(count))
    problem = ProblemSpec("peel", m, hyps)
    family = ClassicalOracleFamily("peel", m, tuple(maps))
    for solve in (deterministic_query_complexity, decision_tree):
        with pytest.raises(SizeLimitError, match="recursion limit"):
            solve(problem, family)


def test_bv_quantum_examples():
    assert run_bv_quantum(BVInstance(3, 0, (1, 0, 1))) == ((1, 0, 1), 1)
    assert run_bv_quantum(BVInstance(2, 0, (0, 0))) == ((0, 0), 1)
    assert run_bv_quantum(BVInstance(2, 1, (0, 0))) == ((0, 0), 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bv_quantum_exhaustive(n):
    for inst in iter_bv_instances(n):
        assert run_bv_quantum(inst) == (inst.k, 1)


def test_bv_quantum_size_limit():
    with pytest.raises(SizeLimitError):
        run_bv_quantum(BVInstance(17, 0, (0,) * 17))


def test_parity_quantum_examples():
    assert run_parity_quantum(BooleanFunction(1, (0, 1))) == (1, 1)
    assert run_parity_quantum(BooleanFunction(2, (0, 0, 0, 0))) == (0, 2)
    assert run_parity_quantum(BooleanFunction(2, (1, 1, 1, 1))) == (0, 2)


def test_parity_quantum_exhaustive_n2():
    for f in iter_boolean_functions(2):
        assert run_parity_quantum(f) == (sum(f.truth) % 2, 2)


def test_parity_quantum_size_limit():
    with pytest.raises(SizeLimitError):
        run_parity_quantum(BooleanFunction(13, (0,) * 8192))


def test_speedup_report_bv_n2():
    report = speedup_report(bv_problem(2))
    data = report.as_dict()
    assert set(data) == {
        "problem",
        "n",
        "entries",
        "quantum_queries",
        "naive_speedup",
        "genuine_speedup",
    }
    assert data["problem"] == "bv" and data["n"] == 2
    assert data["quantum_queries"] == 1
    assert data["entries"][0] == {"oracle": "O_S", "queries": 3}
    assert data["entries"][1] == {"oracle": "O_B", "queries": 1}
    by_name = {e["oracle"]: e["queries"] for e in data["entries"]}
    assert by_name["CCC"] == 3
    assert by_name["HHH"] == 1
    assert by_name["CCH"] is None
    assert data["naive_speedup"] == pytest.approx(3.0)
    assert data["genuine_speedup"] == pytest.approx(1.0)


@pytest.mark.parametrize("n", [1, 2])
def test_speedup_report_parity(n):
    report = speedup_report(parity_problem(n))
    assert report.quantum_queries == 1 << (n - 1)
    assert report.naive_speedup == pytest.approx(2.0)
    assert report.genuine_speedup == pytest.approx(1.0)


def test_speedup_report_solves_each_distinct_family_once(monkeypatch):
    problem = bv_problem(2)
    want = speedup_report(problem)
    calls = []

    def counting(problem, family):
        calls.append(tuple(gp.perm for gp in family.maps))
        return deterministic_query_complexity(problem, family)

    monkeypatch.setattr(querylab, "deterministic_query_complexity", counting)
    got = speedup_report(problem)
    assert got == want
    assert len(calls) == len(set(calls)) < len(want.entries)


def test_speedup_report_monotone_under_more_families():
    problem = bv_problem(2)
    named_only = speedup_report(problem, space=RandomSample(count=0, seed=1))
    with_grid = speedup_report(problem)
    assert with_grid.genuine_speedup <= named_only.genuine_speedup
    assert with_grid.genuine_speedup <= with_grid.naive_speedup


def test_speedup_report_unknown_problem():
    hyps = parity_problem(1).hypotheses
    with pytest.raises(ValueError):
        speedup_report(ProblemSpec("search", 1, hyps))
