"""Unit tests for exact query complexity, the quantum algorithm simulations,
and the speed-up report."""

import math
import pickle
import tracemalloc

import numpy as np
import pytest

from qcorr import correspondence, matrixcore
from qcorr.matrixcore import GeneralizedPermutation, SizeLimitError
from qcorr.oracleforge import (
    BooleanFunction,
    BVInstance,
    bv_function,
    classical_OA,
    classical_OB,
    classical_OBtilde,
    classical_OS,
    standard_oracle,
)
from qcorr.correspondence import PauliGrid, general_basis, parse_basis_word, search_counterparts
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


def test_problem_limits_are_read_at_call_time(monkeypatch):
    for build, n, message in [
        (parity_problem, 3, "exact parity search is limited to n <= 2 (got n=3)"),
        (bv_problem, 7, "exact bv search is limited to n <= 6 (got n=7)"),
    ]:
        with pytest.raises(SizeLimitError) as exc:
            build(n)
        assert str(exc.value) == message
    monkeypatch.setattr(querylab, "PARITY_SEARCH_LIMIT", 3)
    monkeypatch.setattr(querylab, "BV_SEARCH_LIMIT", 7)
    parity, bv = parity_problem(3), bv_problem(7)
    assert [len(p.hypotheses) for p in (parity, bv)] == [256, 256]
    assert [h.ident for h in parity.hypotheses] == list(range(256))
    assert parity.labels() == [f.parity() for f in iter_boolean_functions(3)]
    assert bv.labels() == [inst.k for inst in iter_bv_instances(7)]


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


def test_family_table_and_maps_give_the_same_perms():
    maps = [classical_OS(BooleanFunction(2, t)) for t in ((0, 1, 1, 0), (1, 1, 1, 1))]
    table = np.array([gp.perm for gp in maps], dtype=np.int32)
    by_table = ClassicalOracleFamily("t", 3, table)
    by_maps = ClassicalOracleFamily("t", 3, tuple(maps))
    assert by_table.perms.dtype == by_maps.perms.dtype == np.intp
    assert np.array_equal(by_table.perms, by_maps.perms)
    assert by_table.perms.tolist() == [list(gp.perm) for gp in maps]


def test_family_perms_are_a_read_only_copy():
    table = np.array([[1, 0, 3, 2], [0, 1, 2, 3]])
    family = ClassicalOracleFamily("t", 2, table)
    assert not family.perms.flags.writeable
    with pytest.raises(ValueError):
        family.perms[0, 0] = 0
    table[:] = table[:, ::-1]
    assert family.perms.tolist() == [[1, 0, 3, 2], [0, 1, 2, 3]]


@pytest.mark.parametrize("perms", [
    np.array([[1.0, 0.0, 3.0, 2.0]]),
    np.array([[1, 0, 3, 2, 4, 5, 6, 7]]),
    np.array([[[1, 0, 3, 2]]]),
    np.array([1, 0, 3, 2]),
    np.array([[0, 1, 2, 3], [-1, 0, 1, 2]]),
    np.array([[0, 1, 2, 3], [0, 0, 2, 3]]),
], ids=["float", "wrong-width", "3-D", "1-D", "negative", "not-bijective"])
def test_family_refuses_bad_perms(perms):
    with pytest.raises(ValueError):
        ClassicalOracleFamily("bad", 2, perms)


# The one-map constructors are the reference for the table-built families.
ONE_AT_A_TIME = {
    "OS": lambda h: classical_OS(hypothesis_function(h)),
    "OA": lambda h: classical_OA(hypothesis_function(h)),
    "OB": lambda h: classical_OB(h.instance),
    "OBT": lambda h: classical_OBtilde(h.instance),
}
DIFFERENTIAL = [("bv", n) for n in range(1, 8)] + [("parity", n) for n in (1, 2, 3)]


@pytest.mark.parametrize("name,n", DIFFERENTIAL, ids=[f"{p}{n}" for p, n in DIFFERENTIAL])
def test_named_family_matches_one_map_per_hypothesis(name, n, monkeypatch):
    # bv 7 and parity 3 lie past the search limits, which only gate the
    # problem builders
    monkeypatch.setattr(querylab, "BV_SEARCH_LIMIT", 7)
    monkeypatch.setattr(querylab, "PARITY_SEARCH_LIMIT", 3)
    assert set(ONE_AT_A_TIME) == set(querylab.ORACLES)
    problem = querylab.PROBLEMS[name][0](n)
    order = np.random.default_rng([n, 13]).permutation(len(problem.hypotheses))
    shuffled = ProblemSpec(name, n, tuple(problem.hypotheses[int(i)] for i in order))
    for oracle, (family_name, _, domain) in querylab.ORACLES.items():
        if name not in domain:
            continue
        for spec in (problem, shuffled):
            family = named_family(spec, oracle)
            want = tuple(ONE_AT_A_TIME[oracle](h) for h in spec.hypotheses)
            assert (family.name, family.m) == (family_name, want[0].m)
            assert family.perms.tolist() == [list(gp.perm) for gp in want], (
                oracle, spec is shuffled)


def test_named_family_checks_its_table_in_one_pass(monkeypatch):
    calls = []
    checked_perms = matrixcore._checked_perms

    def counting(m, perms, ndim):
        calls.append(np.shape(perms))
        return checked_perms(m, perms, ndim)

    monkeypatch.setattr(querylab, "_checked_perms", counting)
    problem = bv_problem(3)
    for oracle in querylab.ORACLES:
        calls.clear()
        family = named_family(problem, oracle)
        assert calls == [(16, 1 << family.m)], oracle


def test_named_family_peak_near_five_tables(monkeypatch):
    # bv n = 9's O_S family: k = 1024 perms on m = 10 bits.  The perms, the
    # family's copy, its row offsets and its bin counts are four (k, 2^m)
    # intp tables; building the perms from the truth tables adds about one.
    # Built as k maps through a complex table of ones, the peak was 8.
    monkeypatch.setattr(querylab, "BV_SEARCH_LIMIT", 9)
    problem = bv_problem(9)
    table = (1 << 10) * (1 << 10) * np.dtype(np.intp).itemsize
    tracemalloc.start()
    try:
        family = named_family(problem, "OS")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert family.perms.nbytes == table
    assert peak <= 5.5 * table


def test_extracted_map_pickles_its_own_row():
    # the table engine builds many words' counterparts in one table, and
    # search_counterparts hands out its rows as maps
    problem = bv_problem(3)
    oracle = standard_oracle(hypothesis_function(problem.hypotheses[5]))
    word, _, member = search_counterparts(oracle, PauliGrid())[0]
    assert word == "CCCC" and member._perm.base is not None
    data = pickle.dumps(member)
    assert pickle.loads(data) == member
    # a member built alone holds one row, so the same bytes mean one row
    alone = classical_OS(hypothesis_function(problem.hypotheses[5]))
    assert len(data) == len(pickle.dumps(alone))


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
    assert fam.perms.tolist() == [[0, 1, 2, 3]] * 4
    assert math.isinf(deterministic_query_complexity(problem, fam))


def test_extracted_family_needs_a_chi_eta_word():
    problem = bv_problem(1)
    bases = (general_basis(np.eye(2)), general_basis(np.eye(2)))
    with pytest.raises(ValueError, match="grid or a word over C and H"):
        family_extracted(problem, bases)


def test_minimax_zero_when_labels_agree():
    functions = [BooleanFunction(1, (0, 0)), BooleanFunction(1, (1, 1))]
    hyps = tuple(Hypothesis(i, f, f.parity()) for i, f in enumerate(functions))
    problem = ProblemSpec("parity", 1, hyps)
    assert deterministic_query_complexity(problem, named_family(problem, "OS")) == 0


@pytest.mark.parametrize("consume", [
    lambda p: named_family(p, "OS"),
    lambda p: speedup_report(p),
    lambda p: deterministic_query_complexity(p, ClassicalOracleFamily("O_S", 2, ())),
], ids=["named_family", "speedup_report", "deterministic_query_complexity"])
def test_problem_without_hypotheses_is_a_value_error(consume):
    # Each consumer used to fail with IndexError on an empty hypothesis
    # tuple; the spec now refuses it when it is built.
    with pytest.raises(ValueError, match="at least one hypothesis"):
        consume(ProblemSpec("bv", 1, ()))


@pytest.mark.parametrize("make", [
    lambda: ProblemSpec("bv", 2, bv_problem(3).hypotheses),
    lambda: ProblemSpec("bv", 1, parity_problem(1).hypotheses),
    lambda: ProblemSpec("parity", 1, bv_problem(1).hypotheses),
    lambda: ProblemSpec("parity", 2, parity_problem(1).hypotheses),
], ids=["bv-wrong-n", "bv-of-functions", "parity-of-bv-instances", "parity-wrong-n"])
def test_catalogued_problem_checks_its_instances(make):
    # Each of these used to be accepted: the first gave a 4-bit O_S family,
    # and speedup_report of the next two raised AttributeError.
    with pytest.raises(ValueError, match="instances on n="):
        make()


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
        calls.append(tuple(map(tuple, family.perms.tolist())))
        return deterministic_query_complexity(problem, family)

    monkeypatch.setattr(querylab, "deterministic_query_complexity", counting)
    got = speedup_report(problem)
    assert got == want
    assert len(calls) == len(set(calls)) < len(want.entries)


def test_speedup_report_monotone_under_more_families():
    problem = bv_problem(2)
    with_grid = speedup_report(problem)
    named_only = min(deterministic_query_complexity(problem, named_family(problem, oracle))
                     for oracle in querylab.PROBLEMS["bv"][3]) / with_grid.quantum_queries
    assert with_grid.genuine_speedup <= named_only
    assert with_grid.genuine_speedup <= with_grid.naive_speedup


def test_speedup_report_builds_no_map_per_hypothesis(monkeypatch):
    # From the catalogue and the extraction engine to the minimax search a
    # family is one table: the only map built is the quantum run's oracle.
    built = []
    init = GeneralizedPermutation.__init__

    def counting_init(self, *args, **kwargs):
        built.append("init")
        init(self, *args, **kwargs)

    def counting_unchecked(m, perm, phases):
        built.append("unchecked")
        return unchecked(m, perm, phases)

    unchecked = matrixcore._unchecked
    monkeypatch.setattr(GeneralizedPermutation, "__init__", counting_init)
    for module in (matrixcore, correspondence):
        monkeypatch.setattr(module, "_unchecked", counting_unchecked)
    report = speedup_report(bv_problem(3))
    assert built == ["init"]
    assert report.genuine_speedup == 1.0


def test_speedup_report_unknown_problem():
    hyps = parity_problem(1).hypotheses
    with pytest.raises(ValueError):
        speedup_report(ProblemSpec("search", 1, hyps))
