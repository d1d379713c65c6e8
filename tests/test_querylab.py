"""Unit tests for exact query complexity, the quantum algorithm simulations,
and the speed-up report."""

import math
import pickle
import tracemalloc

import numpy as np
import pytest

from qcorr import correspondence, matrixcore, oracleforge
from qcorr.matrixcore import GeneralizedPermutation, SizeLimitError
from qcorr.oracleforge import (
    BooleanFunction,
    BVInstance,
    bv_function,
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
                standard_oracle(BooleanFunction(1, (0, 1))).permutation,
                standard_oracle(BooleanFunction(2, (0, 1, 1, 0))).permutation,
            ),
        )


def test_family_table_and_maps_give_the_same_perms():
    maps = [standard_oracle(BooleanFunction(2, t)).permutation
            for t in ((0, 1, 1, 0), (1, 1, 1, 1))]
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


# The named oracles written from their definitions, one plain loop per
# hypothesis's instance, as the reference for the table-built families.
def reference_truth(inst):
    # f(x) for every x: a parity instance's table, or k0 XOR k.x
    if isinstance(inst, BooleanFunction):
        return list(inst.truth)
    n = inst.n
    return [inst.k0 ^ (sum(b & (x >> (n - 1 - j)) for j, b in enumerate(inst.k)) & 1)
            for x in range(1 << n)]


def reference_k(inst):
    # the hidden string, first bit most significant
    return sum(b << (inst.n - 1 - j) for j, b in enumerate(inst.k))


def reference_OS(inst):
    # (x, y) -> (x, y XOR f(x))
    f = reference_truth(inst)
    return [(x << 1) | (y ^ f[x]) for x in range(len(f)) for y in (0, 1)]


def reference_OA(inst):
    # (x, y) -> (x XOR c, y), c the first bit's flip f(0, rest) XOR f(1, rest)
    f, top = reference_truth(inst), 1 << (inst.n - 1)
    perm = []
    for x in range(len(f)):
        rest = x % top
        flip = f[rest] ^ f[top + rest]
        perm += [((x ^ (flip * top)) << 1) | y for y in (0, 1)]
    return perm


def reference_OB(inst):
    # (x, y) -> (x XOR k, y)
    k = reference_k(inst)
    return [((x ^ k) << 1) | y for x in range(1 << inst.n) for y in (0, 1)]


def reference_OBtilde(inst):
    # x -> x XOR k
    k = reference_k(inst)
    return [x ^ k for x in range(1 << inst.n)]


FROM_DEFINITION = {"OS": reference_OS, "OA": reference_OA, "OB": reference_OB,
                   "OBT": reference_OBtilde}
DIFFERENTIAL = [("bv", n) for n in range(1, 8)] + [("parity", n) for n in (1, 2, 3)]


@pytest.mark.parametrize("name,n", DIFFERENTIAL, ids=[f"{p}{n}" for p, n in DIFFERENTIAL])
def test_named_family_matches_one_map_per_hypothesis(name, n, monkeypatch):
    # bv 7 and parity 3 lie past the search limits, which only gate the
    # problem builders
    monkeypatch.setattr(querylab, "BV_SEARCH_LIMIT", 7)
    monkeypatch.setattr(querylab, "PARITY_SEARCH_LIMIT", 3)
    assert set(FROM_DEFINITION) == set(querylab.ORACLES)
    problem = querylab.PROBLEMS[name][0](n)
    order = np.random.default_rng([n, 13]).permutation(len(problem.hypotheses))
    shuffled = ProblemSpec(name, n, tuple(problem.hypotheses[int(i)] for i in order))
    for oracle, (family_name, _, domain) in querylab.ORACLES.items():
        if name not in domain:
            continue
        for spec in (problem, shuffled):
            family = named_family(spec, oracle)
            want = [FROM_DEFINITION[oracle](h.instance) for h in spec.hypotheses]
            assert (family.name, family.m) == (family_name, len(want[0]).bit_length() - 1)
            assert family.perms.tolist() == want, (oracle, spec is shuffled)
    # each hypothesis's standard oracle, built alone, is its O_S
    for h in problem.hypotheses:
        f = bv_function(h.instance) if name == "bv" else h.instance
        assert list(standard_oracle(f).permutation.perm) == reference_OS(h.instance)


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


@pytest.mark.parametrize("name,n", DIFFERENTIAL, ids=[f"{p}{n}" for p, n in DIFFERENTIAL])
def test_named_family_tables_are_c_ordered(name, n, monkeypatch):
    # The family code reads the tables row by row; an F-ordered O_S or O_A
    # table made each such reader copy it first.
    monkeypatch.setattr(querylab, "BV_SEARCH_LIMIT", 7)
    monkeypatch.setattr(querylab, "PARITY_SEARCH_LIMIT", 3)
    problem = querylab.PROBLEMS[name][0](n)
    for oracle, (_, _, domain) in querylab.ORACLES.items():
        if name in domain:
            assert named_family(problem, oracle).perms.flags.c_contiguous, oracle


def test_named_family_peak_below_three_tables(monkeypatch):
    # bv n = 9's O_S family: k = 1024 perms on m = 10 bits.  The perms and
    # the inverse their check fills are two (k, 2^m) intp tables; building
    # the perms from the truth tables adds about half of one.  The check's
    # row offsets and bin counts made the peak 4.  The family holds the perms
    # it checked: a copy of them made the peak 5.  Built as k maps through a
    # complex table of ones, it was 8.
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
    assert peak <= 3 * table


@pytest.mark.parametrize("name,n", [("bv", 3), ("bv", 6), ("parity", 2)])
def test_extracted_families_check_each_table_once(name, n, monkeypatch):
    # The engine checks the family's perms once, for their inverse, then
    # each block of words it builds once, as Q⁻¹, whose check gives Q; the
    # families of a block hold rows of that one read-only table: no second
    # check, no copy.  bv n = 6 (k = 128, m = 7) takes one word per block.
    checked = []
    checked_perms = matrixcore._checked_perms

    def counting(m, perms, ndim):
        checked.append(checked_perms(m, perms, ndim))
        return checked[-1]

    problem = querylab.PROBLEMS[name][0](n)
    standard = named_family(problem, "OS")
    for module in (correspondence, querylab):
        monkeypatch.setattr(module, "_checked_perms", counting)
    families = [fam for _, fam in querylab._extracted_families(standard, PauliGrid(), 1e-9)]
    k, dim = standard.perms.shape
    per = max(1, matrixcore._BLOCK // (k * dim))
    first, blocks = checked[0], checked[1:]
    assert first[0] is standard.perms
    assert len(blocks) == -(-len(families) // per) > 0
    assert sum(len(qinv) for qinv, _ in blocks) == len(families) * k
    outputs = np.broadcast_to(np.arange(dim), (k, dim))
    for i, fam in enumerate(families):
        row = i % per * k
        qinv, perms = blocks[i // per]
        assert np.array_equal(np.take_along_axis(fam.perms, qinv[row:row + k], axis=1), outputs)
        assert not fam.perms.flags.writeable
        assert fam.perms.base is perms
        assert fam.perms.base is families[i - i % per].perms.base


@pytest.mark.parametrize("rows", [
    [[0, 1, 2, 3], [1, 0, 3, 2]],
    ((0, 1, 2, 3), (1, 0, 3, 2)),
    [standard_oracle(BooleanFunction(1, (0, 0))).permutation, (1, 0, 3, 2)],
], ids=["list-of-lists", "tuple-of-tuples", "map-and-tuple"])
def test_family_takes_rows_of_integers(rows):
    family = ClassicalOracleFamily("x", 2, rows)
    assert family.perms.tolist() == [[0, 1, 2, 3], [1, 0, 3, 2]]
    assert not family.perms.flags.writeable


@pytest.mark.parametrize("rows", [
    [[0, 1, 2, 3], [0, 1]],
    [[0, 1, 2, 3], [0, 1, 2]],
    [[0, 1, 2, 3], ["0", "1", "2", "3"]],
    [[0, 1, 2, 3], [0.0, 1.0, 2.0, 3.0]],
    [[0, 1, 2, 3], [0, 0, 2, 3]],
    [[0, 1, 2, 3], None],
], ids=["ragged", "short-row", "strings", "floats", "not-a-bijection", "none-row"])
def test_family_refuses_a_malformed_table(rows):
    # A nested list used to fail with AttributeError on a missing _perm.
    with pytest.raises(ValueError):
        ClassicalOracleFamily("x", 2, rows)


def test_extracted_map_pickles_its_own_row():
    # the table engine builds many words' counterparts in one table, and
    # search_counterparts hands out its rows as maps
    problem = bv_problem(3)
    oracle = standard_oracle(bv_function(problem.hypotheses[5].instance))
    word, _, member = search_counterparts(oracle, PauliGrid())[0]
    assert word == "CCCC" and member._perm.base is not None
    data = pickle.dumps(member)
    assert pickle.loads(data) == member
    # a member built alone holds one row, so the same bytes mean one row
    alone = oracle.permutation
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
    # Every row is equal and the labels alternate, so the identical-row
    # quotient would call this family infinite: it runs after the limits.
    f = BooleanFunction(1, (0, 1))
    gp = standard_oracle(f).permutation
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


def test_bv_readout_refuses_a_second_amplitude(monkeypatch):
    # A state that keeps its norm and its largest amplitude within tol of
    # unit modulus, but puts 1e-6 on a second basis state, is no basis state.
    layer = querylab.hadamard_layer

    def leaky(state, n):
        out = layer(state, n)
        top = int(np.argmax(np.abs(out)))
        out[top] *= np.sqrt(1.0 - 1e-12)
        out[top ^ 1] = 1e-6
        return out

    monkeypatch.setattr(querylab, "hadamard_layer", leaky)
    with pytest.raises(RuntimeError, match="basis state"):
        run_bv_quantum(BVInstance(3, 0, (1, 0, 1)))


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


REPORTED = [("parity", n) for n in (1, 2)] + [("bv", n) for n in (1, 2, 3, 4, 5)]


@pytest.mark.parametrize("name,n", REPORTED, ids=[f"{p}{n}" for p, n in REPORTED])
def test_speedup_report_solves_each_distinct_family_once(monkeypatch, name, n):
    # Only O_S and the all-chi word share a table, and the report counts
    # it once, for O_S.
    problem = querylab.PROBLEMS[name][0](n)
    want = speedup_report(problem)
    calls = []

    def counting(problem, family):
        calls.append(family.perms.tobytes())
        return deterministic_query_complexity(problem, family)

    monkeypatch.setattr(querylab, "deterministic_query_complexity", counting)
    got = speedup_report(problem)
    assert got == want
    assert len(calls) == len(set(calls)) == len(want.entries) - 1


@pytest.mark.parametrize("name,n", REPORTED, ids=[f"{p}{n}" for p, n in REPORTED])
def test_all_chi_family_is_the_standard_family(name, n):
    # speedup_report gives the all-chi word O_S's count without a search.
    problem = querylab.PROBLEMS[name][0](n)
    standard = named_family(problem, "OS")
    all_chi = family_extracted(problem, parse_basis_word("C" * standard.m))
    assert np.array_equal(all_chi.perms, standard.perms)


def test_speedup_report_holds_one_family_at_a_time():
    # bv n = 6: 128 hypotheses on m = 7 bits, and 67 entries.  Holding every
    # family, and a bytes copy of each table for a count cache, peaked at
    # about 137 (k, 2^m) intp tables; counted as read, at about 22.
    problem = bv_problem(6)
    table = 128 * (1 << 7) * np.dtype(np.intp).itemsize
    tracemalloc.start()
    try:
        report = speedup_report(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.entries) == 67
    assert peak < 40 * table


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

    def counting_unchecked(*args, **kwargs):
        built.append("unchecked")
        return unchecked(*args, **kwargs)

    unchecked = matrixcore._unchecked
    monkeypatch.setattr(GeneralizedPermutation, "__init__", counting_init)
    for module in (matrixcore, correspondence, oracleforge):
        monkeypatch.setattr(module, "_unchecked", counting_unchecked)
    report = speedup_report(bv_problem(3))
    assert built == ["unchecked"]
    assert report.genuine_speedup == 1.0


def test_speedup_report_refuses_labels_no_family_separates():
    # Two hypotheses on one instance with different labels: every family
    # has identical rows for them, so every count is infinite.
    inst = BVInstance(1, 0, (1,))
    problem = ProblemSpec("bv", 1, (Hypothesis(0, inst, (0,)), Hypothesis(1, inst, (1,))))
    with pytest.raises(ValueError, match="separate the labels"):
        speedup_report(problem)


def test_speedup_report_unknown_problem():
    hyps = parity_problem(1).hypotheses
    with pytest.raises(ValueError):
        speedup_report(ProblemSpec("search", 1, hyps))
