"""Tests for the command-line surface: JSON outputs and the exit-code
contract (0 success, 2 malformed input, 3 non-unitary, 4 size limit)."""

import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from qcorr import cli, querylab
from qcorr.cli import build_parser, main
from qcorr.correspondence import MakhlinTriple, PauliGrid, search_counterparts
from qcorr.matrixcore import cycle_notation, matrix_to_json
from qcorr.oracleforge import BVInstance, bv_function, standard_oracle

CNOT12 = [
    [1, 0, 0, 0],
    [0, 1, 0, 0],
    [0, 0, 0, 1],
    [0, 0, 1, 0],
]
SQRT_SWAP = [
    [1, 0, 0, 0],
    [0, (1 + 1j) / 2, (1 - 1j) / 2, 0],
    [0, (1 - 1j) / 2, (1 + 1j) / 2, 0],
    [0, 0, 0, 1],
]


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("QCORR_TOL", raising=False)


def write_matrix(path, rows):
    mat = np.asarray(rows, dtype=complex)
    obj = {
        "dim": mat.shape[0],
        "entries": [[float(v.real), float(v.imag)] for v in mat.reshape(-1)],
    }
    path.write_text(json.dumps(obj))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if code == 0 else None


def test_classify_cnot(tmp_path, capsys):
    path = write_matrix(tmp_path / "m.json", CNOT12)
    code, data = run_cli(capsys, ["classify", "--matrix", path])
    assert code == 0
    assert data["cc_class"] == ["I", "CNOT12", "CNOT21"]
    assert abs(data["alpha"]) < 1e-9
    assert abs(data["beta"]) < 1e-9
    assert abs(data["gamma"] - 1.0) < 1e-9
    assert data["warnings"] == []


def test_classify_identity(tmp_path, capsys):
    path = write_matrix(tmp_path / "m.json", np.eye(4))
    code, data = run_cli(capsys, ["classify", "--matrix", path])
    assert code == 0
    assert data["cc_class"] == ["I"]
    assert data["alpha"] == pytest.approx(1.0)


def test_classify_sqrt_swap(tmp_path, capsys):
    path = write_matrix(tmp_path / "m.json", SQRT_SWAP)
    code, data = run_cli(capsys, ["classify", "--matrix", path])
    assert code == 0
    assert data["cc_class"] == []
    assert abs(data["beta"]) > 1e-3


def test_classify_non_unitary_exits_3(tmp_path, capsys):
    path = write_matrix(tmp_path / "m.json", np.ones((4, 4)))
    assert main(["classify", "--matrix", path]) == 3
    assert "error" in capsys.readouterr().err


def test_classify_malformed_inputs_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["classify", "--matrix", str(bad)]) == 2
    assert main(["classify", "--matrix", str(tmp_path / "missing.json")]) == 2
    two = write_matrix(tmp_path / "two.json", np.eye(2))
    assert main(["classify", "--matrix", two]) == 2
    capsys.readouterr()


def test_counterparts_standard_grid(tmp_path, capsys):
    bv = tmp_path / "bv.json"
    bv.write_text(json.dumps({"n": 2, "k0": 0, "k": [1, 1]}))
    code, data = run_cli(
        capsys,
        ["counterparts", "--oracle", "standard", "--bv", str(bv), "--bases", "GRID"],
    )
    assert code == 0
    by_word = {entry["bases"]: entry for entry in data}
    assert by_word["CCC"]["perm"] == "(2 3)(4 5)"
    assert by_word["CCC"]["phases_present"] is False
    assert by_word["HHH"]["perm"] == "(1 7)(3 5)"
    assert by_word["HHH"]["phases_present"] is False
    assert "HCC" not in by_word


def test_counterparts_phase_words(tmp_path, capsys):
    bv = tmp_path / "bv.json"
    bv.write_text(json.dumps({"n": 2, "k0": 0, "k": [1, 0]}))
    code, data = run_cli(
        capsys, ["counterparts", "--oracle", "phase", "--bv", str(bv), "--bases", "CC"]
    )
    assert code == 0
    assert data == [{"bases": "CC", "perm": "id", "phases_present": True}]
    code, data = run_cli(
        capsys, ["counterparts", "--oracle", "phase", "--bv", str(bv), "--bases", "HH"]
    )
    assert code == 0
    assert data == [{"bases": "HH", "perm": "(0 2)(1 3)", "phases_present": False}]


def test_counterparts_random_space(tmp_path, capsys):
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps({"n": 1, "truth": [0, 0]}))
    code, data = run_cli(
        capsys,
        [
            "counterparts",
            "--oracle",
            "standard",
            "--function",
            str(fn),
            "--bases",
            "random:3:5",
        ],
    )
    assert code == 0
    assert [entry["bases"] for entry in data] == ["random:0", "random:1", "random:2"]
    assert all(entry["perm"] == "id" for entry in data)


def test_counterparts_malformed_exit_2(tmp_path, capsys):
    bv = tmp_path / "bv.json"
    bv.write_text(json.dumps({"n": 2, "k0": 0, "k": [1, 1]}))
    args = ["counterparts", "--oracle", "standard", "--bv", str(bv)]
    assert main(args + ["--bases", "CC"]) == 2
    assert main(args + ["--bases", "random:5"]) == 2
    assert main(["counterparts", "--oracle", "standard", "--bases", "GRID"]) == 2
    assert main(["counterparts", "--oracle", "phase", "--bases", "GRID"]) == 2
    capsys.readouterr()


# Each file int() would read: a float truncated, a string of digits parsed,
# a bool taken as a bit.  Only JSON integers are accepted.
@pytest.mark.parametrize("argv, obj", [
    (["simulate", "--algorithm", "parity", "--function"], {"n": 2, "truth": [0.6, 1, 1, 0]}),
    (["simulate", "--algorithm", "parity", "--function"], {"n": 2, "truth": "0110"}),
    (["simulate", "--algorithm", "parity", "--function"], {"n": True, "truth": [True, False]}),
    (["counterparts", "--oracle", "standard", "--bases", "CCCC", "--bv"],
     {"n": 3.9, "k0": 0.7, "k": [1, 0.99, 1]}),
    (["counterparts", "--oracle", "standard", "--bases", "CCCC", "--bv"],
     {"n": 3, "k0": 0.7, "k": [1, 0, 1]}),
    (["counterparts", "--oracle", "standard", "--bases", "CCCC", "--bv"],
     {"n": 3, "k0": 0, "k": [1, 0.99, 1]}),
    (["classify", "--matrix"], {"dim": 4.5, "entries": matrix_to_json(np.eye(4))["entries"]}),
])
def test_json_integer_fields_refuse_non_integers(tmp_path, capsys, argv, obj):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(obj))
    assert main(argv + [str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "must be a JSON integer" in err


# A string of digits float() would parse, a bool it would take as 0 or 1,
# null, and an integer too large for a float: only JSON numbers a float can
# hold are matrix entries.
@pytest.mark.parametrize("bad, message", [
    (["1", "0"], "must be a pair of JSON numbers"),
    ([True, 0], "must be a pair of JSON numbers"),
    ([1, False], "must be a pair of JSON numbers"),
    ([None, 0], "must be a pair of JSON numbers"),
    ([10 ** 400, 0], "too large for a float"),
])
def test_matrix_entries_refuse_non_numbers(tmp_path, capsys, bad, message):
    entries = matrix_to_json(np.array(CNOT12))["entries"]
    entries[0] = bad
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"dim": 4, "entries": entries}))
    assert main(["classify", "--matrix", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert message in err


def test_counterparts_random_count_bounds(tmp_path, capsys):
    bv = tmp_path / "bv.json"
    bv.write_text(json.dumps({"n": 1, "k0": 0, "k": [1]}))
    args = ["counterparts", "--oracle", "standard", "--bv", str(bv), "--bases"]
    assert main(args + ["random:-3:1"]) == 2
    assert main(args + ["random:0:1"]) == 2
    assert main(args + [f"random:{(1 << 13) + 1}:1"]) == 4
    assert main(args + ["random:1:1"]) == 0
    capsys.readouterr()


def test_counterparts_qubit_limit_covers_every_space(tmp_path, capsys):
    bv = tmp_path / "bv.json"
    bv.write_text(json.dumps({"n": 13, "k0": 0, "k": [1] * 13}))
    args = ["counterparts", "--oracle", "standard", "--bv", str(bv), "--bases"]
    assert main(args + ["GRID"]) == 4
    assert main(args + ["H" * 14]) == 4
    assert main(args + ["random:1:1"]) == 4
    capsys.readouterr()


@pytest.mark.parametrize("bases, message", [
    ("random:x:1", "random space COUNT must be an integer, got 'x'"),
    ("random:1.5:1", "random space COUNT must be an integer, got '1.5'"),
    ("random:1:x", "random space SEED must be an integer, got 'x'"),
    ("random:1:-5", "random sample seed must be an integer >= 0, got -5"),
])
def test_counterparts_random_fields_are_named_before_the_oracle(tmp_path, capsys, monkeypatch,
                                                                bases, message):
    def refuse(*args):
        raise AssertionError("the oracle must not be built for a malformed sample")

    monkeypatch.setattr(cli, "standard_oracle", refuse)
    bv = tmp_path / "bv.json"
    bv.write_text(json.dumps({"n": 1, "k0": 0, "k": [1]}))
    assert main(["counterparts", "--oracle", "standard", "--bv", str(bv), "--bases", bases]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("oracle, m", [("standard", 41), ("phase", 40)])
def test_counterparts_limit_comes_before_the_oracle(tmp_path, capsys, monkeypatch, oracle, m):
    # a promise file of about a hundred bytes names a 2^m-entry oracle
    def refuse(*args):
        raise AssertionError("the oracle must not be built past the qubit limit")

    for name in ("bv_function", "standard_oracle", "phase_oracle"):
        monkeypatch.setattr(cli, name, refuse)
    bv = tmp_path / "bv.json"
    bv.write_text(json.dumps({"n": 40, "k0": 1, "k": [1, 0] * 20}))
    assert main(["counterparts", "--oracle", oracle, "--bv", str(bv), "--bases", "GRID"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: extraction on {m} qubits exceeds the 13-qubit limit\n"


def test_counterparts_holds_one_counterpart_at_a_time(tmp_path, capsys):
    # The grid on m = 10 qubits admits 520 words, each a map of 1024 intp
    # perm entries and 1024 complex phases (24 KiB): 12 MiB if all are held
    # at once, against about 1 MiB of stdout.  Formatted as the engine
    # yields them, the run peaks near the size of its output.
    inst = BVInstance(9, 1, (1, 0, 1, 1, 0, 0, 1, 1, 1))
    bv = tmp_path / "bv.json"
    bv.write_text(json.dumps(inst.to_json()))
    argv = ["counterparts", "--oracle", "standard", "--bv", str(bv), "--bases", "GRID"]
    assert main(argv) == 0  # warm: imports and the grid's words
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 0
    assert peak < 8 << 20
    found = search_counterparts(standard_oracle(bv_function(inst)), PauliGrid())
    assert json.loads(out) == [
        {"bases": name, "perm": cycle_notation(gp.perm),
         "phases_present": any(abs(p - 1.0) > 1e-9 for p in gp.phases)}
        for name, _, gp in found
    ]


@pytest.mark.parametrize(
    "problem,n,oracle,expected",
    [
        ("parity", "2", "OS", 4),
        ("parity", "2", "OA", 2),
        ("bv", "3", "OS", 4),
        ("bv", "3", "OB", 1),
        ("bv", "3", "OBT", 1),
        ("bv", "3", "OA", None),
    ],
)
def test_complexity_counts(capsys, problem, n, oracle, expected):
    code, data = run_cli(
        capsys, ["complexity", "--problem", problem, "--n", n, "--oracle", oracle]
    )
    assert code == 0
    assert data == {"queries": expected}


def test_complexity_bv_at_the_size_limit(capsys):
    code = main(["complexity", "--problem", "bv", "--n", "6", "--oracle", "OS"])
    assert code == 0
    assert capsys.readouterr().out == '{"queries": 7}\n'


def test_complexity_extracted_word(capsys):
    code, data = run_cli(
        capsys, ["complexity", "--problem", "bv", "--n", "1", "--oracle", "extracted:CH"]
    )
    assert code == 0
    assert data == {"queries": None}


def test_complexity_errors(capsys):
    assert main(["complexity", "--problem", "parity", "--n", "2", "--oracle", "OB"]) == 2
    assert main(["complexity", "--problem", "parity", "--n", "2", "--oracle", "XX"]) == 2
    args = ["complexity", "--problem", "parity", "--n", "2", "--oracle", "extracted:HHH"]
    assert main(args) == 2
    assert main(["complexity", "--problem", "parity", "--n", "3", "--oracle", "OS"]) == 4
    assert main(["complexity", "--problem", "bv", "--n", "7", "--oracle", "OS"]) == 4
    capsys.readouterr()


def test_simulate_bv(capsys):
    code, data = run_cli(
        capsys, ["simulate", "--algorithm", "bv", "--n", "4", "--k", "1011", "--k0", "1"]
    )
    assert code == 0
    assert data == {"k": "1011", "queries": 1}


def test_simulate_bv_k0_defaults_to_0(capsys):
    for extra in ([], ["--k0", "0"], ["--k0", "1"]):
        argv = ["simulate", "--algorithm", "bv", "--k", "101", *extra]
        assert run_cli(capsys, argv) == (0, {"k": "101", "queries": 1})


def test_simulate_bv_errors(capsys):
    assert main(["simulate", "--algorithm", "bv", "--n", "3", "--k", "10"]) == 2
    assert main(["simulate", "--algorithm", "bv", "--n", "3"]) == 2
    assert main(["simulate", "--algorithm", "bv", "--k", "0" * 17]) == 4
    capsys.readouterr()


def test_simulate_parity(tmp_path, capsys):
    code, data = run_cli(
        capsys, ["simulate", "--algorithm", "parity", "--truth", "0110"]
    )
    assert code == 0
    assert data == {"parity": 0, "queries": 2}
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps({"n": 1, "truth": [0, 1]}))
    code, data = run_cli(
        capsys, ["simulate", "--algorithm", "parity", "--function", str(fn)]
    )
    assert code == 0
    assert data == {"parity": 1, "queries": 1}


def test_simulate_parity_errors(capsys):
    assert main(["simulate", "--algorithm", "parity"]) == 2
    assert main(["simulate", "--algorithm", "parity", "--truth", "011"]) == 2
    assert main(["simulate", "--algorithm", "parity", "--truth", "01x2"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--algorithm", "parity", "--n", "5", "--truth", "0110"],
     "--n 5 does not match the truth table's n=2"),
    (["simulate", "--algorithm", "parity", "--n", "2", "--function", "{f}"],
     "--n 2 does not match the truth table's n=1"),
    (["simulate", "--algorithm", "parity", "--function", "{f}", "--truth", "0110"],
     "parity simulation takes --function or --truth, not both"),
    (["counterparts", "--oracle", "standard", "--function", "{f}", "--bv", "{bv}",
      "--bases", "CC"], "--function goes with a standard oracle and no --bv"),
    (["counterparts", "--oracle", "phase", "--function", "{f}", "--bases", "CH"],
     "--function goes with a standard oracle and no --bv"),
    (["simulate", "--algorithm", "bv", "--k", "101", "--truth", "0110"],
     "bv simulation takes --k and --k0, not --function or --truth"),
    (["simulate", "--algorithm", "bv", "--k", "101", "--function", "{f}"],
     "bv simulation takes --k and --k0, not --function or --truth"),
    (["simulate", "--algorithm", "parity", "--truth", "0110", "--k", "111", "--k0", "1"],
     "parity simulation takes --function or --truth, not --k or --k0"),
    (["simulate", "--algorithm", "parity", "--truth", "0110", "--k", "11"],
     "parity simulation takes --function or --truth, not --k or --k0"),
    (["simulate", "--algorithm", "parity", "--function", "{f}", "--k0", "0"],
     "parity simulation takes --function or --truth, not --k or --k0"),
], ids=["parity-n-truth", "parity-n-function", "parity-function-truth",
        "standard-function-bv", "phase-function", "bv-truth", "bv-function",
        "parity-k-k0", "parity-k", "parity-explicit-k0-0"])
def test_conflicting_inputs_exit_2(tmp_path, capsys, argv, message):
    # Each input alone is valid; together they disagree, or one would be
    # dropped unread.
    fn, bv = tmp_path / "f.json", tmp_path / "bv.json"
    fn.write_text(json.dumps({"n": 1, "truth": [0, 1]}))
    bv.write_text(json.dumps({"n": 1, "k0": 0, "k": [1]}))
    argv = [a.format(f=fn, bv=bv) for a in argv]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


def test_simulate_truth_limit_comes_before_the_function(capsys, monkeypatch):
    # 2^13 valid bits name a 13-bit function: refused on its length, before
    # any function is built.  A bad character in the same table is malformed
    # input first.
    def refuse(*args):
        raise AssertionError("the function must not be built past the simulation limit")

    monkeypatch.setattr(cli, "BooleanFunction", refuse)
    truth = "01" * (1 << 12)
    assert main(["simulate", "--algorithm", "parity", "--truth", truth]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: parity simulation limited to n <= 12 (got n=13)\n"
    assert main(["simulate", "--algorithm", "parity", "--truth", truth[:-1] + "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: --truth must be a nonempty string of 0s and 1s")


@pytest.mark.parametrize("truth", ["0", "011", "011010"])
def test_simulate_truth_length_must_be_a_power_of_two(capsys, truth):
    assert main(["simulate", "--algorithm", "parity", "--truth", truth]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: --truth length") and len(err.splitlines()) == 1


def test_speedup_bv(capsys):
    code, data = run_cli(capsys, ["speedup", "--problem", "bv", "--n", "2"])
    assert code == 0
    assert data["naive_speedup"] == pytest.approx(3.0)
    assert data["genuine_speedup"] == pytest.approx(1.0)
    assert {"oracle": "O_B", "queries": 1} in data["entries"]


def test_speedup_parity(capsys):
    code, data = run_cli(capsys, ["speedup", "--problem", "parity", "--n", "1"])
    assert code == 0
    assert data["quantum_queries"] == 1
    queries = [e["queries"] for e in data["entries"] if e["queries"] is not None]
    assert min(queries) == 1


BV3_NAMED_ONLY = ('{"problem": "bv", "n": 3, "entries": [{"oracle": "O_S", "queries": 4}, '
                  '{"oracle": "O_B", "queries": 1}], "quantum_queries": 1, '
                  '"naive_speedup": 4.0, "genuine_speedup": 1.0}\n')


@pytest.mark.parametrize("tol", ["1", "2.5"])
def test_no_counterpart_family_at_a_tolerance_of_one_or_more(tol, capsys):
    # The family tables carry no phases, yet a 1 must still pass the phase
    # test at tol: at tol >= 1 no grid word admits, so the report holds the
    # named families alone and an extracted family is malformed input.
    assert main(["speedup", "--problem", "bv", "--n", "3", "--tol", tol]) == 0
    assert capsys.readouterr().out == BV3_NAMED_ONLY
    args = ["complexity", "--problem", "bv", "--n", "3", "--oracle", "extracted:HHHH", "--tol", tol]
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: extraction fails for some hypothesis under those bases\n"
    args[-1] = "0.999999"
    assert main(args) == 0
    assert capsys.readouterr().out == '{"queries": 1}\n'


def test_speedup_size_limit(capsys):
    assert main(["speedup", "--problem", "parity", "--n", "3"]) == 4
    capsys.readouterr()


def test_tol_env_override(tmp_path, capsys, monkeypatch):
    rows = np.asarray(CNOT12, dtype=complex)
    rows[0, 0] = 1 + 1e-6
    path = write_matrix(tmp_path / "m.json", rows)
    assert main(["classify", "--matrix", path]) == 3
    monkeypatch.setenv("QCORR_TOL", "1e-3")
    code, data = run_cli(capsys, ["classify", "--matrix", path])
    assert code == 0
    assert data["cc_class"] == ["I", "CNOT12", "CNOT21"]
    # an explicit flag wins over the environment
    assert main(["classify", "--matrix", path, "--tol", "1e-9"]) == 3
    monkeypatch.setenv("QCORR_TOL", "abc")
    assert main(["classify", "--matrix", path]) == 2
    capsys.readouterr()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rows, tol", [
    (np.zeros((4, 4)), "1"),                          # det 0
    (1e-100 * np.eye(4), "1"),                        # det underflows to 0
    (np.diag([1e80, 1e80, 1e80, 1e-240]), "1e300"),   # invariants overflow
    (1e200 * np.eye(4), "1e300"),                     # A†A overflows
], ids=["zero", "tiny", "huge-invariants", "huge"])
def test_classify_refuses_what_a_lax_tolerance_lets_through(tmp_path, capsys, rows, tol):
    path = write_matrix(tmp_path / "m.json", rows)
    assert main(["classify", "--matrix", path, "--tol", tol]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: matrix is ")


@pytest.mark.parametrize("value", ["inf", "Infinity", "1e400"])
def test_infinite_tolerance_exits_2(tmp_path, capsys, monkeypatch, value):
    bv = tmp_path / "bv.json"
    bv.write_text(json.dumps({"n": 2, "k0": 0, "k": [1, 1]}))
    runs = [
        ["classify", "--matrix", write_matrix(tmp_path / "m.json", 2 * np.eye(4))],
        ["counterparts", "--oracle", "standard", "--bv", str(bv), "--bases", "GRID"],
        ["simulate", "--algorithm", "parity", "--truth", "0110"],
    ]
    for argv in runs:
        assert main(argv + [f"--tol={value}"]) == 2
        assert capsys.readouterr() == ("", "error: --tol must be finite, got inf\n")
    monkeypatch.setenv("QCORR_TOL", value)
    for argv in runs:
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: QCORR_TOL must be finite, got inf\n")


def test_stdout_never_carries_nan(tmp_path, capsys, monkeypatch):
    # a NaN that reached the output is a fault, not a JSON document
    nan = MakhlinTriple(np.nan, 0.0, 1.0)
    monkeypatch.setattr(cli, "makhlin_invariants", lambda u, tol: nan)
    with pytest.raises(ValueError, match="JSON"):
        main(["classify", "--matrix", write_matrix(tmp_path / "m.json", CNOT12)])
    assert capsys.readouterr().out == ""


def test_simulate_reads_the_tolerance(tmp_path, capsys, monkeypatch):
    seen = []
    for run in ("run_bv_quantum", "run_parity_quantum"):
        original = getattr(querylab, run)
        monkeypatch.setattr(querylab, run, lambda inst, tol, _run=original:
                            seen.append(tol) or _run(inst, tol=tol))
    bv = ["simulate", "--algorithm", "bv", "--k", "1011"]
    parity = ["simulate", "--algorithm", "parity", "--truth", "0110"]
    assert run_cli(capsys, bv) == (0, {"k": "1011", "queries": 1})
    assert run_cli(capsys, parity) == (0, {"parity": 0, "queries": 2})
    assert run_cli(capsys, bv + ["--tol", "1e-6"])[0] == 0
    monkeypatch.setenv("QCORR_TOL", "1e-5")
    assert run_cli(capsys, parity)[0] == 0
    assert seen == [1e-9, 1e-9, 1e-6, 1e-5]
    monkeypatch.setenv("QCORR_TOL", "abc")
    for argv in (bv, parity):
        assert main(argv) == 2
        assert "QCORR_TOL is not a number" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-5", "-1", "-1e-12", "nan", "NaN", "-inf"])
def test_negative_or_nan_tolerance_exits_2(tmp_path, capsys, monkeypatch, value):
    bv = tmp_path / "bv.json"
    bv.write_text(json.dumps({"n": 2, "k0": 0, "k": [1, 1]}))
    matrix = write_matrix(tmp_path / "m.json", CNOT12)
    runs = [
        ["simulate", "--algorithm", "bv", "--k", "101"],
        ["simulate", "--algorithm", "parity", "--truth", "0110"],
        ["counterparts", "--oracle", "standard", "--bv", str(bv), "--bases", "GRID"],
        ["counterparts", "--oracle", "phase", "--bv", str(bv), "--bases", "HC"],
        ["classify", "--matrix", matrix],
        ["complexity", "--problem", "bv", "--n", "2", "--oracle", "extracted:HHH"],
        ["speedup", "--problem", "parity", "--n", "1"],
    ]
    for argv in runs:
        assert main(argv + [f"--tol={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --tol must be a number >= 0, got {float(value)!r}\n"
    monkeypatch.setenv("QCORR_TOL", value)
    for argv in runs:
        assert main(argv) == 2
        assert "QCORR_TOL must be a number >= 0" in capsys.readouterr().err
        # a valid flag wins over a bad environment
        assert main(argv + ["--tol", "1e-9"]) == 0
        capsys.readouterr()


@pytest.mark.parametrize("argv,want", [
    (["simulate", "--algorithm", "bv", "--k", "101"], '{"k": "101", "queries": 1}\n'),
    (["simulate", "--algorithm", "parity", "--truth", "0110"], '{"parity": 0, "queries": 2}\n'),
], ids=["bv", "parity"])
def test_simulate_tolerance_below_its_checks_exits_2(capsys, monkeypatch, argv, want):
    # A norm is rounded to within a few ulps of 1, so a tolerance of 0 (or
    # 1e-300) fails the run's own check: malformed input, not a crash.
    def refused(run, value):
        assert main(run) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: simulation check failed at tolerance {float(value)!r}: ")
        assert captured.err.count("\n") == 1

    for value in ("0", "1e-300"):
        refused(argv + ["--tol", value], value)
    monkeypatch.setenv("QCORR_TOL", "0")
    refused(argv, "0")
    monkeypatch.delenv("QCORR_TOL")
    assert main(argv) == 0
    assert capsys.readouterr() == (want, "")


@pytest.mark.parametrize("n", range(1, 17))
def test_simulate_bv_at_tolerance_zero_is_exact_at_even_n(capsys, n):
    # At even n every amplitude of the run is a dyadic rational (2^(-n/2)
    # times a sum of signs), so each check holds exactly; at odd n the scale
    # 2^(-n/2) is rounded and a norm misses 1 by a few ulps.
    k = "".join(map(str, np.random.default_rng(n).integers(0, 2, n)))
    argv = ["simulate", "--algorithm", "bv", "--k", k, "--k0", str(n & 1), "--tol", "0"]
    if n % 2 == 0:
        assert main(argv) == 0
        assert capsys.readouterr() == (f'{{"k": "{k}", "queries": 1}}\n', "")
    else:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: simulation check failed at tolerance 0.0: ")


def test_parser_is_built_once_and_survives_errors(tmp_path, capsys):
    path = write_matrix(tmp_path / "m.json", CNOT12)
    calls = [
        ["classify", "--matrix", path],
        ["simulate", "--algorithm", "bv", "--k", "0110", "--k0", "1"],
    ]
    alone = []
    for argv in calls:
        build_parser.cache_clear()
        alone.append((main(argv), capsys.readouterr()))
    build_parser.cache_clear()
    with pytest.raises(SystemExit) as exc:
        main(["classify"])
    assert exc.value.code == 2
    assert "--matrix" in capsys.readouterr().err
    parser = build_parser()
    assert [(main(argv), capsys.readouterr()) for argv in calls] == alone
    assert build_parser() is parser


def test_pretty_output(tmp_path, capsys):
    path = write_matrix(tmp_path / "m.json", np.eye(4))
    assert main(["classify", "--matrix", path, "--pretty"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("{\n")
    assert json.loads(out)["cc_class"] == ["I"]


def test_module_entry_point(tmp_path):
    path = write_matrix(tmp_path / "m.json", CNOT12)
    proc = subprocess.run(
        [sys.executable, "-m", "qcorr.cli", "classify", "--matrix", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["cc_class"] == ["I", "CNOT12", "CNOT21"]
