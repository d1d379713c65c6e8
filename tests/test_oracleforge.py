"""Unit tests for oracle construction: truth tables, promise instances, the
standard and phase oracles, and the named classical oracles."""

import json
import re
import warnings

import numpy as np
import pytest

from qcorr import correspondence, matrixcore, oracleforge
from qcorr.matrixcore import SIGMA_Z, GeneralizedPermutation, detect_generalized_permutation
from qcorr.oracleforge import (
    BooleanFunction,
    BVInstance,
    OracleAction,
    bv_function,
    perms_OA,
    perms_OB,
    perms_OBtilde,
    perms_OS,
    phase_oracle,
    standard_oracle,
)
from qcorr.querylab import bv_problem, named_family, parity_problem


def all_functions(n):
    size = 1 << n
    for code in range(1 << size):
        yield BooleanFunction(n, tuple((code >> (size - 1 - i)) & 1 for i in range(size)))


def is_involution(perms):
    # every row of a (k, 2^m) table, applied twice, is the identity
    return np.array_equal(np.take_along_axis(perms, perms, -1),
                          np.broadcast_to(np.arange(perms.shape[-1]), perms.shape))


def affine_eval(k0, k, x, n):
    # independent brute-force evaluator: k0 XOR sum_i k_i x_i mod 2
    acc = k0
    for j in range(n):
        acc ^= k[j] & ((x >> (n - 1 - j)) & 1)
    return acc


def test_boolean_function_basics():
    f = BooleanFunction(2, (0, 1, 1, 0))
    assert [f(x) for x in range(4)] == [0, 1, 1, 0]
    assert f.parity() == 0
    assert BooleanFunction(1, (0, 1)).parity() == 1
    # a negative input must not read the table from its end, as f(1)
    for x in (-1, -2, 2, 3):
        with pytest.raises(IndexError):
            BooleanFunction(1, (0, 1))(x)


def test_boolean_function_validation():
    with pytest.raises(ValueError):
        BooleanFunction(0, ())
    with pytest.raises(ValueError):
        BooleanFunction(2, (0, 1))
    with pytest.raises(ValueError):
        BooleanFunction(1, (0, 2))


def test_boolean_function_json():
    f = BooleanFunction(2, (1, 0, 0, 1))
    assert BooleanFunction.from_json(f.to_json()) == f
    with pytest.raises(ValueError):
        BooleanFunction.from_json({"n": 2})


def test_bv_instance_basics():
    inst = BVInstance(3, 1, (1, 0, 1))
    assert inst.k_int == 0b101
    assert BVInstance.from_json(inst.to_json()) == inst
    with pytest.raises(ValueError):
        BVInstance(2, 0, (1,))
    with pytest.raises(ValueError):
        BVInstance(1, 2, (0,))
    with pytest.raises(ValueError):
        BVInstance.from_json({"n": 1, "k0": 0})


@pytest.mark.parametrize("bit", [int, bool, np.int64, np.uint8], ids=lambda t: t.__name__)
def test_instances_store_bits_as_ints_and_round_trip_json(bit):
    f = BooleanFunction(2, tuple(bit(b) for b in (1, 0, 0, 1)))
    inst = BVInstance(2, bit(1), (bit(1), bit(0)))
    for obj, cls, bits in ((f, BooleanFunction, f.truth), (inst, BVInstance, (inst.k0, *inst.k))):
        assert all(type(b) is int for b in bits)
        back = cls.from_json(json.loads(json.dumps(obj.to_json())))
        assert back == obj and hash(back) == hash(obj)
    assert f.parity() == 0 and inst.k_int == 0b10


@pytest.mark.parametrize("width", [int, bool, np.int64, np.uint8], ids=lambda t: t.__name__)
def test_instances_store_n_as_an_int_and_round_trip_json(width):
    for obj, cls in ((BooleanFunction(width(1), (0, 1)), BooleanFunction),
                     (BVInstance(width(1), 1, (1,)), BVInstance)):
        assert type(obj.n) is int and obj.n == 1
        back = cls.from_json(json.loads(json.dumps(obj.to_json())))
        assert back == obj and hash(back) == hash(obj)


@pytest.mark.parametrize("make", [
    lambda: BooleanFunction(1.0, (0, 1)),
    lambda: BooleanFunction(np.float64(1), (0, 1)),
    lambda: BooleanFunction("1", (0, 1)),
    lambda: BVInstance(2.0, 1, (1, 0)),
    lambda: BVInstance("2", 1, (1, 0)),
    lambda: BVInstance(None, 1, (1, 0)),
], ids=["float-n", "numpy-float-n", "string-n", "float-bv-n", "string-bv-n", "none-bv-n"])
def test_instances_refuse_an_n_that_is_not_an_integer(make):
    with pytest.raises(ValueError, match="n must be an integer"):
        make()


@pytest.mark.parametrize("make", [
    lambda: BooleanFunction(1, (0.0, 1.0)),
    lambda: BooleanFunction(1, (0, np.float64(1))),
    lambda: BooleanFunction(1, (0, "1")),
    lambda: BooleanFunction(1, (np.False_, np.True_)),
    lambda: BVInstance(2, 1.0, (True, 0)),
    lambda: BVInstance(2, 1, (1, 0.0)),
], ids=["float-truth", "numpy-float-truth", "string-truth", "numpy-bool-truth", "float-k0",
     "float-k"])
def test_instances_refuse_a_bit_that_is_not_an_integer(make):
    with pytest.raises(ValueError, match="must be bits"):
        make()


def test_bv_function_frozen_examples():
    assert bv_function(BVInstance(1, 0, (1,))).truth == (0, 1)
    assert bv_function(BVInstance(2, 1, (1, 0))).truth == (1, 1, 0, 0)
    assert bv_function(BVInstance(2, 0, (0, 0))).truth == (0, 0, 0, 0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bv_function_matches_affine_evaluator(n):
    for k0 in (0, 1):
        for k_int in range(1 << n):
            k = tuple((k_int >> (n - 1 - j)) & 1 for j in range(n))
            f = bv_function(BVInstance(n, k0, k))
            for x in range(1 << n):
                assert f(x) == affine_eval(k0, k, x, n)


def test_bv_function_matches_popcount_reference():
    # k0 XOR popcount(k & x) mod 2 in Python ints, one x at a time
    for n in range(1, 9):
        for k0 in (0, 1):
            for k_int in range(1 << n):
                k = tuple((k_int >> (n - 1 - j)) & 1 for j in range(n))
                want = tuple(k0 ^ (bin(x & k_int).count("1") & 1) for x in range(1 << n))
                assert bv_function(BVInstance(n, k0, k)).truth == want


def test_standard_oracle_flips_target():
    oracle = standard_oracle(BooleanFunction(1, (0, 1)))
    e2 = np.zeros(4, dtype=complex)
    e2[2] = 1.0
    out = oracle.apply(e2)
    assert np.array_equal(out, [0, 0, 0, 1])


def test_standard_oracle_constant_zero_is_identity():
    oracle = standard_oracle(BooleanFunction(2, (0, 0, 0, 0)))
    assert oracle.permutation.perm == tuple(range(8))


def test_standard_oracle_brute_force_bv():
    f = bv_function(BVInstance(2, 0, (1, 1)))
    perm = standard_oracle(f).permutation.perm
    for x in range(4):
        for y in (0, 1):
            assert perm[(x << 1) | y] == (x << 1) | (y ^ f(x))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_standard_oracle_involution(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(10):
        truth = tuple(int(b) for b in rng.integers(0, 2, size=1 << n))
        gp = standard_oracle(BooleanFunction(n, truth)).permutation
        assert gp.is_involution()


@pytest.mark.parametrize("n", range(1, 13))
def test_standard_oracle_is_the_checked_map(n):
    # The oracle's map is built unchecked from perms_OS and shared ones; the
    # map that the constructor checks from the same perm and phases must
    # equal it in every respect.
    rng = np.random.default_rng(8000 + n)
    for _ in range(3 if n <= 8 else 1):
        f = BooleanFunction(n, tuple(int(b) for b in rng.integers(0, 2, 1 << n)))
        got = standard_oracle(f).permutation
        want = GeneralizedPermutation(n + 1, perms_OS(f.truth), np.ones(2 << n))
        assert got.m == want.m == n + 1
        assert got.perm == want.perm and np.array_equal(got._inv, want._inv)
        assert got.phases == want.phases
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
        assert got._phases.dtype == want._phases.dtype == float
        assert not any(a.flags.writeable for a in (got._perm, got._inv, got._phases))


def test_standard_oracle_shares_its_ones_only_up_to_16_qubits():
    # As with the phase oracle's identity: above 16 qubits no 2^m table
    # outlives the oracles using it.
    for n, kept in ((15, True), (16, False)):
        f = BooleanFunction(n, (0, 1) * (1 << (n - 1)))
        a, b = (standard_oracle(f).permutation for _ in range(2))
        assert (a._phases is b._phases) is kept
        assert a._perm is not b._perm
        # an involution is its own inverse: the map holds one table for both
        assert a._inv is a._perm and a.is_involution()
        assert a._phases.dtype == float and not a._phases.flags.writeable


def test_classical_os_frozen_example():
    gp = standard_oracle(BooleanFunction(1, (0, 1))).permutation
    assert gp.perm == (0, 1, 3, 2) == tuple(perms_OS((0, 1)).tolist())
    assert all(p == 1 for p in gp.phases)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_classical_os_equals_detected_standard_oracle(n):
    # O_S by its definition, (x, y) -> (x, y XOR f(x)), against the map
    # read back from the standard oracle's matrix
    for f in all_functions(n):
        detected = detect_generalized_permutation(standard_oracle(f).as_matrix())
        assert detected.perm == tuple((x << 1) | (y ^ f(x)) for x in range(1 << n) for y in (0, 1))


def test_classical_oa_flip_example():
    # c = f(0,x2) XOR f(1,x2) = 1 for both x2 values, so x1 always flips
    f = bv_function(BVInstance(2, 0, (1, 0)))
    perm = perms_OA(f.truth).tolist()
    for x in range(4):
        for y in (0, 1):
            assert perm[(x << 1) | y] == ((x ^ 0b10) << 1) | y


@pytest.mark.parametrize("n", [1, 2, 3])
def test_classical_oa_involution_and_y_independence(n, monkeypatch):
    # every truth table on n bits is one parity hypothesis; n = 3 lies past
    # the search limit, which only gates the problem builder
    monkeypatch.setattr("qcorr.querylab.PARITY_SEARCH_LIMIT", 3)
    perms = named_family(parity_problem(n), "OA").perms
    assert perms.tolist() == perms_OA([f.truth for f in all_functions(n)]).tolist()
    assert is_involution(perms)
    for perm in perms.tolist():
        for x in range(1 << n):
            out0 = perm[x << 1]
            out1 = perm[(x << 1) | 1]
            assert out0 >> 1 == out1 >> 1
            assert out0 & 1 == 0 and out1 & 1 == 1


def test_classical_ob_and_obtilde():
    inst = BVInstance(3, 0, (1, 0, 1))
    ob, obt = perms_OB(3, inst.k_int), perms_OBtilde(3, inst.k_int)
    assert is_involution(ob) and is_involution(obt)
    assert obt.tolist() == [x ^ 0b101 for x in range(8)]
    for x in range(8):
        for y in (0, 1):
            assert ob[(x << 1) | y] == ((x ^ 0b101) << 1) | y
    # the families hold one such row per hidden string, k0 aside
    problem = bv_problem(3)
    rows = {h.instance: i for i, h in enumerate(problem.hypotheses)}
    for oracle, perm in (("OB", ob), ("OBT", obt)):
        family = named_family(problem, oracle)
        assert is_involution(family.perms)
        assert family.perms[rows[inst]].tolist() == perm.tolist()
        assert family.perms[rows[BVInstance(3, 1, (1, 0, 1))]].tolist() == perm.tolist()


def test_phase_oracle_values():
    assert np.array_equal(phase_oracle(BVInstance(2, 0, (0, 0))).as_matrix(), np.eye(4))
    assert np.array_equal(phase_oracle(BVInstance(1, 0, (1,))).as_matrix(), SIGMA_Z)
    assert np.array_equal(
        phase_oracle(BVInstance(2, 0, (1, 1))).as_matrix(), np.diag([1, -1, -1, 1])
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_phase_oracle_diagonal_pm_one_and_k0_free(n):
    for k_int in range(1 << n):
        k = tuple((k_int >> (n - 1 - j)) & 1 for j in range(n))
        gp0 = phase_oracle(BVInstance(n, 0, k)).permutation
        gp1 = phase_oracle(BVInstance(n, 1, k)).permutation
        assert gp0.perm == tuple(range(1 << n))
        assert all(p in (1, -1) for p in gp0.phases)
        assert gp0.phases == gp1.phases


def test_phase_oracle_keeps_its_identity_perm_only_up_to_16_qubits():
    # Above the simulation limit no 2^n table outlives the oracles using it.
    for n, kept in ((16, True), (17, False)):
        a, b = (phase_oracle(BVInstance(n, 0, (1,) * n)).permutation for _ in range(2))
        assert (a._perm is b._perm) is kept
        assert not a._perm.flags.writeable
        # the identity is its own inverse: the map holds one table for both
        assert a._inv is a._perm and np.array_equal(a._perm, np.arange(1 << n))


def test_phase_oracle_keeps_its_last_sign_table_per_n_up_to_16_qubits():
    # One table per n is kept, for the last hidden string: an oracle on the
    # same string shares it, one on another string builds its own, and
    # above the simulation limit nothing outlives the oracles using it.
    for n, kept in ((3, True), (16, True), (17, False)):
        k, other = (1,) + (0,) * (n - 1), (0,) * (n - 1) + (1,)
        a, b = (phase_oracle(BVInstance(n, k0, k)).permutation for k0 in (0, 1))
        assert (a._phases is b._phases) is kept
        c = phase_oracle(BVInstance(n, 0, other)).permutation
        assert c._phases is not a._phases and c.phases != a.phases
        assert phase_oracle(BVInstance(n, 0, k)).permutation == a
        assert a._phases.dtype == float and not a._phases.flags.writeable


@pytest.mark.parametrize("table, args", [
    (correspondence._flips, (5,)),
    (matrixcore._sylvester, (4,)),  # 4^g entries: never above g = 4
    (matrixcore._last_pass, (7,)),
    (matrixcore._identity, (5,)),
    (oracleforge._ones, (5,)),
    (oracleforge._signs, (5, (1, 0, 1, 1, 0))),
], ids=lambda v: getattr(v, "__name__", None))
def test_shared_tables_follow_one_keep_rule(table, args):
    # A second call with the same arguments hands back the kept table
    # itself, which no caller can write.
    first = table(*args)
    assert table(*args) is first and table.held[args[0]] is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[...] = 0


def test_oracle_action_matrix_checks():
    with pytest.raises(ValueError):
        OracleAction.from_matrix(np.array([[1, 1], [0, 1]], dtype=complex))
    with pytest.raises(ValueError):
        OracleAction.from_matrix(np.eye(3))
    with pytest.raises(ValueError):
        OracleAction(1)
    gp = standard_oracle(BooleanFunction(1, (0, 1))).permutation
    with pytest.raises(ValueError):
        OracleAction(3, permutation=gp)


def test_oracle_action_rejects_a_nan_entry():
    mat = np.eye(4, dtype=complex)
    mat[2, 1] = np.nan
    with pytest.raises(ValueError, match="norm"):
        OracleAction.from_matrix(mat)


@pytest.mark.parametrize("mat", [1e200 * np.eye(4), np.full((4, 4), np.inf)],
                         ids=["overflow", "inf"])
def test_oracle_action_refuses_extreme_entries_silently(mat):
    # the norm spot-check overflows to inf or NaN, which fail it, unwarned
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="norm"):
            OracleAction.from_matrix(mat)


@pytest.mark.parametrize("shape", [(8,), (2,), (8, 3), (2, 3)])
def test_oracle_action_refuses_a_state_of_the_wrong_length(shape):
    # A longer state must not be cut to its first 2^m entries: both backends
    # refuse a longer or a shorter one, and the map names the shape it got.
    gp = GeneralizedPermutation(2, (1, 0, 3, 2), (1,) * 4)
    state = np.arange(float(np.prod(shape))).reshape(shape)
    for action in (OracleAction.from_permutation(gp), OracleAction.from_matrix(gp.as_matrix())):
        with pytest.raises(ValueError):
            action.apply(state)
    with pytest.raises(ValueError, match=re.escape(str(shape))):
        gp.apply(state)


def test_oracle_action_linearity():
    rng = np.random.default_rng(9)
    from qcorr.matrixcore import random_unitary

    action = OracleAction.from_matrix(random_unitary(4, rng))
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    phi = rng.normal(size=4) + 1j * rng.normal(size=4)
    a, b = 0.3 - 0.2j, 1.1 + 0.7j
    lhs = action.apply(a * psi + b * phi)
    rhs = a * action.apply(psi) + b * action.apply(phi)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_oracle_action_as_matrix_consistency():
    gp = GeneralizedPermutation(2, perms_OB(1, 1), np.ones(4))
    action = OracleAction.from_permutation(gp)
    assert np.array_equal(action.as_matrix(), gp.as_matrix())
    assert action.dim == 4
