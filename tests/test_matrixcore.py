"""Unit tests for the dense matrix layer: named gates, tensor products,
generalized-permutation detection, and the JSON matrix format."""

import copy
import pickle
import warnings

import numpy as np
import pytest

from qcorr.matrixcore import (
    CNOT12,
    CZ,
    HADAMARD,
    MAGIC_Q,
    SIGMA_X,
    SIGMA_Z,
    SWAP,
    GeneralizedPermutation,
    _checked_perms,
    _column_rule,
    apply_single_qubit,
    cycle_notation,
    detect_generalized_permutation,
    gate,
    is_unitary,
    matrix_from_json,
    matrix_to_json,
    num_bits,
    random_unitary,
    sigma_x_phased,
)
from qcorr.correspondence import PauliGrid, search_counterparts
from qcorr.oracleforge import OracleAction

ALL_GATE_NAMES = [
    "sigma_x",
    "sigma_z",
    "hadamard",
    "cnot12",
    "cnot21",
    "swap",
    "swat12",
    "swat21",
    "magic_q",
    "cz",
]


def test_gate_fixed_values():
    assert np.array_equal(gate("sigma_x"), np.array([[0, 1], [1, 0]]))
    assert np.array_equal(gate("sigma_z"), np.diag([1, -1]))
    assert np.array_equal(gate("identity", 1), np.eye(2))
    assert np.array_equal(gate("cz"), np.diag([1, 1, 1, -1]))
    root2 = np.sqrt(2.0)
    assert np.allclose(gate("hadamard") * root2, np.array([[1, 1], [1, -1]]))


def test_gate_swat_products():
    # one-liner brute force: multiply the two named matrices by hand
    expected12 = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ) @ np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    assert np.array_equal(gate("swat12"), expected12)
    expected21 = SWAP @ np.array(
        [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
    )
    assert np.array_equal(gate("swat21"), expected21)


def test_gate_parametrized_and_errors():
    mat = gate("sigma_x_phased", 0.3, 1.1)
    assert mat[0, 1] == pytest.approx(np.exp(0.3j))
    assert mat[1, 0] == pytest.approx(np.exp(1.1j))
    assert np.array_equal(gate("identity", 3), np.eye(8))
    with pytest.raises(ValueError):
        gate("toffoli")
    with pytest.raises(ValueError):
        gate("identity", 0)


@pytest.mark.parametrize("name", ALL_GATE_NAMES)
def test_all_gates_unitary(name):
    assert is_unitary(gate(name), 1e-12)


def test_parametrized_gates_unitary():
    assert is_unitary(gate("identity", 2), 1e-12)
    assert is_unitary(sigma_x_phased(0.7, 1.9), 1e-12)


def test_is_unitary_rejects():
    assert not is_unitary(np.array([[1, 1], [0, 1]], dtype=complex), 1e-9)
    assert not is_unitary(np.ones((2, 3)))


@pytest.mark.parametrize("mat", [1e200 * np.eye(4), np.full((2, 2), np.inf),
                                 np.full((2, 2), np.nan)], ids=["overflow", "inf", "nan"])
def test_is_unitary_answers_extreme_matrices_silently(mat):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert is_unitary(mat) is False
    assert not is_unitary(2 * np.eye(2))


def test_is_unitary_admits_a_deviation_equal_to_tol():
    # tol bounds the deviation inclusively, as in the detector
    a = np.diag([1, 1 + 1e-10]).astype(complex)
    deviation = np.max(np.abs(a.conj().T @ a - np.eye(2)))
    assert is_unitary(a, deviation)
    assert not is_unitary(a, deviation / 2)


def test_tensor_examples():
    assert np.array_equal(np.kron(np.eye(2), np.eye(2)), np.eye(4))
    assert np.array_equal(np.kron(SIGMA_Z, SIGMA_Z), np.diag([1, -1, -1, 1]))
    # first factor owns the high-order index bit
    col0 = np.kron(SIGMA_X, np.eye(2))[:, 0]
    assert np.array_equal(col0, np.array([0, 0, 1, 0]))


def test_tensor_associative_and_errors():
    # entry products stay exactly representable for these factors
    for a, b, c in [(SIGMA_X, CZ, SWAP), (HADAMARD, SIGMA_Z, CNOT12)]:
        assert np.array_equal(np.kron(np.kron(a, b), c), np.kron(a, np.kron(b, c)))


def test_multiply_adjoint():
    assert np.array_equal(SIGMA_X @ SIGMA_X, np.eye(2))
    rng = np.random.default_rng(5)
    u = random_unitary(8, rng)
    assert np.max(np.abs(u.conj().T @ u - np.eye(8))) < 1e-12


def test_num_bits():
    assert num_bits(2) == 1
    assert num_bits(8) == 3
    for bad in (0, 1, 3, 6, 12):
        with pytest.raises(ValueError):
            num_bits(bad)


def test_detect_sigma_x_phased():
    theta, phi = 0.7, 1.9
    gp = detect_generalized_permutation(sigma_x_phased(theta, phi))
    assert gp is not None
    assert gp.perm == (1, 0)
    # phases indexed by the output string
    assert gp.phases[0] == pytest.approx(np.exp(1j * theta))
    assert gp.phases[1] == pytest.approx(np.exp(1j * phi))


def test_detect_hadamard_is_none():
    assert detect_generalized_permutation(HADAMARD) is None


def test_detect_cz_diagonal():
    gp = detect_generalized_permutation(CZ)
    assert gp.perm == (0, 1, 2, 3)
    assert gp.phases == (1, 1, 1, -1)


@pytest.mark.parametrize("name", ALL_GATE_NAMES)
def test_detect_nonempty_exactly_for_permutation_gates(name):
    gp = detect_generalized_permutation(gate(name))
    if name in ("hadamard", "magic_q"):
        assert gp is None
    else:
        assert gp is not None


def test_detect_shape_errors():
    with pytest.raises(ValueError):
        detect_generalized_permutation(np.eye(3))
    with pytest.raises(ValueError):
        detect_generalized_permutation(np.ones((2, 3)))


def test_detect_subunit_entry_is_none():
    # permutation structure but a column of magnitude below 1
    mat = np.diag([1.0, 0.5]).astype(complex)
    assert detect_generalized_permutation(mat) is None


def test_detect_carries_its_tol_to_the_phase_check():
    # a looser tol admits a phase of modulus 1 - 1e-6, and the counterpart
    # it builds accepts that phase under the same tol
    mat = np.eye(4, dtype=complex)
    mat[0, 0] = 1 - 1e-6
    gp = detect_generalized_permutation(mat, tol=1e-3)
    assert gp.perm == (0, 1, 2, 3)
    assert gp.phases[0] == 1 - 1e-6
    assert detect_generalized_permutation(mat) is None


def detect_each(stack):
    """The detector's verdict on every matrix of a (k, d, d) stack."""
    return [detect_generalized_permutation(mat) for mat in stack]


def test_detect_stack_decides_each_matrix():
    stack = np.stack([SWAP, CNOT12 @ np.kron(HADAMARD, np.eye(2)), CZ]).astype(complex)
    found = detect_each(stack)
    assert found[0].perm == (0, 2, 1, 3)
    assert found[1] is None
    assert found[2].phases == (1, 1, 1, -1)
    # two columns on the same row: one big entry per column, not a bijection
    clash = np.array([[1, 1], [0, 0]], dtype=complex)
    assert detect_generalized_permutation(clash) is None


def test_detect_counts_nan_entries_as_present():
    nan = np.nan
    assert detect_generalized_permutation(np.array([[1, nan], [nan, 1]])) is None
    # one NaN matrix among good ones fails alone, wherever its NaN sits
    good = np.stack([SWAP, CZ, CNOT12]).astype(complex)
    for where in [(0, 1), (2, 2), (3, 0)]:
        stack = np.concatenate([good, good[:1]])
        stack[2][where] = nan
        found = detect_each(stack)
        assert found[2] is None
        assert [gp.perm for i, gp in enumerate(found) if i != 2] == [
            (0, 2, 1, 3), (0, 1, 2, 3), (0, 2, 1, 3)]


def random_gp_matrix(rng, m):
    dim = 1 << m
    return GeneralizedPermutation(m, rng.permutation(dim),
                                  np.exp(1j * rng.uniform(0, 7, dim))).as_matrix()


# (m, tol, scale): one column scaled so that its one present entry is off
# unit modulus by more than tol, at strict and lax tolerances
OFF_UNIT = [(1, 0.3, 0.6), (3, 1e-3, 1 - 2e-3), (6, 1e-9, 1 + 1e-8), (8, 0.3, 1.4)]


@pytest.mark.parametrize("block", [1 << 14, 1 << 8, 1])
@pytest.mark.parametrize("m, tol, scale", OFF_UNIT)
def test_detect_rejects_on_unit_modulus_alone(m, tol, scale, block, monkeypatch):
    monkeypatch.setattr("qcorr.matrixcore._BLOCK", block)
    rng = np.random.default_rng([m, block])
    for col in (0, (1 << m) - 1, int(rng.integers(0, 1 << m))):
        mat = random_gp_matrix(rng, m)
        mat[:, col] *= scale
        rows, _, ok = _column_rule(mat, tol)
        # each column has one present entry, on rows that are all distinct
        assert len(set(rows.tolist())) == 1 << m
        assert np.flatnonzero(~ok).tolist() == [col]
        assert detect_generalized_permutation(mat, tol) is None
        looser = abs(scale - 1) * 1.01
        assert detect_generalized_permutation(mat, looser).perm == tuple(rows.tolist())


@pytest.mark.parametrize("block", [1 << 14, 1 << 8, 1])
@pytest.mark.parametrize("m, tol", [(1, 1e-9), (3, 0.3), (6, 1e-3), (8, 1e-9), (8, 0.3)])
def test_detect_rejects_on_distinct_rows_alone(m, tol, block, monkeypatch):
    # two columns copied onto one row, in one block or in the first and the
    # last; at tol 0.3 the entries are of modulus 0.8
    monkeypatch.setattr("qcorr.matrixcore._BLOCK", block)
    rng = np.random.default_rng([m, block, 1])
    dim = 1 << m
    for a, b in [(0, dim - 1), (dim - 1, 0), tuple(rng.choice(dim, 2, replace=False))]:
        mat = random_gp_matrix(rng, m) * (0.8 if tol == 0.3 else 1.0)
        mat[:, b] = mat[:, a]
        rows, _, ok = _column_rule(mat, tol)
        assert ok.all() and rows[a] == rows[b]
        assert detect_generalized_permutation(mat, tol) is None


def planted_stack(rng, k, dim):
    """k generalized permutations with random phases; from each six, the
    second to fourth are spoiled and the fifth carries noise below tol."""
    mats = []
    for i in range(k):
        p = np.zeros((dim, dim), dtype=complex)
        p[rng.permutation(dim), np.arange(dim)] = np.exp(1j * rng.uniform(0, 7, dim))
        if i % 6 == 1:
            p[3, 5] = 0.5  # a second big entry in a column
        elif i % 6 == 2:
            p[:, 9] = p[:, 4]  # two columns on one row
        elif i % 6 == 3:
            p *= 1 - 1e-3  # every modulus off by more than tol
        elif i % 6 == 4:
            p[rng.integers(0, dim), rng.integers(0, dim)] += 1e-11  # noise below tol
        mats.append(p)
    return np.stack(mats)


def assert_detect_stack_matches_one_pass(stack):
    """The detector on every matrix of a stack against the whole |M| > tol
    pass at once, as a plain reference; returns which matrices qualify."""
    big = np.abs(stack) > 1e-9
    rows = big.argmax(axis=1)
    entries = np.take_along_axis(stack, rows[:, None, :], axis=1)[:, 0]
    dim = stack.shape[-1]
    want = [bool((big[i].sum(axis=0) == 1).all()) and sorted(rows[i]) == list(range(dim))
            and bool((np.abs(np.abs(entries[i]) - 1) <= 1e-9).all()) for i in range(len(stack))]
    found = detect_each(stack)
    assert [gp is not None for gp in found] == want
    for i, gp in enumerate(found):
        if gp is not None:
            assert gp.perm == tuple(rows[i])
            assert np.array_equal(gp.as_matrix()[rows[i], np.arange(dim)], entries[i])
    return want


@pytest.mark.parametrize("rows_per_block", [1, 2, 5, 16])
def test_detect_stack_row_blocks_match_one_pass(monkeypatch, rows_per_block):
    # a 16 x 16 matrix decoded in blocks of 1, 2, 4 and 16 columns: a
    # _BLOCK of 16 * r entries gives blocks of the largest power of two up
    # to r columns
    stack = planted_stack(np.random.default_rng(17), 6, 16)
    monkeypatch.setattr("qcorr.matrixcore._BLOCK", 16 * rows_per_block)
    assert assert_detect_stack_matches_one_pass(stack) == [True, False, False, False, True, True]


@pytest.mark.parametrize("k, m", [(260, 6), (3, 8)])
def test_detect_stack_past_one_row_per_block(k, m, monkeypatch):
    # at the default block size a 6-qubit matrix is one block of columns and
    # an 8-qubit one four; at half a column per block every block is one
    # column
    stack = planted_stack(np.random.default_rng([k, m]), k, 1 << m)
    want = [i % 6 in (0, 4, 5) for i in range(k)]
    assert assert_detect_stack_matches_one_pass(stack) == want
    monkeypatch.setattr("qcorr.matrixcore._BLOCK", 1 << (m - 1))
    assert assert_detect_stack_matches_one_pass(stack) == want


@pytest.mark.parametrize("k, m", [(6, 4), (260, 6), (3, 8)])
def test_detect_stack_maps_are_the_batch_of_their_rows(k, m):
    # the detector builds its maps without the constructor's second check,
    # and must still hand out the maps the constructor builds from its rows
    stack = planted_stack(np.random.default_rng([k, m, 1]), k, 1 << m)
    found = [gp for gp in detect_each(stack) if gp is not None]
    kept = [i for i in range(k) if i % 6 in (0, 4, 5)]
    assert len(found) == len(kept)
    rows = (np.abs(stack[kept]) > 1e-9).argmax(axis=1)
    entries = np.take_along_axis(stack[kept], rows[:, None, :], axis=1)[:, 0]
    phases = np.zeros_like(entries)
    np.put_along_axis(phases, rows, entries, axis=1)
    want = [GeneralizedPermutation(m, row, ph) for row, ph in zip(rows, phases)]
    assert found == want
    assert [(hash(gp), repr(gp)) for gp in found] == [(hash(gp), repr(gp)) for gp in want]
    for gp in found:
        assert not gp._perm.flags.writeable and not gp._phases.flags.writeable
        assert gp._perm.dtype == np.intp and gp._perm.shape == (1 << m,)


def test_roundtrip_rebuild_and_redetect():
    rng = np.random.default_rng(23)
    for m in (1, 2, 3):
        dim = 1 << m
        perm = tuple(int(v) for v in rng.permutation(dim))
        phases = tuple(np.exp(1j * rng.uniform(0, 2 * np.pi)) for _ in range(dim))
        gp = GeneralizedPermutation(m, perm, phases)
        back = detect_generalized_permutation(gp.as_matrix())
        assert back.perm == gp.perm
        assert np.max(np.abs(np.asarray(back.phases) - np.asarray(gp.phases))) < 1e-12


def test_generalized_permutation_validation():
    with pytest.raises(ValueError):
        GeneralizedPermutation(1, (0, 0), (1, 1))
    with pytest.raises(ValueError):
        GeneralizedPermutation(1, (0, 1, 2), (1, 1, 1))
    with pytest.raises(ValueError):
        GeneralizedPermutation(1, (0, 1), (1, 0.5))


@pytest.mark.parametrize("tol", [0, 1e-9, 0.3, 0.5, 0.6, 1, 2])
def test_constructor_admits_exactly_what_the_detector_admits(tol):
    for r in (0, 0.2, 0.5, 0.7, 1, 1.5):
        try:
            GeneralizedPermutation(1, (1, 0), (r, r), tol)
            built = True
        except ValueError:
            built = False
        assert built == (detect_generalized_permutation(r * SIGMA_X, tol) is not None), r


def test_constructor_refuses_a_table():
    # a (k, 2^m) table is a family's input; as one map it would have 2-D arrays
    with pytest.raises(ValueError, match="1-D"):
        GeneralizedPermutation(1, [[0, 1], [1, 0]], [[1, 1], [1, 1]])


def random_tables(rng, m, k):
    dim = 1 << m
    perms = np.stack([rng.permutation(dim) for _ in range(k)])
    return perms, np.exp(1j * rng.uniform(0, 2 * np.pi, (k, dim)))


# The batch is a (k, 2^m) perm table, as a classical family holds it: its
# one check must take the same perms as one map at a time, and return each
# row's inverse.
@pytest.mark.parametrize("m", range(1, 9))
def test_batch_equals_one_map_at_a_time(m):
    rng = np.random.default_rng(700 + m)
    for k in range(1, 6):
        perms, phases = random_tables(rng, m, k)
        got, inv = _checked_perms(m, perms, 2)
        want = [GeneralizedPermutation(m, tuple(p.tolist()), tuple(ph.tolist()))
                for p, ph in zip(perms, phases)]
        for a in (got, inv):
            assert a.dtype == np.intp and not a.flags.writeable
        assert got.tolist() == [list(w.perm) for w in want]
        assert np.array_equal(inv, np.argsort(perms, axis=-1))
        assert inv.tolist() == [w._inv.tolist() for w in want]


def _spoiled(rng, m, k, how):
    """A (k, 2^m) table with row 1 spoiled as ``how`` says, or all rows
    valid for "none"."""
    dim = 1 << m
    perms, phases = random_tables(rng, m, k)
    if how == "duplicate":
        perms[1, 0] = perms[1, 1]
    elif how == "negative":
        perms[1] -= 1
    elif how == "too large":
        perms[1] += 1
    elif how == "wrong length":
        return perms[:, :-1], phases[:, :-1]
    elif how == "off modulus":
        phases[1, dim - 1] *= 1 + 1e-6
    elif how == "nan phase":
        phases[1, 0] = complex(np.nan, 0.0)
    elif how == "float perm":
        return perms.astype(float), phases
    elif how == "bool perm":
        return perms.astype(bool), phases
    return perms, phases


@pytest.mark.parametrize("how", ["none", "duplicate", "negative", "too large", "wrong length",
                                 "off modulus", "nan phase", "float perm", "bool perm"])
def test_batch_rejects_exactly_when_some_row_is_rejected(how):
    # the table holds perms only, so a spoiled phase fails the maps alone
    def accepts(build):
        try:
            build()
            return True
        except ValueError:
            return False

    rng = np.random.default_rng(41)
    for m in (1, 2, 5):
        perms, phases = _spoiled(rng, m, 3, how)
        single = [accepts(lambda: _checked_perms(m, p, 1)) for p in perms]
        maps = [accepts(lambda: GeneralizedPermutation(m, p, ph)) for p, ph in zip(perms, phases)]
        batched = accepts(lambda: _checked_perms(m, perms, 2))
        assert batched == all(single) == (how in ("none", "off modulus", "nan phase"))
        assert all(maps) == (how == "none")


def test_generalized_permutation_copies_the_callers_perm():
    # The check freezes the array it is given, so the constructor copies first.
    perm = np.array([2, 0, 3, 1], dtype=np.intp)
    gp = GeneralizedPermutation(2, perm, np.ones(4))
    assert perm.flags.writeable and not gp._perm.flags.writeable
    assert not np.shares_memory(perm, gp._perm)
    perm[:] = perm[::-1]
    assert gp.perm == (2, 0, 3, 1)


def test_generalized_permutation_rejects_nan_and_non_integer_perms():
    with pytest.raises(ValueError, match="unit modulus"):
        GeneralizedPermutation(1, (0, 1), (1, np.nan))
    with pytest.raises(ValueError, match="integers"):
        GeneralizedPermutation(1, (0.0, 1.0), (1, 1))
    with pytest.raises(ValueError, match="integers"):
        GeneralizedPermutation(1, (False, True), (1, 1))
    with pytest.raises(ValueError, match="bijection"):
        GeneralizedPermutation(1, (0, 1 << 40), (1, 1))


def test_generalized_permutation_pickles_and_copies():
    perms, phases = random_tables(np.random.default_rng(43), 3, 2)
    # and the maps the detector builds from its own arrays, and the table
    # engine's, whose arrays are rows of its block tables
    stack = np.stack([GeneralizedPermutation(3, p, ph).as_matrix() for p, ph in zip(perms, phases)])
    oracle = OracleAction.from_permutation(GeneralizedPermutation(3, perms[0], np.ones(8)))
    engine = [gp for _, _, gp in search_counterparts(oracle, PauliGrid())]
    for gp in [GeneralizedPermutation(3, perms[0], phases[0]), *detect_each(stack), *engine]:
        for twin in (pickle.loads(pickle.dumps(gp)), copy.copy(gp), copy.deepcopy(gp)):
            assert twin == gp and hash(twin) == hash(gp) and repr(twin) == repr(gp)
            assert not any(a.flags.writeable for a in (twin._perm, twin._inv, twin._phases))
            assert np.array_equal(twin._inv, gp._inv)
            assert np.array_equal(twin.apply(np.eye(8)), gp.apply(np.eye(8)))


def test_generalized_permutation_copies_its_input():
    perms, phases = random_tables(np.random.default_rng(47), 3, 2)
    maps = [GeneralizedPermutation(3, p, ph) for p, ph in zip(perms, phases)]
    before = [(gp.perm, gp.phases) for gp in maps]
    perms[:] = perms[:, ::-1]
    phases *= -1
    assert [(gp.perm, gp.phases) for gp in maps] == before
    for gp in maps:
        assert not gp._perm.flags.writeable and not gp._phases.flags.writeable
        with pytest.raises(ValueError):
            gp._perm[0] = 0


def test_generalized_permutation_from_tuples_or_arrays_is_the_same_map():
    perm, phases = (2, 0, 3, 1), (1j, -1 + 0j, 1 + 0j, -1j)
    built = [GeneralizedPermutation(2, perm, phases),
             GeneralizedPermutation(2, np.array(perm, dtype=np.int32), np.array(phases)),
             detect_generalized_permutation(GeneralizedPermutation(2, perm, phases).as_matrix())]
    for gp in built[1:]:
        assert gp == built[0] and hash(gp) == hash(built[0]) and repr(gp) == repr(built[0])
        assert type(gp.perm[0]) is int and type(gp.phases[0]) is complex


def test_generalized_permutation_apply_matches_matrix():
    rng = np.random.default_rng(31)
    gp = GeneralizedPermutation(2, (2, 0, 3, 1), tuple(np.exp(1j * rng.uniform(0, 7, 4))))
    state = rng.normal(size=4) + 1j * rng.normal(size=4)
    assert np.allclose(gp.apply(state), gp.as_matrix() @ state, atol=1e-12)
    states = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    assert np.allclose(gp.apply(states), gp.as_matrix() @ states, atol=1e-12)
    assert gp.perm[0] == 2
    assert gp.dim == 4


def test_generalized_permutation_arrays_stay_out_of_identity():
    phases = (1j, -1 + 0j, 1 + 0j, -1j)
    gp = GeneralizedPermutation(2, (2, 0, 3, 1), phases)
    before = repr(gp), hash(gp)
    first = gp.apply(np.eye(4, dtype=complex))
    assert np.array_equal(gp.apply(np.eye(4, dtype=complex)), first)
    assert (repr(gp), hash(gp)) == before
    assert gp == GeneralizedPermutation(2, (2, 0, 3, 1), phases)
    assert gp._inv.tolist() == [1, 3, 0, 2]
    assert not gp._inv.flags.writeable and not gp._phases.flags.writeable
    with pytest.raises(Exception):
        gp.perm = (0, 1, 2, 3)


def test_generalized_permutation_involutions():
    swap = GeneralizedPermutation(1, (1, 0), (1, 1))
    assert swap.is_involution()
    cycle = GeneralizedPermutation(2, (1, 2, 3, 0), (1, 1, 1, 1))
    assert not cycle.is_involution()


def test_apply_single_qubit():
    zero2 = np.array([1, 0, 0, 0], dtype=complex)
    root2 = np.sqrt(2.0)
    out = apply_single_qubit(zero2.copy(), HADAMARD, 0, 2)
    assert np.allclose(out * root2, [1, 0, 1, 0])
    out = apply_single_qubit(zero2.copy(), HADAMARD, 1, 2)
    assert np.allclose(out * root2, [1, 1, 0, 0])
    # qubit 0 is the most significant index bit
    out = apply_single_qubit(zero2.copy(), SIGMA_X, 0, 2)
    assert np.array_equal(out, [0, 0, 1, 0])


def test_apply_single_qubit_on_a_stack_in_place():
    rng = np.random.default_rng(5)
    u = random_unitary(2, rng)
    stack = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    # column qubit 1 of a 2-qubit matrix is qubit 3 of the 4-qubit stack
    want = stack @ np.kron(np.eye(2), u.T)
    got = apply_single_qubit(stack, u, 3, 4)
    assert got is stack
    assert np.allclose(stack, want, atol=1e-12)


@pytest.mark.parametrize("state", [
    np.ones(8, dtype=complex)[::2], np.ones((4, 4), dtype=complex).T, np.ones(4), [1, 0, 0, 0]],
    ids=["strided", "fortran", "real", "list"])
def test_apply_single_qubit_refuses_what_it_cannot_write_in_place(state):
    # A strided view would be reshaped into a copy and left unchanged.
    with pytest.raises(ValueError, match="C-ordered complex"):
        apply_single_qubit(state, HADAMARD, 0, 2)


@pytest.mark.parametrize("block", [1 << 14, 1 << 4, 3])
def test_apply_single_qubit_with_a_stack_of_matrices(monkeypatch, block):
    # Matrix i of the stack acts on index i of the state's last axis, bit for
    # bit as one call per matrix, with whole, partial and single-entry blocks.
    monkeypatch.setattr("qcorr.matrixcore._BLOCK", block)
    rng = np.random.default_rng(6)
    n, m = 5, 4
    state = rng.normal(size=(2, 1 << m, n)) + 1j * rng.normal(size=(2, 1 << m, n))
    us = np.array([random_unitary(2, rng) for _ in range(n)])
    for qubit in range(m):
        got = apply_single_qubit(state.copy(), us, qubit, m)
        for i in range(n):
            one = apply_single_qubit(state[..., i].copy(), us[i], qubit, m)
            assert np.array_equal(got[..., i], one)


def test_cycle_notation():
    assert cycle_notation((0, 1, 2, 3)) == "id"
    assert cycle_notation((0, 1, 3, 2)) == "(2 3)"
    assert cycle_notation((1, 2, 3, 0)) == "(0 1 2 3)"
    assert cycle_notation((1, 0, 3, 2)) == "(0 1)(2 3)"


def test_random_unitary_seeded():
    rng = np.random.default_rng(77)
    u = random_unitary(4, rng)
    assert is_unitary(u, 1e-12)
    again = random_unitary(4, np.random.default_rng(77))
    assert np.array_equal(u, again)


def test_matrix_json_roundtrip():
    rng = np.random.default_rng(13)
    mat = random_unitary(4, rng)
    back = matrix_from_json(matrix_to_json(mat))
    assert np.array_equal(back, mat)


def test_matrix_json_malformed():
    with pytest.raises(ValueError):
        matrix_from_json({"entries": [[1, 0]]})
    with pytest.raises(ValueError):
        matrix_from_json({"dim": 2, "entries": [[1, 0]]})
    with pytest.raises(ValueError):
        matrix_from_json({"dim": 1, "entries": [[1, 0, 0]]})
    with pytest.raises(ValueError):
        matrix_from_json({"dim": 1, "entries": [[float("nan"), 0]]})
    # float() would read strings and booleans: the identity, before
    with pytest.raises(ValueError, match="JSON numbers"):
        matrix_from_json({"dim": 2, "entries": [["1", "0"], [False, 0], [0, 0], [True, "0"]]})


def test_cnot_matches_magic_q_shape():
    assert CNOT12.shape == (4, 4)
    assert MAGIC_Q.shape == (4, 4)
    assert is_unitary(MAGIC_Q, 1e-12)
