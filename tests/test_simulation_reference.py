"""Differential tests: the vectorised statevector simulations against the
simple per-entry and per-query code they replaced.

The reference functions below are the earlier implementations, kept here
only as the reference: the phase oracle built one ``_dot_parity`` call per
basis state, ``GeneralizedPermutation.apply`` scattering each input to its
output, a Hadamard layer as one ``apply_single_qubit`` pass per qubit,
Bernstein-Vazirani with a fresh state per Hadamard, and parity with one
``np.kron``-built input state and one oracle call per kickback query.
"""

import copy
import pickle
import tracemalloc

import numpy as np
import pytest

from qcorr import matrixcore, querylab
from qcorr.correspondence import PauliGrid, search_counterparts
from qcorr.matrixcore import (
    HADAMARD,
    GeneralizedPermutation,
    apply_single_qubit,
    detect_generalized_permutation,
    hadamard_layer,
)
from qcorr.oracleforge import (
    BooleanFunction,
    BVInstance,
    OracleAction,
    phase_oracle,
    standard_oracle,
)


def _dot_parity(a, b):
    return bin(a & b).count("1") & 1


def reference_phase_oracle(inst):
    dim = 1 << inst.n
    k_int = inst.k_int
    phases = tuple(complex(1 - 2 * _dot_parity(x, k_int)) for x in range(dim))
    return GeneralizedPermutation(inst.n, tuple(range(dim)), phases)


def reference_apply(gp, state):
    state = np.asarray(state, dtype=complex)
    out = np.empty_like(state)
    idx = np.asarray(gp.perm)
    gained = np.asarray(gp.phases, dtype=complex)[idx]
    out[idx] = gained.reshape((-1,) + (1,) * (state.ndim - 1)) * state
    return out


def _reference_assert_normalized(state, tol=1e-9):
    norm = float(np.linalg.norm(state))
    if abs(norm - 1.0) > tol:
        raise RuntimeError(f"statevector norm drifted to {norm}")


def reference_hadamard_layer(state, m):
    state = np.array(state, dtype=complex)
    for j in range(m):
        apply_single_qubit(state, HADAMARD, j, m)
    return state


def integer_walsh_hadamard(ints, m):
    # the unscaled transform in exact integers, one butterfly pass per qubit
    v = np.array(ints, dtype=np.int64)
    for j in range(m):
        w = v.reshape(-1, 2, 1 << (m - 1 - j))
        w[:] = np.stack([w[:, 0] + w[:, 1], w[:, 0] - w[:, 1]], axis=1)
    return v


def reference_uniform(n):
    zero = np.zeros(1 << n, dtype=complex)
    zero[0] = 1.0
    return reference_hadamard_layer(zero, n)


def reference_run_bv(inst):
    n = inst.n
    state = reference_apply(reference_phase_oracle(inst), reference_uniform(n))
    _reference_assert_normalized(state)
    state = reference_hadamard_layer(state, n)
    _reference_assert_normalized(state)
    idx = int(np.argmax(np.abs(state)))
    if abs(abs(state[idx]) - 1.0) > 1e-9:
        raise RuntimeError("final state is not a computational basis state")
    return tuple((idx >> (n - 1 - j)) & 1 for j in range(n)), 1


def reference_parity_input(n, rest):
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2.0)
    minus = np.array([1, -1], dtype=complex) / np.sqrt(2.0)
    vec = plus
    for j in range(1, n):
        bit = (rest >> (n - 1 - j)) & 1
        e = np.zeros(2, dtype=complex)
        e[bit] = 1.0
        vec = np.kron(vec, e)
    return np.kron(vec, minus)


def reference_run_parity(f):
    n = f.n
    m = n + 1
    oracle = standard_oracle(f).permutation
    total = 0
    settings = 1 << (n - 1)
    for rest in range(settings):
        vec = reference_parity_input(n, rest)
        out = reference_apply(oracle, vec)
        _reference_assert_normalized(out)
        out = apply_single_qubit(out, HADAMARD, 0, m)
        _reference_assert_normalized(out)
        p_one = float(np.sum(np.abs(out[1 << n:]) ** 2))
        if min(p_one, 1.0 - p_one) > 1e-9:
            raise RuntimeError("kickback readout is not deterministic")
        total ^= int(p_one > 0.5)
    return total, settings


def random_function(n, rng):
    return BooleanFunction(n, tuple(int(b) for b in rng.integers(0, 2, 1 << n)))


def random_bv(n, rng):
    return BVInstance(n, int(rng.integers(2)), tuple(int(b) for b in rng.integers(0, 2, n)))


@pytest.mark.parametrize("n", range(1, 13))
def test_parity_matches_reference(n):
    rng = np.random.default_rng(1000 + n)
    for _ in range(3 if n <= 8 else 1):
        f = random_function(n, rng)
        got = querylab.run_parity_quantum(f)
        assert got == reference_run_parity(f)
        # Plain ints, as the CLI's JSON output needs.
        assert [type(v) for v in got] == [int, int]


@pytest.mark.parametrize("block", [1, 7, 16, 48, 64, 1000])
def test_parity_matches_reference_in_several_blocks(monkeypatch, block):
    # The parity run takes its readout Hadamard as a sum and a difference on
    # one float64 state, not through matrixcore's blocked kernel: whatever
    # the block size, from 1 pair to more than the 2^n pairs, its results
    # and its oracle input stay the reference's.
    monkeypatch.setattr(matrixcore, "_BLOCK", block)
    oracles = record_oracles(monkeypatch)
    rng = np.random.default_rng(block)
    for n in range(1, 8):
        settings = 1 << (n - 1)
        for _ in range(4):
            f = random_function(n, rng)
            assert querylab.run_parity_quantum(f) == reference_run_parity(f)
            # One oracle call on one float64 state of 2^m amplitudes, whose
            # block r is the reference's query-r input on its span, where
            # all of that input lies; the oracle keeps it float64.
            (state,), (out,) = oracles[-1].inputs, oracles[-1].outputs
            assert state.dtype == out.dtype == float
            assert state.shape == (2 << n,)
            for r in range(settings):
                want = reference_parity_input(n, r).reshape(2, settings, 2)
                assert np.abs(state.reshape(2, settings, 2)[:, r] - want[:, r]).max() <= 1e-15
                assert not np.delete(want, r, axis=1).any()


def test_parity_exhaustive_to_n3_and_sampled_at_n4():
    for n in (1, 2, 3):
        for f in querylab.iter_boolean_functions(n):
            assert querylab.run_parity_quantum(f) == (f.parity(), 1 << (n - 1))
    rng = np.random.default_rng(16)
    for code in rng.choice(1 << 16, size=4096, replace=False).tolist():
        f = BooleanFunction(4, tuple((code >> i) & 1 for i in range(16)))
        assert querylab.run_parity_quantum(f) == (f.parity(), 8)


@pytest.mark.parametrize("n", range(1, 17))
def test_phase_oracle_matches_reference(n):
    rng = np.random.default_rng(2000 + n)
    insts = [random_bv(n, rng) for _ in range(3)]
    insts += [BVInstance(n, 0, (0,) * n), BVInstance(n, 1, (1,) * n)]
    for inst in insts:
        got, want = phase_oracle(inst).permutation, reference_phase_oracle(inst)
        assert got.phases == want.phases and got.perm == want.perm
        assert [type(p) for p in got.phases[:4]] == [complex] * min(4, 1 << n)
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want)


@pytest.mark.parametrize("n", range(1, 17))
def test_bv_matches_reference(n):
    rng = np.random.default_rng(3000 + n)
    for _ in range(2):
        inst = random_bv(n, rng)
        assert querylab.run_bv_quantum(inst) == reference_run_bv(inst) == (inst.k, 1)


@pytest.mark.parametrize("m", range(1, 17))
def test_hadamard_layer_matches_per_qubit_passes(m):
    rng = np.random.default_rng(6000 + m)
    dim = 1 << m
    for _ in range(3):
        state = rng.normal(size=dim)
        state /= np.linalg.norm(state)
        want = reference_hadamard_layer(state, m)
        # In place: the result is written over the input and returned, and
        # stays real.
        got = state.copy()
        assert hadamard_layer(got, m) is got and got.dtype == float
        assert np.abs(got - want).max() <= 1e-12
        assert np.abs(hadamard_layer(got, m) - state).max() <= 1e-12


@pytest.mark.parametrize("m", range(1, 17))
def test_hadamard_layer_on_a_real_state_matches_the_complex_layer(m):
    # The layer takes real states only; a complex state is its real and
    # imaginary parts, each a real state.  Small integers scaled by a power
    # of two are dyadic, and so is every sum and scaled sum the layer forms
    # at even m: there it must give the integer transform exactly.
    rng = np.random.default_rng(6200 + m)
    ints = rng.integers(-8, 9, size=(2, 1 << m))
    re, im = ints * 2.0 ** -m
    want = reference_hadamard_layer(re + 1j * im, m)
    re, im = hadamard_layer(re.copy(), m), hadamard_layer(im.copy(), m)
    assert np.abs(re + 1j * im - want).max() <= 1e-15
    if m % 2 == 0:
        scale = 2.0 ** (-m - m // 2)
        assert np.array_equal(re, integer_walsh_hadamard(ints[0], m) * scale)
        assert np.array_equal(im, integer_walsh_hadamard(ints[1], m) * scale)


@pytest.mark.parametrize("m", range(1, 7))
def test_apply_keeps_a_real_state_real_under_real_phases(m):
    rng = np.random.default_rng(4100 + m)
    dim = 1 << m
    perm = tuple(int(x) for x in rng.permutation(dim))
    signs = GeneralizedPermutation(m, perm, tuple(complex(s) for s in rng.choice([-1.0, 1.0], dim)))
    for shape in ((dim,), (dim, 1), (dim, 5)):
        state = rng.normal(size=shape)
        got, want = signs.apply(state), signs.apply(state + 0j)
        assert got.dtype == float and want.dtype == complex
        assert np.array_equal(got, want.real) and not want.imag.any()
        assert np.array_equal(got, reference_apply(signs, state).real)
        # One phase off the real line makes the output complex, as does a
        # complex or single-precision state.
        phases = list(signs.phases)
        phases[int(rng.integers(dim))] = 1j
        tilted = GeneralizedPermutation(m, perm, tuple(phases))
        assert np.array_equal(tilted.apply(state), reference_apply(tilted, state))
        assert tilted.apply(state).dtype == complex
        assert signs.apply(state.astype(np.float32)).dtype == complex


def built_by_every_constructor(m, rng):
    """(what, map, dtype the map must hold its phases in) for maps on m
    qubits from every constructor: the checked one with real and with
    complex phases, the phase and standard oracles, the detector and the
    table engine, each also through pickle and ``copy.deepcopy``.  A table
    engine counterpart is held as float64 exactly when its phases, read
    back as complexes, are all real, whatever the oracle's dtype."""
    dim = 1 << m
    perm = rng.permutation(dim)
    signs = rng.choice([-1.0, 1.0], dim)
    # an imaginary part of -0.0 is exactly 0 as well
    real = GeneralizedPermutation(m, perm, signs - 0j)
    turned = GeneralizedPermutation(m, perm, np.exp(1j * rng.uniform(0, 7, dim)))
    built = [("init real", real, float), ("init float", GeneralizedPermutation(m, perm, signs), float),
             ("init complex", turned, complex),
             ("phase oracle", phase_oracle(random_bv(m, rng)).permutation, float),
             ("detect real", detect_generalized_permutation(real.as_matrix()), float),
             ("detect complex", detect_generalized_permutation(turned.as_matrix()), complex)]
    if m > 1:
        built.append(("standard oracle", standard_oracle(random_function(m - 1, rng)).permutation,
                      float))
    # Phases 1 and -1 + 1e-12j pass as ±1: the oracle is complex, and under
    # H on the last qubit its counterparts' phases are psi(x) of x with that
    # bit clear, all real here.
    tilted = signs.astype(complex)
    tilted[1::2] = -tilted[::2] + 1e-12j
    for name, gp in [("real", real), ("complex", turned),
                     ("tilted", GeneralizedPermutation(m, np.arange(dim), tilted))]:
        for word, _, hit in search_counterparts(OracleAction.from_permutation(gp), PauliGrid()):
            dtype = complex if np.array(hit.phases).imag.any() else float
            built.append((f"table engine {name} {word}", hit, dtype))
    for what, gp, dtype in list(built):
        built.append((f"{what} pickled", pickle.loads(pickle.dumps(gp)), dtype))
        built.append((f"{what} deep-copied", copy.deepcopy(gp), dtype))
    return built


@pytest.mark.parametrize("m", range(1, 7))
def test_every_constructor_holds_real_phases_as_float64(m):
    # Phases whose imaginary parts are all exactly 0 are one contiguous,
    # read-only float64 array, any others complex128, from every
    # constructor.  Whichever they are, apply is the reference, and a
    # float64 state gives float64 output exactly when every phase is real.
    rng = np.random.default_rng(4200 + m)
    kinds = set()
    for what, gp, dtype in built_by_every_constructor(m, rng):
        assert gp._phases.dtype == dtype, what
        assert gp._phases.flags.c_contiguous and not gp._phases.flags.writeable, what
        phases = np.array(gp.phases)
        assert [type(p) for p in gp.phases] == [complex] * gp.dim, what
        if dtype == float:
            assert not phases.imag.any(), what
        real = not phases.imag.any()
        kinds.add((gp._phases.dtype.kind, real))
        for shape in ((gp.dim,), (gp.dim, 3)):
            state = rng.normal(size=shape)
            for given in (state, state + 1j * rng.normal(size=shape)):
                got, want = gp.apply(given), reference_apply(gp, given)
                assert got.dtype == (float if given.dtype == float and real else complex), what
                assert np.array_equal(got, want.real if got.dtype == float else want), what
    # real phases held as float64 and complex ones as complex128, never
    # real ones as complex128
    assert kinds == {("f", True), ("c", False)}


@pytest.mark.parametrize("block", [1, 1 << 20])
def test_hadamard_layer_does_not_size_its_blocks_from_the_kernel_block(monkeypatch, block):
    rng = np.random.default_rng(block)
    cases = []
    for m in (1, 4, 5, 13, 14, 16):
        state = rng.normal(size=1 << m)
        state /= np.linalg.norm(state)
        cases.append((m, state, reference_hadamard_layer(state, m)))
    monkeypatch.setattr(matrixcore, "_BLOCK", block)
    for m, state, want in cases:
        assert np.abs(hadamard_layer(state, m) - want).max() <= 1e-12


def test_hadamard_layer_rejects_a_state_of_the_wrong_size():
    for state, m in ((np.ones(8), 2), (np.ones((4, 2)), 2), (np.ones(1), 0)):
        with pytest.raises(ValueError, match="statevector"):
            hadamard_layer(state, m)


def test_hadamard_layer_rejects_a_state_it_cannot_transform_in_place():
    # float64 is transformed in place; any other dtype, complex128 among
    # them, a strided view or a list would need a copy, so they are refused.
    state = np.ones(8)
    assert hadamard_layer(state, 3) is state
    assert state[0] == 8 ** 0.5 and np.count_nonzero(state) == 1
    wide = np.ones(16)
    for state in (np.ones(8, dtype=complex), np.ones(8, dtype=np.float32),
                  np.ones(8, dtype=np.complex64), wide[::2], [1.0] * 8):
        with pytest.raises(ValueError, match="statevector"):
            hadamard_layer(state, 3)
    assert np.array_equal(wide, np.ones(16))


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bv_at_n16_peaks_below_1_25_mib():
    # The oracle's 512 KiB of float64 signs and the run's one float64 state
    # of 512 KiB, whose magnitudes are read in place: 1025 KiB.  Complex
    # phases made it 1537 KiB, and a complex state 2 MiB.
    inst = random_bv(16, np.random.default_rng(16))
    # builds the shared identity and Sylvester tables, and keeps the signs
    # of another hidden string
    querylab.run_bv_quantum(BVInstance(16, inst.k0, tuple(1 - b for b in inst.k)))
    assert _peak_bytes(lambda: querylab.run_bv_quantum(inst)) < 1280 << 10


def test_parity_at_n12_peaks_below_400_kib():
    # The oracle's 64 KiB perm, the state of 64 KiB and the readout's
    # temporaries: 354 KiB.  A checked copy of the oracle's perm and phases
    # made it 585 KiB, and a complex state 771 KiB.
    f = random_function(12, np.random.default_rng(12))
    querylab.run_parity_quantum(f)  # builds the shared ones of m = 13
    assert _peak_bytes(lambda: querylab.run_parity_quantum(f)) < 400 << 10


def test_standard_oracle_at_n12_peaks_below_160_kib():
    # The 64 KiB perm, its own inverse, perms_OS's temporaries and the 4 KiB
    # of the truth table's bytes: 132 KiB, once the shared ones of m = 13
    # are built (585 KiB through the checked constructor).
    f = random_function(12, np.random.default_rng(12))
    standard_oracle(f)  # builds the shared ones
    assert _peak_bytes(lambda: standard_oracle(f)) < 160 << 10


def test_hadamard_layer_in_place_at_m16_peaks_below_256_kib():
    state = np.full(1 << 16, 2.0 ** -8)
    assert _peak_bytes(lambda: hadamard_layer(state, 16)) < 256 << 10
    assert state[0] == 1 and np.count_nonzero(state) == 1


@pytest.mark.parametrize("n", range(1, 17))
def test_bv_queries_the_oracle_once_on_the_uniform_state(monkeypatch, n):
    oracles = record_oracles(monkeypatch, builder="phase_oracle")
    inst = random_bv(n, np.random.default_rng(7000 + n))
    assert querylab.run_bv_quantum(inst) == (inst.k, 1)
    assert len(oracles) == 1 and len(oracles[0].inputs) == 1
    assert oracles[0].inputs[0].dtype == float
    assert np.abs(oracles[0].inputs[0] - reference_uniform(n)).max() <= 1e-15


@pytest.mark.parametrize("m", range(1, 7))
def test_apply_matches_scatter_reference(m):
    rng = np.random.default_rng(4000 + m)
    dim = 1 << m
    for _ in range(3):
        gp = GeneralizedPermutation(m, tuple(int(x) for x in rng.permutation(dim)),
                                    tuple(np.exp(1j * rng.uniform(0, 7, dim))))
        for shape in ((dim,), (dim, 1), (dim, 5)):
            state = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            assert np.array_equal(gp.apply(state), reference_apply(gp, state))
        assert np.array_equal(gp.as_matrix(), reference_apply(gp, np.eye(dim)))


class FaultyOracle:
    """An oracle that acts like ``action``, except that ``fault`` replaces
    the output amplitudes of one query.  A parity run makes all its queries
    on one state of 2^m amplitudes, and query r's block is the slice
    [:, r, :] of its (2, 2^(n-1), 2) view: the four strings (a, r, y).  A bv
    run's one query is its whole state (``query`` None).  Records the input
    of each call, as a copy, and its output, and passes the action's
    permutation through, as the parity run reads it."""

    def __init__(self, action, query=None, fault=lambda amps: amps):
        self.action, self.query, self.fault = action, query, fault
        self.permutation = action.permutation
        self.inputs, self.outputs = [], []

    def apply(self, state):
        state = np.asarray(state)
        self.inputs.append(state.copy())
        out = self.action.apply(state)
        hit = out if self.query is None else out.reshape(2, -1, 2)[:, self.query]
        hit[...] = self.fault(hit)
        self.outputs.append(out)
        return out


def record_oracles(monkeypatch, query=None, fault=lambda amps: amps, builder="standard_oracle"):
    """Make querylab's ``builder`` (standard_oracle or phase_oracle) return
    FaultyOracles; returns the list of oracles built."""
    built = []
    make = getattr(querylab, builder)

    def build(instance):
        built.append(FaultyOracle(make(instance), query, fault))
        return built[-1]

    monkeypatch.setattr(querylab, builder, build)
    return built


def drift_norm(amps):
    return amps * (1 + 1e-6)


def put_nan(amps):
    amps = amps.copy()
    amps[0] = np.nan
    return amps


def mix_readout(amps):
    # Keep only the half with the first qubit at 0, renormalized: the norm
    # holds, and the Hadamard readout of that qubit is a fair coin.
    half = amps.shape[0] // 2
    out = np.zeros_like(amps)
    out[:half] = amps[:half] * np.sqrt(2.0)
    return out


@pytest.mark.parametrize("fault, message", [
    (drift_norm, "norm drifted"),
    (mix_readout, "not deterministic"),
])
def test_parity_checks_fire_in_the_last_block_only(monkeypatch, fault, message):
    # At the size limit, a fault in the last of 2048 queries is found while
    # every other query is clean.
    n = 12
    f = random_function(n, np.random.default_rng(5))
    oracles = record_oracles(monkeypatch, (1 << (n - 1)) - 1, fault)
    with pytest.raises(RuntimeError, match=message):
        querylab.run_parity_quantum(f)
    assert [state.shape for state in oracles[-1].inputs] == [(2 << n,)]


@pytest.mark.parametrize("query", [0, 7, 15], ids=["first", "middle", "last"])
@pytest.mark.parametrize("fault, message", [
    (drift_norm, "norm drifted"),
    (put_nan, "norm drifted to nan"),
    (mix_readout, "not deterministic"),
])
def test_parity_checks_fire_in_any_one_block(monkeypatch, fault, message, query):
    f = random_function(5, np.random.default_rng(7))
    oracles = record_oracles(monkeypatch, query, fault)
    with pytest.raises(RuntimeError, match=message):
        querylab.run_parity_quantum(f)
    assert len(oracles[-1].inputs) == 1


def test_parity_tolerance_reaches_the_checks(monkeypatch):
    f = random_function(4, np.random.default_rng(6))
    record_oracles(monkeypatch, 0, drift_norm)
    with pytest.raises(RuntimeError, match="norm drifted"):
        querylab.run_parity_quantum(f)
    assert querylab.run_parity_quantum(f, tol=1e-3) == (f.parity(), 8)


def test_bv_tolerance_reaches_the_checks(monkeypatch):
    inst = BVInstance(6, 1, (1, 0, 1, 1, 0, 1))
    phase = querylab.phase_oracle
    monkeypatch.setattr(querylab, "phase_oracle",
                        lambda i: FaultyOracle(phase(i), None, drift_norm))
    with pytest.raises(RuntimeError, match="norm drifted"):
        querylab.run_bv_quantum(inst)
    assert querylab.run_bv_quantum(inst, tol=1e-3) == (inst.k, 1)


@pytest.mark.parametrize("block", range(8))
def test_parity_nan_in_any_block_raises(monkeypatch, block):
    # n = 4 makes 8 queries: each block is one query's four amplitudes.
    f = random_function(4, np.random.default_rng(8))
    oracles = record_oracles(monkeypatch, block, put_nan)
    with pytest.raises(RuntimeError, match="norm drifted to nan"):
        querylab.run_parity_quantum(f)
    assert len(oracles[-1].inputs) == 1


def test_bv_nan_raises(monkeypatch):
    inst = BVInstance(4, 0, (1, 0, 1, 1))
    record_oracles(monkeypatch, None, put_nan, "phase_oracle")
    with pytest.raises(RuntimeError, match="norm drifted to nan"):
        querylab.run_bv_quantum(inst)


def test_readout_checks_fail_on_nan_without_the_norm_check(monkeypatch):
    # The norm check fires first on a NaN; each readout check must also
    # fail on its own, since NaN compares false with any tolerance.
    monkeypatch.setattr(querylab, "_assert_normalized", lambda sq_norms, tol: None)
    record_oracles(monkeypatch, None, put_nan, "phase_oracle")
    with pytest.raises(RuntimeError, match="not a computational basis state"):
        querylab.run_bv_quantum(BVInstance(4, 0, (1, 0, 1, 1)))
    record_oracles(monkeypatch, 3, put_nan)
    with pytest.raises(RuntimeError, match="not deterministic"):
        querylab.run_parity_quantum(random_function(4, np.random.default_rng(9)))


def _swap_two_queries(m):
    # Strings 0 and 2 are (0, r=0, 0) and (0, r=1, 0): one leaves its query.
    perm = np.arange(1 << m)
    perm[[0, 2]] = 2, 0
    return OracleAction.from_permutation(GeneralizedPermutation(m, perm, np.ones(1 << m)))


def _flip_first_bit(m):
    perm = np.arange(1 << m) ^ (1 << (m - 1))
    return OracleAction.from_permutation(GeneralizedPermutation(m, perm, np.ones(1 << m)))


def _as_matrix(m):
    return OracleAction.from_matrix(np.eye(1 << m))


@pytest.mark.parametrize("make", [_swap_two_queries, _flip_first_bit, _as_matrix])
def test_parity_refuses_an_oracle_that_moves_input_bits(monkeypatch, make):
    # One state holds every query only while the oracle writes no input bit;
    # a map that might (a matrix) is refused as well, before any query.
    built = []

    def oracle(f):
        built.append(FaultyOracle(make(f.n + 1)))
        return built[-1]

    monkeypatch.setattr(querylab, "standard_oracle", oracle)
    with pytest.raises(RuntimeError, match="input bits"):
        querylab.run_parity_quantum(random_function(3, np.random.default_rng(10)))
    assert len(built) == 1 and built[0].inputs == []
