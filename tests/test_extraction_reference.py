"""Differential tests: the whole-matrix extraction engine against the
per-column streaming path it replaced.

The reference below is the earlier implementation, kept here and nowhere
else: each column of B†UB is computed by pushing one product state through
the oracle and rotating the image back, and detection streams the columns,
stopping at the first one that is not a single basis vector up to phase.
Every case must give the same admitted names in the same order, the same
perms, and phases within 1e-12.
"""

import numpy as np
import pytest

from qcorr.matrixcore import DEFAULT_TOL, detect_stack, random_unitary
from qcorr.oracleforge import (
    BooleanFunction,
    BVInstance,
    OracleAction,
    bv_function,
    phase_oracle,
    standard_oracle,
)
from qcorr import correspondence
from qcorr.correspondence import (
    CHI,
    ETA,
    PauliGrid,
    RandomSample,
    _gray_walk,
    basis_word,
    conjugate,
    extract_batch,
    extract_counterpart,
    general_basis,
    iter_assignments,
    search_counterparts,
)
from qcorr.querylab import bv_problem, family_extracted, hypothesis_function, parity_problem

PHASE_TOL = 1e-12


def reference_apply_single_qubit(state, u2, qubit, m):
    psi = np.asarray(state, dtype=complex).reshape((2,) * m)
    psi = np.moveaxis(psi, qubit, 0)
    out = np.tensordot(np.asarray(u2, dtype=complex), psi, axes=([1], [0]))
    return np.moveaxis(out, 0, qubit).reshape(-1)


def reference_column(action, bases, col):
    m = action.m
    if len(bases) != m:
        raise ValueError(f"{len(bases)} bases given for an oracle on {m} qubits")
    vec = np.ones(1, dtype=complex)
    for j, basis in enumerate(bases):
        bit = (col >> (m - 1 - j)) & 1
        vec = np.kron(vec, basis.matrix[:, bit])
    out = action.apply(vec)
    for j, basis in enumerate(bases):
        if not basis._is_standard:
            out = reference_apply_single_qubit(out, basis.matrix.conj().T, j, m)
    return out


def reference_detect(dim, columns, tol=DEFAULT_TOL):
    """(perm, phases) from a stream of columns, or None."""
    perm = [-1] * dim
    phases = [0j] * dim
    for j, col in enumerate(columns):
        col = np.asarray(col)
        big = np.flatnonzero(np.abs(col) > tol)
        if big.size != 1:
            return None
        i = int(big[0])
        entry = complex(col[i])
        if abs(abs(entry) - 1.0) > tol:
            return None
        perm[j] = i
        phases[i] = entry
    if sorted(perm) != list(range(dim)):
        return None
    return tuple(perm), tuple(phases)


def reference_extract(action, bases, tol=DEFAULT_TOL):
    columns = (reference_column(action, bases, col) for col in range(action.dim))
    return reference_detect(action.dim, columns, tol)


def reference_grid(m):
    for code in range(1 << m):
        bases = tuple(ETA if (code >> (m - 1 - j)) & 1 else CHI for j in range(m))
        yield basis_word(bases), bases


def reference_random(count, seed, m):
    rng = np.random.default_rng(seed)
    for idx in range(count):
        yield f"random:{idx}", tuple(general_basis(random_unitary(2, rng)) for _ in range(m))


def reference_search(action, assignments):
    found = []
    for name, bases in assignments:
        hit = reference_extract(action, bases)
        if hit is not None:
            found.append((name, hit))
    return found


def assert_same_hit(gp, hit):
    perm, phases = hit
    assert gp.perm == perm
    assert np.max(np.abs(np.asarray(gp.phases) - np.asarray(phases))) < PHASE_TOL


def assert_same_search(found, want):
    assert [name for name, _, _ in found] == [name for name, _ in want]
    for (_, _, gp), (_, hit) in zip(found, want):
        assert_same_hit(gp, hit)


def random_truth(rng, n):
    return tuple(int(b) for b in rng.integers(0, 2, 1 << n))


@pytest.fixture(params=["whole", "kept-direct", "kept-walked"])
def strategy(request, monkeypatch):
    """Each way the engine can take a grid: a walk of the whole small stack,
    or the words that pass the column-0 test, conjugated one by one or picked
    out of a walk."""
    if request.param != "whole":
        monkeypatch.setattr(correspondence, "_SMALL_STACK", 0)
        walked = request.param == "kept-walked"
        monkeypatch.setattr(correspondence, "_walk_pays", lambda kept, m: walked)
    return request.param


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_standard_oracles_over_the_grid(m, strategy):
    rng = np.random.default_rng(100 + m)
    for _ in range(4):
        oracle = standard_oracle(BooleanFunction(m - 1, random_truth(rng, m - 1)))
        found = search_counterparts(oracle, PauliGrid())
        assert found, "the all-chi word always admits the standard oracle"
        assert_same_search(found, reference_search(oracle, reference_grid(m)))


def test_standard_oracle_over_the_grid_at_m8():
    # a stack past the small-stack size: the grid is screened by column 0
    oracle = standard_oracle(BooleanFunction(7, random_truth(np.random.default_rng(8), 7)))
    assert len(oracle.as_matrix()) ** 2 > correspondence._SMALL_STACK
    found = search_counterparts(oracle, PauliGrid())
    assert_same_search(found, reference_search(oracle, reference_grid(8)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_phase_oracles_over_the_grid(n, strategy):
    rng = np.random.default_rng(200 + n)
    for _ in range(3):
        inst = BVInstance(n, int(rng.integers(0, 2)), tuple(int(b) for b in rng.integers(0, 2, n)))
        oracle = phase_oracle(inst)
        found = search_counterparts(oracle, PauliGrid())
        assert_same_search(found, reference_search(oracle, reference_grid(n)))


def dressed(rng, m, bases):
    """B P B† for a random generalized permutation P: a matrix-backed action
    whose counterpart under ``bases`` is P."""
    dim = 1 << m
    p = np.zeros((dim, dim), dtype=complex)
    p[rng.permutation(dim), np.arange(dim)] = np.exp(1j * rng.uniform(0, 2 * np.pi, dim))
    b = np.ones((1, 1), dtype=complex)
    for basis in bases:
        b = np.kron(b, basis.matrix)
    return b @ p @ b.conj().T


@pytest.mark.parametrize("m", [1, 2, 3])
def test_haar_actions_under_random_samples(m):
    rng = np.random.default_rng(300 + m)
    for seed in range(3):
        space = RandomSample(count=6, seed=seed)
        plain = OracleAction.from_matrix(random_unitary(1 << m, rng))
        target = list(iter_assignments(space, m))[int(rng.integers(0, 6))][1]
        planted = OracleAction.from_matrix(dressed(rng, m, target))
        for action in (plain, planted):
            found = search_counterparts(action, space)
            assert_same_search(found, reference_search(action, reference_random(6, seed, m)))
        assert found, "the planted assignment admits"


@pytest.mark.parametrize("m", [1, 2, 3])
def test_haar_actions_under_single_words(m, strategy):
    rng = np.random.default_rng(400 + m)
    for _ in range(4):
        bases = tuple(general_basis(random_unitary(2, rng)) for _ in range(m))
        plain = OracleAction.from_matrix(random_unitary(1 << m, rng))
        planted = OracleAction.from_matrix(dressed(rng, m, bases))
        assert extract_counterpart(plain, bases) is None
        assert reference_extract(plain, bases) is None
        assert_same_hit(extract_counterpart(planted, bases), reference_extract(planted, bases))
        for _, word in reference_grid(m):
            gp, hit = extract_counterpart(planted, word), reference_extract(planted, word)
            assert (gp is None) == (hit is None)
            if gp is not None:
                assert_same_hit(gp, hit)
        word = list(reference_grid(m))[int(rng.integers(0, 1 << m))][1]
        on_grid = OracleAction.from_matrix(dressed(rng, m, word))
        found = search_counterparts(on_grid, PauliGrid())
        assert found, "the planted word admits"
        assert_same_search(found, reference_search(on_grid, reference_grid(m)))


@pytest.mark.parametrize(
    "problem", [bv_problem(1), bv_problem(2), bv_problem(3), parity_problem(1), parity_problem(2)],
    ids=["bv1", "bv2", "bv3", "parity1", "parity2"],
)
def test_family_extracted_stacks(problem, strategy):
    m = problem.n + 1
    oracles = [standard_oracle(hypothesis_function(h)) for h in problem.hypotheses]
    admitted = []
    for word, bases in reference_grid(m):
        hits = [reference_extract(oracle, bases) for oracle in oracles]
        fam = family_extracted(problem, bases)
        if any(hit is None for hit in hits):
            assert fam is None, word
            continue
        admitted.append((word, hits))
        assert fam.name == word and len(fam.maps) == len(hits)
        for gp, hit in zip(fam.maps, hits):
            assert_same_hit(gp, hit)
    assert admitted
    # the whole grid in one batch, as speedup_report takes it
    found = extract_batch(oracles, PauliGrid())
    assert [name for name, _, _ in found] == [word for word, _ in admitted]
    for (_, _, gps), (_, hits) in zip(found, admitted):
        for gp, hit in zip(gps, hits):
            assert_same_hit(gp, hit)


def test_gray_walk_matches_per_word_conjugation_at_m8():
    inst = BVInstance(7, 1, (1, 0, 1, 1, 0, 0, 1))
    oracle = standard_oracle(bv_function(inst))
    drift, per_word = 0.0, []
    for name, bases, stack in _gray_walk([oracle], 8):
        direct = conjugate([oracle], bases)
        drift = max(drift, float(np.max(np.abs(stack - direct))))
        gp = detect_stack(direct)[0]
        if gp is not None:
            per_word.append((name, gp))
    assert drift < PHASE_TOL
    per_word.sort(key=lambda hit: hit[0])
    found = search_counterparts(oracle, PauliGrid())
    assert [name for name, _, _ in found] == [name for name, _ in per_word]
    for (_, _, gp), (_, want) in zip(found, per_word):
        assert gp.perm == want.perm
        assert np.max(np.abs(np.asarray(gp.phases) - np.asarray(want.phases))) < PHASE_TOL
