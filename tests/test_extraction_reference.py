"""Differential tests of the two extraction engines.

Both are pinned against the per-column streaming path they replaced, which
is kept here and nowhere else: each column of B†UB is computed by pushing
one product state through the oracle and rotating the image back, and
detection streams the columns, stopping at the first one that is not a
single basis vector up to phase.  The table engine is also pinned against
the dense engine on the same oracles, given as matrices.  Every case must
give the same admitted names in the same order, the same perms, and phases
within 1e-12.
"""

import numpy as np
import pytest

from qcorr.matrixcore import (
    DEFAULT_TOL,
    GeneralizedPermutation,
    SizeLimitError,
    random_unitary,
)
from qcorr.oracleforge import (
    BooleanFunction,
    BVInstance,
    OracleAction,
    bv_function,
    phase_oracle,
    standard_oracle,
)
from qcorr import correspondence, querylab
from qcorr.correspondence import (
    CHI,
    ETA,
    PauliGrid,
    RandomSample,
    basis_word,
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
        if basis is not CHI:
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


def dense(action):
    """The same oracle as a matrix-backed action, which takes the dense engine."""
    return OracleAction.from_matrix(action.as_matrix())


@pytest.fixture(params=["whole", "kept-direct", "kept-walked"])
def strategy(request, monkeypatch):
    """How an oracle reaches the engines: "whole" as built, so a
    permutation oracle takes the table engine; "kept-walked" the same, with
    the table engine building one word per block; "kept-direct" as a dense
    matrix, which takes the screen-and-conjugate engine.  The ids are those
    of the three grid paths of the earlier Gray-walk engine, kept so that
    the test ids stay the same.  The standard oracles that querylab builds
    for a problem take the same way."""
    if request.param == "kept-walked":
        monkeypatch.setattr(correspondence, "_BLOCK", 1)
    prepare = dense if request.param == "kept-direct" else (lambda action: action)
    build = querylab.standard_oracle
    monkeypatch.setattr(querylab, "standard_oracle", lambda f: prepare(build(f)))
    return prepare


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_standard_oracles_over_the_grid(m, strategy):
    rng = np.random.default_rng(100 + m)
    for _ in range(4):
        oracle = strategy(standard_oracle(BooleanFunction(m - 1, random_truth(rng, m - 1))))
        found = search_counterparts(oracle, PauliGrid())
        assert found, "the all-chi word always admits the standard oracle"
        assert_same_search(found, reference_search(oracle, reference_grid(m)))


def test_standard_oracle_over_the_grid_at_m8():
    # the table engine on more than one block of words
    oracle = standard_oracle(BooleanFunction(7, random_truth(np.random.default_rng(8), 7)))
    found = search_counterparts(oracle, PauliGrid())
    assert_same_search(found, reference_search(oracle, reference_grid(8)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_phase_oracles_over_the_grid(n, strategy):
    rng = np.random.default_rng(200 + n)
    for _ in range(3):
        inst = BVInstance(n, int(rng.integers(0, 2)), tuple(int(b) for b in rng.integers(0, 2, n)))
        oracle = strategy(phase_oracle(inst))
        found = search_counterparts(oracle, PauliGrid())
        assert_same_search(found, reference_search(oracle, reference_grid(n)))


def permutation_action(rng, m, maps, phases):
    """A permutation-backed action: a random permutation or an invertible
    affine map over GF(2) (``maps``), with unit, ±1, character times global
    or random phases (``phases``)."""
    dim = 1 << m
    if maps == "affine":
        while True:
            a = rng.integers(0, 2, (m, m))
            if round(abs(np.linalg.det(a))) % 2:  # invertible over GF(2)
                break
        x = (np.arange(dim)[:, None] >> np.arange(m)) & 1
        perm = ((x @ a.T % 2) << np.arange(m)).sum(axis=1) ^ int(rng.integers(0, dim))
    else:
        perm = rng.permutation(dim)
    if phases == "unit":
        ph = np.ones(dim)
    elif phases == "sign":
        ph = rng.choice([-1.0, 1.0], dim)
    elif phases == "character":
        parity = np.bitwise_count(np.arange(dim) & int(rng.integers(0, dim))) & 1
        ph = np.exp(2j * np.pi * rng.uniform()) * (1.0 - 2.0 * parity)
    else:
        ph = np.exp(2j * np.pi * rng.uniform(size=dim))
    gp = GeneralizedPermutation(m, tuple(perm.tolist()), tuple(ph.astype(complex).tolist()))
    return OracleAction.from_permutation(gp)


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
        # a permutation oracle, which the strategy sends to either engine
        affine = strategy(permutation_action(rng, m, "affine", "character"))
        for _, word in reference_grid(m):
            gp, hit = extract_counterpart(affine, word), reference_extract(affine, word)
            assert (gp is None) == (hit is None)
            if gp is not None:
                assert_same_hit(gp, hit)


@pytest.mark.parametrize(
    "problem", [bv_problem(1), bv_problem(2), bv_problem(3), parity_problem(1), parity_problem(2)],
    ids=["bv1", "bv2", "bv3", "parity1", "parity2"],
)
def test_family_extracted_stacks(problem, strategy):
    m = problem.n + 1
    oracles = [strategy(standard_oracle(hypothesis_function(h))) for h in problem.hypotheses]
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




def assert_same_batch(found, want):
    assert [(name, bases) for name, bases, _ in found] == [(name, bases) for name, bases, _ in want]
    for (_, _, gps), (_, _, wants) in zip(found, want):
        assert len(gps) == len(wants)
        for gp, other in zip(gps, wants):
            assert gp.perm == other.perm
            assert np.max(np.abs(np.asarray(gp.phases) - np.asarray(other.phases))) < PHASE_TOL


def assert_table_matches_dense(actions, space):
    found = extract_batch(actions, space)
    assert_same_batch(found, extract_batch([dense(action) for action in actions], space))
    return len(found)


ORACLE_KINDS = [
    ("random", "unit"), ("random", "sign"), ("random", "character"), ("random", "random"),
    ("affine", "unit"), ("affine", "sign"), ("affine", "character"),
    ("standard", "f"), ("standard", "bv"), ("phase", "bv"),
]


def oracle_of_kind(rng, m, kind):
    maps, phases = kind
    if maps == "standard":
        n = m - 1
        if phases == "f":
            return standard_oracle(BooleanFunction(n, random_truth(rng, n)))
        inst = BVInstance(n, int(rng.integers(0, 2)), tuple(int(b) for b in rng.integers(0, 2, n)))
        return standard_oracle(bv_function(inst))
    if maps == "phase":
        return phase_oracle(BVInstance(m, 0, tuple(int(b) for b in rng.integers(0, 2, m))))
    return permutation_action(rng, m, maps, phases)


# A standard oracle has at least two qubits.
DIFFERENTIAL_CASES = [(m, kind) for m in range(1, 7) for kind in ORACLE_KINDS
                      if m > 1 or kind[0] != "standard"]


@pytest.mark.parametrize("m, kind", DIFFERENTIAL_CASES,
                         ids=[f"{m}-{'-'.join(kind)}" for m, kind in DIFFERENTIAL_CASES])
def test_table_engine_matches_dense_engine(m, kind):
    rng = np.random.default_rng([m, ORACLE_KINDS.index(kind)])
    words = [bases for _, bases in reference_grid(m)]
    if m > 4:
        words = [words[i] for i in rng.choice(len(words), 8, replace=False)]
    admitted = 0
    for k in (1, 2, 3):
        for _ in range(2):
            actions = [oracle_of_kind(rng, m, kind) for _ in range(k)]
            admitted += assert_table_matches_dense(actions, PauliGrid())
            for bases in words:
                assert_table_matches_dense(actions, bases)
    # the all-chi word admits every oracle
    assert admitted >= 6


@pytest.mark.parametrize(
    "problem", [bv_problem(1), bv_problem(2), bv_problem(3), parity_problem(1), parity_problem(2)],
    ids=["bv1", "bv2", "bv3", "parity1", "parity2"],
)
def test_table_engine_matches_dense_engine_on_hypothesis_stacks(problem):
    oracles = [standard_oracle(hypothesis_function(h)) for h in problem.hypotheses]
    assert assert_table_matches_dense(oracles, PauliGrid()) > 1
    for _, bases in reference_grid(problem.n + 1):
        assert_table_matches_dense(oracles, bases)


def test_table_matches_dense_on_bv_at_m8():
    inst = BVInstance(7, 1, (1, 0, 1, 1, 0, 0, 1))
    assert assert_table_matches_dense([standard_oracle(bv_function(inst))], PauliGrid()) > 100


def test_phases_off_the_unit_circle_admit_nothing():
    # Within the default tolerance of unit modulus, but not within a tighter
    # one: at the tighter tolerance no engine admits a word, and at the
    # default both admit the same words.
    rng = np.random.default_rng(14)
    for m in (1, 2, 3, 4):
        base = permutation_action(rng, m, "affine", "character").permutation
        scaled = GeneralizedPermutation(m, base.perm, tuple(p * (1 + 1e-10) for p in base.phases))
        table, matrix = OracleAction.from_permutation(scaled), dense(OracleAction.from_permutation(scaled))
        assert extract_batch([table], PauliGrid(), tol=1e-11) == []
        assert extract_batch([matrix], PauliGrid(), tol=1e-11) == []
        assert assert_table_matches_dense([table], PauliGrid()) > 0


@pytest.mark.parametrize("tol", [1.0, 5.0, np.inf])
def test_no_word_admits_at_a_tolerance_of_one_or_more(tol):
    # no unit-modulus entry has a modulus above tol, so the dense detector
    # finds no entry in any column
    inst = BVInstance(2, 0, (1, 1))
    for oracle in (standard_oracle(bv_function(inst)), phase_oracle(inst)):
        assert extract_batch([oracle], PauliGrid(), tol) == []
        assert extract_batch([dense(oracle)], PauliGrid(), tol) == []


def refuse(*args, **kwargs):
    raise AssertionError("this engine must not run here")


def test_permutation_grid_builds_no_dense_matrix(monkeypatch):
    monkeypatch.setattr(GeneralizedPermutation, "as_matrix", refuse)
    monkeypatch.setattr(correspondence, "conjugate", refuse)
    rng = np.random.default_rng(12)
    oracle = standard_oracle(BooleanFunction(11, random_truth(rng, 11)))
    found = search_counterparts(oracle, PauliGrid())
    assert found[0][0] == "C" * 12 and found[0][2] == oracle.permutation
    for name, bases, gp in found:
        assert extract_counterpart(oracle, bases) == gp
    # the limit comes first, before any table
    monkeypatch.setattr(correspondence, "_FlipTables", refuse)
    over = standard_oracle(BooleanFunction(13, random_truth(rng, 13)))
    with pytest.raises(SizeLimitError):
        search_counterparts(over, PauliGrid())
    with pytest.raises(SizeLimitError):
        extract_counterpart(over, (CHI,) * 14)


def test_other_spaces_of_permutation_oracles_take_the_dense_engine(monkeypatch):
    monkeypatch.setattr(correspondence, "_FlipTables", refuse)
    rng = np.random.default_rng(13)
    oracle = standard_oracle(BooleanFunction(2, random_truth(rng, 2)))
    # general bases, one of them the identity and one the Hadamard pair
    words = [tuple(general_basis(random_unitary(2, rng)) for _ in range(3)),
             (general_basis(np.eye(2)),) * 3,
             (general_basis(ETA.matrix), CHI, ETA)]
    for bases in words:
        gp, hit = extract_counterpart(oracle, bases), reference_extract(oracle, bases)
        assert (gp is None) == (hit is None)
        if gp is not None:
            assert_same_hit(gp, hit)
    assert extract_counterpart(oracle, words[1]) == oracle.permutation
    for seed in range(3):
        found = search_counterparts(oracle, RandomSample(6, seed))
        assert_same_search(found, reference_search(oracle, reference_random(6, seed, 3)))
    # a batch with one matrix-backed action
    found = extract_batch([oracle, dense(oracle)], PauliGrid())
    want = reference_search(oracle, reference_grid(3))
    assert [name for name, _, _ in found] == [name for name, _ in want]
    for (_, _, gps), (_, hit) in zip(found, want):
        for gp in gps:
            assert_same_hit(gp, hit)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_chi_is_known_by_identity(m, monkeypatch):
    """The engines skip a qubit's 2x2 passes exactly when its basis is CHI.
    The identity matrix wrapped as a general basis gets its passes, and
    changes no bit of the result."""
    rng = np.random.default_rng([m, 29])
    passes = []
    kernel = correspondence.apply_single_qubit

    def counted(state, u2, qubit, width, out=None):
        passes.append(qubit % m)
        return kernel(state, u2, qubit, width, out=out)

    monkeypatch.setattr(correspondence, "apply_single_qubit", counted)
    same = general_basis(np.eye(2))
    perm = permutation_action(rng, m, "random", "random")
    matrix = OracleAction.from_matrix(random_unitary(1 << m, rng))
    words = [(CHI,) * m] + [tuple(ETA if bit else CHI for bit in rng.integers(0, 2, m))
                            for _ in range(4)]

    def run(actions, bases):
        """conjugate and _columns under ``bases``, each with the qubits
        its passes touched."""
        results = []
        for call, args in [(correspondence.conjugate, ())] + [
                (correspondence._columns, (c,)) for c in (0, m // 2)]:
            passes.clear()
            results.append((call(actions, bases, *args), sorted(passes)))
        return results

    for actions in ([perm], [matrix], [perm, matrix]):
        for word in words:
            twin = tuple(same if b is CHI else b for b in word)
            rotated = [j for j, b in enumerate(word) if b is not CHI]
            got, want = run(actions, word), run(actions, twin)
            assert [touched for _, touched in got] == [sorted(2 * rotated), rotated, rotated]
            assert [touched for _, touched in want] == [sorted(2 * list(range(m))),
                                                        list(range(m)), list(range(m))]
            for (a, _), (b, _) in zip(got, want):
                assert np.array_equal(a, b)
