"""Differential tests of the two extraction engines.

Both are pinned against the per-column streaming path they replaced, which
is kept here and nowhere else: each column of B†UB is computed by pushing
one product state through the oracle and rotating the image back, and
detection streams the columns, stopping at the first one that is not a
single basis vector up to phase.  The table engine is also pinned against
the dense engine on the same oracles, given as matrices.  Every case must
give the same admitted names in the same order, the same perms, and phases
within 1e-12, at the default tolerance and at lax ones.  The dense
engine's batched column screen is pinned against the per-assignment screen
it replaced, built here from the same streamed columns, and its drawn bases
against one ``random_unitary`` call per qubit.
The table engine's bit-flip tables and admitted words are pinned, exactly,
against their first per-bit form, also kept here and nowhere else.
"""

import tracemalloc

import numpy as np
import pytest

from qcorr.matrixcore import (
    DEFAULT_TOL,
    GeneralizedPermutation,
    SizeLimitError,
    num_bits,
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
from qcorr import correspondence, matrixcore, querylab
from qcorr.correspondence import (
    CHI,
    ETA,
    PauliGrid,
    RandomSample,
    basis_word,
    extract_counterpart,
    general_basis,
    search_counterparts,
)
from qcorr.querylab import bv_problem, family_extracted, parity_problem

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


def reference_columns_admit(cols, tol):
    """Whether every column of a (2^m, n) array holds exactly one entry of
    modulus above tol, itself within tol of one, on a row no other takes."""
    mags = np.abs(cols)
    big = mags > tol
    if not (big.sum(axis=0) == 1).all():
        return False
    rows = big.argmax(axis=0)
    if not (np.abs(np.take_along_axis(mags, rows[None], axis=0) - 1.0) <= tol).all():
        return False
    return not (np.diff(np.sort(rows)) == 0).any()


def reference_screened(action, bases, tol=DEFAULT_TOL):
    """The per-assignment screen: B†UB passes on its first column."""
    return reference_columns_admit(reference_column(action, bases, 0)[:, None], tol)


def reference_grid(m):
    for code in range(1 << m):
        bases = tuple(ETA if (code >> (m - 1 - j)) & 1 else CHI for j in range(m))
        yield basis_word(bases), bases


def reference_random(count, seed, m):
    rng = np.random.default_rng(seed)
    for idx in range(count):
        yield f"random:{idx}", tuple(general_basis(random_unitary(2, rng)) for _ in range(m))


def space_pairs(space, m):
    """(name, bases) of every assignment of a checked space, in its order."""
    correspondence._check_space(space, m)
    bases, at = correspondence._assignments(space, m)
    return [at(i) for i in range(len(bases))]


def reference_search(action, assignments, tol=DEFAULT_TOL):
    found = []
    for name, bases in assignments:
        hit = reference_extract(action, bases, tol)
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


def as_function(inst):
    """A hypothesis's function: a parity instance is one, a promise gives k0 XOR k.x."""
    return bv_function(inst) if isinstance(inst, BVInstance) else inst


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
    affine map over GF(2) (``maps``), with unit, ±1, quarter-turn, character
    times global, character off the unit circle or random phases
    (``phases``)."""
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
    elif phases == "quarter":
        ph = 1j ** rng.integers(0, 4, dim)
    elif phases == "off":
        # a character off the unit circle by less than the default tolerance
        parity = np.bitwise_count(np.arange(dim) & int(rng.integers(0, dim))) & 1
        ph = rng.choice([1 + 1e-10, 1 - 1e-10]) * (1.0 - 2.0 * parity)
    else:
        ph = np.exp(2j * np.pi * rng.uniform(size=dim))
    gp = GeneralizedPermutation(m, tuple(perm.tolist()), tuple(ph.astype(complex).tolist()))
    return OracleAction.from_permutation(gp)


def near_identity(rng, dim, noise):
    """exp(i noise H) for a random Hermitian H with entries of modulus about
    one: a unitary within about ``noise`` of the identity in each entry."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    w, q = np.linalg.eigh((g + g.conj().T) / 2)
    return (q * np.exp(1j * noise * w)) @ q.conj().T


def dressed(rng, m, bases, noise=0.0):
    """B P B† for a random generalized permutation P: a matrix-backed action
    whose counterpart under ``bases`` is P.  With ``noise``, P is followed
    by a unitary ``near_identity``, so that B†UB is a generalized
    permutation only within a tolerance of about that noise."""
    dim = 1 << m
    p = np.zeros((dim, dim), dtype=complex)
    p[rng.permutation(dim), np.arange(dim)] = np.exp(1j * rng.uniform(0, 2 * np.pi, dim))
    if noise:
        p = p @ near_identity(rng, dim, noise)
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
        target = space_pairs(space, m)[int(rng.integers(0, 6))][1]
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
    built = [standard_oracle(as_function(h.instance)) for h in problem.hypotheses]
    oracles = [strategy(oracle) for oracle in built]
    # one search per oracle, through the engine the strategy picks
    searches = [{name: gp for name, _, gp in search_counterparts(oracle, PauliGrid())}
                for oracle in oracles]
    admitted = []
    for word, bases in reference_grid(m):
        hits = [reference_extract(oracle, bases) for oracle in oracles]
        for search, hit in zip(searches, hits):
            assert (word in search) == (hit is not None), word
            if hit is not None:
                assert_same_hit(search[word], hit)
        fam = family_extracted(problem, bases)
        if any(hit is None for hit in hits):
            assert fam is None, word
            continue
        admitted.append((word, hits))
        assert fam.name == word
        assert fam.perms.tolist() == [list(perm) for perm, _ in hits]
    assert admitted
    # the whole grid on the stacked tables, as speedup_report takes it
    found = list(table_search(*stacked_tables(built), PauliGrid()))
    assert [name for name, *_ in found] == [word for word, _ in admitted]
    for (_, _, perms, _, phases), (_, hits) in zip(found, admitted):
        for perm, ph, hit in zip(perms, phases, hits, strict=True):
            assert_same_hit(GeneralizedPermutation(m, perm, ph), hit)


def stacked_tables(actions):
    """The (k, 2^m) perm and phase tables of k permutation-backed actions."""
    maps = [action.permutation for action in actions]
    return np.stack([gp._perm for gp in maps]), np.stack([gp._phases for gp in maps])


def table_search(perms, phases, space, tol=DEFAULT_TOL):
    """The table engine on (k, 2^m) perm and phase tables over the grid or a
    chi/eta word: (name, assignment, perms, inverses, phases) per admitted
    word."""
    words = correspondence._check_space(space, num_bits(perms.shape[1]))
    return correspondence._FlipTables(perms, phases, tol).counterparts(words)




def assert_table_matches_dense(actions, space, tol=DEFAULT_TOL):
    """Each permutation action's search against the dense engine's search
    of the same oracle as a matrix, then the table engine on the stacked
    tables of all the actions against the words that every dense search
    admits.  Returns the number of words the stack admits."""
    searches = []
    for action in actions:
        found = search_counterparts(action, space, tol)
        want = search_counterparts(dense(action), space, tol)
        assert [(name, bases) for name, bases, _ in found] == [(name, bases) for name, bases, _ in want]
        for (_, _, gp), (_, _, other) in zip(found, want):
            assert_same_hit(gp, (other.perm, other.phases))
            # the table engine, the detector and the constructor give each
            # map the same inverse
            built = GeneralizedPermutation(gp.m, gp.perm, gp.phases)
            assert np.array_equal(gp._inv, other._inv) and np.array_equal(gp._inv, built._inv)
        searches.append({name: (bases, gp) for name, bases, gp in want})
    found = list(table_search(*stacked_tables(actions), space, tol))
    want = [(name, bases) for name, (bases, _) in searches[0].items()
            if all(name in search for search in searches)]
    assert [(name, bases) for name, bases, *_ in found] == want
    m = actions[0].m
    for name, _, perms, invs, phases in found:
        for perm, inv, ph, search in zip(perms, invs, phases, searches, strict=True):
            other = search[name][1]
            built = GeneralizedPermutation(m, perm, ph)
            assert_same_hit(built, (other.perm, other.phases))
            assert np.array_equal(built._inv, inv) and np.array_equal(other._inv, inv)
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
    oracles = [standard_oracle(as_function(h.instance)) for h in problem.hypotheses]
    assert assert_table_matches_dense(oracles, PauliGrid()) > 1
    for _, bases in reference_grid(problem.n + 1):
        assert_table_matches_dense(oracles, bases)


def test_table_matches_dense_on_bv_at_m8():
    inst = BVInstance(7, 1, (1, 0, 1, 1, 0, 0, 1))
    assert assert_table_matches_dense([standard_oracle(bv_function(inst))], PauliGrid()) > 100


# The kinds whose every phase is +1 or -1, as on every oracle the command
# line builds.
SIGN_KINDS = [kind for kind in ORACLE_KINDS if kind[1] in ("unit", "sign", "f", "bv")]


@pytest.mark.parametrize("lax", ["1e-3", "0.99*2^-m"])
@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_table_engine_matches_dense_engine_at_lax_tolerance(m, lax):
    """With ±1 phases every entry of H^S G H^S is a multiple of 2^-|S|, so
    below 2^-m the dense rule is the exact test and the engines agree.  At
    or above it they can part: the dense rule reads each entry of B†UB, the
    table engine the ratios of the oracle's phases."""
    tol = 1e-3 if lax == "1e-3" else 0.99 * 2.0 ** -m
    rng = np.random.default_rng([m, len(lax)])
    admitted = 0
    for kind in SIGN_KINDS:
        for k in (1, 2):
            actions = [oracle_of_kind(rng, m, kind) for _ in range(k)]
            admitted += assert_table_matches_dense(actions, PauliGrid(), tol)
    assert admitted >= 2 * len(SIGN_KINDS)


class ReferenceFlipTables:
    """The table engine's decision half as it was first written: the bit-flip
    tables and every reduction built in one loop per bit, the flat table in
    one loop per bit over every row, the back table from a gather of the
    stacked D and T at P⁻¹, and the admitted words in one loop per bit and
    per pair of bits.  It builds counterparts with the engine's own code."""

    counterparts = correspondence._FlipTables.counterparts

    def __init__(self, perms, tol):
        by_bit = correspondence._by_bit
        self.p = np.stack([gp._perm for gp in perms])
        k, dim = self.p.shape
        self.m = m = num_bits(dim)
        self.rows = rows = np.arange(k)[:, None]
        self.inv = np.empty_like(self.p)
        self.inv[rows, self.p] = np.arange(dim)
        self.psi = np.stack([gp._phases for gp in perms])[rows, self.p]
        mags = np.abs(self.psi)
        self.unit = bool(((mags > tol) & (np.abs(mags - 1.0) <= tol)).all())
        diff = np.empty((m, k, dim), dtype=self.p.dtype)
        minus = np.empty((m, k, dim), dtype=bool)
        self.signed = np.empty(m, dtype=bool)
        for b in range(m):
            pb, sb, tb = by_bit(self.p, b), by_bit(self.psi, b), by_bit(minus[b], b)
            np.bitwise_xor(pb, pb[:, :, ::-1], out=by_bit(diff[b], b))
            ratio = sb[:, :, ::-1] / sb
            np.less_equal(np.abs(ratio + 1.0), tol, out=tb)
            self.signed[b] = (tb | (np.abs(ratio - 1.0) <= tol)).all()
        self.reach = np.bitwise_or.reduce(diff.reshape(m, -1), axis=1)
        self.flat = np.empty((m, m), dtype=bool)
        for j in range(m):
            d, t = by_bit(diff.reshape(m * k, dim), j), by_bit(minus.reshape(m * k, dim), j)
            still = (d == d[:, :, ::-1]) & (t == t[:, :, ::-1])
            self.flat[:, j] = still.reshape(m, -1).all(axis=1)
        at_inv = np.s_[:, rows, self.inv]
        bits = (np.bitwise_count(diff[at_inv] & np.arange(dim)) & 1).astype(bool) ^ minus[at_inv]
        self.back = np.bitwise_or.reduce(bits.astype(self.p.dtype) << np.arange(m)[:, None, None],
                                         axis=0)

    def admitted(self, words):
        ok = np.full(words.shape, self.unit)
        for i in range(self.m):
            inside = (words & self.reach[i]) == self.reach[i]
            ok &= ((words >> i) & 1 == 0) | (inside & self.signed[i])
            for j in range(i):
                if not self.flat[i, j]:
                    pair = (1 << i) | (1 << j)
                    ok &= (words & pair) != pair
        return words[ok]


TABLE_KINDS = [(maps, phases) for maps in ("random", "affine")
               for phases in ("unit", "sign", "quarter", "character", "off", "random")]


@pytest.mark.parametrize("m", range(1, 9))
def test_flip_tables_match_the_reference(m):
    """Every table, every admitted word in order, and every counterpart,
    exactly equal to the per-bit reference, at the default tolerance and a
    tighter one."""
    rng = np.random.default_rng([m, 41])
    words = np.arange(1 << m)
    lower = np.tri(m, k=-1, dtype=bool)
    admitted = 0
    for kind in TABLE_KINDS:
        for k in range(1, 6):
            perms = [permutation_action(rng, m, *kind).permutation for _ in range(k)]
            tables = np.stack([gp._perm for gp in perms]), np.stack([gp._phases for gp in perms])
            for tol in (DEFAULT_TOL, 1e-11):
                got = correspondence._FlipTables(*tables, tol)
                want = ReferenceFlipTables(perms, tol)
                for name in ("p", "inv", "psi", "signed", "reach", "back"):
                    a, b = getattr(got, name), getattr(want, name)
                    assert a.dtype == b.dtype and np.array_equal(a, b), name
                assert got.unit is want.unit
                # the bits j < i whose flip changes D_i or T_i
                assert np.array_equal(got.clash, (~want.flat & lower) @ (1 << np.arange(m)))
                hits = got.admitted(words)
                assert hits.dtype == words.dtype
                assert np.array_equal(hits, want.admitted(words))
                admitted += len(hits)
                for found, ref in zip(got.counterparts(hits), want.counterparts(hits), strict=True):
                    assert found[:2] == ref[:2]
                    assert all(a.shape == (k, 1 << m) for a in found[2:])
                    assert all(np.array_equal(a, b) for a, b in zip(found[2:], ref[2:], strict=True))
    # the affine maps with unit, sign and character phases admit words
    assert admitted >= 3 * 5


@pytest.mark.parametrize("block", ["1", "15*2^m"])
@pytest.mark.parametrize("m", range(1, 9))
def test_flip_tables_match_the_reference_in_chunks(monkeypatch, m, block):
    """The same, with the phase-ratio pass cut into several chunks of bits:
    one bit each at a _BLOCK of 1, and 15 // k bits each at 15 * 2^m, which
    leaves a short last chunk at m = 8 for every k from 2 to 5."""
    monkeypatch.setattr(correspondence, "_BLOCK", 1 if block == "1" else 15 << m)
    test_flip_tables_match_the_reference(m)


FREE_TOLS = [0.0, 1e-9, 0.5, 1 - 1e-6, 1.0, 2.5]


def free_tables():
    """Perm tables of plain permutations: the named O_S tables of bv n <= 4
    and parity n <= 2, and seeded random and affine tables of k <= 5 rows on
    m <= 6 bits."""
    tables = {f"bv{n}": querylab.named_family(bv_problem(n), "OS").perms for n in (1, 2, 3, 4)}
    tables |= {f"parity{n}": querylab.named_family(parity_problem(n), "OS").perms for n in (1, 2)}
    rng = np.random.default_rng(26)
    for m in range(1, 7):
        for maps in ("random", "affine"):
            rows = [permutation_action(rng, m, maps, "unit").permutation._perm
                    for _ in range(int(rng.integers(1, 6)))]
            tables[f"{maps}{m}"] = np.stack(rows)
    return tables


@pytest.mark.parametrize("tol", FREE_TOLS)
def test_phase_free_tables_match_unit_phases(tol):
    """Given no phases, the engine admits the words and builds the perm
    tables that it does given every phase 1, at every tolerance: past 2 a
    ratio of 1 is within tol of -1 as well, and from 1 on no phase passes,
    so nothing is admitted.  It builds no phase table."""
    admitted = 0
    for name, perms in free_tables().items():
        words = np.arange(perms.shape[1])
        free = correspondence._FlipTables(perms, None, tol)
        unit = correspondence._FlipTables(perms, np.ones(perms.shape, dtype=complex), tol)
        assert free.psi is None
        hits = free.admitted(words)
        assert np.array_equal(hits, unit.admitted(words)), name
        admitted += len(hits)
        for got, want in zip(free.counterparts(words), unit.counterparts(words), strict=True):
            assert got[:2] == want[:2], name
            assert np.array_equal(got[2], want[2]) and np.array_equal(got[3], want[3]), name
            assert got[4] is None
    assert (admitted > 0) == (tol < 1)


def test_flip_tables_peak_near_one_table(monkeypatch):
    # bv n = 7's O_S family: k = 256 maps on m = 8 bits.  At its peak the
    # engine holds one (m, k, 2^m) intp table and one bool one, next to the
    # (k, 2^m) inputs and one chunk's temporaries, here of one bit: about 2.2
    # such intp tables.  The reference's gather of the stacked tables at P⁻¹
    # took 4.3.
    monkeypatch.setattr(querylab, "BV_SEARCH_LIMIT", 7)
    perms = querylab.named_family(bv_problem(7), "OS").perms
    phases = np.ones(perms.shape, dtype=complex)
    table = 8 * perms.nbytes
    tracemalloc.start()
    try:
        correspondence._FlipTables(perms, phases, DEFAULT_TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * table


def test_flip_tables_peak_near_one_table_at_13_qubits():
    # One standard oracle on m = 13 bits: the phase-ratio pass takes two of
    # its 13 bits per chunk, and peaks near 2.2 (m, 1, 2^m) intp tables.  In
    # one pass over every bit its complex ratios and their temporaries alone
    # would take more than three.  The first call on 13 bits also builds the
    # engine's flip index, one more such table that it keeps: it is built
    # before the trace.
    f = BooleanFunction(12, tuple(np.random.default_rng(13).integers(0, 2, 1 << 12).tolist()))
    gp = standard_oracle(f).permutation
    tables = gp._perm[None], gp._phases[None]
    table = 13 * tables[0].nbytes
    correspondence._FlipTables(*tables, DEFAULT_TOL)
    tracemalloc.start()
    try:
        correspondence._FlipTables(*tables, DEFAULT_TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * table


def test_phase_free_tables_peak_near_one_table(monkeypatch):
    # The same family given no phases: the bit loop builds D alone, so the
    # peak is the one (m, k, 2^m) intp table next to the inputs and the back
    # table's temporaries, about 1.4 such tables (2.2 given unit phases).
    monkeypatch.setattr(querylab, "BV_SEARCH_LIMIT", 7)
    perms = querylab.named_family(bv_problem(7), "OS").perms
    table = 8 * perms.nbytes
    tracemalloc.start()
    try:
        correspondence._FlipTables(perms, None, DEFAULT_TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * table


def test_extracted_tables_are_built_as_they_are_read():
    # bv n = 6's O_S family: k = 128 maps on m = 7 bits, 65 admitted words.
    # Each word's perms and phases are three (k, 2^m) intp tables' worth,
    # so holding every word's took about 205 tables; built as they are read,
    # one block of words at a time, the iteration peaks near 18.
    perms = querylab.named_family(bv_problem(6), "OS").perms
    phases = np.ones(perms.shape, dtype=complex)
    tracemalloc.start()
    try:
        count = sum(1 for _ in table_search(perms, phases, PauliGrid()))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 65
    assert peak < 32 * perms.nbytes


def test_engine_checks_each_inverse_before_it_inverts():
    # Q⁻¹ = [1, 1, 2, 3] collides, so its scatter never writes slot 0 of Q:
    # the check that inverts Q⁻¹ refuses it rather than hand out a perm with
    # a slot nothing wrote.
    gp = phase_oracle(BVInstance(2, 0, (0, 0))).permutation
    tables = correspondence._FlipTables(gp._perm[None], gp._phases[None], DEFAULT_TOL)
    tables.inv = np.array([[1, 1, 2, 3]])
    with pytest.raises(ValueError, match="bijection"):
        next(tables.counterparts(np.array([0])))


def test_each_search_checks_its_space_once(monkeypatch):
    # The space check hands the table engine its words: no caller checks a
    # space twice, whichever engine it takes.
    calls = []
    check_space = correspondence._check_space

    def counting(space, m):
        calls.append(space)
        return check_space(space, m)

    monkeypatch.setattr(correspondence, "_check_space", counting)
    rng = np.random.default_rng(16)
    oracle = standard_oracle(BooleanFunction(2, random_truth(rng, 2)))
    for action in (oracle, phase_oracle(BVInstance(3, 1, (1, 0, 1))), dense(oracle)):
        for space in (PauliGrid(), (ETA, CHI, ETA), RandomSample(2, 0)):
            calls.clear()
            search_counterparts(action, space)
            assert calls == [space], (action, space)
    monkeypatch.setattr(querylab, "_check_space", counting)
    standard = querylab.named_family(bv_problem(2), "OS")
    for space in (PauliGrid(), (CHI, ETA, ETA)):
        calls.clear()
        assert list(querylab._extracted_families(standard, space, DEFAULT_TOL))
        assert calls == [space], space


def test_phases_off_the_unit_circle_admit_nothing():
    # Within the default tolerance of unit modulus, but not within a tighter
    # one: at the tighter tolerance no engine admits a word, and at the
    # default both admit the same words.
    rng = np.random.default_rng(14)
    for m in (1, 2, 3, 4):
        base = permutation_action(rng, m, "affine", "character").permutation
        scaled = GeneralizedPermutation(m, base.perm, tuple(p * (1 + 1e-10) for p in base.phases))
        table, matrix = OracleAction.from_permutation(scaled), dense(OracleAction.from_permutation(scaled))
        assert search_counterparts(table, PauliGrid(), tol=1e-11) == []
        assert search_counterparts(matrix, PauliGrid(), tol=1e-11) == []
        assert assert_table_matches_dense([table], PauliGrid()) > 0


@pytest.mark.parametrize("tol", [1.0, 5.0, np.inf])
def test_no_word_admits_at_a_tolerance_of_one_or_more(tol):
    # no unit-modulus entry has a modulus above tol, so the dense detector
    # finds no entry in any column
    inst = BVInstance(2, 0, (1, 1))
    for oracle in (standard_oracle(bv_function(inst)), phase_oracle(inst)):
        assert search_counterparts(oracle, PauliGrid(), tol) == []
        assert search_counterparts(dense(oracle), PauliGrid(), tol) == []


def refuse(*args, **kwargs):
    raise AssertionError("this engine must not run here")


def test_permutation_grid_builds_no_dense_matrix(monkeypatch):
    monkeypatch.setattr(GeneralizedPermutation, "as_matrix", refuse)
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


def test_permutation_samples_build_no_dense_matrix(monkeypatch):
    # The dense engine decodes B†UB from blocks of columns, each the
    # oracle's images of product states: it never asks for the matrix.
    rng = np.random.default_rng(15)
    oracle = standard_oracle(BooleanFunction(4, random_truth(rng, 4)))
    identity = (general_basis(np.eye(2)),) * 5
    want = [reference_search(oracle, reference_random(8, seed, 5)) for seed in range(3)]
    monkeypatch.setattr(GeneralizedPermutation, "as_matrix", refuse)
    monkeypatch.setattr(OracleAction, "as_matrix", refuse)
    for seed in range(3):
        assert_same_search(search_counterparts(oracle, RandomSample(8, seed)), want[seed])
    assert extract_counterpart(oracle, identity) == oracle.permutation
    identity_oracle = phase_oracle(BVInstance(10, 0, (0,) * 10))
    found = search_counterparts(identity_oracle, RandomSample(1, 1))
    assert [(name, gp.perm) for name, _, gp in found] == [("random:0", tuple(range(1 << 10)))]


def test_an_admitting_dense_search_peaks_below_half_a_matrix():
    # On 10 qubits half of one 2^10 x 2^10 complex matrix is 8 MiB.  The
    # engine holds a block of 64 columns at a time, about 1 MiB, and the map
    # it returns.
    oracle = phase_oracle(BVInstance(10, 0, (0,) * 10))
    for seed in (1, 2):
        search_counterparts(oracle, RandomSample(1, seed))  # imports, caches
        tracemalloc.start()
        try:
            found = search_counterparts(oracle, RandomSample(1, seed))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [name for name, _, _ in found] == ["random:0"]
        assert peak < 8 << 20


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
    # the same oracle as a matrix, on the grid, and as a permutation once
    # the table engine may run: two searches that agree
    found = search_counterparts(dense(oracle), PauliGrid())
    assert_same_search(found, reference_search(oracle, reference_grid(3)))
    monkeypatch.undo()
    tables = search_counterparts(oracle, PauliGrid())
    assert [name for name, _, _ in tables] == [name for name, _, _ in found]
    for (_, _, gp), (_, _, other) in zip(tables, found):
        assert_same_hit(gp, (other.perm, other.phases))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_chi_is_known_by_identity(m, monkeypatch):
    """The dense engine skips a qubit's 2x2 passes exactly when every basis
    of the block is the identity matrix on it: CHI, or the identity wrapped
    as a general basis, whose twin word gets no more passes and gives the
    same columns and results, bit for bit."""
    rng = np.random.default_rng([m, 29])
    passes = []
    kernel = correspondence.apply_single_qubit

    def counted(state, u2, qubit, width):
        passes.append(qubit % m)
        return kernel(state, u2, qubit, width)

    monkeypatch.setattr(correspondence, "apply_single_qubit", counted)
    same = general_basis(np.eye(2))
    perm = permutation_action(rng, m, "random", "random")
    matrix = OracleAction.from_matrix(random_unitary(1 << m, rng))
    words = [(CHI,) * m] + [tuple(ETA if bit else CHI for bit in rng.integers(0, 2, m))
                            for _ in range(4)]

    # the screen's column, the decoder's one block (all the columns up to
    # m = 6), and the second half of the columns at its aligned offset
    blocks = [(0, 0), (m, 0), (m - 1, 1 << (m - 1))]

    def run(action, bases):
        """Those column blocks under ``bases``, each with the qubits its
        passes touched, then the search's answer."""
        mats, _ = correspondence._assignments(bases, m)
        results = []
        for c, start in blocks:
            passes.clear()
            results.append((correspondence._columns(action, mats, c, start), sorted(passes)))
        return results, search_counterparts(action, bases)

    def bits(gp):
        return gp._perm.tobytes(), gp._phases.tobytes()

    for action in (perm, matrix):
        for word in words:
            twin = tuple(same if b is CHI else b for b in word)
            rotated = [j for j, b in enumerate(word) if b is not CHI]
            (got, found), (want, twin_found) = run(action, word), run(action, twin)
            assert [touched for _, touched in got] == [rotated] * 3
            assert [touched for _, touched in want] == [rotated] * 3
            for (a, _), (b, _) in zip(got, want):
                assert a.tobytes() == b.tobytes()
            assert [bits(gp) for _, _, gp in found] == [bits(gp) for _, _, gp in twin_found]


@pytest.mark.parametrize("count, seed, m", [
    (0, 1, 3), (1, 0, 1), (5, 7, 2), (16, 3, 6), (9, 11, 13), (300, 5, 4)])
def test_sample_bases_are_the_per_qubit_draws(count, seed, m):
    got = correspondence._sample_bases(RandomSample(count, seed), m)
    rng = np.random.default_rng(seed)
    want = np.array([[random_unitary(2, rng) for _ in range(m)] for _ in range(count)])
    assert got.shape == (count, m, 2, 2)
    assert np.array_equal(got, want.reshape(count, m, 2, 2))
    pairs = space_pairs(RandomSample(count, seed), m)
    assert [name for name, _ in pairs] == [f"random:{i}" for i in range(count)]
    for (_, bases), mats in zip(pairs, got):
        assert all(b.label == "?" and np.array_equal(b.matrix, mat) for b, mat in zip(bases, mats))


def test_sample_draw_peaks_near_its_qr():
    # The stacked QR holds its input, its own copy, q, r and tau: about 4.5
    # times the result.  Keeping the normals and every other temporary alive
    # as well took 6 times.
    tracemalloc.start()
    try:
        mats = correspondence._sample_bases(RandomSample(8192, 3), 13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * mats.nbytes


def test_a_sample_is_drawn_once_per_extraction(monkeypatch):
    calls = []
    draw = correspondence._sample_bases

    def counted(space, m):
        calls.append(space)
        return draw(space, m)

    monkeypatch.setattr(correspondence, "_sample_bases", counted)
    rng = np.random.default_rng(31)
    space = RandomSample(12, 4)
    target = space_pairs(space, 3)[5][1]
    calls.clear()
    found = search_counterparts(OracleAction.from_matrix(dressed(rng, 3, target)), space)
    assert [name for name, _, _ in found] == ["random:5"] and len(calls) == 1


def first_column_only(rng, m, bases):
    """B (1 + V) B† for a random unitary V on the other 2^m - 1 basis
    states: under ``bases`` its first column is a basis vector and no other
    is, so it passes the screen and is rejected when its columns are
    decoded."""
    dim = 1 << m
    p = np.zeros((dim, dim), dtype=complex)
    p[0, 0] = 1.0
    p[1:, 1:] = random_unitary(dim - 1, rng)
    b = np.ones((1, 1), dtype=complex)
    for basis in bases:
        b = np.kron(b, basis.matrix)
    return b @ p @ b.conj().T


def as_bases(mats):
    return tuple(map(general_basis, mats))


def planted_batch(rng, m, count, rows):
    """The (count, m, 2, 2) basis matrices of ``count`` random assignments,
    with row i replaced by the QubitBasis tuple rows[i]."""
    mats = correspondence._sample_bases(RandomSample(count, int(rng.integers(1 << 31))), m)
    for i, bases in rows.items():
        mats[i] = [b.matrix for b in bases]
    return mats


def assert_screen_matches_reference(action, mats, monkeypatch):
    """Search the assignments ``mats``, recording which pass the screen on
    column 0 and how many reach the decoder: those that pass, as the
    per-assignment reference screens them, and no other.  Returns the
    passed mask and the admitted rows."""
    passed, decoded = [np.zeros(0, dtype=bool)], []
    rule, decode = correspondence._column_rule, correspondence._decode_columns

    def screen_rule(cols, tol):
        result = rule(cols, tol)
        passed.append(result[2])
        return result

    def spied(columns, m, tol):
        decoded.append(m)
        return decode(columns, m, tol)

    with monkeypatch.context() as patch:
        patch.setattr(correspondence, "_assignments",
                      lambda space, m: (mats, lambda i: (i, as_bases(mats[i]))))
        patch.setattr(correspondence, "_column_rule", screen_rule)
        patch.setattr(correspondence, "_decode_columns", spied)
        found = search_counterparts(action, RandomSample(len(mats), 0))
    got = np.concatenate(passed)
    assert got.tolist() == [reference_screened(action, as_bases(row)) for row in mats]
    assert len(decoded) == got.sum()
    return got, [i for i, _, _ in found]


SCREEN_CASES = [(m, k, backing) for m in (6, 7, 8, 9) for k in (1, 2, 3)
                for backing in ("permutation", "matrix")]


@pytest.mark.parametrize("m, k, backing", SCREEN_CASES,
                         ids=[f"{m}-{k}-{backing}" for m, k, backing in SCREEN_CASES])
def test_batched_screen_keeps_the_reference_survivors(m, k, backing, monkeypatch):
    # k actions, each screened alone over the same assignments.  Blocks of
    # 32 assignments at m = 6 down to 4 at m = 9: 40 assignments span
    # several blocks
    monkeypatch.setattr(correspondence, "_BLOCK", 1 << 11)
    rng = np.random.default_rng([m, k, len(backing)])
    count = 40
    spots = rng.choice(count, 8, replace=False).tolist()
    if backing == "permutation":
        actions = [permutation_action(rng, m, "random", "sign") for _ in range(k)]
        # chi, identity and bit-flip bases, mixed with CHI within a block:
        # the identity and the flips always admit, other words may not
        flip = general_basis(np.array([[0, 1], [1, 0]]))
        same = general_basis(np.eye(2))
        choices = [CHI, ETA, same, flip]
        rows = {i: tuple(choices[c] for c in rng.integers(0, 4, m)) for i in spots}
        rows[spots[0]] = (same,) * m
        mats = planted_batch(rng, m, count, rows)
        for action in actions:
            kept, admitted = assert_screen_matches_reference(action, mats, monkeypatch)
            assert kept[spots[0]] and spots[0] in admitted
        return
    target = tuple(general_basis(random_unitary(2, rng)) for _ in range(m))
    rows = dict.fromkeys(spots[:4], target)
    mats = planted_batch(rng, m, count, rows)
    for _ in range(k):
        planted = OracleAction.from_matrix(dressed(rng, m, target))
        kept, admitted = assert_screen_matches_reference(planted, mats, monkeypatch)
        assert np.flatnonzero(kept).tolist() == admitted == sorted(spots[:4])
    # an action that admits on the first column only: the planted rows pass
    # the screen and reach the decoder, which rejects each of them, as the
    # reference does
    spoiled = OracleAction.from_matrix(first_column_only(rng, m, target))
    kept, admitted = assert_screen_matches_reference(spoiled, mats, monkeypatch)
    assert np.flatnonzero(kept).tolist() == sorted(spots[:4]) and admitted == []
    assert search_counterparts(spoiled, target) == []
    assert reference_extract(spoiled, target) is None
    for _ in range(k):
        haar = OracleAction.from_matrix(random_unitary(1 << m, rng))
        kept, admitted = assert_screen_matches_reference(haar, mats, monkeypatch)
        assert not kept.any() and admitted == []


def test_batched_screen_of_no_assignment(monkeypatch):
    action = OracleAction.from_matrix(random_unitary(8, np.random.default_rng(2)))
    mats, _ = correspondence._assignments(RandomSample(0, 3), 3)
    assert mats.shape == (0, 3, 2, 2)
    kept, admitted = assert_screen_matches_reference(action, mats, monkeypatch)
    assert kept.shape == (0,) and admitted == []
    assert search_counterparts(action, RandomSample(0, 3)) == []


@pytest.mark.parametrize("m", [6, 7, 8, 9])
def test_random_samples_across_blocks(m):
    """Whole extractions over a sample that spans blocks of the first
    screen step at the real block size, with one assignment planted."""
    rng = np.random.default_rng(500 + m)
    count = 2 * (correspondence._BLOCK >> m) + 3
    space = RandomSample(count, m)
    pairs = space_pairs(space, m)
    target = pairs[int(rng.integers(count // 2, count))][1]
    for _ in range(3):
        action = OracleAction.from_matrix(dressed(rng, m, target))
        want = reference_search(action, pairs)
        assert want
        assert_same_search(search_counterparts(action, space), want)


LAX_TOLS = [1e-3, 0.3]


@pytest.mark.parametrize("block", ["default", "one column"])
@pytest.mark.parametrize("tol", LAX_TOLS)
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_lax_tolerance_under_random_samples(m, tol, block, monkeypatch):
    """Planted assignments with noise below, near and above tol, and Haar
    actions, whose columns at tol 0.3 often hold one present entry that is
    not of unit modulus.  With ``block`` at one column, each assignment that
    passes the screen is decoded from 2^m blocks."""
    read = []
    columns = correspondence._columns

    def spied(action, mats, c, start):
        read.append((c, start))
        return columns(action, mats, c, start)

    monkeypatch.setattr(correspondence, "_columns", spied)
    if block == "one column":
        monkeypatch.setattr(matrixcore, "_BLOCK", 1 << m)
    rng = np.random.default_rng([m, round(1 / tol)])
    admitted = rejected = 0
    for seed in range(3):
        space = RandomSample(6, seed)
        pairs = space_pairs(space, m)
        target = pairs[int(rng.integers(0, 6))][1]
        actions = [OracleAction.from_matrix(dressed(rng, m, target, noise))
                   for noise in (tol / 100, tol / 3, 3 * tol)]
        actions.append(OracleAction.from_matrix(random_unitary(1 << m, rng)))
        for action in actions:
            want = reference_search(action, pairs, tol)
            assert_same_search(search_counterparts(action, space, tol), want)
            admitted += len(want)
            rejected += len(pairs) - len(want)
    assert admitted >= 3 and rejected >= 3
    # the screen reads column 0 alone; the decoder reads all 2^m columns in
    # one block, or in 2^m blocks of one
    if block == "one column":
        assert {c for c, _ in read} == {0} and (0, (1 << m) - 1) in read
    else:
        assert {c for c, _ in read} == {0, m}


def spread_columns(m, head):
    """A real orthogonal matrix on m >= 5 qubits whose first columns are
    ``head``, vectors on the strings 0 .. 16.  The rest of those strings'
    span is filled by the projections of e_1, e_2, ... orthonormalized
    symmetrically, so each of those columns stays near its own string; the
    other columns are the identity's."""
    dim, k = 1 << m, len(head)
    u = np.eye(dim)
    u[:17, :k] = np.transpose(head)
    w = np.eye(dim)[:, 1:18 - k]
    w -= u[:, :k] @ (u[:, :k].T @ w)
    vals, vecs = np.linalg.eigh(w.T @ w)
    u[:, k:17] = w @ (vecs / np.sqrt(vals)) @ vecs.T
    return u


@pytest.mark.parametrize("tol", LAX_TOLS)
def test_lax_tolerance_over_the_grid_of_matrix_oracles(tol):
    rng = np.random.default_rng([7, round(1 / tol)])
    for m in (2, 3, 4):
        word = list(reference_grid(m))[int(rng.integers(0, 1 << m))][1]
        for noise in (tol / 100, tol / 3, 3 * tol):
            action = OracleAction.from_matrix(dressed(rng, m, word, noise))
            want = reference_search(action, reference_grid(m), tol)
            assert_same_search(search_counterparts(action, PauliGrid(), tol), want)
    # At tol 0.3 and under the all-chi word, each of these fails one test
    # only: column 0 of the first holds one present entry, of modulus 0.6,
    # and columns 0 and 1 of the second hold theirs, of modulus 1/sqrt(2),
    # on row 0.  Every other column passes the column rule.
    v = np.r_[0.0, np.full(16, 0.25)]
    e0 = np.eye(17)[0]
    off_unit = spread_columns(5, [0.6 * e0 + 0.8 * v])
    clash = spread_columns(5, [(e0 + v) / np.sqrt(2), (e0 - v) / np.sqrt(2)])
    rows, _, ok = matrixcore._column_rule(off_unit, 0.3)
    assert np.flatnonzero(~ok).tolist() == [0] and len(set(rows.tolist())) == 32
    rows, _, ok = matrixcore._column_rule(clash, 0.3)
    assert ok.all() and rows[0] == rows[1] == 0
    for mat in (off_unit, clash):
        action = OracleAction.from_matrix(mat)
        want = reference_search(action, reference_grid(5), tol)
        found = search_counterparts(action, PauliGrid(), tol)
        assert_same_search(found, want)
        assert "C" * 5 not in [name for name, _, _ in found]
