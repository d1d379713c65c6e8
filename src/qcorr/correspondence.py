"""Classical counterparts of quantum oracles under per-qubit computational
basis choices, and the complete two-qubit classification.

Extraction has two engines, and each backend of ``OracleAction`` maps to
one of them.

A generalized permutation G = diag(phases) P on a chi/eta grid or a single
chi/eta word goes to the table engine.  With S the eta qubits of a word and
psi(x) the phase G puts on input x, H^S G H^S is again a generalized
permutation exactly when P is affine over GF(2) on each S-fibre (the inputs
that differ only on S) and maps it onto an output fibre, and psi is a
character there times a constant: the affine-character criterion of
Walsh-Hadamard analysis (O'Donnell, *Analysis of Boolean Functions*, 2014),
which matches the affine/quadratic form of Clifford maps (Dehaene and
De Moor, PRA 68, 042318, 2003).  The engine reduces the criterion to
bit-flip tables built once per batch in O(k m^2 2^m) for k oracles on m
qubits, decides every word of the grid at once from them, and builds each
admitted word's counterpart in closed form in O(k 2^m).  No dense matrix is
made.

Matrix-backed actions, random product bases and other non-chi/eta words go
to the dense engine.  It screens each assignment on a few product-state
columns, which rejects most of those that admit nothing, then conjugates
the stacked dense matrices of the k oracles by the product of single-qubit
basis changes, one 2x2 pass per row or column qubit, and tests every
conjugated matrix at once for being a generalized permutation.

The classification side computes the three local invariants of a 4x4
unitary in the magic basis and matches them against the five possible
counterpart classes, identified by the six cosets of the two-bit reversible
gates modulo pre/post bit flips.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import permutations

import numpy as np

from .matrixcore import (
    _BLOCK,
    DEFAULT_TOL,
    MAGIC_Q,
    GeneralizedPermutation,
    NonUnitaryError,
    SizeLimitError,
    apply_single_qubit,
    detect_stack,
    is_unitary,
    num_bits,
    random_unitary,
)
from .oracleforge import OracleAction


class QubitBasis:
    """Orthonormal pair of single-qubit states used as the 0/1 encoding.

    ``matrix`` holds the pair as columns.  ``label`` is 'C' for the standard
    pair, 'H' for the Hadamard-rotated pair, '?' for anything else.  Only
    ``CHI`` itself skips its 2x2 passes, not another identity matrix.
    """

    __slots__ = ("label", "matrix")

    def __init__(self, label: str, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (2, 2):
            raise ValueError("basis matrix must be 2x2")
        if np.max(np.abs(matrix.conj().T @ matrix - np.eye(2))) > 1e-12:
            raise ValueError("basis columns must be orthonormal within 1e-12")
        self.label = label
        self.matrix = matrix

    def __repr__(self):
        return f"QubitBasis({self.label!r})"


CHI = QubitBasis("C", np.eye(2, dtype=complex))
ETA = QubitBasis("H", np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0))


def general_basis(matrix: np.ndarray) -> QubitBasis:
    """Wrap an arbitrary orthonormal state pair (columns)."""
    return QubitBasis("?", matrix)


def parse_basis_word(word: str, m: int | None = None) -> tuple[QubitBasis, ...]:
    """Parse a word over {C, H}, one letter per qubit, first letter = qubit 0."""
    bases = []
    for ch in word.upper():
        if ch == "C":
            bases.append(CHI)
        elif ch == "H":
            bases.append(ETA)
        else:
            raise ValueError(f"basis word may only contain C or H, got {ch!r}")
    if m is not None and len(bases) != m:
        raise ValueError(f"basis word length {len(bases)} does not match {m} qubits")
    return tuple(bases)


def basis_word(bases) -> str | None:
    """C/H word for an assignment, or None if any basis is non-standard."""
    letters = [b.label for b in bases]
    if any(ch not in ("C", "H") for ch in letters):
        return None
    return "".join(letters)


class PauliGrid:
    """Search space: every chi/eta assignment, enumerated lexicographically."""

    def __repr__(self):
        return "PauliGrid()"


@dataclass(frozen=True)
class RandomSample:
    """Search space: seeded random product bases (exploratory, no
    completeness claim)."""

    count: int
    seed: int


# A permutation oracle's extraction holds a few (k, 2^m) tables, but it
# returns every admitted counterpart as tuples of 2^m entries, and a chi/eta
# grid can admit thousands of words: the output bounds this limit.  No space
# holds more assignments than the largest grid.
GRID_QUBIT_LIMIT = 13


def _grid_assignment(code: int, m: int):
    bases = tuple(ETA if (code >> (m - 1 - j)) & 1 else CHI for j in range(m))
    return basis_word(bases), bases


def iter_assignments(space, m: int):
    """(name, assignment) pairs for a search space, in a fixed order.

    A space is a PauliGrid, a RandomSample, or one assignment given as a tuple
    of bases.  The call itself checks the size limits, before any pair is made.
    """
    if m > GRID_QUBIT_LIMIT:
        raise SizeLimitError(f"extraction on {m} qubits exceeds the {GRID_QUBIT_LIMIT}-qubit limit")
    if isinstance(space, PauliGrid):
        return (_grid_assignment(code, m) for code in range(1 << m))
    if isinstance(space, RandomSample):
        if space.count < 0:
            raise ValueError(f"random sample count must be >= 0, got {space.count}")
        if space.count > 1 << GRID_QUBIT_LIMIT:
            raise SizeLimitError(
                f"random sample of {space.count} exceeds {1 << GRID_QUBIT_LIMIT} assignments"
            )
        rng = np.random.default_rng(space.seed)
        return ((f"random:{idx}", tuple(general_basis(random_unitary(2, rng)) for _ in range(m)))
                for idx in range(space.count))
    if isinstance(space, tuple) and all(isinstance(b, QubitBasis) for b in space):
        if len(space) != m:
            raise ValueError(f"{len(space)} bases given for an oracle on {m} qubits")
        return iter([(basis_word(space), space)])
    raise ValueError(f"unknown search space {space!r}")


def conjugate(actions, bases) -> np.ndarray:
    """B†UB for the matrix U of every action, as a (k, 2^m, 2^m) stack.

    B is the product of the per-qubit bases; column j of B†UB is the oracle's
    image of the product state encoding j, read in the same product basis.
    """
    m = actions[0].m
    if len(bases) != m:
        raise ValueError(f"{len(bases)} bases given for an oracle on {m} qubits")
    mats = [action.as_matrix() for action in actions]
    stack = mats[0][None] if len(mats) == 1 else np.stack(mats)
    for j, basis in enumerate(bases):
        if basis is not CHI:
            # every matrix times D on column qubit j and D† on row qubit j
            apply_single_qubit(stack, basis.matrix.T, m + j, 2 * m, out=stack)
            apply_single_qubit(stack, basis.matrix.conj().T, j, 2 * m, out=stack)
    return stack


def _columns(actions, bases, c: int) -> np.ndarray:
    """Columns 0 .. 2^c - 1 of B†UB for every action, as a (k, 2^m, 2^c)
    array: the oracle's images of the product states that vary only the last
    c qubits, read back in the product basis, at O(m 2^(m+c)) per action."""
    m = len(bases)
    states = np.ones((1, 1), dtype=complex)
    for j, basis in enumerate(bases):
        states = np.kron(states, basis.matrix if j >= m - c else basis.matrix[:, :1])
    cols = np.stack([action.apply(states) for action in actions])
    for j, basis in enumerate(bases):
        if basis is not CHI:
            apply_single_qubit(cols, basis.matrix.conj().T, j, m + c, out=cols)
    return cols


def _columns_admit(cols: np.ndarray, tol: float) -> bool:
    """Whether every column of a (k, 2^m, n) array holds exactly one entry of
    modulus above tol, itself within tol of one, on a row no other takes."""
    mags = np.abs(cols)
    big = mags > tol
    if not (big.sum(axis=1) == 1).all():
        return False
    rows = big.argmax(axis=1)
    if not (np.abs(np.take_along_axis(mags, rows[:, None], axis=1) - 1.0) <= tol).all():
        return False
    return not (np.diff(np.sort(rows, axis=1), axis=1) == 0).any()


def _screened(actions, bases, tol: float) -> bool:
    """Whether every B†UB passes on its first column, then on its first
    2^(m//2) columns: the early exit of a column-by-column test, in two
    vectorized steps.  Most assignments that admit no counterpart fail here,
    before any O(m 4^m) conjugation."""
    return all(_columns_admit(_columns(actions, bases, c), tol) for c in (0, len(bases) // 2))


def _by_bit(a: np.ndarray, b: int) -> np.ndarray:
    """A (n, 2^m) array as a (n, 2^(m-1-b), 2, 2^b) view: axis 2 is bit b of
    the index, so reversing it pairs every x with x ^ 2^b."""
    return a.reshape(a.shape[0], -1, 2, 1 << b)


class _FlipTables:
    """Bit-flip tables of k generalized permutations G = diag(phases) P on
    the same m bits, each table one array over the k hypotheses.

    Bit b of an index is qubit m - 1 - b, so the eta qubits of a chi/eta word
    form the mask s whose grid code is the word.  With psi(x) the phase G
    puts on input x and e_b = 2^b, the tables are, per bit b:

    - D_b(x) = P(x) ^ P(x ^ e_b), and ``reach[b]``, its OR over every x and
      hypothesis;
    - T_b(x): psi(x ^ e_b) / psi(x) is within tol of -1;
    - ``signed[b]``: every such ratio is within tol of +1 or -1;
    - ``flat[i, j]``: D_i and T_i are unchanged when bit j of x flips, a
      second difference of P and of psi, so symmetric in i and j;
    - ``back``, bit b of B(w) = parity(D_b(x) & w) ^ T_b(x) with x = P⁻¹(w).
    """

    def __init__(self, perms, tol: float):
        self.inv = np.stack([gp._arrays[0] for gp in perms])
        k, dim = self.inv.shape
        self.m = m = num_bits(dim)
        self.tol = tol
        self.rows = rows = np.arange(k)[:, None]
        self.p = np.empty_like(self.inv)
        self.p[rows, self.inv] = np.arange(dim)
        self.psi = np.stack([gp._arrays[1] for gp in perms])[rows, self.p]
        # Every entry of a counterpart is some psi(x) or -psi(x), so each must
        # pass the dense detector's test: modulus above tol and within tol of 1.
        mags = np.abs(self.psi)
        self.unit = bool(((mags > tol) & (np.abs(mags - 1.0) <= tol)).all())
        diff = np.empty((m, k, dim), dtype=self.p.dtype)
        minus = np.empty((m, k, dim), dtype=bool)
        self.signed = np.empty(m, dtype=bool)
        for b in range(m):
            pb, sb, tb = _by_bit(self.p, b), _by_bit(self.psi, b), _by_bit(minus[b], b)
            np.bitwise_xor(pb, pb[:, :, ::-1], out=_by_bit(diff[b], b))
            ratio = sb[:, :, ::-1] / sb
            np.less_equal(np.abs(ratio + 1.0), tol, out=tb)
            self.signed[b] = (tb | (np.abs(ratio - 1.0) <= tol)).all()
        self.reach = np.bitwise_or.reduce(diff.reshape(m, -1), axis=1)
        self.flat = np.empty((m, m), dtype=bool)
        for j in range(m):
            d, t = _by_bit(diff.reshape(m * k, dim), j), _by_bit(minus.reshape(m * k, dim), j)
            still = (d == d[:, :, ::-1]) & (t == t[:, :, ::-1])
            self.flat[:, j] = still.reshape(m, -1).all(axis=1)
        at_inv = np.s_[:, rows, self.inv]
        bits = (np.bitwise_count(diff[at_inv] & np.arange(dim)) & 1).astype(bool) ^ minus[at_inv]
        self.back = np.bitwise_or.reduce(bits.astype(self.p.dtype) << np.arange(m)[:, None, None],
                                         axis=0)

    def admitted(self, words: np.ndarray) -> np.ndarray:
        """The eta masks among ``words`` under which every G has a
        counterpart: every phase passes the detector's test and, for all
        i, j in s, reach[i] ⊆ s, the ratios of bit i are ±1, and flipping
        bit j leaves D_i and T_i unchanged."""
        ok = np.full(words.shape, self.unit)
        for i in range(self.m):
            inside = (words & self.reach[i]) == self.reach[i]
            ok &= ((words >> i) & 1 == 0) | (inside & self.signed[i])
            for j in range(i):
                if not self.flat[i, j]:
                    pair = (1 << i) | (1 << j)
                    ok &= (words & pair) != pair
        return words[ok]

    def counterparts(self, words: np.ndarray):
        """Per eta mask s of ``words``, the tuple of the k counterparts Q of
        H^S G H^S, in closed form: with x0 = P⁻¹(w) & ~s, Q⁻¹(w) is
        x0 | (B(w) & s) and the phase of output w is
        psi(x0) (-1)^parity(P(x0) & s & w).  Built in blocks of about
        ``_BLOCK`` entries.  The tuples share one object per distinct entry
        value, so a grid of thousands of counterparts holds pointers, not
        2^m fresh numbers each."""
        k, dim = self.inv.shape
        w = np.arange(dim)
        values, at = np.unique(self.psi, return_inverse=True)
        at = at.reshape(k, dim)
        ints = list(range(dim))
        phases = values.tolist() + (-values).tolist()
        per = max(1, _BLOCK // (k * dim))
        for start in range(0, len(words), per):
            s = words[start:start + per, None, None]
            x0 = self.inv & ~s
            qinv = x0 | (self.back & s)
            odd = np.bitwise_count(self.p[self.rows, x0] & s & w) & 1
            phase_at = at[self.rows, x0] + odd.astype(at.dtype) * len(values)
            perm = np.empty_like(qinv)
            np.put_along_axis(perm, qinv, np.broadcast_to(w, qinv.shape), axis=-1)
            for perms, ats in zip(perm.tolist(), phase_at.tolist()):
                yield tuple(GeneralizedPermutation(self.m, tuple(map(ints.__getitem__, pr)),
                                                   tuple(map(phases.__getitem__, ph)), self.tol)
                            for pr, ph in zip(perms, ats))


def extract_batch(actions, space, tol: float = DEFAULT_TOL):
    """Assignments of a space under which every action has a counterpart.

    The actions act on the same m qubits, typically one oracle per
    hypothesis.  Returns (name, assignment, counterparts) triples, one
    counterpart per action, in the space's order.  Permutation-backed
    actions on a grid or a chi/eta word are decided and built from their
    bit-flip tables.  Otherwise every assignment is screened on its first
    columns, and the ones that pass are conjugated and detected whole.
    """
    m = actions[0].m
    if any(action.m != m for action in actions):
        raise ValueError("all actions must act on the same number of qubits")
    assignments = iter_assignments(space, m)  # checks the limits before any allocation
    perms = [action.permutation for action in actions]
    if isinstance(space, PauliGrid):
        words = np.arange(1 << m)
    elif isinstance(space, tuple) and all(b is CHI or b is ETA for b in space):
        words = np.array([sum(1 << (m - 1 - j) for j, b in enumerate(space) if b is ETA)])
    else:
        words = None
    if words is not None and all(gp is not None for gp in perms):
        tables = _FlipTables(perms, tol)
        hits = tables.admitted(words)
        return [(*_grid_assignment(code, m), gps)
                for code, gps in zip(hits.tolist(), tables.counterparts(hits))]
    found = []
    for name, bases in assignments:
        if _screened(actions, bases, tol):
            gps = detect_stack(conjugate(actions, bases), tol)
            if all(gp is not None for gp in gps):
                found.append((name, bases, tuple(gps)))
    return found


def extract_counterpart(action: OracleAction, bases, tol: float = DEFAULT_TOL):
    """Classical counterpart induced by a basis assignment, or None.

    The counterpart exists iff every conjugated column is a single basis
    vector up to phase; the result collects the full permutation and its
    output phases.
    """
    found = extract_batch([action], tuple(bases), tol)
    return found[0][2][0] if found else None


def search_counterparts(action: OracleAction, space, tol: float = DEFAULT_TOL):
    """All assignments in the space whose extraction succeeds.

    Returns (name, assignment, counterpart) triples in deterministic order.
    """
    return [(name, bases, gps[0]) for name, bases, gps in extract_batch([action], space, tol)]


@dataclass(frozen=True)
class MakhlinTriple:
    """Local invariants of a two-qubit unitary.

    ``gamma`` is the real part of the third invariant; its imaginary part is
    kept in ``gamma_imag`` so callers can flag an inconsistency when it is
    not negligible.
    """

    alpha: float
    beta: float
    gamma: float
    gamma_imag: float = 0.0


def makhlin_invariants(u: np.ndarray, tol: float = DEFAULT_TOL) -> MakhlinTriple:
    """Invariants (alpha, beta, gamma) of a 4x4 unitary.

    alpha + i*beta = Tr(V)^2 / (16 det U) and
    gamma = (Tr(V)^2 - Tr(V^2)) / (4 det U), with V = W^T W and W the unitary
    rewritten in the magic basis.  Equal for all unitaries that differ only
    by single-qubit operations on either side, or by a global phase.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {u.shape}")
    if not is_unitary(u, tol):
        raise NonUnitaryError("matrix is not unitary within tolerance")
    w = MAGIC_Q.conj().T @ u @ MAGIC_Q
    v = w.T @ w
    tr2 = np.trace(v) ** 2
    det = np.linalg.det(u)
    g = tr2 / (16 * det)
    gamma = (tr2 - np.trace(v @ v)) / (4 * det)
    return MakhlinTriple(float(g.real), float(g.imag), float(gamma.real), float(gamma.imag))


class CosetId(Enum):
    """The six classes of 2-bit reversible gates modulo pre/post bit flips,
    named by their canonical representatives. Each value is the
    representative's action on basis indices."""

    I = (0, 1, 2, 3)
    SWAP = (0, 2, 1, 3)
    CNOT12 = (0, 1, 3, 2)
    CNOT21 = (0, 3, 2, 1)
    SWAT12 = (0, 2, 3, 1)
    SWAT21 = (0, 3, 1, 2)


# The XOR-mask subgroup {x, x^1, x^2, x^3} is the normal Klein four-group of
# S4, so left and right cosets coincide and membership is unambiguous.
_XOR_MASKS = tuple(tuple(i ^ mask for i in range(4)) for mask in range(4))


def _build_coset_table() -> dict[tuple[int, ...], CosetId]:
    table: dict[tuple[int, ...], CosetId] = {}
    for rep in CosetId:
        for mask_perm in _XOR_MASKS:
            composed = tuple(rep.value[mask_perm[i]] for i in range(4))
            if composed in table:
                raise RuntimeError("coset representatives are not disjoint")
            table[composed] = rep
    if set(table) != set(permutations(range(4))):
        raise RuntimeError("cosets do not cover all 24 permutations")
    return table


_COSET_OF = _build_coset_table()

CC_EMPTY: frozenset[CosetId] = frozenset()
CC_CNOT_FAMILY = frozenset({CosetId.I, CosetId.CNOT12, CosetId.CNOT21})
CC_SWAP_FAMILY = frozenset({CosetId.SWAP, CosetId.SWAT12, CosetId.SWAT21})
CC_IDENTITY_ONLY = frozenset({CosetId.I})
CC_SWAP_ONLY = frozenset({CosetId.SWAP})


def coset_of(p) -> CosetId:
    """Coset of a permutation of {0,1,2,3} under the XOR-mask subgroup."""
    key = tuple(int(v) for v in p)
    try:
        return _COSET_OF[key]
    except KeyError:
        raise ValueError(f"{p!r} is not a permutation of 0..3") from None


def classify_triple(t: MakhlinTriple, tol: float = DEFAULT_TOL) -> frozenset[CosetId]:
    """Counterpart class from the invariants.

    |alpha| < tol is treated as alpha == 0 before the sign tests, so a triple
    near (0, 0, 1) always resolves to the three-element class.
    """
    if abs(t.beta) >= tol:
        return CC_EMPTY
    if abs(t.alpha) < tol:
        if abs(t.gamma - 1.0) < tol:
            return CC_CNOT_FAMILY
        if abs(t.gamma + 1.0) < tol:
            return CC_SWAP_FAMILY
        return CC_EMPTY
    if t.alpha >= tol and abs(t.gamma - (1.0 + 2.0 * t.alpha)) < tol:
        return CC_IDENTITY_ONLY
    if t.alpha <= -tol and abs(t.gamma - (-1.0 + 2.0 * t.alpha)) < tol:
        return CC_SWAP_ONLY
    return CC_EMPTY


def classify_cc(u: np.ndarray, tol: float = DEFAULT_TOL) -> frozenset[CosetId]:
    """Set of counterpart cosets of a 4x4 unitary (possibly empty)."""
    return classify_triple(makhlin_invariants(u, tol), tol)
