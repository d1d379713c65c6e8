"""Classical counterparts of quantum oracles under per-qubit computational
basis choices, and the complete two-qubit classification.

The extraction side stacks the dense matrices of k oracles on the same
qubits, conjugates the whole stack by a product of single-qubit basis
changes, one 2x2 pass per row or column qubit, and tests every conjugated
matrix at once for being a generalized permutation.  The chi/eta grid is
walked in Gray-code order, so each assignment costs two passes over the
stack.  On larger stacks each assignment is first screened on a few
product-state columns, which rejects most of those that admit nothing
before any dense work.  The classification side computes the three local
invariants of a 4x4 unitary in the magic basis and matches them against the
five possible counterpart classes, identified by the six cosets of the
two-bit reversible gates modulo pre/post bit flips.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import permutations

import numpy as np

from .matrixcore import (
    DEFAULT_TOL,
    MAGIC_Q,
    NonUnitaryError,
    SizeLimitError,
    apply_single_qubit,
    detect_stack,
    is_unitary,
    random_unitary,
)
from .oracleforge import OracleAction


class QubitBasis:
    """Orthonormal pair of single-qubit states used as the 0/1 encoding.

    ``matrix`` holds the pair as columns.  ``label`` is 'C' for the standard
    pair, 'H' for the Hadamard-rotated pair, '?' for anything else.
    """

    __slots__ = ("label", "matrix", "_is_standard")

    def __init__(self, label: str, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (2, 2):
            raise ValueError("basis matrix must be 2x2")
        if np.max(np.abs(matrix.conj().T @ matrix - np.eye(2))) > 1e-12:
            raise ValueError("basis columns must be orthonormal within 1e-12")
        self.label = label
        self.matrix = matrix
        self._is_standard = bool(np.allclose(matrix, np.eye(2), atol=1e-15))

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


# Every extraction holds k dense 2^m x 2^m complex matrices, k * 4^m * 16 B,
# and no space holds more assignments than the largest grid.
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


def _dense_stack(actions) -> np.ndarray:
    """A fresh (k, 2^m, 2^m) stack of the actions' dense matrices."""
    mats = [action.as_matrix() for action in actions]
    return mats[0][None] if len(mats) == 1 else np.stack(mats)


def _change_basis(stack: np.ndarray, d: np.ndarray, j: int, m: int):
    """In place: every matrix times D on column qubit j and D† on row qubit j."""
    apply_single_qubit(stack, d.T, m + j, 2 * m, out=stack)
    apply_single_qubit(stack, d.conj().T, j, 2 * m, out=stack)


def conjugate(actions, bases) -> np.ndarray:
    """B†UB for the matrix U of every action, as a (k, 2^m, 2^m) stack.

    B is the product of the per-qubit bases; column j of B†UB is the oracle's
    image of the product state encoding j, read in the same product basis.
    """
    m = actions[0].m
    if len(bases) != m:
        raise ValueError(f"{len(bases)} bases given for an oracle on {m} qubits")
    stack = _dense_stack(actions)
    for j, basis in enumerate(bases):
        if not basis._is_standard:
            _change_basis(stack, basis.matrix, j, m)
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
        if not basis._is_standard:
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


# Stacks up to this many entries are walked whole: a Gray step over them
# costs less than the column-0 test of one word.
_SMALL_STACK = 1 << 14


def _gray_walk(actions, m: int):
    """(name, assignment, B†UB stack) per chi/eta word in Gray-code order
    (Knuth, TAOCP 7.2.1.1).  Each step moves one qubit between chi and eta, by
    D = b†b′ = Hadamard either way, and overwrites the stack yielded before."""
    stack = _dense_stack(actions)
    code = 0
    for step in range(1 << m):
        if step:
            bit = (step & -step).bit_length() - 1
            code ^= 1 << bit
            _change_basis(stack, ETA.matrix, m - 1 - bit, m)
        yield (*_grid_assignment(code, m), stack)


def _walk_pays(kept, m: int) -> bool:
    """Whether a walk of the whole grid, two 2x2 passes per word, takes fewer
    passes than conjugating each kept assignment from U."""
    return sum(2 * sum(not basis._is_standard for basis in b) for _, b in kept) > 2 << m


def extract_batch(actions, space, tol: float = DEFAULT_TOL):
    """Assignments of a space under which every action has a counterpart.

    The actions act on the same m qubits, typically one oracle per
    hypothesis.  Returns (name, assignment, counterparts) triples, one
    counterpart per action, in the space's order.  A grid of small stacks
    is walked whole in Gray-code order.  Otherwise every assignment is
    screened on its first columns, and the ones that pass are conjugated
    from U directly, or picked out of a grid walk when that is cheaper.
    """
    m = actions[0].m
    if any(action.m != m for action in actions):
        raise ValueError("all actions must act on the same number of qubits")
    assignments = iter_assignments(space, m)  # checks the limits before any allocation
    grid = isinstance(space, PauliGrid)
    if grid and len(actions) << 2 * m <= _SMALL_STACK:
        # Column 0 of the walked stack rejects most words before detection.
        conjugations = ((name, b, stack) for name, b, stack in _gray_walk(actions, m)
                        if _columns_admit(stack[:, :, :1], tol))
    else:
        # The assignments that pass the screen are conjugated one by one, or
        # by a walk of the grid when that takes fewer 2x2 passes.
        kept = [(name, b) for name, b in assignments if _screened(actions, b, tol)]
        if grid and _walk_pays(kept, m):
            names = {name for name, _ in kept}
            conjugations = (hit for hit in _gray_walk(actions, m) if hit[0] in names)
        else:
            conjugations = ((name, b, conjugate(actions, b)) for name, b in kept)
    found = []
    for name, bases, stack in conjugations:
        gps = detect_stack(stack, tol)
        if all(gp is not None for gp in gps):
            found.append((name, bases, tuple(gps)))
    if isinstance(space, PauliGrid):
        found.sort(key=lambda hit: hit[0])  # C < H: lexicographic is code order
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
