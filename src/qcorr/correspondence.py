"""Classical counterparts of quantum oracles under per-qubit computational
basis choices, and the complete two-qubit classification.

Extraction has two engines.  The backend of ``OracleAction`` and the
search space pick one together: a permutation oracle takes the table engine
on the grid or a chi/eta word, but the dense engine on a ``RandomSample``
(``random:`` on the command line).

A generalized permutation G = diag(phases) P on a chi/eta grid or a single
chi/eta word goes to the table engine.  With S the eta qubits of a word and
psi(x) the phase G puts on input x, H^S G H^S is again a generalized
permutation exactly when P is affine over GF(2) on each S-fibre (the inputs
that differ only on S) and maps it onto an output fibre, and psi is a
character there times a constant: the affine-character criterion of
Walsh-Hadamard analysis (O'Donnell, *Analysis of Boolean Functions*, 2014),
which matches the affine/quadratic form of Clifford maps (Dehaene and
De Moor, PRA 68, 042318, 2003).  The engine takes the k oracles on m
qubits as (k, 2^m) perm and phase tables, reduces the criterion to bit-flip
tables built from them in O(k m^2 2^m), decides every word of the grid at
once, and builds each admitted word's counterparts as tables in closed form
in O(k 2^m).  No dense matrix is made.

Matrix-backed actions, random product bases and other non-chi/eta words go
to the dense engine, one oracle at a time.  It screens all the assignments
of a space at once on a few product-state columns, in blocks of
assignments: one oracle application per block, then one 2x2 pass per qubit
with each assignment's own basis change.  That rejects most of those that
admit nothing.  It then conjugates, per assignment that passes, the
oracle's dense matrix by the product of single-qubit basis changes, one
2x2 pass per row or column qubit, and tests the result for being a
generalized permutation.

The classification side computes the three local invariants of a 4x4
unitary in the magic basis and matches them against the five possible
counterpart classes, identified by the six cosets of the two-bit reversible
gates modulo pre/post bit flips.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .matrixcore import (
    _BLOCK,
    DEFAULT_TOL,
    MAGIC_Q,
    NonUnitaryError,
    SizeLimitError,
    _checked_perms,
    _unchecked,
    apply_single_qubit,
    detect_generalized_permutation,
    is_unitary,
    num_bits,
)
from .oracleforge import OracleAction


# How far from the identity B†B may be, in its largest entry, for a basis
# matrix B: both for a QubitBasis and for the bases of a random sample.
BASIS_TOL = 1e-12


def _check_orthonormal(mats: np.ndarray) -> None:
    """Raise unless every 2x2 matrix of a (..., 2, 2) array has orthonormal
    columns within BASIS_TOL, which NaN fails."""
    err = np.abs(np.swapaxes(mats, -1, -2).conj() @ mats - np.eye(2))
    if err.size and not err.max() <= BASIS_TOL:
        raise ValueError(f"basis columns must be orthonormal within {BASIS_TOL}")


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
        _check_orthonormal(matrix)
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
# returns every admitted counterpart as arrays of 2^m entries, and a chi/eta
# grid can admit thousands of words: the output bounds this limit.  No space
# holds more assignments than the largest grid.
GRID_QUBIT_LIMIT = 13


@functools.cache
def _grid_words(m: int) -> tuple:
    """(name, bases) of every chi/eta word on m qubits, by grid code."""
    return tuple(zip(map("".join, itertools.product("CH", repeat=m)),
                    itertools.product((CHI, ETA), repeat=m)))


def _check_space(space, m: int) -> None:
    """Raise unless ``space`` is a search space whose assignments on m qubits
    lie within the size limits.  Extraction calls it before any allocation."""
    if m > GRID_QUBIT_LIMIT:
        raise SizeLimitError(f"extraction on {m} qubits exceeds the {GRID_QUBIT_LIMIT}-qubit limit")
    if isinstance(space, PauliGrid):
        return
    if isinstance(space, RandomSample):
        if space.count < 0:
            raise ValueError(f"random sample count must be >= 0, got {space.count}")
        if space.count > 1 << GRID_QUBIT_LIMIT:
            raise SizeLimitError(
                f"random sample of {space.count} exceeds {1 << GRID_QUBIT_LIMIT} assignments"
            )
        return
    if isinstance(space, tuple) and all(isinstance(b, QubitBasis) for b in space):
        if len(space) != m:
            raise ValueError(f"{len(space)} bases given for an oracle on {m} qubits")
        return
    raise ValueError(f"unknown search space {space!r}")


def _sample_bases(space: RandomSample, m: int) -> np.ndarray:
    """The bases of a random sample as one checked (count, m, 2, 2) array.
    Entry [i, j] equals, bit for bit, draw i * m + j of
    ``random_unitary(2, rng)`` from ``default_rng(seed)``: the normals come
    in the same order, and a stacked QR equals one QR per matrix.  Each
    temporary is dropped once used, so the peak, about 4.5 times the result,
    is inside the QR: its input, numpy's copy of it, q, r and tau."""
    gauss = np.random.default_rng(space.seed).normal(size=(space.count, m, 2, 2, 2))
    z = gauss[:, :, 0] + 1j * gauss[:, :, 1]
    del gauss
    q, r = np.linalg.qr(z)
    del z
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (d / np.abs(d))[..., None, :]
    del r, d
    _check_orthonormal(q)
    return q


def _assignments(space, m: int):
    """A checked space as (bases, chi, at): the basis matrices of its A
    assignments as one (A, m, 2, 2) array, an (A, m) mask of the qubits
    whose basis is CHI, and ``at(i)``, the name and QubitBasis tuple of
    assignment i.  A random sample is drawn here, once per call; only ``at``
    wraps its draws in QubitBasis objects."""
    if isinstance(space, PauliGrid):
        eta = ((np.arange(1 << m)[:, None] >> np.arange(m - 1, -1, -1)) & 1).astype(bool)
        return (np.where(eta[..., None, None], ETA.matrix, CHI.matrix), ~eta,
                _grid_words(m).__getitem__)
    if isinstance(space, RandomSample):
        mats = _sample_bases(space, m)
        return (mats, np.zeros(mats.shape[:2], dtype=bool),
                lambda i: (f"random:{i}", tuple(map(general_basis, mats[i].copy()))))
    return (np.array([b.matrix for b in space])[None], np.array([[b is CHI for b in space]]),
            lambda i: (basis_word(space), space))


def conjugate(action: OracleAction, bases) -> np.ndarray:
    """B†UB for the matrix U of the action, as a new 2^m x 2^m array.

    B is the product of the per-qubit bases; column j of B†UB is the oracle's
    image of the product state encoding j, read in the same product basis.
    """
    m = action.m
    if len(bases) != m:
        raise ValueError(f"{len(bases)} bases given for an oracle on {m} qubits")
    mat = action.as_matrix()
    for j, basis in enumerate(bases):
        if basis is not CHI:
            # the matrix times D on column qubit j and D† on row qubit j
            apply_single_qubit(mat, basis.matrix.T, m + j, 2 * m, out=mat)
            apply_single_qubit(mat, basis.matrix.conj().T, j, 2 * m, out=mat)
    return mat


def _columns(action: OracleAction, bases: np.ndarray, chi: np.ndarray, c: int) -> np.ndarray:
    """Columns 0 .. 2^c - 1 of B†UB for every assignment B of a block, given
    as (A, m, 2, 2) basis matrices and an (A, m) CHI mask, as a
    (2^m, 2^c, A) array: the oracle's images of the product states that
    vary only the last c qubits, read back in each assignment's own product
    basis, at O(m 2^(m+c)) per assignment.  All A * 2^c states go through
    the oracle at once, and a qubit gets no 2x2 pass where its basis is CHI
    in every assignment of the block."""
    a, m = chi.shape
    states = np.ones((1, 1, a), dtype=complex)
    for j in range(m):
        # the block's states of qubit j, as (2, w, A), times the states so far
        mats = (bases[:, j] if j >= m - c else bases[:, j, :, :1]).transpose(1, 2, 0)
        states = (states[:, None, :, None] * mats[None, :, None]).reshape(2 * len(states), -1, a)
    cols = action.apply(states.reshape(1 << m, -1)).reshape(1 << m, 1 << c, a)
    back = bases.conj().swapaxes(-1, -2)
    for j in range(m):
        if not chi[:, j].all():
            apply_single_qubit(cols, back[:, j], j, m + c, out=cols)
    return cols


def _columns_admit(cols: np.ndarray, tol: float) -> np.ndarray:
    """Per assignment of a (2^m, n, A) array of columns, whether every column
    holds exactly one entry of modulus above tol, itself within tol of one,
    on a row no other column takes."""
    mags = np.abs(cols)
    big = mags > tol
    rows = big.argmax(axis=0)
    unit = np.abs(np.take_along_axis(mags, rows[None], axis=0)[0] - 1.0) <= tol
    ok = ((big.sum(axis=0) == 1) & unit).all(axis=0)
    return ok & ~(np.diff(np.sort(rows, axis=0), axis=0) == 0).any(axis=0)


def _screen(action: OracleAction, bases: np.ndarray, chi: np.ndarray, tol: float) -> np.ndarray:
    """Which of A assignments, given as (A, m, 2, 2) basis matrices and an
    (A, m) CHI mask, have B†UB pass on its first column, then on its first
    2^(m//2) columns: the early exit of a column-by-column test, in two
    vectorized steps over blocks of about ``_BLOCK`` entries.  Most
    assignments that admit no counterpart fail here, before any O(m 4^m)
    conjugation."""
    m = chi.shape[1]
    keep = np.ones(len(chi), dtype=bool)
    for c in (0, m // 2):
        todo = np.flatnonzero(keep)
        per = max(1, _BLOCK >> (m + c))
        for start in range(0, len(todo), per):
            blk = todo[start:start + per]
            keep[blk] = _columns_admit(_columns(action, bases[blk], chi[blk], c), tol)
    return keep


def _by_bit(a: np.ndarray, b: int) -> np.ndarray:
    """A (n, ..., 2^m) array as a (n, -1, 2, 2^b) view: axis 2 is bit b of
    the last index, so reversing it pairs every x with x ^ 2^b."""
    return a.reshape(a.shape[0], -1, 2, 1 << b)


class _FlipTables:
    """Bit-flip tables of k generalized permutations G = diag(phases) P on
    the same m bits, built from their (k, 2^m) perm and phase tables at once;
    building them peaks at one (m, k, 2^m) intp table and two bool ones.

    Bit b of an index is qubit m - 1 - b, so the eta qubits of a chi/eta word
    form the mask s whose grid code is the word.  With psi(x) the phase G
    puts on input x and e_b = 2^b, the tables are, per bit b:

    - D_b(x) = P(x) ^ P(x ^ e_b), and ``reach[b]``, its OR over every x and
      hypothesis;
    - T_b(x): psi(x ^ e_b) / psi(x) is within tol of -1;
    - ``signed[b]``: every such ratio is within tol of +1 or -1;
    - ``clash[i]``, the mask of the bits j < i whose flip changes D_i or T_i
      somewhere, a second difference of P and of psi;
    - ``back``, bit b of B(w) = parity(D_b(x) & w) ^ T_b(x) with x = P⁻¹(w).
    """

    def __init__(self, perms: np.ndarray, phases: np.ndarray, tol: float):
        self.p = perms
        k, dim = perms.shape
        self.m = m = num_bits(dim)
        self.rows = rows = np.arange(k)[:, None]
        self.inv = np.empty_like(perms)
        self.inv[rows, perms] = np.arange(dim)
        self.psi = phases[rows, perms]
        # Every entry of a counterpart is some psi(x) or -psi(x), so each must
        # pass the dense detector's test: modulus above tol and within tol of 1.
        mags = np.abs(self.psi)
        self.unit = bool(((mags > tol) & (np.abs(mags - 1.0) <= tol)).all())
        key = np.empty((m, k, dim), dtype=self.p.dtype)
        minus, plus = np.empty((2, m, k, dim), dtype=bool)
        for b in range(m):
            pb, sb = _by_bit(self.p, b), _by_bit(self.psi, b)
            np.bitwise_xor(pb, pb[:, :, ::-1], out=_by_bit(key[b], b))
            ratio = sb[:, :, ::-1] / sb
            np.less_equal(np.abs(ratio + 1.0), tol, out=_by_bit(minus[b], b))
            np.less_equal(np.abs(ratio - 1.0), tol, out=_by_bit(plus[b], b))
        self.signed = np.logical_or(plus, minus, out=plus).reshape(m, -1).all(axis=1)
        self.reach = np.bitwise_or.reduce(key.reshape(m, -1), axis=1)
        key <<= 1  # key = D << 1 | T: one compare of x with x ^ e_j tests both
        key |= minus
        self.clash = np.zeros(m, dtype=self.p.dtype)
        for j in range(m - 1):
            kj = _by_bit(key[j + 1:], j)
            self.clash[j + 1:] |= (kj[:, :, 0] != kj[:, :, 1]).any(axis=(1, 2)) << j
        # parity(D_b(x) & P(x)) ^ T_b(x) is the parity of key & (P(x) << 1 | 1)
        key &= (self.p << 1) | 1
        np.bitwise_and(np.bitwise_count(key, out=key), 1, out=key)
        self.back = ((1 << np.arange(m)) @ key.reshape(m, -1)).reshape(k, dim)[rows, self.inv]

    def admitted(self, words: np.ndarray) -> np.ndarray:
        """The eta masks among ``words`` under which every G has a
        counterpart, in one broadcast over (words, m): every phase passes the
        detector's test and, for every bit i in s, reach[i] ⊆ s, the ratios of
        bit i are ±1, and s & clash[i] is empty."""
        bit = 1 << np.arange(self.m)
        s = words[:, None]
        fine = self.signed & ((s & self.reach) == self.reach) & ((s & self.clash) == 0)
        return words[self.unit & (fine | ((s & bit) == 0)).all(axis=1)]

    def counterparts(self, words: np.ndarray):
        """Per eta mask s of ``words``, the (k, 2^m) perm and phase tables of
        the k counterparts Q of H^S G H^S, in closed form: with
        x0 = P⁻¹(w) & ~s, Q⁻¹(w) is x0 | (B(w) & s) and the phase of output w
        is psi(x0) (-1)^parity(P(x0) & s & w), which ``unit`` has tested.
        Built in blocks of about ``_BLOCK`` entries, each block's perms
        checked in one pass."""
        k, dim = self.inv.shape
        w = np.arange(dim)
        per = max(1, _BLOCK // (k * dim))
        for start in range(0, len(words), per):
            s = words[start:start + per, None, None]
            x0 = self.inv & ~s
            qinv = x0 | (self.back & s)
            odd = (np.bitwise_count(self.p[self.rows, x0] & s & w) & 1).astype(bool)
            phases = self.psi[self.rows, x0]
            np.negative(phases, out=phases, where=odd)
            perm = np.empty_like(qinv)
            np.put_along_axis(perm, qinv, np.broadcast_to(w, qinv.shape), axis=-1)
            perm = _checked_perms(self.m, perm.reshape(-1, dim), 2).reshape(perm.shape)
            yield from zip(perm, phases)


def extract_tables(perms: np.ndarray, phases: np.ndarray, space, tol: float = DEFAULT_TOL):
    """The table engine on k maps G = diag(phases) P given as (k, 2^m) perm
    and phase tables, over the grid or one chi/eta word: per word under which
    every G has a counterpart, in grid order, (name, assignment, perms,
    phases) with the counterparts' tables.  None for any other space."""
    m = num_bits(perms.shape[1])
    _check_space(space, m)
    if isinstance(space, PauliGrid):
        words = np.arange(1 << m)
    elif isinstance(space, tuple) and all(b is CHI or b is ETA for b in space):
        words = np.array([sum(1 << (m - 1 - j) for j, b in enumerate(space) if b is ETA)])
    else:
        return None
    tables = _FlipTables(perms, phases, tol)
    hits, names = tables.admitted(words), _grid_words(m)
    return [(*names[code], *found) for code, found in zip(hits.tolist(), tables.counterparts(hits))]


def search_counterparts(action: OracleAction, space, tol: float = DEFAULT_TOL):
    """All assignments of a space under which the action has a classical
    counterpart, as (name, assignment, counterpart) triples in the space's
    order.

    A permutation-backed action on the grid or a chi/eta word is decided
    and built from its bit-flip tables.  Otherwise all the assignments are
    screened at once on their first columns, and the ones that pass are
    conjugated and detected whole.
    """
    m = action.m
    _check_space(space, m)  # before any allocation
    gp = action.permutation
    if gp is not None:
        found = extract_tables(gp._perm[None], gp._phases[None], space, tol)
        if found is not None:
            return [(name, bases, _unchecked(m, perms[0], phases[0]))
                    for name, bases, perms, phases in found]
    bases, chi, at = _assignments(space, m)
    found = []
    for i in np.flatnonzero(_screen(action, bases, chi, tol)).tolist():
        name, assignment = at(i)
        hit = detect_generalized_permutation(conjugate(action, assignment), tol)
        if hit is not None:
            found.append((name, assignment, hit))
    return found


def extract_counterpart(action: OracleAction, bases, tol: float = DEFAULT_TOL):
    """Classical counterpart induced by a basis assignment, or None.

    The counterpart exists iff every conjugated column is a single basis
    vector up to phase; the result collects the full permutation and its
    output phases.
    """
    found = search_counterparts(action, tuple(bases), tol)
    return found[0][2] if found else None


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
    by single-qubit operations on either side, or by a global phase.  A lax
    tol can pass a singular matrix as unitary: one whose det is 0, or whose
    invariants are not finite, raises NonUnitaryError as well.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {u.shape}")
    # A lax tol lets through matrices whose products overflow or whose det
    # is 0: their invariants come out inf or NaN, and are refused below.
    with np.errstate(all="ignore"):
        if not is_unitary(u, tol):
            raise NonUnitaryError("matrix is not unitary within tolerance")
        w = MAGIC_Q.conj().T @ u @ MAGIC_Q
        v = w.T @ w
        tr2 = np.trace(v) ** 2
        det = np.linalg.det(u)
        g = tr2 / (16 * det)
        gamma = (tr2 - np.trace(v @ v)) / (4 * det)
    if not np.isfinite([g, gamma]).all():
        raise NonUnitaryError("matrix is singular, or its invariants are not finite")
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
# S4, so left and right cosets coincide and membership is unambiguous.  Each
# key is a permutation of 0..3, so the six cosets of four give 24 keys
# exactly when they are disjoint, and then they cover all of S4.
_COSET_OF = {tuple(rep.value[i ^ mask] for i in range(4)): rep
             for rep in CosetId for mask in range(4)}
if len(_COSET_OF) != 24:
    raise RuntimeError("coset representatives are not disjoint")

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
