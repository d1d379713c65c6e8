"""Classical counterparts of quantum oracles under per-qubit computational
basis choices, and the complete two-qubit classification.

Extraction has two engines, which the backend of ``OracleAction`` and the
search space pick together.  ``_check_space`` checks a space once and hands
over the grid codes of its words when it is the grid or a chi/eta word: on
those a permutation oracle takes the table engine, whose one entry is
``_FlipTables.counterparts``.  Every other search, a ``RandomSample``
(``random:`` on the command line) among them, takes the dense engine.

For G = diag(phases) P, with S the eta qubits of a word and psi(x) the
phase G puts on input x, H^S G H^S is again a generalized permutation
exactly when P is affine over GF(2) on each S-fibre (the inputs that differ
only on S) and maps it onto an output fibre, and psi is a character there
times a constant: the affine-character criterion of Walsh-Hadamard analysis
(O'Donnell, *Analysis of Boolean Functions*, 2014), which matches the
affine/quadratic form of Clifford maps (Dehaene and De Moor, PRA 68,
042318, 2003).  The engine takes the k oracles on m qubits as (k, 2^m) perm
and phase tables, reduces the criterion to bit-flip tables built from them
in O(k m^2 2^m), decides every word of the grid at once, and builds each
admitted word's counterparts as tables in closed form in O(k 2^m).  No
dense matrix is made.

The dense engine takes one oracle at a time.  Column j of B†UB, for B the
product of an assignment's single-qubit bases, is the oracle's image of the
product state encoding j, read back in the same basis.  The engine runs one
loop over blocks of assignments.  It screens each block at once on column
0: one oracle application per block, then one 2x2 pass per qubit with each
assignment's own basis change, skipped on a qubit where every basis of the
block is exactly the identity.  That rejects most of those that admit
nothing.  Each assignment of the block that passes is then decoded on its
own from blocks of a few dozen columns, in order, until a column fails; no
2^m x 2^m matrix is made.  The screen, the decoding and
``detect_generalized_permutation`` test each column by the same rule.

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
    HADAMARD,
    MAGIC_Q,
    NonUnitaryError,
    SizeLimitError,
    _checked_perms,
    _column_rule,
    _decode_columns,
    _unchecked,
    _unit_modulus,
    apply_single_qubit,
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
    pair and 'H' for the Hadamard-rotated pair, each within BASIS_TOL, or '?'
    for anything else.  The table engine knows the chi/eta words by identity,
    ``CHI`` and ``ETA`` themselves; the dense engine skips the 2x2 passes of
    any basis whose matrix is exactly the identity.
    """

    __slots__ = ("label", "matrix")

    def __init__(self, label: str, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (2, 2):
            raise ValueError("basis matrix must be 2x2")
        _check_orthonormal(matrix)
        named = {"C": np.eye(2), "H": HADAMARD}.get(label)
        if named is not None and not np.abs(matrix - named).max() <= BASIS_TOL:
            raise ValueError(f"a basis labelled {label!r} must be within {BASIS_TOL} of that pair")
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


def _check_space(space, m: int):
    """Raise unless ``space`` is a search space whose assignments on m qubits
    lie within the size limits; extraction calls it once, before any
    allocation.  Returns the grid codes (eta masks) of the grid's words or
    of a tuple of ``CHI`` and ``ETA`` themselves; None for any other space."""
    if m > GRID_QUBIT_LIMIT:
        raise SizeLimitError(f"extraction on {m} qubits exceeds the {GRID_QUBIT_LIMIT}-qubit limit")
    if isinstance(space, PauliGrid):
        return np.arange(1 << m)
    if isinstance(space, RandomSample):
        if space.count < 0:
            raise ValueError(f"random sample count must be >= 0, got {space.count}")
        if space.count > 1 << GRID_QUBIT_LIMIT:
            raise SizeLimitError(
                f"random sample of {space.count} exceeds {1 << GRID_QUBIT_LIMIT} assignments"
            )
        return None
    if isinstance(space, tuple) and all(isinstance(b, QubitBasis) for b in space):
        if len(space) != m:
            raise ValueError(f"{len(space)} bases given for an oracle on {m} qubits")
        if all(b is CHI or b is ETA for b in space):
            return np.array([sum(1 << (m - 1 - j) for j, b in enumerate(space) if b is ETA)])
        return None
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
    """A checked space as (bases, at): the basis matrices of its A
    assignments as one (A, m, 2, 2) array, and ``at(i)``, the name and
    QubitBasis tuple of assignment i.  A random sample is drawn here, once
    per call; only ``at`` wraps its draws in QubitBasis objects."""
    if isinstance(space, PauliGrid):
        eta = (np.arange(1 << m)[:, None] >> np.arange(m - 1, -1, -1)) & 1
        return np.where(eta[..., None, None], ETA.matrix, CHI.matrix), _grid_words(m).__getitem__
    if isinstance(space, RandomSample):
        mats = _sample_bases(space, m)
        return mats, lambda i: (f"random:{i}", tuple(map(general_basis, mats[i].copy())))
    return np.array([b.matrix for b in space])[None], lambda i: (basis_word(space), space)


def _columns(action: OracleAction, bases: np.ndarray, c: int, start: int) -> np.ndarray:
    """Columns start .. start + 2^c - 1 of B†UB, with start a multiple of
    2^c, for every assignment B of a block, given as (A, m, 2, 2) basis
    matrices, as a (2^m, 2^c, A) array: the oracle's images of the product
    states that encode start on the first m - c qubits and vary the last c,
    read back in each assignment's own product basis, at O(m 2^(m+c)) per
    assignment.  All A * 2^c states go through the oracle at once.  A qubit
    gets no 2x2 pass where every assignment of the block has exactly the
    identity on it: on finite entries such a pass could change only the
    signs of zeros, and no result reads them."""
    a, m = bases.shape[:2]
    states = np.ones((1, 1, a), dtype=complex)
    for j in range(m):
        # the block's states of qubit j, as (2, w, A), times the states so far
        bit = (start >> (m - 1 - j)) & 1
        mats = (bases[:, j] if j >= m - c else bases[:, j, :, bit:bit + 1]).transpose(1, 2, 0)
        states = (states[:, None, :, None] * mats[None, :, None]).reshape(2 * len(states), -1, a)
    cols = action.apply(states.reshape(1 << m, -1)).reshape(1 << m, 1 << c, a)
    back = bases.conj().swapaxes(-1, -2)
    for j in np.flatnonzero((back != np.eye(2)).any(axis=(0, 2, 3))).tolist():
        apply_single_qubit(cols, back[:, j], j, m + c)
    return cols


@functools.cache
def _flips(m: int) -> np.ndarray:
    """The (m, 2^m) read-only index table whose row b is x ^ 2^b for every x."""
    flips = np.arange(1 << m) ^ (1 << np.arange(m))[:, None]
    flips.flags.writeable = False
    return flips


def _by_bit(a: np.ndarray, b: int) -> np.ndarray:
    """A (n, ..., 2^m) array as a (n, -1, 2, 2^b) view: axis 2 is bit b of
    the last index, so reversing it pairs every x with x ^ 2^b."""
    return a.reshape(a.shape[0], -1, 2, 1 << b)


class _FlipTables:
    """Bit-flip tables of k generalized permutations G = diag(phases) P on
    the same m bits, built from their (k, 2^m) perm and phase tables at once,
    in whole-table passes.  D of every bit is one gather through the (m, 2^m)
    flip index, built once per m and kept.  The phase ratios take chunks of
    max(1, _BLOCK // (k 2^m)) bits, each one gather, one divide and two
    compares: at k = 1 one chunk up to m = 7 and two bits a chunk at m = 13,
    one bit a chunk at k = 256 on m = 8.  Only the clash loop takes one bit
    at a time, on views; in one pass it would hold m^2 k 2^m entries.
    Building the tables peaks at one (m, k, 2^m) intp table and one bool
    one, next to one chunk's temporaries.  The phase table is taken as the
    maps hold it, and each block of counterpart phases is frozen once;
    ``_unchecked`` applies the storage rule to a counterpart's phases when
    it makes a map of them.  ``phases=None`` stands for plain permutations,
    every phase 1: then T is all False, every bit is signed, and the tables
    peak at the intp one.

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

    def __init__(self, perms: np.ndarray, phases: np.ndarray | None, tol: float):
        k, dim = perms.shape
        self.m = m = num_bits(dim)
        self.p, self.inv = _checked_perms(m, perms, 2)
        self.rows = rows = np.arange(k)[:, None]
        # Every entry of a counterpart is ±psi(x): each must pass as a phase,
        # a 1 included, so no tol of 1 or more admits a word.
        self.unit = bool(_unit_modulus(np.ones(1) if phases is None else phases, tol).all())
        flips = _flips(m)
        # D for every bit at once: key[b] = P(x ^ e_b), then ^ P(x)
        key = self.p[rows, flips[:, None]]
        key ^= self.p
        self.reach = np.bitwise_or.reduce(key.reshape(m, -1), axis=1)
        self.psi = None
        self.signed = np.ones(m, dtype=bool)
        if phases is not None:
            self.psi = phases[rows, self.p]
            minus = np.empty((m, k, dim), dtype=bool)
            per = max(1, _BLOCK // (k * dim))
            for b in range(0, m, per):
                ratio = self.psi[rows, flips[b:b + per, None]]
                ratio /= self.psi
                np.less_equal(np.abs(ratio + 1.0), tol, out=minus[b:b + per])
                signed = np.abs(ratio - 1.0) <= tol
                signed |= minus[b:b + per]
                self.signed[b:b + per] = signed.reshape(len(signed), -1).all(axis=1)
            key <<= 1  # key = D << 1 | T: one compare of x with x ^ e_j tests both
            key |= minus
            del minus
        self.clash = np.zeros(m, dtype=self.p.dtype)
        for j in range(m - 1):
            kj = _by_bit(key[j + 1:], j)
            self.clash[j + 1:] |= (kj[:, :, 0] != kj[:, :, 1]).any(axis=(1, 2)) << j
        # parity(D_b(x) & P(x)) ^ T_b(x) is the parity of key & (P(x) << 1 | 1)
        key &= self.p if phases is None else (self.p << 1) | 1
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
        """The table engine's one entry: per grid code of ``words`` under which
        every G has a counterpart, in order, (name, assignment, perms,
        inverses, phases) with the (k, 2^m) tables of the k counterparts Q
        of H^S G H^S.  In closed form, with x0 = P⁻¹(w) & ~s, Q⁻¹(w) is
        x0 | (B(w) & s) and the phase of output w is psi(x0)
        (-1)^parity(P(x0) & s & w), which ``unit`` has tested; with no
        phases given, phases is None and none is built.  Built as it is
        read, in blocks of about ``_BLOCK`` entries; checking a block's Q⁻¹
        gives its Q."""
        hits, names = self.admitted(words), _grid_words(self.m)
        k, dim = self.inv.shape
        w = np.arange(dim)
        per = max(1, _BLOCK // (k * dim))
        for start in range(0, len(hits), per):
            s = hits[start:start + per, None, None]
            x0 = self.inv & ~s
            qinv = x0 | (self.back & s)
            phases = itertools.repeat(None)
            if self.psi is not None:
                odd = (np.bitwise_count(self.p[self.rows, x0] & s & w) & 1).astype(bool)
                phases = self.psi[self.rows, x0]
                np.negative(phases, out=phases, where=odd)
                phases.flags.writeable = False
            qinv, perm = (a.reshape(s.shape[0], k, dim)
                          for a in _checked_perms(self.m, qinv.reshape(-1, dim), 2))
            yield from ((*names[c], q, qi, ph)
                        for c, q, qi, ph in zip(s.ravel().tolist(), perm, qinv, phases))


def _counterparts(action: OracleAction, space, tol: float):
    """``search_counterparts`` as a generator: each triple as it is found."""
    m = action.m
    words = _check_space(space, m)  # before any allocation
    gp = action.permutation
    if gp is not None and words is not None:
        found = _FlipTables(gp._perm[None], gp._phases[None], tol).counterparts(words)
        for name, bases, perms, invs, phases in found:
            yield name, bases, _unchecked(m, perms[0], invs[0], phases[0])
        return
    bases, at = _assignments(space, m)
    per = max(1, _BLOCK >> m)
    for first in range(0, len(bases), per):
        passed = _column_rule(_columns(action, bases[first:first + per], 0, 0)[:, 0], tol)[2]
        for i in (first + np.flatnonzero(passed)).tolist():
            one = bases[i:i + 1]
            hit = _decode_columns(lambda start, c: _columns(action, one, c, start)[..., 0], m, tol)
            if hit is not None:
                yield (*at(i), hit)


def search_counterparts(action: OracleAction, space, tol: float = DEFAULT_TOL):
    """All assignments of a space under which the action has a classical
    counterpart, as (name, assignment, counterpart) triples in the space's
    order: the list of what ``_counterparts`` yields.

    The space is checked once.  A permutation-backed action on the grid or
    a chi/eta word goes to ``_FlipTables.counterparts``.  Otherwise one loop
    takes the assignments in blocks of about ``_BLOCK`` entries of column 0:
    it screens a block at once on column 0 of B†UB, then decodes each
    assignment that passes on its own from blocks of its columns, as
    ``detect_generalized_permutation`` decodes a matrix, without building
    B†UB whole.
    """
    return list(_counterparts(action, space, tol))


def extract_counterpart(action: OracleAction, bases, tol: float = DEFAULT_TOL):
    """Classical counterpart induced by a basis assignment, or None.

    The counterpart exists iff every column of B†UB is a single basis
    vector up to phase, on a row no other column takes; the result collects
    the full permutation and its output phases.  It is one search, over a
    space of this one assignment.
    """
    return next((gp for _, _, gp in _counterparts(action, tuple(bases), tol)), None)


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
