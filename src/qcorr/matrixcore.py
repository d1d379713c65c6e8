"""Dense complex linear algebra for small multi-qubit unitaries.

Conventions:
  - All matrices are complex128 ndarrays, row-major, dimension a power of two.
  - Bit/qubit ordering is big-endian: qubit 0 is the *most significant* bit of
    a basis index, so ``np.kron(a, b)`` puts ``a`` on the high-order bits.
  - A generalized permutation is a unitary with exactly one nonzero,
    unit-modulus entry per row and column.  It factors as ``diag(phases) @ P``
    where ``P`` maps basis index ``j`` to ``perm[j]``; phases are therefore
    indexed by the *output* string.
"""

from __future__ import annotations

import functools
from dataclasses import FrozenInstanceError

import numpy as np

DEFAULT_TOL = 1e-9


class NonUnitaryError(ValueError):
    """Input matrix fails the unitarity check required by an operation."""


class SizeLimitError(ValueError):
    """A requested computation exceeds a documented hard size limit."""


_SQRT2_INV = 1.0 / np.sqrt(2.0)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV
CNOT12 = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
CNOT21 = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex)
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
CZ = np.diag([1, 1, 1, -1]).astype(complex)

SWAT12 = SWAP @ CNOT12
SWAT21 = SWAP @ CNOT21

MAGIC_Q = _SQRT2_INV * np.array(
    [[1, 0, 0, 1j], [0, 1j, 1, 0], [0, 1j, -1, 0], [1, 0, 0, -1j]], dtype=complex
)


def sigma_x_phased(theta: float, phi: float) -> np.ndarray:
    """Bit flip with free phases: antidiagonal (e^{i*theta}, e^{i*phi})."""
    return np.array([[0, np.exp(1j * theta)], [np.exp(1j * phi), 0]], dtype=complex)


_FIXED_GATES = {
    "sigma_x": SIGMA_X,
    "sigma_z": SIGMA_Z,
    "hadamard": HADAMARD,
    "cnot12": CNOT12,
    "cnot21": CNOT21,
    "swap": SWAP,
    "swat12": SWAT12,
    "swat21": SWAT21,
    "magic_q": MAGIC_Q,
    "cz": CZ,
}


def gate(name: str, *args: float) -> np.ndarray:
    """Look up a named gate matrix.

    Fixed gates take no arguments; ``identity`` takes the qubit count and
    ``sigma_x_phased`` takes the two phase angles.
    """
    key = name.lower()
    if key == "identity":
        m = int(args[0]) if args else 1
        if m < 1:
            raise ValueError(f"need at least one qubit, got m={m}")
        return np.eye(1 << m, dtype=complex)
    if key == "sigma_x_phased":
        return sigma_x_phased(*args)
    try:
        return _FIXED_GATES[key].copy()
    except KeyError:
        raise ValueError(f"unknown gate {name!r}") from None


def is_unitary(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Max-entry norm of A†A − I at most tol."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    with np.errstate(all="ignore"):  # overflow gives inf or NaN, which fail
        delta = a.conj().T @ a - np.eye(a.shape[0])
        return bool(np.max(np.abs(delta)) <= tol)


def num_bits(dim: int) -> int:
    """Bit width m with dim == 2**m; rejects non-powers of two."""
    if dim < 2 or dim & (dim - 1):
        raise ValueError(f"dimension {dim} is not a power of two >= 2")
    return dim.bit_length() - 1


# Pairs per block of the 2x2 kernel, entries of column 0 per block of
# assignments in the dense engine's loop (_BLOCK >> m assignments), and
# entries per chunk of bits of _FlipTables's phase-ratio pass and per block
# of words that _FlipTables.counterparts builds, so that a block stays in
# cache; the decoder widens its blocks to at least _BLOCK >> 8 columns.
# Buffers are allocated once per call; allocating them per block would map
# and fault fresh pages each time.
_BLOCK = 1 << 14


def apply_single_qubit(state: np.ndarray, u2: np.ndarray, qubit: int, m: int) -> np.ndarray:
    """Apply a 2x2 matrix to one qubit of an m-qubit statevector, in place:
    ``state`` must be a C-ordered complex array.  It is returned.

    ``qubit`` counts from 0 at the most significant bit.  Any leading batch
    axes of ``state`` are kept, so a (k, 2^a, 2^b) stack of matrices is m =
    a + b qubits with the rows first.  ``u2`` may also be an (n, 2, 2) stack:
    then ``state`` ends in one more axis, of length n, after its m qubits,
    and matrix i acts on the states at index i of that axis.
    """
    if not (isinstance(state, np.ndarray) and state.dtype == complex and state.flags.c_contiguous):
        raise ValueError("expected a C-ordered complex array, to be written in place")
    u = np.asarray(u2, dtype=complex).reshape(-1, 4)
    pairs = state.reshape(-1, 2, 1 << (m - 1 - qubit), len(u))
    rows, _, cols, n = pairs.shape
    step_c = min(cols, max(1, _BLOCK // n))
    step_r = max(1, _BLOCK // (step_c * n))
    # One matrix gives Python scalars, which take numpy's fastest loops.  A
    # stack gives each coefficient as a contiguous (step_c, n) tile, so the
    # inner loop runs along a whole block row; an (n,) operand would cut it
    # to n entries.
    coef = u[0].tolist() if n == 1 else np.repeat(u.T[:, None], step_c, axis=1)
    bufs = np.empty((3, min(rows, step_r), step_c, n), dtype=complex)
    for r in range(0, rows, step_r):
        for c in range(0, cols, step_c):
            blk = pairs[r:r + step_r, :, c:c + step_c]
            a, b = blk[:, 0], blk[:, 1]
            x, y, t = bufs[:, :a.shape[0], :a.shape[1]]
            u00, u01, u10, u11 = coef if n == 1 else coef[:, :a.shape[1]]
            np.multiply(a, u00, out=x)
            np.multiply(b, u01, out=t)
            x += t
            np.multiply(a, u10, out=y)
            np.multiply(b, u11, out=t)
            y += t
            a[...] = x
            b[...] = y
    return state


# Qubits per pass of hadamard_layer, and multiply-adds per matrix product in
# it: OpenBLAS runs a product of at most 2^18 multiply-adds on the calling
# thread.  The layer's blocks are sized from these two alone.  A block holds
# at most _PRODUCT >> _HADAMARD_PASS amplitudes (128 KiB), at 2^g
# multiply-adds each in a pass of g qubits; the last pass, at w multiply-adds
# per amplitude on rows of w, takes fewer rows where w exceeds
# 2^_HADAMARD_PASS.
_HADAMARD_PASS = 4
_PRODUCT = 1 << 18


@functools.cache
def _sylvester(g: int) -> np.ndarray:
    """The unscaled 2^g x 2^g Walsh-Hadamard matrix, entry (-1)^popcount(i & j),
    as read-only floats."""
    idx = np.arange(1 << g)
    s = 1.0 - 2.0 * (np.bitwise_count(idx[:, None] & idx) & 1)
    s.flags.writeable = False
    return s


@functools.cache
def _last_pass(m: int) -> np.ndarray:
    """S for the last g = (m - 1) % _HADAMARD_PASS + 1 qubits of an m-qubit
    layer, scaled by 2^(-m/2), as read-only floats: it acts by right
    multiplication on rows of 2^g amplitudes."""
    k = _sylvester((m - 1) % _HADAMARD_PASS + 1) * 2.0 ** (-m / 2)
    k.flags.writeable = False
    return k


def hadamard_layer(state: np.ndarray, m: int) -> np.ndarray:
    """H on every qubit of an m-qubit statevector, in place: ``state`` must be
    a C-ordered float64 array of 2^m real amplitudes.  It is returned.

    Each pass but the last takes the next g = _HADAMARD_PASS qubits from the
    most significant, on the (A, 2^g, B) view: one real product with the ±1
    Sylvester matrix per block of that view, through one small scratch
    block, so no transpose and no second buffer the size of the state.  The
    last pass takes the g <= _HADAMARD_PASS qubits left, where B is one
    amplitude: it multiplies rows of 2^g amplitudes by S instead, and also
    applies the one scale by 2^(-m/2).  Every product stays within _PRODUCT
    multiply-adds, so BLAS runs on the calling thread.
    """
    if not (isinstance(state, np.ndarray) and m >= 1 and state.shape == (1 << m,)
            and state.dtype == float and state.flags.c_contiguous):
        raise ValueError(f"expected a C-ordered float64 statevector of 2**{m} "
                         f"entries, got {type(state).__name__} of shape {np.shape(state)}")
    g, s, k = _HADAMARD_PASS, _sylvester(_HADAMARD_PASS), _last_pass(m)
    block = _PRODUCT >> g
    step = min(block, _PRODUCT // len(k)) // len(k)
    scratch = np.empty(min(state.size, block))
    for done in range(0, m - g, g):
        grid = state.reshape(-1, 1 << g, 1 << (m - done - g))
        # A block is `per` slices along A, each `cols` amplitudes of B wide.
        cols = min(grid.shape[2], block >> g)
        per = (block >> g) // cols
        for a in range(0, grid.shape[0], per):
            for b in range(0, grid.shape[2], cols):
                blk = grid[a:a + per, :, b:b + cols]
                tmp = scratch[:blk.size].reshape(blk.shape)
                np.matmul(s, blk, out=tmp)
                blk[...] = tmp
    rows = state.reshape(-1, len(k))
    for r in range(0, len(rows), step):
        blk = rows[r:r + step]
        tmp = scratch[:blk.size].reshape(blk.shape)
        np.matmul(blk, k, out=tmp)
        blk[...] = tmp
    return state


def _checked_perms(m: int, perms, ndim: int) -> tuple[np.ndarray, np.ndarray]:
    """``perms``, one perm (ndim 1) or k (ndim 2) of 2^m entries, as read-only
    intp, and its inverse row by row, read-only too, once each row is checked
    to be a bijection on 0 .. 2^m - 1.  An intp array is frozen in place: a
    caller with outside data copies it first."""
    dim = 1 << m
    perms = np.asarray(perms)
    if perms.ndim != ndim or perms.shape[-1] != dim:
        raise ValueError(f"expected {ndim}-D perms of length 2**m = {dim}, got shape {perms.shape}")
    if perms.dtype.kind not in "iu":
        raise ValueError(f"perm entries must be integers, not {perms.dtype}")
    perms = perms.astype(np.intp, copy=False)
    inv = np.full(perms.shape, -1, dtype=np.intp)
    # Read as unsigned, a negative entry is too large as well.  Once all lie
    # in 0 .. dim - 1, a row is a bijection exactly when scattering its
    # positions through it writes every slot of its inverse.
    if perms.view(np.uintp).max(initial=0) < dim:
        rows = (np.arange(len(perms))[:, None],) if ndim == 2 else ()
        inv[rows + (perms,)] = np.arange(dim)
    if inv.min(initial=0) < 0:
        raise ValueError("perm is not a bijection on the m-bit strings")
    perms.flags.writeable = inv.flags.writeable = False
    return perms, inv


def _unit_modulus(z: np.ndarray, tol: float) -> np.ndarray:
    """Per entry of ``z``: whether its modulus is above tol and within tol of
    one, which NaN fails.  The one test of a phase, wherever it is made."""
    mags = np.abs(z)
    return (mags > tol) & (np.abs(mags - 1.0) <= tol)


class GeneralizedPermutation:
    """Permutation of m-bit strings with a unit-modulus phase per output string.

    The matrix form is ``diag(phases) @ P`` with ``P[perm[j], j] = 1``, i.e.
    basis state ``j`` maps to ``phases[perm[j]] * |perm[j]>``.

    A map is stored as three read-only arrays of 2^m entries: the perm, its
    inverse and the phases.  ``GeneralizedPermutation(m, perm, phases, tol)``
    checks copies of its input; it and every constructor that builds from
    arrays valid by construction make the map through ``_unchecked``, which
    alone applies the storage rule: phases whose imaginary parts are all
    exactly 0 are held as one contiguous float64 array, any others as
    complex128.  ``perm`` and ``phases`` are tuples of Python ints and
    complexes, built from them on first access, whichever the dtype;
    equality, hashing, repr and pickling mean what they would on those
    tuples.  Instances are immutable.  At n = 16 the phase oracle's table
    is 512 KiB (1 MiB as complex128), and a bv run peaks at 1 MiB under
    ``tracemalloc``.
    """

    def __new__(cls, m: int, perm, phases, tol: float = DEFAULT_TOL):
        perm, inv = _checked_perms(m, np.array(perm), 1)
        phases = np.array(phases, dtype=complex)
        if phases.shape != perm.shape:
            raise ValueError(f"phases length must be 2**m = {perm.size}")
        if not _unit_modulus(phases, tol).all():
            raise ValueError("phases must all have unit modulus within tol, and modulus above tol")
        return _unchecked(m, perm, inv, phases)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _rebuilt, (self.m, self._perm, self._inv, self._phases)

    # A cached property writes the instance dict directly, past __setattr__.
    @functools.cached_property
    def perm(self) -> tuple[int, ...]:
        return tuple(self._perm.tolist())

    @functools.cached_property
    def phases(self) -> tuple[complex, ...]:
        return tuple(self._phases.astype(complex, copy=False).tolist())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.m == other.m and np.array_equal(self._perm, other._perm)
                and np.array_equal(self._phases, other._phases))

    def __hash__(self):
        return hash((self.m, self.perm, self.phases))

    def __repr__(self):
        return (f"{self.__class__.__qualname__}(m={self.m!r}, perm={self.perm!r}, "
                f"phases={self.phases!r})")

    @property
    def dim(self) -> int:
        return 1 << self.m

    def as_matrix(self) -> np.ndarray:
        mat = np.zeros((self.dim, self.dim), dtype=complex)
        mat[np.arange(self.dim), self._inv] = self._phases
        return mat

    def apply(self, state: np.ndarray) -> np.ndarray:
        """Action on a statevector, or on each column of a (2^m, n) array of
        them, without materializing the matrix.  Output string i gathers
        input string inv[i], which is faster than scattering inputs.  A state
        whose first axis is not 2^m long is refused with ValueError.

        A float64 state gives float64 output exactly when the map holds its
        phases as float64, which by the storage rule is when every phase is
        real (its imaginary part exactly 0); the table multiplies the state
        as it is, with no test.  Any other state, or any phase off the real
        line, gives complex128 output."""
        state, phases = np.asarray(state), self._phases
        if state.shape[:1] != phases.shape:
            raise ValueError(f"expected a state of 2**m = {phases.size} entries along its "
                             f"first axis, got shape {state.shape}")
        if state.dtype != float or phases.dtype != float:
            state = state.astype(complex, copy=False)
        out = state[self._inv]
        # Phase first: the operand order fixes the rounding of the product.
        return np.multiply(phases.reshape((-1,) + (1,) * (out.ndim - 1)), out, out=out)

    def is_involution(self) -> bool:
        return np.array_equal(self._perm, self._inv)


def _unchecked(m: int, perm: np.ndarray, inv: np.ndarray,
               phases: np.ndarray) -> GeneralizedPermutation:
    """A map from a perm and its inverse already checked and made read-only,
    and phases already checked, as the constructor, the detector, the
    extraction engines, ``phase_oracle``, ``standard_oracle`` and unpickling
    have; its twin for families is in ``querylab``.

    The one place of the storage rule: complex128 phases whose imaginary
    parts are all exactly 0 are held as a contiguous read-only float64 copy,
    others are frozen as they are, and float64 ones, read-only already, are
    held as they are."""
    if phases.dtype != float:
        if not np.count_nonzero(phases.imag):
            phases = phases.real.copy()
        phases.flags.writeable = False
    gp = object.__new__(GeneralizedPermutation)
    gp.__dict__.update(m=m, _perm=perm, _inv=inv, _phases=phases)
    return gp


def _rebuilt(m: int, perm: np.ndarray, inv: np.ndarray,
             phases: np.ndarray) -> GeneralizedPermutation:
    """A map as ``pickle`` and ``copy.deepcopy`` rebuild it, from fresh
    copies of its checked arrays, which are made read-only here."""
    perm.flags.writeable = inv.flags.writeable = phases.flags.writeable = False
    return _unchecked(m, perm, inv, phases)


def _column_rule(cols: np.ndarray, tol: float):
    """Per column of a (2^m, ...) array: the row of its first present entry,
    that entry, and whether the column holds exactly one present entry, of
    unit modulus.  An entry counts as present unless its modulus is at most
    tol, so a NaN entry is present and fails its column."""
    present = ~(np.abs(cols) <= tol)
    rows = present.argmax(axis=0)
    entries = np.take_along_axis(cols, rows[None], axis=0)[0]
    return rows, entries, _unit_modulus(entries, tol) & (np.count_nonzero(present, axis=0) == 1)


def _decode_columns(columns, m: int, tol: float):
    """The generalized permutation whose columns ``columns(start, c)`` gives,
    2^c at a time from column start, as (2^m, 2^c) arrays, or None.  A block
    holds about _BLOCK entries but at least _BLOCK >> 8 columns: narrower
    ones cut the column reductions short.  Every column must pass the column
    rule and no two may share a row; the first failing block ends the test."""
    dim = 1 << m
    c = min(m, max(1, _BLOCK >> m, _BLOCK >> 8).bit_length() - 1)
    perm = np.empty(dim, dtype=np.intp)
    phases = np.zeros(dim, dtype=complex)
    for start in range(0, dim, 1 << c):
        rows, entries, ok = _column_rule(columns(start, c), tol)
        if not ok.all():
            return None
        perm[start:start + (1 << c)] = rows
        phases[rows] = entries
    try:
        perm, inv = _checked_perms(m, perm, 1)
    except ValueError:
        return None
    return _unchecked(m, perm, inv, phases)


def detect_generalized_permutation(mat: np.ndarray, tol: float = DEFAULT_TOL):
    """Decompose a square matrix into permutation + phases, or None.

    A matrix qualifies when each column has exactly one entry of modulus
    above tol, that entry's modulus is within tol of one, and no two columns
    share a row.  An entry counts as present unless its modulus is at most
    tol, so a NaN entry is present and its column fails.  The columns are
    decoded in blocks, as the dense engine decodes B†UB.
    """
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    return _decode_columns(lambda start, c: mat[:, start:start + (1 << c)],
                           num_bits(mat.shape[0]), tol)


def cycle_notation(perm) -> str:
    """Disjoint-cycle string for a permutation, 'id' for the identity."""
    seen = set()
    parts = []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            continue
        cyc = [start]
        seen.add(start)
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = perm[nxt]
        parts.append("(" + " ".join(str(v) for v in cyc) + ")")
    return "".join(parts) if parts else "id"


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def matrix_to_json(mat: np.ndarray) -> dict:
    mat = np.asarray(mat, dtype=complex)
    return {
        "dim": mat.shape[0],
        "entries": [[float(v.real), float(v.imag)] for v in mat.reshape(-1)],
    }


def _json_int(value, field: str) -> int:
    """A JSON integer field as json.load reads it: an int, not a bool, a
    float or a string, which int() would truncate or parse."""
    if type(value) is not int:
        raise ValueError(f"{field} must be a JSON integer, got {value!r}")
    return value


def matrix_from_json(obj: dict) -> np.ndarray:
    """Parse {"dim": d, "entries": [[re, im], ...]} (row-major, length d**2)."""
    try:
        dim = _json_int(obj["dim"], "dim")
        entries = obj["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    if dim < 1 or len(entries) != dim * dim:
        raise ValueError(f"expected {dim * dim} entries for dim={dim}, got {len(entries)}")
    flat = np.empty(dim * dim, dtype=complex)
    for idx, pair in enumerate(entries):
        if len(pair) != 2:
            raise ValueError(f"entry {idx} is not a [re, im] pair")
        if not all(type(v) in (int, float) for v in pair):
            raise ValueError(f"entry {idx} must be a pair of JSON numbers, got {pair!r}")
        try:
            flat[idx] = complex(pair[0], pair[1])
        except OverflowError:
            raise ValueError(f"entry {idx} is too large for a float") from None
    if not np.all(np.isfinite(flat.view(float))):
        raise ValueError("matrix entries must be finite")
    return flat.reshape(dim, dim)
