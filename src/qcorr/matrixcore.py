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
    delta = a.conj().T @ a - np.eye(a.shape[0])
    return bool(np.max(np.abs(delta)) <= tol)


def num_bits(dim: int) -> int:
    """Bit width m with dim == 2**m; rejects non-powers of two."""
    if dim < 2 or dim & (dim - 1):
        raise ValueError(f"dimension {dim} is not a power of two >= 2")
    return dim.bit_length() - 1


# Pairs per block of the 2x2 kernel, and entries per block of the detector:
# a block and its buffers stay in cache.  The buffers are allocated once per
# call; allocating them per block would map and fault fresh pages each time.
_BLOCK = 1 << 14


def apply_single_qubit(state: np.ndarray, u2: np.ndarray, qubit: int, m: int,
                       out: np.ndarray | None = None) -> np.ndarray:
    """Apply a 2x2 matrix to one qubit of an m-qubit statevector.

    ``qubit`` counts from 0 at the most significant bit.  Any leading batch
    axes of ``state`` are kept, so a (k, 2^a, 2^b) stack of matrices is m =
    a + b qubits with the rows first.  ``u2`` may also be an (n, 2, 2) stack:
    then ``state`` ends in one more axis, of length n, after its m qubits,
    and matrix i acts on the states at index i of that axis.  The result
    goes to ``out`` (C-ordered, and may be ``state`` itself), by default to a
    new array.
    """
    psi = np.asarray(state, dtype=complex)
    u = np.asarray(u2, dtype=complex).reshape(-1, 4)
    pairs = psi.reshape(-1, 2, 1 << (m - 1 - qubit), len(u))
    res = np.empty(psi.shape, dtype=complex) if out is None else out
    dst = res.reshape(pairs.shape)
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
            blk = np.s_[r:r + step_r, :, c:c + step_c]
            a, b = pairs[blk][:, 0], pairs[blk][:, 1]
            x, y, t = bufs[:, :a.shape[0], :a.shape[1]]
            u00, u01, u10, u11 = coef if n == 1 else coef[:, :a.shape[1]]
            np.multiply(a, u00, out=x)
            np.multiply(b, u01, out=t)
            x += t
            np.multiply(a, u10, out=y)
            np.multiply(b, u11, out=t)
            y += t
            dst[blk][:, 0] = x
            dst[blk][:, 1] = y
    return res


# Qubits per pass of hadamard_layer.  A pass costs 2^g multiply-adds per
# entry and one transpose; at 6 the products stay small and 16 qubits take
# three passes.
_HADAMARD_PASS = 6


@functools.cache
def _sylvester(g: int) -> np.ndarray:
    """The unscaled 2^g x 2^g Walsh-Hadamard matrix, entry (-1)^popcount(i & j),
    as read-only floats."""
    idx = np.arange(1 << g)
    s = 1.0 - 2.0 * (np.bitwise_count(idx[:, None] & idx) & 1)
    s.flags.writeable = False
    return s


def hadamard_layer(state: np.ndarray, m: int) -> np.ndarray:
    """H on every qubit of an m-qubit statevector, as a new array.

    Each pass multiplies the leading (most significant) g <= _HADAMARD_PASS
    qubits by the ±1 Sylvester matrix, one real matrix product on the
    complex entries viewed as float pairs, and a transpose moves those
    qubits to the low end.  The passes cover the m qubits once, so the order
    ends where it began; the one scale by 2^(-m/2) comes last.
    """
    psi = np.ascontiguousarray(state, dtype=complex)
    if m < 1 or psi.shape != (1 << m,):
        raise ValueError(f"expected a statevector of 2**{m} entries, got shape {psi.shape}")
    # Two buffers for all passes: fresh pages cost more than a pass's copy.
    prod, out = np.empty_like(psi), np.empty_like(psi)
    src = psi
    for done in range(0, m, _HADAMARD_PASS):
        g = min(_HADAMARD_PASS, m - done)
        np.matmul(_sylvester(g), src.view(float).reshape(1 << g, -1),
                  out=prod.view(float).reshape(1 << g, -1))
        out.reshape(-1, 1 << g)[...] = prod.reshape(1 << g, -1).T
        src = out
    out *= 2.0 ** (-m / 2)
    return out


def _checked_perms(m: int, perms, ndim: int) -> np.ndarray:
    """A read-only intp copy of ``perms``, one perm (ndim 1) or k (ndim 2) of
    2^m entries, once each is checked to be a bijection on 0 .. 2^m - 1."""
    dim = 1 << m
    perms = np.array(perms)
    if perms.ndim != ndim or perms.shape[-1] != dim:
        raise ValueError(f"expected {ndim}-D perms of length 2**m = {dim}, got shape {perms.shape}")
    if perms.dtype.kind not in "iu":
        raise ValueError(f"perm entries must be integers, not {perms.dtype}")
    perms = perms.astype(np.intp, copy=False)
    if perms.size:
        # Read as unsigned, a negative entry is too large as well.  Once all
        # lie in 0 .. dim - 1, row r counts its entries in bins r*dim ..
        # r*dim + dim - 1, and every bin is hit exactly when every row is a
        # bijection.
        size = perms.size
        flat = perms if ndim == 1 else perms + np.arange(0, size, dim)[:, None]
        if not (perms.view(np.uintp).max() < dim
                and np.count_nonzero(np.bincount(flat.ravel(), minlength=size)) == size):
            raise ValueError("perm is not a bijection on the m-bit strings")
    perms.flags.writeable = False
    return perms


class GeneralizedPermutation:
    """Permutation of m-bit strings with a unit-modulus phase per output string.

    The matrix form is ``diag(phases) @ P`` with ``P[perm[j], j] = 1``, i.e.
    basis state ``j`` maps to ``phases[perm[j]] * |perm[j]>``.

    A map is stored as two read-only arrays of 2^m entries, copied from the
    input and checked once.  ``perm`` and ``phases`` are tuples of Python
    ints and complexes, built from them on first access; equality, hashing
    and repr mean what they would on those tuples.  Instances are immutable.
    """

    def __init__(self, m: int, perm, phases, tol: float = DEFAULT_TOL):
        perm = _checked_perms(m, perm, 1)
        phases = np.array(phases, dtype=complex)
        if phases.shape != perm.shape:
            raise ValueError(f"phases length must be 2**m = {perm.size}")
        # Modulus within tol of one implies above tol while tol < 1/2, so only a
        # larger tol pays for the second test, which the detector also makes.
        if not (np.abs(np.abs(phases) - 1.0).max() <= tol
                and (tol < 0.5 or np.abs(phases).min() > tol)):
            raise ValueError("phases must all have unit modulus within tol, and modulus above tol")
        phases.flags.writeable = False
        self.__dict__.update(m=m, _perm=perm, _phases=phases)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _unchecked, (self.m, self._perm, self._phases)

    # A cached property writes the instance dict directly, past __setattr__.
    @functools.cached_property
    def perm(self) -> tuple[int, ...]:
        return tuple(self._perm.tolist())

    @functools.cached_property
    def phases(self) -> tuple[complex, ...]:
        return tuple(self._phases.tolist())

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

    @functools.cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The inverse of ``perm`` and the phases, as read-only arrays."""
        inv = np.empty(self.dim, dtype=np.intp)
        inv[self._perm] = np.arange(self.dim)
        inv.flags.writeable = False
        return inv, self._phases

    def as_matrix(self) -> np.ndarray:
        mat = np.zeros((self.dim, self.dim), dtype=complex)
        inv, phases = self._arrays
        mat[np.arange(self.dim), inv] = phases
        return mat

    def apply(self, state: np.ndarray) -> np.ndarray:
        """Action on a statevector, or on each column of a (2^m, n) array of
        them, without materializing the matrix.  Output string i gathers
        input string inv[i], which is faster than scattering inputs."""
        inv, phases = self._arrays
        out = np.take(np.asarray(state, dtype=complex), inv, axis=0)
        # Phase first: the operand order fixes the rounding of the product.
        return np.multiply(phases.reshape((-1,) + (1,) * (out.ndim - 1)), out, out=out)

    def bit_map(self, x: int) -> int:
        """Phase-free classical action on an input string."""
        return self.perm[x]

    def is_involution(self) -> bool:
        return np.array_equal(self._perm[self._perm], np.arange(self.dim))


def _unchecked(m: int, perm: np.ndarray, phases: np.ndarray) -> GeneralizedPermutation:
    """A map from arrays already checked, as the detector, the extraction
    engines and unpickling have."""
    gp = object.__new__(GeneralizedPermutation)
    perm.flags.writeable = phases.flags.writeable = False
    gp.__dict__.update(m=m, _perm=perm, _phases=phases)
    return gp


def detect_generalized_permutation(mat: np.ndarray, tol: float = DEFAULT_TOL):
    """Decompose a square matrix into permutation + phases, or None.

    A matrix qualifies when each column has exactly one entry of modulus
    above tol, that entry's modulus is within tol of one, and no two columns
    share a row.  An entry counts as present unless its modulus is at most
    tol, so a NaN entry is present and its column fails.
    """
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    dim = mat.shape[0]
    m = num_bits(dim)
    # The presence pass runs over row strips of about _BLOCK entries, so its
    # buffers stay small and its reductions run down whole columns.
    counts = np.zeros(dim, dtype=np.intp)
    rows = np.zeros(dim, dtype=np.intp)
    step = min(dim, max(1, _BLOCK // dim))
    mags = np.empty((step, dim))
    big = np.empty((step, dim), dtype=bool)
    for r in range(0, dim, step):
        n = min(step, dim - r)
        hit = big[:n]
        np.less_equal(np.abs(mat[r:r + n], out=mags[:n]), tol, out=hit)
        np.logical_not(hit, out=hit)
        counts += hit.sum(axis=0)
        np.copyto(rows, hit.argmax(axis=0) + r, where=hit.any(axis=0))
    entries = mat[rows, np.arange(dim)]
    if not ((counts == 1).all() and (np.abs(np.abs(entries) - 1.0) <= tol).all()
            and (np.bincount(rows, minlength=dim) == 1).all()):
        return None
    phases = np.zeros_like(entries)
    phases[rows] = entries
    # Those are the constructor's checks, and rows from argmax are intp
    # and in range, so the map needs no second pass.
    return _unchecked(m, rows, phases)


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
