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

from dataclasses import InitVar, dataclass
from functools import cached_property

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
    a + b qubits with the rows first.  The result goes to ``out`` (C-ordered,
    and may be ``state`` itself), by default to a new array.
    """
    psi = np.asarray(state, dtype=complex)
    pairs = psi.reshape(-1, 2, 1 << (m - 1 - qubit))
    res = np.empty(psi.shape, dtype=complex) if out is None else out
    dst = res.reshape(pairs.shape)
    u00, u01, u10, u11 = np.asarray(u2, dtype=complex).ravel().tolist()
    rows, _, cols = pairs.shape
    step_r, step_c = max(1, _BLOCK // cols), min(cols, _BLOCK)
    bufs = np.empty((3, min(rows, step_r), step_c), dtype=complex)
    for r in range(0, rows, step_r):
        for c in range(0, cols, step_c):
            blk = np.s_[r:r + step_r, :, c:c + step_c]
            a, b = pairs[blk][:, 0], pairs[blk][:, 1]
            x, y, t = bufs[:, :a.shape[0], :a.shape[1]]
            np.multiply(a, u00, out=x)
            np.multiply(b, u01, out=t)
            x += t
            np.multiply(a, u10, out=y)
            np.multiply(b, u11, out=t)
            y += t
            dst[blk][:, 0] = x
            dst[blk][:, 1] = y
    return res


@dataclass(frozen=True)
class GeneralizedPermutation:
    """Permutation of m-bit strings with a unit-modulus phase per output string.

    The matrix form is ``diag(phases) @ P`` with ``P[perm[j], j] = 1``, i.e.
    basis state ``j`` maps to ``phases[perm[j]] * |perm[j]>``.
    """

    m: int
    perm: tuple[int, ...]
    phases: tuple[complex, ...]
    tol: InitVar[float] = DEFAULT_TOL

    def __post_init__(self, tol):
        dim = 1 << self.m
        if len(self.perm) != dim or len(self.phases) != dim:
            raise ValueError(f"perm/phases length must be 2**m = {dim}")
        if sorted(self.perm) != list(range(dim)):
            raise ValueError("perm is not a bijection on the m-bit strings")
        mags = np.abs(np.asarray(self.phases))
        if np.max(np.abs(mags - 1.0)) > tol:
            raise ValueError("phases must all have unit modulus within tol")

    @property
    def dim(self) -> int:
        return 1 << self.m

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``perm`` and the phase picked up by each input string, as
        read-only arrays built on first use.  Not a field, so equality,
        hashing and repr see only the tuples."""
        idx = np.asarray(self.perm)
        gained = np.asarray(self.phases, dtype=complex)[idx]
        idx.flags.writeable = gained.flags.writeable = False
        return idx, gained

    def as_matrix(self) -> np.ndarray:
        mat = np.zeros((self.dim, self.dim), dtype=complex)
        idx, gained = self._arrays
        mat[idx, np.arange(self.dim)] = gained
        return mat

    def apply(self, state: np.ndarray) -> np.ndarray:
        """Action on a statevector, or on each column of a (2^m, n) array of
        them, without materializing the matrix."""
        state = np.asarray(state, dtype=complex)
        out = np.empty_like(state)
        idx, gained = self._arrays
        out[idx] = gained.reshape((-1,) + (1,) * (state.ndim - 1)) * state
        return out

    def bit_map(self, x: int) -> int:
        """Phase-free classical action on an input string."""
        return self.perm[x]

    def is_involution(self) -> bool:
        return all(self.perm[self.perm[j]] == j for j in range(self.dim))


def detect_stack(stack: np.ndarray, tol: float = DEFAULT_TOL) -> list:
    """Decompose every matrix of a (k, d, d) stack into permutation + phases.

    A matrix qualifies when each column has exactly one entry of modulus
    above tol, that entry's modulus is within tol of one, and no two columns
    share a row.  Returns a GeneralizedPermutation, or None, per matrix.
    """
    k, dim = stack.shape[0], stack.shape[-1]
    m = num_bits(dim)
    # The |M| > tol pass runs over blocks of whole matrices, or of row strips
    # of one matrix that alone exceeds _BLOCK, so its buffers stay near
    # _BLOCK entries and its reductions run down whole columns where they fit.
    counts = np.zeros((k, dim), dtype=np.intp)
    rows = np.zeros((k, dim), dtype=np.intp)
    per = min(k, max(1, _BLOCK // (dim * dim)))
    step = min(dim, max(1, _BLOCK // dim))
    mags = np.empty((per, step, dim))
    big = np.empty((per, step, dim), dtype=bool)
    for i in range(0, k, per):
        j = min(k, i + per)
        for r in range(0, dim, step):
            n = min(step, dim - r)
            hit = big[:j - i, :n]
            np.greater(np.abs(stack[i:j, r:r + n], out=mags[:j - i, :n]), tol, out=hit)
            counts[i:j] += hit.sum(axis=1)
            np.copyto(rows[i:j], hit.argmax(axis=1) + r, where=hit.any(axis=1))
    ok = (counts == 1).all(axis=1)
    entries = stack[np.arange(k)[:, None], rows, np.arange(dim)]
    ok &= (np.abs(np.abs(entries) - 1.0) <= tol).all(axis=1)
    hits = np.bincount((rows + dim * np.arange(k)[:, None]).ravel(), minlength=k * dim)
    ok &= (hits.reshape(k, dim) == 1).all(axis=1)
    phases = np.zeros_like(entries)
    np.put_along_axis(phases, rows, entries, axis=1)
    return [GeneralizedPermutation(m, tuple(perm), tuple(ph), tol) if good else None
            for good, perm, ph in zip(ok.tolist(), rows.tolist(), phases.tolist())]


def detect_generalized_permutation(mat: np.ndarray, tol: float = DEFAULT_TOL):
    """Decompose into permutation + phases, or None if any column mixes."""
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    return detect_stack(mat[None], tol)[0]


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


def matrix_from_json(obj: dict) -> np.ndarray:
    """Parse {"dim": d, "entries": [[re, im], ...]} (row-major, length d**2)."""
    try:
        dim = int(obj["dim"])
        entries = obj["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    if dim < 1 or len(entries) != dim * dim:
        raise ValueError(f"expected {dim * dim} entries for dim={dim}, got {len(entries)}")
    flat = np.empty(dim * dim, dtype=complex)
    for idx, pair in enumerate(entries):
        if len(pair) != 2:
            raise ValueError(f"entry {idx} is not a [re, im] pair")
        flat[idx] = complex(float(pair[0]), float(pair[1]))
    if not np.all(np.isfinite(flat.view(float))):
        raise ValueError("matrix entries must be finite")
    return flat.reshape(dim, dim)
