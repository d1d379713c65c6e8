"""Oracle constructors: quantum standard/phase oracles and their named
classical relatives, all built from Boolean functions or promise strings.

A function on n bits acts on registers indexed big-endian (bit 1 of the
input string is the most significant index bit).  Oracles over n+1 bits put
the query/target bit last (least significant).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .matrixcore import (DEFAULT_TOL, GeneralizedPermutation, _identity, _json_int, _kept,
                         _unchecked, num_bits)


def _bits(values, what: str) -> tuple[int, ...]:
    """``values`` as a tuple of Python ints, each 0 or 1: an int, a bool or a
    numpy integer is taken by its index, and a float or string is refused,
    so every bit prints and reads back as a JSON integer."""
    try:
        bits = tuple(map(operator.index, values))
        if {0, 1}.issuperset(bits):
            return bits
    except TypeError:
        pass
    raise ValueError(f"{what} must be bits")


def _width(n) -> int:
    """``n`` as a Python int at least 1, taken by its index as a bit is, so
    that it prints and reads back as a JSON integer."""
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"n must be an integer, got {n!r}") from None
    if n < 1:
        raise ValueError("need n >= 1 input bits")
    return n


@dataclass(frozen=True)
class BooleanFunction:
    """Truth table of f: {0,1}^n -> {0,1}, indexed with the first bit as MSB."""

    n: int
    truth: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", _width(self.n))
        if len(self.truth) != 1 << self.n:
            raise ValueError(f"truth table length must be 2**n = {1 << self.n}")
        object.__setattr__(self, "truth", _bits(self.truth, "truth table entries"))

    def __call__(self, x: int) -> int:
        if not 0 <= x < len(self.truth):
            raise IndexError(f"input {x} outside 0 .. {len(self.truth) - 1}")
        return self.truth[x]

    def parity(self) -> int:
        """Parity of the number of inputs mapped to 1."""
        return sum(self.truth) & 1

    def to_json(self) -> dict:
        return {"n": self.n, "truth": list(self.truth)}

    @classmethod
    def from_json(cls, obj: dict) -> "BooleanFunction":
        try:
            return cls(_json_int(obj["n"], "n"),
                       tuple(_json_int(b, "truth entry") for b in obj["truth"]))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed function object: {exc}") from exc


@dataclass(frozen=True)
class BVInstance:
    """Promise parameters: f(x) = k0 XOR (k . x), with k the hidden string."""

    n: int
    k0: int
    k: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", _width(self.n))
        if len(self.k) != self.n:
            raise ValueError("k must have length n >= 1")
        bits = _bits((self.k0, *self.k), "k0 and k entries")
        object.__setattr__(self, "k0", bits[0])
        object.__setattr__(self, "k", bits[1:])

    @property
    def k_int(self) -> int:
        """k packed into an integer, first bit most significant."""
        value = 0
        for b in self.k:
            value = (value << 1) | b
        return value

    def to_json(self) -> dict:
        return {"n": self.n, "k0": self.k0, "k": list(self.k)}

    @classmethod
    def from_json(cls, obj: dict) -> "BVInstance":
        try:
            return cls(_json_int(obj["n"], "n"), _json_int(obj["k0"], "k0"),
                       tuple(_json_int(b, "k entry") for b in obj["k"]))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed promise object: {exc}") from exc


def _dot_parities(n: int, k_int) -> np.ndarray:
    """(k . x) mod 2 for every x on n bits, along a last axis of 2^n; k_int
    is one packed k or an array of them, one per leading index."""
    # bitwise_count returns uint8: callers widen before any sign or shift.
    return np.bitwise_count(np.arange(1 << n) & np.asarray(k_int)[..., None]) & 1


def bv_truths(n: int, k0, k_int) -> np.ndarray:
    """Truth tables of k0 XOR (k . x) on n bits, along a last axis of 2^n;
    k0 and k_int are one instance's values or arrays of them."""
    return np.asarray(k0, dtype=np.intp)[..., None] ^ _dot_parities(n, k_int)


def bv_function(inst: BVInstance) -> BooleanFunction:
    """Truth table of the promised function k0 XOR (k . x)."""
    return BooleanFunction(inst.n, tuple(bv_truths(inst.n, inst.k0, inst.k_int).tolist()))


class OracleAction:
    """Unitary on m qubits presented by its action on statevectors.

    Backed either by a GeneralizedPermutation (applied in O(2^m)) or by a
    dense matrix.  Matrix-backed actions are spot-checked for norm
    preservation on a few fixed random states at construction.
    """

    def __init__(self, m: int, *, permutation: GeneralizedPermutation | None = None,
                 matrix: np.ndarray | None = None):
        if (permutation is None) == (matrix is None):
            raise ValueError("provide exactly one of permutation or matrix")
        self.m = m
        self.permutation = permutation
        self._matrix = None if matrix is None else np.asarray(matrix, dtype=complex)
        if self._matrix is not None:
            if self._matrix.shape != (1 << m, 1 << m):
                raise ValueError(f"matrix shape {self._matrix.shape} does not match m={m}")
            self._check_norm_preservation()
        elif permutation.m != m:
            raise ValueError(f"permutation is on {permutation.m} bits, expected {m}")

    def _check_norm_preservation(self, tol: float = DEFAULT_TOL):
        rng = np.random.default_rng(0xC0FFEE)
        for _ in range(3):
            v = rng.normal(size=self.dim) + 1j * rng.normal(size=self.dim)
            v /= np.linalg.norm(v)
            with np.errstate(all="ignore"):  # overflow gives inf or NaN, which fail
                if not abs(np.linalg.norm(self._matrix @ v) - 1.0) <= tol:
                    raise ValueError("matrix action does not preserve state norm")

    @classmethod
    def from_permutation(cls, gp: GeneralizedPermutation) -> "OracleAction":
        return cls(gp.m, permutation=gp)

    @classmethod
    def from_matrix(cls, mat: np.ndarray) -> "OracleAction":
        mat = np.asarray(mat, dtype=complex)
        return cls(num_bits(mat.shape[0]), matrix=mat)

    @property
    def dim(self) -> int:
        return 1 << self.m

    def apply(self, state: np.ndarray) -> np.ndarray:
        if self.permutation is not None:
            return self.permutation.apply(state)
        return self._matrix @ np.asarray(state, dtype=complex)

    def as_matrix(self) -> np.ndarray:
        if self.permutation is not None:
            return self.permutation.as_matrix()
        return self._matrix.copy()


def standard_oracle(f: BooleanFunction) -> OracleAction:
    """(x, y) |-> (x, y XOR f(x)) on n+1 qubits, all phases 1.

    The map is valid by construction, so it is built unchecked: the perm
    flips y by a bit of f, an involution and so its own inverse, and the
    phases are the shared read-only float64 ones of ``_ones``.  Every entry
    of ``f.truth`` is the int 0 or 1, so the table is read as bytes.  At
    n = 12 the build holds the 64 KiB perm and peaks at about 132 KiB under
    ``tracemalloc``."""
    m = f.n + 1
    perm = perms_OS(np.frombuffer(bytes(f.truth), np.uint8))
    perm.flags.writeable = False
    return OracleAction.from_permutation(_unchecked(m, perm, perm, _ones(m)))


@_kept
def _ones(m: int) -> np.ndarray:
    """2^m float64 phases of 1."""
    return np.ones(1 << m)


def phase_oracle(inst: BVInstance) -> OracleAction:
    """|x> |-> (-1)^(x.k) |x> on n qubits; k0 only shifts the global phase
    and is dropped.

    The ±1 signs are real, so they are written straight into a float64
    table, as the storage rule holds them: 512 KiB at n = 16, in about
    25 us, kept with the hidden string (see ``_kept``).  The perm and its
    inverse are the one kept identity perm of n, so ``apply`` knows the map
    as diagonal and multiplies a state by the signs, with no gather."""
    # The identity is its own inverse.
    perm = _identity(inst.n)
    return OracleAction.from_permutation(_unchecked(inst.n, perm, perm, _signs(inst.n, inst.k)))


@_kept
def _signs(n: int, k: tuple[int, ...]) -> np.ndarray:
    """The float64 table of (-1)^(x.k) over every x of n bits."""
    # The sign of x on its last j + 1 bits is that on its last j, flipped
    # where bit j of x and k is set.
    signs = np.empty(1 << n)
    signs[0] = 1.0
    for j, bit in enumerate(reversed(k)):
        half = signs[:1 << j]
        if bit:
            np.negative(half, out=signs[1 << j:2 << j])
        else:
            signs[1 << j:2 << j] = half
    return signs


# Each named oracle's perm is written once, over any leading axes: one
# truth table (or one packed k) gives one perm, a (k, 2^n) table gives k,
# as a C-ordered table: the family code reads it row by row.
def perms_OS(truth) -> np.ndarray:
    """(x, y) |-> (x, y XOR f(x)) on n+1 bits, per truth table of f along
    the last axis."""
    perms = np.repeat(np.asarray(truth, dtype=np.intp), 2, axis=-1)
    perms ^= np.arange(perms.shape[-1])
    return perms


def perms_OA(truth) -> np.ndarray:
    """(x, y) |-> (x XOR c, y) on n+1 bits, where the first bit of x flips by
    c = f(0, rest) XOR f(1, rest), per truth table of f along the last axis."""
    truth = np.asarray(truth, dtype=np.intp)
    n = num_bits(truth.shape[-1])
    top = 1 << (n - 1)
    xy = np.arange(2 << n)
    perms = np.take(truth[..., :top] ^ truth[..., top:], (xy >> 1) & (top - 1), axis=-1)
    perms <<= n
    perms ^= xy
    return perms


def perms_OB(n: int, k_int) -> np.ndarray:
    """(x, y) |-> (x XOR k, y) on n+1 bits, per packed k."""
    return np.arange(2 << n) ^ (np.asarray(k_int)[..., None] << 1)


def perms_OBtilde(n: int, k_int) -> np.ndarray:
    """x |-> x XOR k on n bits, per packed k."""
    return np.arange(1 << n) ^ np.asarray(k_int)[..., None]

