"""Oracle constructors: quantum standard/phase oracles and their named
classical relatives, all built from Boolean functions or promise strings.

A function on n bits acts on registers indexed big-endian (bit 1 of the
input string is the most significant index bit).  Oracles over n+1 bits put
the query/target bit last (least significant).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrixcore import DEFAULT_TOL, GeneralizedPermutation, _json_int, num_bits


@dataclass(frozen=True)
class BooleanFunction:
    """Truth table of f: {0,1}^n -> {0,1}, indexed with the first bit as MSB."""

    n: int
    truth: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need n >= 1 input bits")
        if len(self.truth) != 1 << self.n:
            raise ValueError(f"truth table length must be 2**n = {1 << self.n}")
        if any(b not in (0, 1) for b in self.truth):
            raise ValueError("truth table entries must be bits")

    def __call__(self, x: int) -> int:
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
        if self.n < 1 or len(self.k) != self.n:
            raise ValueError("k must have length n >= 1")
        if self.k0 not in (0, 1) or any(b not in (0, 1) for b in self.k):
            raise ValueError("k0 and k entries must be bits")

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


def _dot_parity(a: int, b: int) -> int:
    return bin(a & b).count("1") & 1


def bv_function(inst: BVInstance) -> BooleanFunction:
    """Truth table of the promised function k0 XOR (k . x)."""
    truth = tuple(inst.k0 ^ _dot_parity(x, inst.k_int) for x in range(1 << inst.n))
    return BooleanFunction(inst.n, truth)


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
    """(x, y) |-> (x, y XOR f(x)) on n+1 qubits, all phases 1."""
    return OracleAction.from_permutation(classical_OS(f))


def phase_oracle(inst: BVInstance) -> OracleAction:
    """|x> |-> (-1)^(x.k) |x> on n qubits; k0 only shifts the global phase
    and is dropped."""
    dim = 1 << inst.n
    # bitwise_count returns uint8: the signs are taken in floats, where
    # 1 - 2 * 1 is -1 and not 255.
    parity = np.bitwise_count(np.arange(dim) & inst.k_int) & 1
    gp = GeneralizedPermutation(inst.n, np.arange(dim), 1.0 - 2.0 * parity)
    return OracleAction.from_permutation(gp)


def classical_OS(f: BooleanFunction) -> GeneralizedPermutation:
    """Standard classical oracle: (x, y) |-> (x, y XOR f(x))."""
    m = f.n + 1
    xy = np.arange(1 << m)
    return GeneralizedPermutation(m, xy ^ np.asarray(f.truth)[xy >> 1], np.ones(1 << m))


def classical_OA(f: BooleanFunction) -> GeneralizedPermutation:
    """Flip oracle: (x, y) |-> (x XOR c, y) where the first bit of x flips by
    c = f(0, rest) XOR f(1, rest), independent of y."""
    m = f.n + 1
    top = 1 << (f.n - 1)
    truth = np.asarray(f.truth)
    xy = np.arange(1 << m)
    rest = (xy >> 1) & (top - 1)
    c = truth[rest] ^ truth[rest | top]
    return GeneralizedPermutation(m, xy ^ (c << f.n), np.ones(1 << m))


def classical_OB(inst: BVInstance) -> GeneralizedPermutation:
    """Shift oracle: (x, y) |-> (x XOR k, y) on n+1 bits."""
    m = inst.n + 1
    return GeneralizedPermutation(m, np.arange(1 << m) ^ (inst.k_int << 1), np.ones(1 << m))


def classical_OBtilde(inst: BVInstance) -> GeneralizedPermutation:
    """Query-bit-free shift oracle: x |-> x XOR k on n bits."""
    dim = 1 << inst.n
    return GeneralizedPermutation(inst.n, np.arange(dim) ^ inst.k_int, np.ones(dim))
