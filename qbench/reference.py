"""Answers the benchmark checks jobs against, computed without qcorr.

Everything here is plain numpy on dense matrices, written from the
definitions in the README and the paper: the oracles as explicit
permutation matrices, a basis assignment as the Kronecker product of its
per-qubit matrices, and the counterpart as B^dagger U B tested column by
column.  It shares no code with the package it checks.
"""

from __future__ import annotations

import functools

import numpy as np

# Entries of B^dagger U B below this are zero, entries within it of modulus
# one are phases.  Rounding in the dense products stays near 1e-15, and a
# true non-zero entry of a mixing column is far larger, so the admitted set
# does not depend on where in that gap the threshold sits.
REF_TOL = 1e-6

CHI = np.eye(2, dtype=complex)
ETA = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)


def bits_of(value: int, n: int) -> tuple[int, ...]:
    """n bits of value, first bit most significant."""
    return tuple((value >> (n - 1 - j)) & 1 for j in range(n))


def int_of(bits) -> int:
    value = 0
    for b in bits:
        value = (value << 1) | int(b)
    return value


def bv_truth(n: int, k0: int, k_int: int) -> tuple[int, ...]:
    """Truth table of k0 XOR (k . x), first input bit most significant."""
    return tuple(k0 ^ (bin(x & k_int).count("1") & 1) for x in range(1 << n))


def perm_os(truth) -> tuple[int, ...]:
    """(x, y) -> (x, y XOR f(x)), query bit last."""
    return tuple((x << 1) | (y ^ f) for x, f in enumerate(truth) for y in (0, 1))


def perm_oa(truth, n: int) -> tuple[int, ...]:
    """(x, y) -> (x XOR c e_1, y) with c = f(0, rest) XOR f(1, rest)."""
    top = 1 << (n - 1)
    out = []
    for x in range(1 << n):
        rest = x & (top - 1)
        c = truth[rest] ^ truth[rest | top]
        for y in (0, 1):
            out.append(((x ^ (c * top)) << 1) | y)
    return tuple(out)


def perm_ob(k_int: int, n: int) -> tuple[int, ...]:
    """(x, y) -> (x XOR k, y)."""
    return tuple(((x ^ k_int) << 1) | y for x in range(1 << n) for y in (0, 1))


def perm_obtilde(k_int: int, n: int) -> tuple[int, ...]:
    """x -> x XOR k."""
    return tuple(x ^ k_int for x in range(1 << n))


def standard_matrix(truth) -> np.ndarray:
    perm = perm_os(truth)
    dim = len(perm)
    mat = np.zeros((dim, dim), dtype=complex)
    mat[list(perm), np.arange(dim)] = 1.0
    return mat


def phase_matrix(n: int, k_int: int) -> np.ndarray:
    """diag((-1)^(x.k)) on n qubits."""
    signs = [1 - 2 * (bin(x & k_int).count("1") & 1) for x in range(1 << n)]
    return np.diag(np.asarray(signs, dtype=complex))


def haar(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar unitary by QR of a complex Gaussian matrix.

    At dim 2 this is the documented construction behind
    ``random:COUNT:SEED``; the reference repeats it so that it sees the same
    bases as the search.
    """
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def word_basis(word: str) -> np.ndarray:
    """Basis matrix of a C/H word, first letter = qubit 0."""
    return kron_all(ETA if ch == "H" else CHI for ch in word)


@functools.lru_cache(maxsize=None)
def grid_assignments(m: int) -> tuple[tuple[str, np.ndarray], ...]:
    """(word, basis matrix) for every chi/eta word, in the order of the
    words read as binary numbers with C = 0."""
    words = ("".join("CH"[b] for b in bits_of(code, m)) for code in range(1 << m))
    return tuple((word, word_basis(word)) for word in words)


def random_assignments(m: int, count: int, seed: int):
    rng = np.random.default_rng(seed)
    for idx in range(count):
        yield f"random:{idx}", kron_all([haar(2, rng) for _ in range(m)])


def kron_all(mats) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for mat in mats:
        out = np.kron(out, mat)
    return out


def counterpart(u: np.ndarray, b: np.ndarray):
    """(perm, phases) of B^dagger U B, or None when a column mixes.

    As in the package, phases are indexed by the output string.
    """
    conj = b.conj().T @ u @ b
    mags = np.abs(conj)
    if not np.all((mags > REF_TOL).sum(axis=0) == 1):
        return None
    perm = np.argmax(mags, axis=0)
    if len(set(perm.tolist())) != len(perm):
        return None
    phases = np.empty(len(perm), dtype=complex)
    phases[perm] = conj[perm, np.arange(len(perm))]
    if np.max(np.abs(np.abs(phases) - 1.0)) > REF_TOL:
        return None
    return tuple(int(p) for p in perm), phases


def admitted(u: np.ndarray, assignments) -> list[tuple[str, tuple[int, ...]]]:
    """(name, perm) for every assignment whose counterpart exists, in order."""
    found = []
    for name, b in assignments:
        cp = counterpart(u, b)
        if cp is not None:
            found.append((name, cp[0]))
    return found


def perm_from_cycles(text: str, dim: int) -> tuple[int, ...]:
    """Inverse of disjoint-cycle notation: '(2 3)(4 5)' or 'id'."""
    perm = list(range(dim))
    if text == "id":
        return tuple(perm)
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"not cycle notation: {text!r}")
    for cycle in text[1:-1].split(")("):
        items = [int(v) for v in cycle.split()]
        for a, b in zip(items, items[1:] + items[:1]):
            perm[a] = b
    if sorted(perm) != list(range(dim)):
        raise ValueError(f"cycles do not form a permutation: {text!r}")
    return tuple(perm)


def paper_counts(problem: str, n: int) -> dict[str, int]:
    """Deterministic query counts the paper derives for the named oracles."""
    if problem == "bv":
        return {"O_S": n + 1, "O_B": 1, "O_Btilde": 1}
    return {"O_S": 1 << n, "O_A": 1 << (n - 1)}


def quantum_count(problem: str, n: int) -> int:
    return 1 if problem == "bv" else 1 << (n - 1)
