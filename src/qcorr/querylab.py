"""Exact deterministic query complexity, quantum query counting, and the
speed-up report comparing a quantum oracle against every classical
counterpart it induces.

Classical query model: one query submits a full m-bit input string and
observes the full m-bit output string (reversible-gate semantics); phases
are invisible to a classical user, so a classical family is a perm table.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .matrixcore import (_SQRT2_INV, GeneralizedPermutation, SizeLimitError, _checked_perms,
                         hadamard_layer)
from .oracleforge import (
    BooleanFunction,
    BVInstance,
    bv_truths,
    perms_OA,
    perms_OB,
    perms_OBtilde,
    perms_OS,
    phase_oracle,
    standard_oracle,
)
from .correspondence import DEFAULT_TOL, PauliGrid, _check_space, _FlipTables

MAX_HYPOTHESES = 65536
MAX_QUERY_BITS = 12
PARITY_SEARCH_LIMIT = 2
BV_SEARCH_LIMIT = 6
# The largest n each quantum run simulates.
PARITY_SIMULATION_LIMIT = 12
BV_SIMULATION_LIMIT = 16


@dataclass(frozen=True)
class Hypothesis:
    ident: int
    instance: BooleanFunction | BVInstance
    label: object


@dataclass(frozen=True)
class ProblemSpec:
    """A promise problem as an explicit hypothesis list with labels."""

    name: str
    n: int
    hypotheses: tuple[Hypothesis, ...]

    def __post_init__(self):
        if not self.hypotheses:
            raise ValueError("a problem needs at least one hypothesis")
        # A catalogued problem's oracles are built from its instances, which
        # must then be of its own kind and size.
        if self.name in PROBLEMS:
            kind = PROBLEMS[self.name][1]
            for h in self.hypotheses:
                if not (isinstance(h.instance, kind) and h.instance.n == self.n):
                    raise ValueError(
                        f"a {self.name} problem on n={self.n} needs {kind.__name__} "
                        f"instances on n={self.n}; hypothesis {h.ident} is not one")

    def labels(self) -> list:
        return [h.label for h in self.hypotheses]


def iter_boolean_functions(n: int):
    """All 2**(2**n) truth tables on n bits, in truth-table integer order."""
    size = 1 << n
    for code in range(1 << size):
        truth = tuple((code >> (size - 1 - i)) & 1 for i in range(size))
        yield BooleanFunction(n, truth)


def iter_bv_instances(n: int):
    """All 2**(n+1) promise instances (k0, k), k enumerated numerically."""
    ks = [tuple((k_int >> (n - 1 - j)) & 1 for j in range(n)) for k_int in range(1 << n)]
    for k0 in (0, 1):
        for k in ks:
            yield BVInstance(n, k0, k)


def _problem(name: str, n: int, limit: int, instances, label) -> ProblemSpec:
    """Every instance on n bits, labelled, once n is within 1 .. limit."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n > limit:
        raise SizeLimitError(f"exact {name} search is limited to n <= {limit} (got n={n})")
    hyps = tuple(Hypothesis(i, inst, label(inst)) for i, inst in enumerate(instances(n)))
    return ProblemSpec(name, n, hyps)


# Each limit is read at call time, so a limit patched in process applies.
def parity_problem(n: int) -> ProblemSpec:
    """Decide whether a function takes the value 1 an even or odd number of
    times; hypotheses are all truth tables on n bits."""
    return _problem("parity", n, PARITY_SEARCH_LIMIT, iter_boolean_functions,
                    BooleanFunction.parity)


def bv_problem(n: int) -> ProblemSpec:
    """Identify the hidden string k of a promised affine function."""
    return _problem("bv", n, BV_SEARCH_LIMIT, iter_bv_instances, lambda inst: inst.k)


# Compared by identity: numpy arrays have no dataclass equality.
@dataclass(frozen=True, eq=False)
class ClassicalOracleFamily:
    """One classical oracle per hypothesis, all over the same m bits, as a
    read-only (k, 2^m) intp table: row i maps hypothesis i's inputs to its
    outputs, with no phases.  ``perms`` is given as k rows, each a
    GeneralizedPermutation or integers, and is copied and checked once."""

    name: str
    m: int
    perms: np.ndarray

    def __post_init__(self):
        perms = self.perms
        if not isinstance(perms, np.ndarray):
            perms = [r._perm if isinstance(r, GeneralizedPermutation) else r for r in perms]
        object.__setattr__(self, "perms", _checked_perms(self.m, np.array(perms), 2)[0])


def _unchecked_family(name: str, m: int, perms: np.ndarray) -> ClassicalOracleFamily:
    """A family on a read-only intp table already checked: ``_unchecked``'s twin."""
    family = object.__new__(ClassicalOracleFamily)
    family.__dict__.update(name=name, m=m, perms=perms)
    return family


def _truths(problem: ProblemSpec) -> np.ndarray:
    """The (k, 2^n) truth table whose row i is hypothesis i's function."""
    insts = [h.instance for h in problem.hypotheses]
    if problem.name == "bv":
        return bv_truths(problem.n, [i.k0 for i in insts], [i.k_int for i in insts])
    return np.array([f.truth for f in insts])


def _k_ints(problem: ProblemSpec) -> list[int]:
    return [h.instance.k_int for h in problem.hypotheses]


# CLI name -> (family name, the (k, 2^m) perm table of a problem's
# hypotheses, the problems the oracle is defined on).  O_B and O_Btilde
# shift by the hidden string.
ORACLES = {
    "OS": ("O_S", lambda p: perms_OS(_truths(p)), ("parity", "bv")),
    "OA": ("O_A", lambda p: perms_OA(_truths(p)), ("parity", "bv")),
    "OB": ("O_B", lambda p: perms_OB(p.n, _k_ints(p)), ("bv",)),
    "OBT": ("O_Btilde", lambda p: perms_OBtilde(p.n, _k_ints(p)), ("bv",)),
}

# Problem name -> (its constructor from n, the type of its instances, the
# quantum run on one instance, the named oracles a speed-up report shows).
# The quantum runs look the algorithm up in this module's globals at call
# time, so a patched run_bv_quantum or run_parity_quantum (a profiler's span,
# a test's counter) is the one called.
PROBLEMS = {
    "parity": (parity_problem, BooleanFunction, lambda f: run_parity_quantum(f), ("OS", "OA")),
    "bv": (bv_problem, BVInstance, lambda inst: run_bv_quantum(inst), ("OS", "OB")),
}


def named_family(problem: ProblemSpec, oracle: str) -> ClassicalOracleFamily:
    """The named classical oracle ``oracle`` (a key of ORACLES) of every
    hypothesis, as one family: its perms are built as one fresh (k, 2^m)
    table, checked in one pass and held as the family's own, with no copy."""
    if oracle not in ORACLES:
        raise ValueError(f"unknown oracle {oracle!r}")
    name, perms_of, domain = ORACLES[oracle]
    if problem.name not in domain:
        raise ValueError(f"{oracle} is only defined for the {' and '.join(domain)} problem")
    perms = perms_of(problem)
    m = perms.shape[1].bit_length() - 1
    return _unchecked_family(name, m, _checked_perms(m, perms, 2)[0])


def _extracted_families(standard: ClassicalOracleFamily, space, tol: float):
    """(word, family) per word of ``space``, the grid or one C/H word, that
    admits every hypothesis's standard oracle: the perms of the O_S family
    ``standard``, plain permutations.  The space is checked once, the
    tables are built with no phases, since a family keeps none, and each
    family wraps its rows of a perm table ``_FlipTables.counterparts``
    builds."""
    words = _check_space(space, standard.m)
    if words is None:
        raise ValueError("a counterpart family needs the grid or a word over C and H")
    tables = _FlipTables(standard.perms, None, tol)
    found = tables.counterparts(words)
    return ((word, _unchecked_family(word, standard.m, table)) for word, _, table, _, _ in found)


def family_extracted(problem: ProblemSpec, bases, tol: float = DEFAULT_TOL):
    """The standard oracle's counterpart family under one C/H word, or None
    when extraction fails for any hypothesis; other bases raise ValueError."""
    return next(_extracted_families(named_family(problem, "OS"), tuple(bases), tol),
                (None, None))[1]


def _minimax(problem: ProblemSpec, family: ClassicalOracleFamily):
    """The bitmask search behind the query count and its witness tree.

    Returns ``(count, depth, memo, queries, labels)``.  Hypotheses with
    identical rows answer every query alike, so the family is infinite
    exactly when two of them have different labels: then ``(inf, None, {},
    [], [])`` comes back at once, with no partition built and no search.
    Otherwise a hypothesis whose row repeats an earlier one's, under the
    same label, changes no depth and no tree and is dropped.  The bits of a
    set mask are laid out label by label over the hypotheses kept (labels in
    order of first appearance, hypotheses in order within a label), so each
    label is one run of adjacent bits, and ``labels[i]`` is the label of bit
    i.  ``count`` is the exact cost of the full set, ``depth(mask)`` that of
    any set, and ``memo`` maps each set the search solved to its cost (a
    label-pure set costs 0 and is not held).  ``queries`` holds ``(query
    string, {output: mask})`` per distinct partition, for the first query
    string with it: of the query columns that differ by one constant XOR
    over the kept rows, which relabels outputs one to one, only the first
    is partitioned.  A search too deep to recurse raises SizeLimitError.
    """
    hyps = problem.hypotheses
    if len(family.perms) != len(hyps):
        raise ValueError("family size does not match hypothesis count")
    if len(hyps) > MAX_HYPOTHESES:
        raise SizeLimitError(f"hypothesis count {len(hyps)} exceeds {MAX_HYPOTHESES}")
    if family.m > MAX_QUERY_BITS:
        raise SizeLimitError(f"query width {family.m} exceeds {MAX_QUERY_BITS} bits")

    # The quotient: each row as one bytes object, and a set of them to see
    # at C speed whether any two rows are equal.  Every entry is below
    # 2^MAX_QUERY_BITS, so two bytes an entry keep rows apart exactly.
    table = np.ascontiguousarray(family.perms, dtype=np.uint16)
    rows = table.view(np.dtype((np.void, table.shape[1] * table.itemsize))).ravel().tolist()
    hyp_labels = problem.labels()
    if len(set(rows)) < len(rows):
        first: dict = {}
        keep = []
        for i, (row, label) in enumerate(zip(rows, hyp_labels)):
            j = first.setdefault(row, i)
            if j == i:
                keep.append(i)
            elif hyp_labels[j] != label:
                return math.inf, None, {}, [], []
        table = table[keep]
        hyp_labels = [hyp_labels[i] for i in keep]

    by_label: dict = {}
    for i, label in enumerate(hyp_labels):
        by_label.setdefault(label, []).append(i)
    bits = [0] * len(hyp_labels)
    labels, run_of = [], []
    # tops holds the last bit of each label's run and ones every other bit,
    # so (s & ones) + ones carries into a run's top bit iff s meets the run
    # below it, and the labels of s are the top bits of that sum | s.
    ones = tops = 0
    for label, members in by_label.items():
        start, size = len(labels), len(members)
        run = ((1 << size) - 1) << start
        for pos, i in enumerate(members, start):
            bits[i] = 1 << pos
        labels += [label] * size
        run_of += [run] * size
        tops |= 1 << (start + size - 1)
        ones |= run
    ones ^= tops

    # Column q of the output table is query string q's answer per
    # hypothesis.  Two columns whose XOR with the first row's entries is the
    # same differ by one constant XOR, which relabels their outputs one to
    # one, so they have the same partition: only the first column of each
    # such key is partitioned.  The first column with a given partition is
    # XOR-equal to no earlier one, so ``queries`` keeps exactly the first
    # column of each partition either way.
    shifted = np.ascontiguousarray((table ^ table[0]).T)
    col_keys = shifted.view(np.dtype((np.void, shifted.shape[1] * shifted.itemsize)))
    first_col: dict = {}
    for q, col_key in enumerate(col_keys.ravel().tolist()):
        first_col.setdefault(col_key, q)
    cols = list(first_col.values())
    # Outputs keep their order of first appearance in the hypothesis order,
    # which the tree's branches follow.
    queries = []
    seen = set()
    for q, column in zip(cols, table[:, cols].T.tolist()):
        parts: dict[int, int] = {}
        for bit, out in zip(bits, column):
            parts[out] = parts.get(out, 0) | bit
        key = frozenset(parts.values())
        if len(parts) > 1 and key not in seen:
            seen.add(key)
            queries.append((q, parts))
    partitions = [tuple(parts.values()) for _, parts in queries]
    # A depth-d tree whose queries have at most b outputs has at most b^d
    # leaves, and a set with L labels needs L label-pure leaves.
    branching = max(map(len, partitions), default=2)
    memo: dict[int, float] = {}

    def label_count(s: int) -> int:
        return ((((s & ones) + ones) | s) & tops).bit_count()

    def depth(s: int):
        if s & run_of[(s & -s).bit_length() - 1] == s:
            return 0
        cached = memo.get(s)
        if cached is not None:
            return cached
        count = label_count(s)
        bound, leaves = 0, 1
        while leaves < count:
            bound, leaves = bound + 1, leaves * branching
        # A part with more than b^(bound-1) labels has the set's own bound,
        # so a query leaving one costs at least bound + 1.
        floor = leaves // branching
        best = math.inf
        for masks in partitions:
            # A set inside the first part is not split: skipped before any
            # part is formed.
            if s & masks[0] == s:
                continue
            kids = [kid for mask in masks if (kid := s & mask)]
            if len(kids) < 2:
                continue
            if best == bound + 1 and any(label_count(kid) > floor for kid in kids):
                continue
            kids.sort(key=int.bit_count, reverse=True)
            worst = 0
            # best is at least 2 here (a best of 1 meets every bound and
            # ends the loop), so only a deeper kid can reach it.
            for kid in kids:
                d = depth(kid)
                if d > worst:
                    worst = d
                    if worst + 1 >= best:
                        break
            else:
                best = worst + 1
                if best <= bound:
                    break
        memo[s] = best
        return best

    try:
        return depth((1 << len(labels)) - 1), depth, memo, queries, labels
    except RecursionError:
        # One frame per level of nested sets: a family whose queries peel off
        # one hypothesis at a time nests as deep as the hypothesis count.
        raise SizeLimitError(
            f"minimax search over {len(labels)} hypotheses nests deeper "
            f"than Python's recursion limit ({sys.getrecursionlimit()})"
        ) from None


def deterministic_query_complexity(problem: ProblemSpec, family: ClassicalOracleFamily):
    """Depth of the best adaptive deterministic decision tree.

    First the identical-row quotient: the family is infinite exactly when
    two hypotheses with different labels have the same row, which one pass
    over the rows' bytes decides with no search, and a row repeated under
    one label is searched once.  Then minimax over hypothesis sets held as
    int bitmasks, with the bits laid
    out so that each label is one run of adjacent bits: a set costs 0 when
    it lies in one run, else 1 plus the best worst-case cost over the
    nonempty parts ``S & mask`` of some query's output partition.  Query
    columns of the family's output table whose entries differ by one
    constant XOR in every kept row have the same partition, so only the
    first of each such group is turned into its partition, once (for
    ``O_S``, y=0 and y=1 pair up; ``O_B`` and ``O_Btilde`` keep one
    column).  Queries that do not split the full set are dropped and
    queries with the same partition are merged.
    A set's L labels are counted in four big-int operations on its mask,
    and give the counting bound ceil(log_b L), with b the most outputs of
    any query: a shallower tree has fewer than L leaves.  At a set, the
    largest part is searched first, and the loop stops once the best depth
    meets the bound.  Once the best depth is the bound plus one, a query is
    skipped unsearched when one of its parts still has the set's bound,
    since it cannot do better.  Every memoized depth stays exact.
    Returns math.inf when no query sequence can separate the labels.
    """
    return _minimax(problem, family)[0]


def decision_tree(problem: ProblemSpec, family: ClassicalOracleFamily):
    """An optimal decision tree, or None when the labels cannot be separated.

    A leaf is a label.  An inner node is ``(query, {output: subtree})``:
    submit the query string and follow the branch of the observed output.
    The tree is read back from the depths the count's search memoized: at
    a set of depth d it asks the first query that splits the set into two
    or more parts, all of depth below d, so its depth is the query count.
    """
    count, depth, _, queries, labels = _minimax(problem, family)

    def build(s: int, d):
        if d == 0:
            return labels[(s & -s).bit_length() - 1]
        for q, parts in queries:
            kids = {out: s & mask for out, mask in parts.items() if s & mask}
            if len(kids) > 1 and all(depth(kid) < d for kid in kids.values()):
                return q, {out: build(kid, depth(kid)) for out, kid in kids.items()}

    return None if math.isinf(count) else build((1 << len(labels)) - 1, count)


def _assert_normalized(sq_norms, tol: float = DEFAULT_TOL):
    """Each state whose squared norm is an entry of ``sq_norms`` (one, or an
    array) has unit norm within tol; a NaN norm fails."""
    norms = np.atleast_1d(np.sqrt(sq_norms))
    drift = np.abs(norms - 1.0)
    if not (drift <= tol).all():
        raise RuntimeError(f"statevector norm drifted to {float(norms[np.argmax(drift)])}")


def _squared_norm(state: np.ndarray) -> float:
    """The squared norm of a C-ordered float64 statevector, as dot products
    over rows of at most 2^13 amplitudes, summed: OpenBLAS runs a dot
    product of up to 10000 entries on the calling thread."""
    rows = state.reshape(-1, min(state.size, 1 << 13))
    return np.vecdot(rows, rows).sum()


def check_simulation_size(algorithm: str, n: int, limit: int) -> None:
    """Refuse a quantum run of ``algorithm`` on n > ``limit`` bits, the one
    message for both runs and for the command line, which checks a parity
    ``--truth`` before it builds the function."""
    if n > limit:
        raise SizeLimitError(f"{algorithm} simulation limited to n <= {limit} (got n={n})")


def run_bv_quantum(inst: BVInstance, tol: float = DEFAULT_TOL):
    """One-query identification of k: H on all qubits, the phase oracle,
    H again; the final state is exactly the basis state for k: one amplitude
    within tol of unit modulus, every other within tol of zero.

    Every amplitude of the run is real: H^n|0...0> is the uniform float64
    amplitude broadcast over 2^n entries, and the oracle's phases are ±1,
    held as float64, so its output is a float64 state, the one state buffer
    of the run (512 KiB at n = 16): the Hadamard layer runs on it in place,
    and the final magnitudes are read in place too.  At even n every
    amplitude is a dyadic rational, so the run is exact."""
    check_simulation_size("bv", inst.n, BV_SIMULATION_LIMIT)
    n = inst.n
    uniform = np.broadcast_to(2.0 ** (-n / 2), 1 << n)
    state = phase_oracle(inst).apply(uniform)
    _assert_normalized(_squared_norm(state), tol)
    hadamard_layer(state, n)
    _assert_normalized(_squared_norm(state), tol)
    mags = np.abs(state, out=state)
    idx = int(np.argmax(mags))
    if not (abs(mags[idx] - 1.0) <= tol and np.count_nonzero(mags > tol) <= 1):
        raise RuntimeError("final state is not a computational basis state")
    k = tuple((idx >> (n - 1 - j)) & 1 for j in range(n))
    return k, 1


def run_parity_quantum(f: BooleanFunction, tol: float = DEFAULT_TOL):
    """Parity in 2**(n-1) queries, one per setting r of the trailing n-1
    input bits: query r puts the first input qubit a in the Hadamard-basis 0
    state and the query qubit y in the Hadamard-basis 1 state, and reads a
    back in the Hadamard basis as f(0, r) XOR f(1, r).  Its state spans the
    strings (a, r, y), which an oracle that writes only y maps onto
    themselves, so all queries share one state of 2^m amplitudes, one oracle
    call and one Hadamard on qubit 0.  Query r is slice [:, r, :] of the
    (2, 2^(n-1), 2) view; its norm and readout are checked on their own.
    The state is float64: every amplitude is ±1/2 and every phase 1.  H on
    qubit 0 is the sum and the difference of the scaled halves a = 0 and
    a = 1, so the a = 1 half is 0 where f(0, r) = f(1, r), else ±1/√2."""
    check_simulation_size("parity", f.n, PARITY_SIMULATION_LIMIT)
    n = f.n
    oracle = standard_oracle(f)
    gp = oracle.permutation
    # An oracle that moved some string's input bits would mix two queries.
    if gp is None or ((gp._perm ^ np.arange(2 << n)) > 1).any():
        raise RuntimeError("oracle does not keep the input bits of every string")
    # |+>|r>|-> for every r: amplitude 1/2 at y = 0 and -1/2 at y = 1.
    state = np.empty((1 << n, 2))
    state[:] = 0.5, -0.5
    out = oracle.apply(state.reshape(-1)).reshape(2, -1, 2)
    queries = out.shape[1]
    if queries != 1 << (n - 1):
        raise RuntimeError(f"made {queries} kickback queries, expected {1 << (n - 1)}")
    # p[a, r] is the probability of first bit a in query r.
    p = np.vecdot(out, out)
    _assert_normalized(p[0] + p[1], tol)
    out *= _SQRT2_INV
    a, b = out
    out = np.stack((a + b, a - b))
    p = np.vecdot(out, out)
    _assert_normalized(p[0] + p[1], tol)
    if not (np.minimum(p[1], 1.0 - p[1]) <= tol).all():
        raise RuntimeError("kickback readout is not deterministic")
    return int(np.count_nonzero(p[1] > 0.5)) & 1, queries


@dataclass(frozen=True)
class QueryReport:
    """Classical query counts for every counterpart, next to the quantum
    count, with the naive and genuine speed-up ratios."""

    problem: str
    n: int
    entries: tuple[tuple[str, float], ...]
    quantum_queries: int
    naive_speedup: float
    genuine_speedup: float

    def as_dict(self) -> dict:
        return {
            "problem": self.problem,
            "n": self.n,
            "entries": [
                {"oracle": name, "queries": None if math.isinf(d) else int(d)}
                for name, d in self.entries
            ],
            "quantum_queries": self.quantum_queries,
            "naive_speedup": self.naive_speedup,
            "genuine_speedup": self.genuine_speedup,
        }


def speedup_report(problem: ProblemSpec, tol: float = DEFAULT_TOL) -> QueryReport:
    """Audit a problem for genuine quantum advantage.

    Counts queries for the named classical oracles and for every counterpart
    family the chi/eta grid yields over the standard oracle (a word is
    admissible only if extraction succeeds for every hypothesis); families
    that cannot separate the labels appear with an infinite count and do not
    enter the genuine-speed-up minimum.  The families are extracted as plain
    perm tables, with no phases, one at a time, and most are infinite: the
    count's identical-row quotient decides each of those with no search.
    """
    if problem.name not in PROBLEMS:
        raise ValueError(f"unknown problem {problem.name!r}")
    _, _, run_quantum, shown = PROBLEMS[problem.name]
    _, quantum = run_quantum(problem.hypotheses[0].instance)
    named = {oracle: named_family(problem, oracle) for oracle in shown}
    entries = [(ORACLES[oracle][0], deterministic_query_complexity(problem, fam))
               for oracle, fam in named.items()]
    # Counted as extracted; the all-chi word changes no basis, so it has O_S's count.
    entries += ((word, entries[0][1] if "H" not in word else
                 deterministic_query_complexity(problem, fam))
                for word, fam in _extracted_families(named["OS"], PauliGrid(), tol))

    d_standard = entries[0][1]
    finite = [d for _, d in entries if not math.isinf(d)]
    if not finite:
        raise ValueError("no classical family can separate the labels of this problem")
    return QueryReport(
        problem=problem.name,
        n=problem.n,
        entries=tuple(entries),
        quantum_queries=quantum,
        naive_speedup=d_standard / quantum,
        genuine_speedup=min(finite) / quantum,
    )
