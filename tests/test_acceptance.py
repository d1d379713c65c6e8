"""End-to-end acceptance checks, one test per numbered criterion.

Each criterion prints a single pass/fail line; the lines are echoed in the
terminal summary (run with -s to also see them inline).  Expected values are
frozen here from independent brute-force derivations, not from module calls.
"""

from contextlib import contextmanager

import numpy as np

from qcorr.matrixcore import (
    GeneralizedPermutation,
    HADAMARD,
    apply_single_qubit,
    detect_generalized_permutation,
    gate,
    random_unitary,
)
from qcorr.oracleforge import (
    BooleanFunction,
    BVInstance,
    perms_OS,
    phase_oracle,
    standard_oracle,
)
from qcorr.correspondence import (
    CC_CNOT_FAMILY,
    CC_IDENTITY_ONLY,
    CC_SWAP_FAMILY,
    CC_SWAP_ONLY,
    CosetId,
    classify_cc,
    coset_of,
    makhlin_invariants,
    parse_basis_word,
    extract_counterpart,
)
from qcorr.querylab import (
    bv_problem,
    deterministic_query_complexity,
    named_family,
    parity_problem,
    run_bv_quantum,
    run_parity_quantum,
    speedup_report,
)

RESULTS = {}


@contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        RESULTS[num] = f"criterion {num} ({title}): FAIL"
        raise
    RESULTS[num] = f"criterion {num} ({title}): PASS"
    print(RESULTS[num])


def perm_matrix(perm):
    mat = np.zeros((len(perm), len(perm)), dtype=complex)
    for j, i in enumerate(perm):
        mat[i, j] = 1.0
    return mat


def all_functions(n):
    size = 1 << n
    for code in range(1 << size):
        yield BooleanFunction(n, tuple((code >> (size - 1 - i)) & 1 for i in range(size)))


def all_instances(n):
    for k0 in (0, 1):
        for k_int in range(1 << n):
            yield BVInstance(n, k0, tuple((k_int >> (n - 1 - j)) & 1 for j in range(n)))


def test_criterion_1_two_qubit_classes():
    cases = [
        ("cnot12", CC_CNOT_FAMILY, (0.0, 0.0, 1.0)),
        ("cnot21", CC_CNOT_FAMILY, (0.0, 0.0, 1.0)),
        ("swap", CC_SWAP_ONLY, (-1.0, 0.0, -3.0)),
        ("swat12", CC_SWAP_FAMILY, (0.0, 0.0, -1.0)),
        ("swat21", CC_SWAP_FAMILY, (0.0, 0.0, -1.0)),
    ]
    with criterion(1, "two-qubit counterpart classes"):
        for name, expected_cc, (ea, eb, eg) in cases:
            mat = gate(name)
            t = makhlin_invariants(mat)
            assert abs(t.alpha - ea) < 1e-9, name
            assert abs(t.beta - eb) < 1e-9, name
            assert abs(t.gamma - eg) < 1e-9, name
            assert classify_cc(mat) == expected_cc, name
        t = makhlin_invariants(np.eye(4, dtype=complex))
        assert abs(t.alpha - 1.0) < 1e-9
        assert abs(t.beta) < 1e-9
        assert abs(t.gamma - 3.0) < 1e-9
        assert classify_cc(np.eye(4, dtype=complex)) == CC_IDENTITY_ONLY


def test_criterion_2_sampling_soundness():
    rng = np.random.default_rng(0x5EED)
    with criterion(2, "classification sampling soundness"):
        for rep in CosetId:
            base = perm_matrix(rep.value)
            assert coset_of(rep.value) is rep
            for _ in range(200):
                dressing = np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=4))
                u = dressing[:, None] * base
                t = makhlin_invariants(u)
                assert abs(t.beta) < 1e-9
                assert rep in classify_cc(u)


def test_criterion_3_parity_counts():
    with criterion(3, "parity query counts"):
        expected = {(1, "O_S"): 2, (1, "O_A"): 1, (2, "O_S"): 4, (2, "O_A"): 2}
        for n in (1, 2):
            problem = parity_problem(n)
            d_os = deterministic_query_complexity(problem, named_family(problem, "OS"))
            d_oa = deterministic_query_complexity(problem, named_family(problem, "OA"))
            assert d_os == expected[(n, "O_S")]
            assert d_oa == expected[(n, "O_A")]
        for n in (1, 2, 3):
            for f in all_functions(n):
                parity, queries = run_parity_quantum(f)
                assert parity == sum(f.truth) % 2
                assert queries == 1 << (n - 1)


def test_criterion_4_hidden_string_counts():
    with criterion(4, "hidden-string query counts"):
        for n in (1, 2, 3):
            problem = bv_problem(n)
            assert deterministic_query_complexity(problem, named_family(problem, "OS")) == n + 1
            assert deterministic_query_complexity(problem, named_family(problem, "OB")) == 1
        for n in range(1, 6):
            for inst in all_instances(n):
                assert run_bv_quantum(inst) == (inst.k, 1)


def test_criterion_5_speedup_verdicts():
    with criterion(5, "genuine speed-up verdicts"):
        for n in (1, 2, 3):
            report = speedup_report(bv_problem(n))
            assert abs(report.naive_speedup - (n + 1)) < 1e-12
            assert abs(report.genuine_speedup - 1.0) < 1e-12
        for n in (1, 2):
            report = speedup_report(parity_problem(n))
            assert abs(report.naive_speedup - 2.0) < 1e-12
            assert abs(report.genuine_speedup - 1.0) < 1e-12


def test_criterion_6_counterpart_extraction():
    with criterion(6, "counterpart extraction"):
        # all-chi conjugation of the standard oracle is the standard map
        for n in (1, 2, 3):
            bases = parse_basis_word("C" * (n + 1))
            for f in all_functions(n):
                gp = extract_counterpart(standard_oracle(f), bases)
                assert gp.perm == tuple(perms_OS(f.truth).tolist())
                assert np.max(np.abs(np.asarray(gp.phases) - 1.0)) < 1e-12
        # all-eta conjugation of the phase oracle is XOR with k
        for n in (1, 2, 3, 4):
            bases = parse_basis_word("H" * n)
            for k_int in range(1 << n):
                k = tuple((k_int >> (n - 1 - j)) & 1 for j in range(n))
                gp = extract_counterpart(phase_oracle(BVInstance(n, 0, k)), bases)
                assert gp.perm == tuple(x ^ k_int for x in range(1 << n))
                assert np.max(np.abs(np.asarray(gp.phases) - 1.0)) < 1e-12
        # eta on the first input and the target: the first bit flips by
        # c = f(0,rest) XOR f(1,rest) on the kickback sector only
        rng = np.random.default_rng(0xF1F1)
        n = 3
        bases = parse_basis_word("H" + "C" * (n - 1) + "H")
        top = 1 << (n - 1)
        for _ in range(50):
            truth = tuple(int(b) for b in rng.integers(0, 2, size=1 << n))
            f = BooleanFunction(n, truth)
            gp = extract_counterpart(standard_oracle(f), bases)
            assert gp is not None
            for x in range(1 << n):
                rest = x & (top - 1)
                c = f(rest) ^ f(rest | top)
                assert gp.perm[x << 1] == x << 1
                assert abs(gp.phases[x << 1] - 1.0) < 1e-12
                out = ((x ^ (c << (n - 1))) << 1) | 1
                assert gp.perm[(x << 1) | 1] == out
                assert abs(gp.phases[out] - (-1.0) ** f(rest)) < 1e-12


def test_criterion_7_property_suites():
    rng = np.random.default_rng(0xABCD)
    with criterion(7, "property suites"):
        for _ in range(1000):
            u = random_unitary(4, rng)
            base = makhlin_invariants(u)
            left = np.kron(random_unitary(2, rng), random_unitary(2, rng))
            right = np.kron(random_unitary(2, rng), random_unitary(2, rng))
            t = makhlin_invariants(left @ u @ right)
            assert abs(t.alpha - base.alpha) < 1e-8
            assert abs(t.beta - base.beta) < 1e-8
            assert abs(t.gamma - base.gamma) < 1e-8
            phased = makhlin_invariants(np.exp(1j * rng.uniform(0, 2 * np.pi)) * u)
            assert abs(phased.alpha - base.alpha) < 1e-9
            assert abs(phased.beta - base.beta) < 1e-9
            assert abs(phased.gamma - base.gamma) < 1e-9
        for m in (1, 2, 3):
            dim = 1 << m
            for _ in range(25):
                perm = tuple(int(v) for v in rng.permutation(dim))
                phases = tuple(np.exp(1j * rng.uniform(0, 2 * np.pi, size=dim)))
                gp = GeneralizedPermutation(m, perm, phases)
                back = detect_generalized_permutation(gp.as_matrix())
                assert back.perm == gp.perm
                assert np.max(np.abs(np.asarray(back.phases) - np.asarray(gp.phases))) < 1e-12
        from itertools import permutations

        counts = {rep: 0 for rep in CosetId}
        for p in permutations(range(4)):
            counts[coset_of(p)] += 1
        assert all(c == 4 for c in counts.values())
        for _ in range(20):
            state = rng.normal(size=16) + 1j * rng.normal(size=16)
            state /= np.linalg.norm(state)
            truth = tuple(int(b) for b in rng.integers(0, 2, size=8))
            out = standard_oracle(BooleanFunction(3, truth)).apply(state)
            assert abs(np.linalg.norm(out) - 1.0) < 1e-9
            for qubit in range(4):
                out = apply_single_qubit(out, HADAMARD, qubit, 4)
                assert abs(np.linalg.norm(out) - 1.0) < 1e-9
