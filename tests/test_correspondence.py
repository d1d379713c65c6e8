"""Unit tests for counterpart extraction, the local invariants of two-qubit
unitaries, the counterpart classification, and the coset structure."""

import itertools
import pickle

import numpy as np
import pytest

from qcorr.matrixcore import (
    DEFAULT_TOL,
    HADAMARD,
    GeneralizedPermutation,
    NonUnitaryError,
    SIGMA_X,
    SIGMA_Z,
    SizeLimitError,
    detect_generalized_permutation,
    random_unitary,
    sigma_x_phased,
)
from qcorr.oracleforge import (
    BooleanFunction,
    BVInstance,
    OracleAction,
    bv_function,
    perms_OBtilde,
    perms_OS,
    phase_oracle,
    standard_oracle,
)
from qcorr import correspondence, querylab
from qcorr.correspondence import (
    CC_CNOT_FAMILY,
    CC_EMPTY,
    CC_IDENTITY_ONLY,
    CC_SWAP_FAMILY,
    CC_SWAP_ONLY,
    CHI,
    ETA,
    CosetId,
    MakhlinTriple,
    PauliGrid,
    QubitBasis,
    RandomSample,
    basis_word,
    classify_cc,
    classify_triple,
    coset_of,
    extract_counterpart,
    general_basis,
    makhlin_invariants,
    parse_basis_word,
    search_counterparts,
)

ISWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex
)
SQRT_SWAP = np.array(
    [
        [1, 0, 0, 0],
        [0, (1 + 1j) / 2, (1 - 1j) / 2, 0],
        [0, (1 - 1j) / 2, (1 + 1j) / 2, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)

REP_PERMS = {
    CosetId.I: (0, 1, 2, 3),
    CosetId.SWAP: (0, 2, 1, 3),
    CosetId.CNOT12: (0, 1, 3, 2),
    CosetId.CNOT21: (0, 3, 2, 1),
    CosetId.SWAT12: (0, 2, 3, 1),
    CosetId.SWAT21: (0, 3, 1, 2),
}


def all_functions(n):
    size = 1 << n
    for code in range(1 << size):
        yield BooleanFunction(n, tuple((code >> (size - 1 - i)) & 1 for i in range(size)))


def perm_matrix(perm):
    # column j carries the 1 in row perm[j]
    mat = np.zeros((len(perm), len(perm)), dtype=complex)
    for j, i in enumerate(perm):
        mat[i, j] = 1.0
    return mat


def test_qubit_basis_pairs():
    assert CHI.label == "C"
    assert np.array_equal(CHI.matrix, np.eye(2))
    assert ETA.label == "H"
    assert np.allclose(ETA.matrix, HADAMARD)
    with pytest.raises(ValueError):
        general_basis(np.array([[1, 1], [0, 1]]))
    with pytest.raises(ValueError):
        QubitBasis("C", np.eye(3))


def test_qubit_basis_label_must_name_its_matrix():
    # A word names an assignment by its labels: an H matrix labelled C would
    # report HHH's counterpart (0, 7, 2, 5, 4, 3, 6, 1) under the name CCC,
    # whose own perm is (0, 1, 3, 2, 5, 4, 6, 7).
    for label, matrix in (("C", ETA.matrix), ("H", CHI.matrix), ("C", SIGMA_X),
                          ("H", HADAMARD * 1j), ("C", np.diag([1, -1]))):
        with pytest.raises(ValueError, match=f"labelled '{label}'"):
            QubitBasis(label, matrix)
    # within BASIS_TOL of its pair, and any orthonormal pair as '?'
    assert QubitBasis("C", np.eye(2) * (1 + 1e-13)).label == "C"
    assert QubitBasis("H", HADAMARD).label == "H"
    assert QubitBasis("?", ETA.matrix).label == "?"
    oracle = standard_oracle(bv_function(BVInstance(2, 0, (1, 1))))
    assert [gp.perm for _, _, gp in search_counterparts(oracle, (CHI,) * 3)] == [
        (0, 1, 3, 2, 5, 4, 6, 7)]


def test_qubit_basis_rejects_nan():
    with pytest.raises(ValueError, match="orthonormal"):
        general_basis(np.array([[np.nan, 0], [0, 1]]))


@pytest.mark.parametrize("spoil", [lambda q: q * np.nan, lambda q: q * (1 + 1e-9)],
                         ids=["nan", "skewed"])
def test_nan_or_skewed_bases_are_rejected_on_both_routes(monkeypatch, spoil):
    # one basis wrapped by hand
    with pytest.raises(ValueError, match="orthonormal within 1e-12"):
        general_basis(spoil(ETA.matrix))
    # the bases of a random sample, drawn in one batch: a QR whose unitary
    # factor comes back spoiled must stop the extraction
    oracle = OracleAction.from_matrix(np.eye(4, dtype=complex))
    assert len(search_counterparts(oracle, RandomSample(count=3, seed=2))) == 3
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda z: (spoil(qr(z)[0]), qr(z)[1]))
    with pytest.raises(ValueError, match="orthonormal within 1e-12"):
        search_counterparts(oracle, RandomSample(count=3, seed=2))


def test_parse_basis_word():
    word = parse_basis_word("HcCh")
    assert [b.label for b in word] == ["H", "C", "C", "H"]
    assert basis_word(word) == "HCCH"
    assert basis_word((general_basis(np.eye(2)),)) is None
    with pytest.raises(ValueError):
        parse_basis_word("CXH")
    with pytest.raises(ValueError):
        parse_basis_word("CC", m=3)


def conjugated_columns(action, bases, c, start=0):
    """Columns start .. start + 2^c - 1 of B†UB under one assignment."""
    mats, _ = correspondence._assignments(tuple(bases), action.m)
    return correspondence._columns(action, mats, c, start)[..., 0]


def test_conjugate_column_examples():
    sz = OracleAction.from_matrix(SIGMA_Z)
    assert np.allclose(conjugated_columns(sz, (CHI,), 0)[:, 0], [1, 0])
    assert np.allclose(conjugated_columns(sz, (ETA,), 0)[:, 0], [0, 1])
    # column 1 alone, at its offset, and both columns at once: H Z H = X
    assert np.allclose(conjugated_columns(sz, (ETA,), 0, 1)[:, 0], [1, 0])
    assert np.allclose(conjugated_columns(sz, (ETA,), 1), SIGMA_X)
    theta, phi = 0.4, 2.2
    phased = OracleAction.from_matrix(sigma_x_phased(theta, phi))
    assert np.allclose(conjugated_columns(phased, (CHI,), 0)[:, 0], [0, np.exp(1j * phi)])
    with pytest.raises(ValueError):
        extract_counterpart(sz, (CHI, CHI))
    # every aligned block of every width, against B†UB built densely
    rng = np.random.default_rng(3)
    u = random_unitary(8, rng)
    bases = (general_basis(random_unitary(2, rng)), CHI, ETA)
    b = np.kron(np.kron(bases[0].matrix, bases[1].matrix), bases[2].matrix)
    want = b.conj().T @ u @ b
    for c in range(4):
        for start in range(0, 8, 1 << c):
            got = conjugated_columns(OracleAction.from_matrix(u), bases, c, start)
            assert np.allclose(got, want[:, start:start + (1 << c)], atol=1e-12)


@pytest.mark.parametrize("n", [1, 2])
def test_extract_all_chi_standard_equals_os(n):
    for f in all_functions(n):
        gp = extract_counterpart(standard_oracle(f), (CHI,) * (n + 1))
        assert gp.perm == tuple(perms_OS(f.truth).tolist())
        assert np.max(np.abs(np.asarray(gp.phases) - 1.0)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_extract_phase_oracle_both_grid_corners(n):
    for k_int in range(1 << n):
        k = tuple((k_int >> (n - 1 - j)) & 1 for j in range(n))
        inst = BVInstance(n, 0, k)
        oracle = phase_oracle(inst)
        chi_gp = extract_counterpart(oracle, (CHI,) * n)
        assert chi_gp.perm == tuple(range(1 << n))
        eta_gp = extract_counterpart(oracle, (ETA,) * n)
        assert eta_gp.perm == tuple(perms_OBtilde(n, k_int).tolist())
        assert np.max(np.abs(np.asarray(eta_gp.phases) - 1.0)) < 1e-12


def test_extract_arity_mismatch():
    with pytest.raises(ValueError):
        extract_counterpart(OracleAction.from_matrix(SIGMA_Z), (CHI, CHI))


def test_search_grid_standard_bv_oracle():
    inst = BVInstance(2, 0, (1, 1))
    oracle = standard_oracle(bv_function(inst))
    found = {name: gp for name, _, gp in search_counterparts(oracle, PauliGrid())}
    assert found["CCC"].perm == tuple(perms_OS(bv_function(inst).truth).tolist())
    # all-eta counterpart shifts x by k on the kickback sector only
    expected = tuple(
        ((x ^ (0b11 if y else 0)) << 1) | y for x in range(4) for y in (0, 1)
    )
    assert found["HHH"].perm == expected
    assert np.max(np.abs(np.asarray(found["HHH"].phases) - 1.0)) < 1e-12


def test_search_hadamard_is_empty():
    action = OracleAction.from_matrix(HADAMARD)
    assert search_counterparts(action, PauliGrid()) == []


def test_search_identity_every_assignment():
    action = OracleAction.from_matrix(np.eye(4, dtype=complex))
    found = search_counterparts(action, PauliGrid())
    assert [name for name, _, _ in found] == ["CC", "CH", "HC", "HH"]
    assert all(gp.perm == (0, 1, 2, 3) for _, _, gp in found)


def test_every_map_holds_read_only_arrays():
    # A map's perm, inverse and phases are frozen where they are built: the
    # table engine's once per block of words, and the detector's, the
    # phase oracle's and an unpickled map's on their own fresh arrays.
    phase = phase_oracle(BVInstance(3, 0, (1, 0, 1)))
    standard = standard_oracle(bv_function(BVInstance(2, 1, (1, 1))))
    dense = OracleAction.from_matrix(np.eye(4, dtype=complex))
    maps = [gp for action in (phase, standard, dense)
            for _, _, gp in search_counterparts(action, PauliGrid())]
    maps += [extract_counterpart(standard, parse_basis_word("HHH")), phase.permutation,
             detect_generalized_permutation(standard.permutation.as_matrix())]
    maps += [pickle.loads(pickle.dumps(gp)) for gp in maps]
    assert len(maps) > 2 * 8
    for gp in maps:
        assert not any(a.flags.writeable for a in (gp._perm, gp._inv, gp._phases))
    os_family = querylab.named_family(querylab.bv_problem(2), "OS")
    families = [fam for _, fam in querylab._extracted_families(os_family, PauliGrid(), DEFAULT_TOL)]
    assert families and not any(fam.perms.flags.writeable for fam in families)


def test_random_sample_space_deterministic():
    action = OracleAction.from_matrix(np.eye(4, dtype=complex))
    space = RandomSample(count=4, seed=17)
    first = search_counterparts(action, space)
    second = search_counterparts(action, space)
    assert [name for name, _, _ in first] == ["random:0", "random:1", "random:2", "random:3"]
    assert [gp.perm for _, _, gp in first] == [gp.perm for _, _, gp in second]


def test_search_counterparts_space_errors():
    with pytest.raises(SizeLimitError):
        search_counterparts(standard_oracle(BooleanFunction(13, (0,) * 8192)), PauliGrid())
    with pytest.raises(ValueError, match="unknown search space"):
        search_counterparts(standard_oracle(BooleanFunction(1, (0, 1))), object())


def test_every_space_is_bounded_before_it_allocates():
    # a 14-qubit standard oracle would need 4 GiB as a dense matrix; each
    # call must refuse before building it
    oracle = standard_oracle(BooleanFunction(13, (0,) * 8192))
    with pytest.raises(SizeLimitError):
        extract_counterpart(oracle, (CHI,) * 14)
    with pytest.raises(SizeLimitError):
        search_counterparts(oracle, RandomSample(count=1, seed=0))
    small = standard_oracle(BooleanFunction(1, (0, 1)))
    with pytest.raises(SizeLimitError):
        search_counterparts(small, RandomSample(count=(1 << 13) + 1, seed=0))
    with pytest.raises(ValueError):
        search_counterparts(small, RandomSample(count=-3, seed=1))
    assert search_counterparts(small, RandomSample(count=0, seed=1)) == []
    # numpy integers are integers
    identity = standard_oracle(BooleanFunction(1, (0, 0)))
    assert len(search_counterparts(identity, RandomSample(np.int64(2), np.uint8(3)))) == 2


@pytest.mark.parametrize("space, field", [
    (RandomSample(1.5, 1), "count"), (RandomSample("2", 1), "count"),
    (RandomSample(True, 1), "count"), (RandomSample(1, -5), "seed"),
    (RandomSample(1, 2.0), "seed"), (RandomSample(1, None), "seed"),
])
def test_random_sample_fields_are_checked_before_any_allocation(space, field, monkeypatch):
    # each is refused by the space check, with its field named, before a
    # basis is drawn
    def refuse(*args):
        raise AssertionError("no basis may be drawn for a malformed sample")

    monkeypatch.setattr(correspondence, "_sample_bases", refuse)
    small = standard_oracle(BooleanFunction(1, (0, 1)))
    with pytest.raises(ValueError, match=f"random sample {field} must be an integer >= 0"):
        search_counterparts(small, space)


def test_makhlin_fixed_points():
    t = makhlin_invariants(perm_matrix(REP_PERMS[CosetId.CNOT12]))
    assert (t.alpha, t.beta, t.gamma) == pytest.approx((0.0, 0.0, 1.0), abs=1e-9)
    t = makhlin_invariants(np.eye(4, dtype=complex))
    assert (t.alpha, t.beta, t.gamma) == pytest.approx((1.0, 0.0, 3.0), abs=1e-9)
    t = makhlin_invariants(perm_matrix(REP_PERMS[CosetId.SWAP]))
    assert (t.alpha, t.beta, t.gamma) == pytest.approx((-1.0, 0.0, -3.0), abs=1e-9)


@pytest.mark.parametrize("theta", [0.0, np.pi / 2, np.pi])
def test_makhlin_controlled_phase(theta):
    mat = np.diag([1, 1, 1, np.exp(1j * theta)])
    t = makhlin_invariants(mat)
    assert t.alpha == pytest.approx(np.cos(theta / 2) ** 2, abs=1e-9)
    assert t.beta == pytest.approx(0.0, abs=1e-9)
    assert t.gamma == pytest.approx(2 + np.cos(theta), abs=1e-9)


def test_makhlin_diagonal_sweep():
    for theta in np.linspace(0.0, np.pi, 50):
        t = makhlin_invariants(np.diag([1, 1, 1, np.exp(1j * theta)]))
        assert abs(t.beta) < 1e-9
        assert t.gamma == pytest.approx(1 + 2 * t.alpha, abs=1e-9)
        cc = classify_triple(t)
        if theta < np.pi:
            assert cc == CC_IDENTITY_ONLY
        else:
            assert cc == CC_CNOT_FAMILY


def test_makhlin_local_invariance_smoke():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        u = random_unitary(4, rng)
        base = makhlin_invariants(u)
        dressed = np.kron(random_unitary(2, rng), random_unitary(2, rng)) @ u
        dressed = dressed @ np.kron(random_unitary(2, rng), random_unitary(2, rng))
        t = makhlin_invariants(dressed)
        assert t.alpha == pytest.approx(base.alpha, abs=1e-8)
        assert t.beta == pytest.approx(base.beta, abs=1e-8)
        assert t.gamma == pytest.approx(base.gamma, abs=1e-8)
        phased = makhlin_invariants(np.exp(1j * rng.uniform(0, 2 * np.pi)) * u)
        assert phased.alpha == pytest.approx(base.alpha, abs=1e-9)
        assert phased.beta == pytest.approx(base.beta, abs=1e-9)
        assert phased.gamma == pytest.approx(base.gamma, abs=1e-9)


def local_dressing(rng):
    """Random single-qubit unitaries on both qubits, as one 4x4 matrix."""
    return np.kron(random_unitary(2, rng), random_unitary(2, rng))


def test_classify_local_invariance():
    rng = np.random.default_rng(1102)
    for rep, perm in REP_PERMS.items():
        g = perm_matrix(perm)
        want = classify_cc(g)
        assert rep in want
        for _ in range(300):
            assert classify_cc(local_dressing(rng) @ g @ local_dressing(rng)) == want
    for _ in range(2000):
        u = random_unitary(4, rng)
        assert classify_cc(local_dressing(rng) @ u @ local_dressing(rng)) == classify_cc(u)


def test_classification_agrees_with_extraction():
    # Under the product basis B = b0 (x) b1, the oracle B G B^dagger has G's
    # permutation as its counterpart, and its class holds that permutation's coset.
    rng = np.random.default_rng(1103)
    for rep, perm in REP_PERMS.items():
        g = perm_matrix(perm)
        for _ in range(50):
            b0, b1 = random_unitary(2, rng), random_unitary(2, rng)
            b = np.kron(b0, b1)
            u = b @ g @ b.conj().T
            found = extract_counterpart(OracleAction.from_matrix(u),
                                        (general_basis(b0), general_basis(b1)))
            assert found.perm == perm
            assert coset_of(found.perm) == rep
            assert rep in classify_cc(u)


def grid_cosets(gp):
    """(word, coset) of every grid counterpart of a two-qubit map, from the
    table engine on its tables and from the dense engine on its matrix."""
    actions = OracleAction.from_permutation(gp), OracleAction.from_matrix(gp.as_matrix())
    return [[(name, coset_of(hit.perm)) for name, _, hit in search_counterparts(a, PauliGrid())]
            for a in actions]


def test_grid_counterparts_lie_in_the_local_class():
    # classify_cc reads local equivalence, K1 U K2 with independent local
    # unitaries on each side; the grid conjugates by one product basis on
    # both sides, B†UB.  So every coset the grid reaches is in the class,
    # which can hold more.  Every two-qubit generalized permutation with
    # first phase 1 and the others in {±1, ±i}: 24 perms, 64 phase choices.
    equal = 0
    for perm in itertools.permutations(range(4)):
        for rest in itertools.product((1, -1, 1j, -1j), repeat=3):
            gp = GeneralizedPermutation(2, perm, (1, *rest))
            table, dense = grid_cosets(gp)
            assert table == dense, gp
            found, cc = {coset for _, coset in table}, classify_cc(gp.as_matrix())
            assert found <= cc, gp
            equal += found == cc
    assert equal == 432


def test_grid_reaches_less_than_the_local_class():
    # diag(1, 1, i, -i) is locally a CNOT, but no chi/eta word reaches CNOT21.
    gp = GeneralizedPermutation(2, range(4), (1, 1, 1j, -1j))
    assert classify_cc(gp.as_matrix()) == CC_CNOT_FAMILY
    table, dense = grid_cosets(gp)
    assert table == dense
    assert {coset for _, coset in table} == {CosetId.I, CosetId.CNOT12}


def test_dressed_two_qubit_gates_keep_their_counterparts():
    # Matrix-backed oracles that are not themselves permutations: for a
    # chi/eta word B the grid on U = B G B† (the dense engine) admits B with
    # G as its counterpart, and every coset it finds is in U's local class.
    # A Haar local dressing K G K† keeps G's class, and the grid's cosets on
    # it lie in that class too.  G: random perms, 8th-root-of-unity phases.
    rng = np.random.default_rng(2301)
    for _ in range(40):
        phases = np.exp(1j * np.pi / 4 * rng.integers(8, size=4))
        gp = GeneralizedPermutation(2, rng.permutation(4), phases)
        g = gp.as_matrix()
        for word in ("CC", "CH", "HC", "HH"):
            b = np.kron(*(basis.matrix for basis in parse_basis_word(word)))
            u = b @ g @ b.conj().T
            found = search_counterparts(OracleAction.from_matrix(u), PauliGrid())
            hits = {name: hit for name, _, hit in found}
            assert hits[word].perm == gp.perm
            assert np.abs(np.subtract(hits[word].phases, gp.phases)).max() <= 1e-9
            assert {coset_of(hit.perm) for hit in hits.values()} <= classify_cc(u)
        k = local_dressing(rng)
        u = k @ g @ k.conj().T
        assert classify_cc(u) == classify_cc(g)
        found = search_counterparts(OracleAction.from_matrix(u), PauliGrid())
        assert {coset_of(hit.perm) for _, _, hit in found} <= classify_cc(g)


def test_makhlin_errors():
    with pytest.raises(NonUnitaryError):
        makhlin_invariants(np.ones((4, 4)))
    with pytest.raises(ValueError):
        makhlin_invariants(np.eye(2))


def test_classify_examples():
    assert classify_cc(perm_matrix(REP_PERMS[CosetId.CNOT12])) == CC_CNOT_FAMILY
    assert classify_cc(np.eye(4, dtype=complex)) == CC_IDENTITY_ONLY
    assert classify_cc(perm_matrix(REP_PERMS[CosetId.SWAP])) == CC_SWAP_ONLY
    assert classify_cc(ISWAP) == CC_SWAP_FAMILY
    t = makhlin_invariants(SQRT_SWAP)
    assert abs(t.beta) > 1e-3
    assert classify_cc(SQRT_SWAP) == CC_EMPTY


def test_classify_triple_rows():
    assert classify_triple(MakhlinTriple(0.0, 0.0, 1.0)) == CC_CNOT_FAMILY
    assert classify_triple(MakhlinTriple(0.0, 0.0, -1.0)) == CC_SWAP_FAMILY
    assert classify_triple(MakhlinTriple(0.3, 0.0, 1.6)) == CC_IDENTITY_ONLY
    assert classify_triple(MakhlinTriple(-0.3, 0.0, -1.6)) == CC_SWAP_ONLY
    assert classify_triple(MakhlinTriple(0.0, 0.5, 1.0)) == CC_EMPTY
    assert classify_triple(MakhlinTriple(0.5, 0.0, 0.0)) == CC_EMPTY
    # alpha = 0 with gamma neither 1 nor -1: in no class
    assert classify_triple(MakhlinTriple(0.0, 0.0, 0.0)) == CC_EMPTY


def test_classify_boundary_tiebreak():
    # alpha inside the tolerance band resolves to the three-element class
    near = MakhlinTriple(5e-10, 0.0, 1.0 + 1e-10)
    assert classify_triple(near) == CC_CNOT_FAMILY
    near = MakhlinTriple(-5e-10, 0.0, -1.0)
    assert classify_triple(near) == CC_SWAP_FAMILY


def brute_coset_table():
    # independent composition convention: masks applied after the output
    table = {}
    for rep_id, rep in REP_PERMS.items():
        for mask in range(4):
            member = tuple(rep[i] ^ mask for i in range(4))
            table[member] = rep_id
    return table


def test_coset_of_examples():
    assert coset_of((1, 0, 3, 2)) == CosetId.I
    assert coset_of((0, 1, 3, 2)) == CosetId.CNOT12
    brute = brute_coset_table()
    assert coset_of((1, 2, 3, 0)) == brute[(1, 2, 3, 0)]
    with pytest.raises(ValueError):
        coset_of((0, 0, 1, 2))
    with pytest.raises(ValueError):
        coset_of((0, 1, 2))


def test_coset_partition():
    from itertools import permutations

    brute = brute_coset_table()
    assert len(brute) == 24
    counts = {rep: 0 for rep in CosetId}
    for p in permutations(range(4)):
        rep = coset_of(p)
        assert rep == brute[p]
        counts[rep] += 1
    assert all(c == 4 for c in counts.values())


def test_cc_class_rows_are_the_documented_five():
    assert CC_EMPTY == frozenset()
    assert CC_CNOT_FAMILY == {CosetId.I, CosetId.CNOT12, CosetId.CNOT21}
    assert CC_SWAP_FAMILY == {CosetId.SWAP, CosetId.SWAT12, CosetId.SWAT21}
    assert CC_IDENTITY_ONLY == {CosetId.I}
    assert CC_SWAP_ONLY == {CosetId.SWAP}
