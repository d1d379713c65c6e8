"""Differential tests: the bitmask minimax engine against the tuple-keyed
recursion it replaced, and an independent check of its witness trees, which
must also be the trees of the rule in ``reference_tree``.

The reference below is the earlier implementation, kept here and nowhere
else: hypothesis sets are sorted id tuples, every query string is tried at
every set, and the memo is keyed by the tuple.  Every case must give the
same count, math.inf included.
"""

import math

import numpy as np
import pytest

from qcorr.correspondence import PauliGrid
from qcorr.matrixcore import GeneralizedPermutation
from qcorr.querylab import (
    ClassicalOracleFamily,
    Hypothesis,
    ORACLES,
    ProblemSpec,
    _extracted_families,
    _minimax,
    bv_problem,
    decision_tree,
    deterministic_query_complexity,
    named_family,
    parity_problem,
)


def groups_of(perms, ids, q):
    """The ids of a set grouped by the output of query string q."""
    groups = {}
    for i in ids:
        groups.setdefault(perms[i][q], []).append(i)
    return {out: tuple(group) for out, group in groups.items()}


def reference_depths(problem, family):
    """The exact cost of a set of hypothesis ids (a sorted tuple)."""
    labels = problem.labels()
    perms = family.perms.tolist()
    query_strings = range(1 << family.m)
    memo = {}

    def depth(ids):
        first = labels[ids[0]]
        if all(labels[i] == first for i in ids[1:]):
            return 0
        cached = memo.get(ids)
        if cached is not None:
            return cached
        best = math.inf
        for q in query_strings:
            groups = groups_of(perms, ids, q)
            if len(groups) == 1:
                continue
            worst = 0
            for out in sorted(groups):
                worst = max(worst, depth(groups[out]))
                if worst + 1 >= best:
                    break
            else:
                best = worst + 1
                if best == 1:
                    break
        memo[ids] = best
        return best

    return depth


def reference_complexity(problem, family):
    return reference_depths(problem, family)(tuple(range(len(problem.hypotheses))))


def reference_tree(problem, family):
    """The witness tree by the rule the count's search must record: at a set
    of depth d, ask the smallest query string that splits the set into at
    least two groups, all of depth below d, and branch on its outputs."""
    depth = reference_depths(problem, family)
    labels = problem.labels()
    perms = family.perms.tolist()

    def build(ids):
        d = depth(ids)
        if d == 0:
            return labels[ids[0]]
        for q in range(1 << family.m):
            groups = groups_of(perms, ids, q)
            if len(groups) > 1 and all(depth(group) < d for group in groups.values()):
                return q, {out: build(group) for out, group in groups.items()}
        raise AssertionError(f"no query attains depth {d}")

    full = tuple(range(len(labels)))
    return None if math.isinf(depth(full)) else build(full)


def check_tree(problem, family, tree, count):
    """Run the tree on every hypothesis's perm: each must reach a leaf with
    its own label, every leaf must be label-pure, and the longest path must
    be exactly ``count`` queries long."""
    if math.isinf(count):
        assert tree is None
        return
    leaves = {}
    longest = 0
    for h, perm in zip(problem.hypotheses, family.perms.tolist()):
        node, path = tree, ()
        while isinstance(node, tuple) and len(node) == 2 and isinstance(node[1], dict):
            query, branches = node
            out = perm[query]
            assert out in branches, f"output {out} of query {query} has no branch"
            node, path = branches[out], path + ((query, out),)
        assert node == h.label
        leaves.setdefault(path, set()).add(h.label)
        longest = max(longest, len(path))
    assert all(len(found) == 1 for found in leaves.values())
    assert longest == count


def relabelled(problem, family, rng):
    """The same problem with hypotheses reordered and query strings
    relabelled by an XOR mask."""
    order = [int(i) for i in rng.permutation(len(problem.hypotheses))]
    mask = int(rng.integers(0, 1 << family.m))
    hyps = tuple(problem.hypotheses[i] for i in order)
    perms = [[family.perms[i, x ^ mask] for x in range(1 << family.m)] for i in order]
    return (ProblemSpec(problem.name, problem.n, hyps),
            ClassicalOracleFamily(family.name, family.m, np.array(perms)))


def reordered(problem, family, rng):
    """The same problem with its hypotheses, and their perms, reordered."""
    order = [int(i) for i in rng.permutation(len(problem.hypotheses))]
    return (ProblemSpec(problem.name, problem.n, tuple(problem.hypotheses[i] for i in order)),
            ClassicalOracleFamily(family.name, family.m, family.perms[order]))


NAMED = [("bv", n, o) for n in (1, 2, 3, 4) for o in ("OS", "OB", "OBT")]
NAMED += [("parity", n, o) for n in (1, 2) for o in ("OS", "OA")]
PROBLEMS = {"bv": bv_problem, "parity": parity_problem}


def named_ids(cases):
    """``bv2-family_obtilde`` for the O_Btilde family of bv n=2."""
    return [f"{p}{n}-family_{ORACLES[o][0].replace('_', '').lower()}" for p, n, o in cases]


@pytest.mark.parametrize("name,n,oracle", NAMED, ids=named_ids(NAMED))
def test_named_families(name, n, oracle):
    problem = PROBLEMS[name](n)
    family = named_family(problem, oracle)
    want = reference_complexity(problem, family)
    assert deterministic_query_complexity(problem, family) == want
    rng = np.random.default_rng([n, len(NAMED)])
    shuffled, relabelled_family = relabelled(problem, family, rng)
    assert deterministic_query_complexity(shuffled, relabelled_family) == want


EXTRACTED = [("bv", n) for n in (1, 2, 3)] + [("parity", n) for n in (1, 2)]


def extracted(name, n):
    problem = PROBLEMS[name](n)
    return problem, _extracted_families(named_family(problem, "OS"), PauliGrid(), 1e-9)


@pytest.mark.parametrize("name,n", EXTRACTED, ids=[f"{p}{n}" for p, n in EXTRACTED])
def test_extracted_families(name, n):
    problem, families = extracted(name, n)
    assert families
    rng = np.random.default_rng([n, 7])
    for word, family in families:
        want = reference_complexity(problem, family)
        assert deterministic_query_complexity(problem, family) == want, word
        shuffled, relabelled_family = relabelled(problem, family, rng)
        assert deterministic_query_complexity(shuffled, relabelled_family) == want, word


def near(rng, base):
    """``base`` after one or two random transpositions, so that two such
    perms agree on most query strings and one query rarely settles a set."""
    perm = list(base)
    for _ in range(int(rng.integers(1, 3))):
        a, b = (int(v) for v in rng.integers(0, len(perm), 2))
        perm[a], perm[b] = perm[b], perm[a]
    return tuple(perm)


def random_case(rng):
    """m <= 4 bits, at most 12 hypotheses and at most 4 labels.  The perms
    are drawn from a pool of distinct near-copies of one perm; a pool
    smaller than the hypothesis count makes some hypotheses share an
    oracle, which is inseparable when their labels differ."""
    m = int(rng.integers(1, 5))
    k = int(rng.integers(1, 13))
    base = rng.permutation(1 << m)
    size = k if rng.random() < 0.7 else int(rng.integers(1, k + 1))
    pool = sorted({near(rng, base) for _ in range(4 * size)})[:size]
    picks = list(range(len(pool))) + [int(i) for i in rng.integers(0, len(pool), k)]
    nlabels = int(rng.integers(1, 5))
    hyps, maps = [], []
    for i in range(k):
        hyps.append(Hypothesis(i, None, int(rng.integers(0, nlabels))))
        maps.append(GeneralizedPermutation(m, pool[picks[i]], (1 + 0j,) * (1 << m)))
    return ProblemSpec("random", m, tuple(hyps)), ClassicalOracleFamily("random", m, tuple(maps))


def test_random_families():
    rng = np.random.default_rng(20050417)
    seen = {"inf": 0, "single hypothesis": 0, "single label": 0, "finite > 1": 0}
    for _ in range(400):
        problem, family = random_case(rng)
        want = reference_complexity(problem, family)
        got = deterministic_query_complexity(problem, family)
        assert got == want
        tree = decision_tree(problem, family)
        check_tree(problem, family, tree, got)
        assert tree == reference_tree(problem, family)
        if math.isinf(want):
            seen["inf"] += 1
        if len(problem.hypotheses) == 1:
            seen["single hypothesis"] += 1
        if len(set(problem.labels())) == 1:
            seen["single label"] += 1
        if 1 < want < math.inf:
            seen["finite > 1"] += 1
    assert all(count >= 10 for count in seen.values()), seen


def many_label_case(rng):
    """m <= 4 bits, at most 12 hypotheses and up to one label each.  Every
    label has one hypothesis and the rest go to labels drawn with unequal
    weights, so class sizes differ; the labels are interleaved in a random
    hypothesis order.  The perms are mostly distinct near-copies of one
    perm, so most families separate their labels, often only above the
    counting bound, where the search skips queries that cannot win."""
    m = int(rng.integers(2, 5))
    k = int(rng.integers(2, 13))
    nlabels = int(rng.integers(2, k + 1))
    extra = rng.choice(nlabels, k - nlabels, p=rng.dirichlet(np.full(nlabels, 0.5)))
    labels = np.concatenate([np.arange(nlabels), extra])[rng.permutation(k)]
    base = rng.permutation(1 << m)
    pool = sorted({near(rng, base) for _ in range(4 * k)})
    picks = rng.choice(len(pool), k, replace=len(pool) < k)
    ones = (1 + 0j,) * (1 << m)
    hyps = tuple(Hypothesis(i, None, int(label)) for i, label in enumerate(labels))
    maps = tuple(GeneralizedPermutation(m, pool[i], ones) for i in picks)
    return ProblemSpec("labels", m, hyps), ClassicalOracleFamily("labels", m, maps)


def counting_bound(problem, family):
    """ceil(log_b L) for the full set: L labels, b the most outputs of any
    query string."""
    branching = max(len(set(column)) for column in family.perms.T.tolist())
    bound, leaves = 0, 1
    while leaves < len(set(problem.labels())):
        bound, leaves = bound + 1, leaves * max(branching, 2)
    return bound


def test_many_label_families():
    rng = np.random.default_rng(20050418)
    seen = {"at the bound": 0, "bound + 1": 0, "above bound + 1": 0}
    for _ in range(400):
        problem, family = many_label_case(rng)
        want = reference_complexity(problem, family)
        assert deterministic_query_complexity(problem, family) == want
        tree = decision_tree(problem, family)
        check_tree(problem, family, tree, want)
        assert tree == reference_tree(problem, family)
        assert decision_tree(*reordered(problem, family, rng)) == tree
        bound = counting_bound(problem, family)
        if want == bound:
            seen["at the bound"] += 1
        elif want == bound + 1:
            seen["bound + 1"] += 1
        else:
            seen["above bound + 1"] += 1
    assert all(count >= 10 for count in seen.values()), seen


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_bv_os_search_solves_one_set_per_tree_node(n):
    # The optimal tree has 2^(n+1) - 1 inner nodes; any other set the search
    # solved would only show that some query cannot beat the best so far.
    problem = bv_problem(n)
    count, choices, labels = _minimax(problem, named_family(problem, "OS"))
    assert count == n + 1
    assert len(choices) == (1 << (n + 1)) - 1
    assert sorted(labels) == sorted(problem.labels())


CERTIFIED = [("bv", n, o) for n in (1, 2, 3, 4, 5) for o in ("OS", "OB", "OBT")]
CERTIFIED += [("parity", n, o) for n in (1, 2) for o in ("OS", "OA")]


@pytest.mark.parametrize("name,n,oracle", CERTIFIED, ids=named_ids(CERTIFIED))
def test_named_family_trees(name, n, oracle):
    problem = PROBLEMS[name](n)
    family = named_family(problem, oracle)
    count = deterministic_query_complexity(problem, family)
    check_tree(problem, family, decision_tree(problem, family), count)


@pytest.mark.parametrize("name,n", EXTRACTED, ids=[f"{p}{n}" for p, n in EXTRACTED])
def test_extracted_family_trees(name, n):
    problem, families = extracted(name, n)
    for word, family in families:
        count = deterministic_query_complexity(problem, family)
        tree = decision_tree(problem, family)
        check_tree(problem, family, tree, count)
        assert tree == reference_tree(problem, family), word


TREES = [("bv", n, o) for n in (1, 2, 3) for o in ("OS", "OA", "OB", "OBT")]
TREES += [("parity", n, o) for n in (1, 2) for o in ("OS", "OA")]


@pytest.mark.parametrize("name,n,oracle", TREES, ids=named_ids(TREES))
def test_named_trees_follow_the_reference_rule(name, n, oracle):
    problem = PROBLEMS[name](n)
    family = named_family(problem, oracle)
    assert decision_tree(problem, family) == reference_tree(problem, family)


@pytest.mark.parametrize("name,n,oracle", TREES, ids=named_ids(TREES))
def test_named_trees_ignore_hypothesis_order(name, n, oracle):
    problem = PROBLEMS[name](n)
    family = named_family(problem, oracle)
    rng = np.random.default_rng([n, 11])
    assert decision_tree(*reordered(problem, family, rng)) == decision_tree(problem, family)
