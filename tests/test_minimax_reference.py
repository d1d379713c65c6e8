"""Differential tests: the bitmask minimax engine against the tuple-keyed
recursion it replaced, and an independent check of its witness trees.

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
    ProblemSpec,
    _extracted_families,
    bv_problem,
    decision_tree,
    deterministic_query_complexity,
    family_oa,
    family_ob,
    family_obtilde,
    family_os,
    parity_problem,
)


def reference_complexity(problem, family):
    hyps = problem.hypotheses
    labels = [h.label for h in hyps]
    perms = [gp.perm for gp in family.maps]
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
            groups = {}
            for i in ids:
                groups.setdefault(perms[i][q], []).append(i)
            if len(groups) == 1:
                continue
            worst = 0
            for out in sorted(groups):
                worst = max(worst, depth(tuple(groups[out])))
                if worst + 1 >= best:
                    break
            else:
                best = worst + 1
                if best == 1:
                    break
        memo[ids] = best
        return best

    return depth(tuple(range(len(hyps))))


def check_tree(problem, family, tree, count):
    """Run the tree on every hypothesis's perm: each must reach a leaf with
    its own label, every leaf must be label-pure, and the longest path must
    be exactly ``count`` queries long."""
    if math.isinf(count):
        assert tree is None
        return
    leaves = {}
    longest = 0
    for h, gp in zip(problem.hypotheses, family.maps):
        node, path = tree, ()
        while isinstance(node, tuple) and len(node) == 2 and isinstance(node[1], dict):
            query, branches = node
            out = gp.perm[query]
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
    maps = tuple(
        GeneralizedPermutation(
            family.m,
            tuple(family.maps[i].perm[x ^ mask] for x in range(1 << family.m)),
            family.maps[i].phases,
        )
        for i in order
    )
    return (ProblemSpec(problem.name, problem.n, hyps),
            ClassicalOracleFamily(family.name, family.m, maps))


NAMED = [("bv", n, f) for n in (1, 2, 3, 4) for f in (family_os, family_ob, family_obtilde)]
NAMED += [("parity", n, f) for n in (1, 2) for f in (family_os, family_oa)]
PROBLEMS = {"bv": bv_problem, "parity": parity_problem}


@pytest.mark.parametrize(
    "name,n,make_family", NAMED, ids=[f"{p}{n}-{f.__name__}" for p, n, f in NAMED]
)
def test_named_families(name, n, make_family):
    problem = PROBLEMS[name](n)
    family = make_family(problem)
    want = reference_complexity(problem, family)
    assert deterministic_query_complexity(problem, family) == want
    rng = np.random.default_rng([n, len(NAMED)])
    shuffled, relabelled_family = relabelled(problem, family, rng)
    assert deterministic_query_complexity(shuffled, relabelled_family) == want


EXTRACTED = [("bv", n) for n in (1, 2, 3)] + [("parity", n) for n in (1, 2)]


def extracted(name, n):
    problem = PROBLEMS[name](n)
    return problem, _extracted_families(problem, PauliGrid(), 1e-9)


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
        check_tree(problem, family, decision_tree(problem, family), got)
        if math.isinf(want):
            seen["inf"] += 1
        if len(problem.hypotheses) == 1:
            seen["single hypothesis"] += 1
        if len(set(problem.labels())) == 1:
            seen["single label"] += 1
        if 1 < want < math.inf:
            seen["finite > 1"] += 1
    assert all(count >= 10 for count in seen.values()), seen


CERTIFIED = [("bv", n, f) for n in (1, 2, 3, 4, 5) for f in (family_os, family_ob, family_obtilde)]
CERTIFIED += [("parity", n, f) for n in (1, 2) for f in (family_os, family_oa)]


@pytest.mark.parametrize(
    "name,n,make_family", CERTIFIED, ids=[f"{p}{n}-{f.__name__}" for p, n, f in CERTIFIED]
)
def test_named_family_trees(name, n, make_family):
    problem = PROBLEMS[name](n)
    family = make_family(problem)
    count = deterministic_query_complexity(problem, family)
    check_tree(problem, family, decision_tree(problem, family), count)


@pytest.mark.parametrize("name,n", EXTRACTED, ids=[f"{p}{n}" for p, n in EXTRACTED])
def test_extracted_family_trees(name, n):
    problem, families = extracted(name, n)
    for _, family in families:
        count = deterministic_query_complexity(problem, family)
        check_tree(problem, family, decision_tree(problem, family), count)

