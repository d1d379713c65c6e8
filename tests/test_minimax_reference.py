"""Differential tests: the bitmask minimax engine against the tuple-keyed
recursion it replaced, and an independent check of its witness trees, which
must also be the trees of the rule in ``reference_tree``.

The reference below is the earlier implementation, kept here and nowhere
else: hypothesis sets are sorted id tuples, every query string is tried at
every set, and the memo is keyed by the tuple.  Every case must give the
same count, math.inf included.

``reference_minimax`` keeps a later form of the engine: the bitmask search
with every query column partitioned and each part read from its
``{output: mask}`` dict, trying every query at every set as the engine
does.  The engine merges XOR-equal columns before it builds any partition
and searches tuples of masks, and must still give the same queries, labels
and memo, set by set in the same order.
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
    return problem, list(_extracted_families(named_family(problem, "OS"), PauliGrid(), 1e-9))


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


def quotient_case(rng):
    """m <= 4 bits and 2 to 12 hypotheses whose rows come from a pool of at
    most six near-copies of one perm, so rows repeat.  Half the cases take
    each label from the row, so that equal rows share a label; the others
    draw a label per hypothesis, so that equal rows often clash."""
    m = int(rng.integers(1, 5))
    k = int(rng.integers(2, 13))
    base = rng.permutation(1 << m)
    pool = sorted({near(rng, base) for _ in range(int(rng.integers(1, 7)))})
    picks = rng.integers(0, len(pool), k)
    nlabels = int(rng.integers(2, 5))
    if rng.random() < 0.5:
        labels = rng.integers(0, nlabels, len(pool))[picks]
    else:
        labels = rng.integers(0, nlabels, k)
    hyps = tuple(Hypothesis(i, None, int(label)) for i, label in enumerate(labels))
    perms = np.array([pool[i] for i in picks])
    return ProblemSpec("quotient", m, hyps), ClassicalOracleFamily("quotient", m, perms)


def identical_rows(problem, family):
    """(whether some row repeats, whether two hypotheses with different
    labels have the same row)."""
    seen = {}
    clash = False
    for h, row in zip(problem.hypotheses, map(tuple, family.perms.tolist())):
        clash |= seen.setdefault(row, h.label) != h.label
    return len(seen) < len(problem.hypotheses), clash


def test_quotient_matches_the_reference():
    # The reference searches every hypothesis, equal rows or not.
    rng = np.random.default_rng(20050426)
    seen = {"clash": 0, "same-label repeats": 0, "finite > 1 with repeats": 0}
    for _ in range(300):
        problem, family = quotient_case(rng)
        want = reference_complexity(problem, family)
        assert deterministic_query_complexity(problem, family) == want
        tree = decision_tree(problem, family)
        check_tree(problem, family, tree, want)
        assert tree == reference_tree(problem, family)
        repeats, clash = identical_rows(problem, family)
        assert clash == math.isinf(want)
        if clash:
            # decided before any partition is built or any set searched
            assert _minimax(problem, family) == (math.inf, None, {}, [], [])
            seen["clash"] += 1
            continue
        # one bit per distinct row: a repeat under one label is searched once
        rows = len({tuple(row) for row in family.perms.tolist()})
        assert len(_minimax(problem, family)[4]) == rows
        if repeats:
            seen["same-label repeats"] += 1
            seen["finite > 1 with repeats"] += want > 1
    assert all(count >= 10 for count in seen.values()), seen


def reference_minimax(problem, family):
    """``_minimax``'s ``(count, memo, queries, labels)`` by the search as it
    was before query columns were merged by XOR: every query column is
    partitioned, a set's parts are read from each ``{output: mask}`` dict,
    and a set's labels are counted one bit at a time."""
    labels = problem.labels()
    rows = family.perms.tolist()
    first, keep = {}, []
    for i, row in enumerate(map(tuple, rows)):
        j = first.setdefault(row, i)
        if j == i:
            keep.append(i)
        elif labels[j] != labels[i]:
            return math.inf, {}, [], []
    by_label = {}
    for i in keep:
        by_label.setdefault(labels[i], []).append(i)
    order = [i for members in by_label.values() for i in members]
    bit_of = {i: 1 << pos for pos, i in enumerate(order)}
    bit_labels = [labels[i] for i in order]
    queries, seen = [], set()
    for q in range(1 << family.m):
        parts = {}
        for i in keep:
            parts[rows[i][q]] = parts.get(rows[i][q], 0) | bit_of[i]
        key = frozenset(parts.values())
        if len(parts) > 1 and key not in seen:
            seen.add(key)
            queries.append((q, parts))
    branching = max((len(parts) for _, parts in queries), default=2)
    memo = {}

    def label_count(s):
        return len({bit_labels[pos] for pos in range(s.bit_length()) if s >> pos & 1})

    def depth(s):
        count = label_count(s)
        if count == 1:
            return 0
        if s in memo:
            return memo[s]
        bound, leaves = 0, 1
        while leaves < count:
            bound, leaves = bound + 1, leaves * branching
        floor = leaves // branching
        best = math.inf
        for _, parts in queries:
            kids = [kid for kid in (s & mask for mask in parts.values()) if kid]
            if len(kids) < 2:
                continue
            if best == bound + 1 and any(label_count(kid) > floor for kid in kids):
                continue
            kids.sort(key=int.bit_count, reverse=True)
            worst = 0
            for kid in kids:
                worst = max(worst, depth(kid))
                if worst + 1 >= best:
                    break
            else:
                best = worst + 1
                if best <= bound:
                    break
        memo[s] = best
        return best

    return depth((1 << len(order)) - 1), memo, queries, bit_labels


def assert_same_search(problem, family, what=""):
    """``_minimax`` gives ``reference_minimax``'s count, labels and queries
    (query strings, outputs and masks, in order) and solves the same sets
    in the same order."""
    count, _, memo, queries, labels = _minimax(problem, family)
    want_count, want_memo, want_queries, want_labels = reference_minimax(problem, family)
    assert count == want_count, what
    assert labels == want_labels, what
    listed = [(q, list(parts.items())) for q, parts in queries]
    assert listed == [(q, list(parts.items())) for q, parts in want_queries], what
    assert list(memo.items()) == list(want_memo.items()), what


def column_merges(family):
    """(splitting columns, XOR-distinct ones, distinct partitions) of the
    family's query columns; two columns are XOR-equal when their entries
    differ by one constant in every row."""
    columns = [tuple(col) for col in family.perms.T.tolist()]
    splitting = [col for col in columns if len(set(col)) > 1]
    xor_keys = {tuple(out ^ col[0] for out in col) for col in splitting}

    def partition(col):
        groups = {}
        for i, out in enumerate(col):
            groups.setdefault(out, []).append(i)
        return frozenset(map(tuple, groups.values()))

    return len(splitting), len(xor_keys), len({partition(col) for col in splitting})


SEARCHED = [("bv", n, o) for n in (1, 2, 3, 4, 5) for o in ("OS", "OA", "OB", "OBT")]
SEARCHED += [("parity", n, o) for n in (1, 2) for o in ("OS", "OA")]


@pytest.mark.parametrize("name,n,oracle", SEARCHED, ids=named_ids(SEARCHED))
def test_named_family_searches_match_every_column_search(name, n, oracle):
    problem = PROBLEMS[name](n)
    family = named_family(problem, oracle)
    assert_same_search(problem, family)
    assert_same_search(*reordered(problem, family, np.random.default_rng([n, 13])))


MERGED = [("bv", n) for n in (2, 3, 4)] + [("parity", 2)]


@pytest.mark.parametrize("name,n", MERGED, ids=[f"{p}{n}" for p, n in MERGED])
def test_extracted_family_searches_match_every_column_search(name, n):
    problem, families = extracted(name, n)
    merged = 0
    for word, family in families:
        assert_same_search(problem, family, word)
        splitting, xor_distinct, _ = column_merges(family)
        merged += xor_distinct < splitting
    # affine families pair their columns up, as O_S does
    assert merged > 0


def equivariant(rng, m, shift, flip):
    """A random permutation r of m bits with r(x ^ shift) = r(x) ^ flip for
    every x, so that columns q and q ^ shift of a family of such rows differ
    by the constant flip in every row."""
    sources = sorted({min(x, x ^ shift) for x in range(1 << m)})
    targets = [int(y) for y in rng.permutation(sorted({min(y, y ^ flip) for y in range(1 << m)}))]
    perm = [0] * (1 << m)
    for x, y in zip(sources, targets):
        y ^= flip * int(rng.integers(0, 2))
        perm[x], perm[x ^ shift] = y, y ^ flip
    return perm


def merge_case(rng):
    """m in 2..4 bits and 2 to 12 hypotheses with up to 4 labels.  Half the
    cases draw every row equivariant under one (shift, flip), so that their
    query columns pair up by XOR; the others draw near-copies of one perm,
    whose splitting columns often share a partition (all singletons, say)
    without being XOR-equal.  Rows repeat now and then, the first row
    included, and mostly under their first copy's label, so the quotient
    drops some rows and decides the other cases infinite."""
    m = int(rng.integers(2, 5))
    k = int(rng.integers(2, 13))
    if rng.random() < 0.5:
        shift, flip = (int(v) for v in rng.integers(1, 1 << m, 2))
        pool = [equivariant(rng, m, shift, flip) for _ in range(k)]
    else:
        base = rng.permutation(1 << m)
        pool = [near(rng, base) for _ in range(k)]
    picks = [i if rng.random() < 0.8 else int(rng.integers(0, i + 1)) for i in range(k)]
    labels = rng.integers(0, int(rng.integers(1, 5)), k)
    if rng.random() < 0.8:
        labels = labels[picks]  # a repeated row keeps its first copy's label
    hyps = tuple(Hypothesis(i, None, int(label)) for i, label in enumerate(labels))
    perms = np.array([pool[i] for i in picks])
    return ProblemSpec("merge", m, hyps), ClassicalOracleFamily("merge", m, perms)


def test_random_family_searches_match_every_column_search():
    rng = np.random.default_rng(20050429)
    seen = {"xor-merged": 0, "partition-merged only": 0, "rows dropped": 0, "finite > 1": 0,
            "inf": 0}
    for _ in range(300):
        problem, family = merge_case(rng)
        assert_same_search(problem, family)
        splitting, xor_distinct, partitions = column_merges(family)
        seen["xor-merged"] += xor_distinct < splitting
        seen["partition-merged only"] += partitions < xor_distinct
        count, _, _, _, labels = _minimax(problem, family)
        seen["inf"] += math.isinf(count)
        seen["rows dropped"] += 0 < len(labels) < len(problem.hypotheses)
        seen["finite > 1"] += 1 < count < math.inf
    assert all(count >= 10 for count in seen.values()), seen


def wide_case(rng):
    """m in 2..5 bits and 2 to 39 hypotheses with up to 8 labels, every row
    drawn on its own: half the cases draw them equivariant under one
    (shift, flip), so that query columns pair up by XOR, the others
    uniformly, so that a query splits most sets and the search stays
    shallow at every size.  A row repeats now and then, mostly under its
    first copy's label."""
    m = int(rng.integers(2, 6))
    k = int(rng.integers(2, 40))
    if rng.random() < 0.5:
        shift, flip = (int(v) for v in rng.integers(1, 1 << m, 2))
        pool = [equivariant(rng, m, shift, flip) for _ in range(k)]
    else:
        pool = [rng.permutation(1 << m) for _ in range(k)]
    picks = [i if rng.random() < 0.9 else int(rng.integers(0, i + 1)) for i in range(k)]
    labels = rng.integers(0, int(rng.integers(1, 9)), k)
    if rng.random() < 0.8:
        labels = labels[picks]
    hyps = tuple(Hypothesis(i, None, int(label)) for i, label in enumerate(labels))
    perms = np.array([pool[i] for i in picks])
    return ProblemSpec("wide", m, hyps), ClassicalOracleFamily("wide", m, perms)


def test_wide_family_searches_solve_the_same_sets():
    # Up to 39 hypotheses on up to 5 bits: the reference searches every
    # query at every set, as the engine does, so both solve the same sets in
    # the same order.
    rng = np.random.default_rng(20050430)
    seen = {"finite > 1": 0, "inf": 0, "over 20 hypotheses": 0, "rows dropped": 0}
    for _ in range(2000):
        problem, family = wide_case(rng)
        assert_same_search(problem, family)
        count, _, _, _, labels = _minimax(problem, family)
        seen["finite > 1"] += 1 < count < math.inf
        seen["inf"] += math.isinf(count)
        seen["over 20 hypotheses"] += len(problem.hypotheses) > 20
        seen["rows dropped"] += 0 < len(labels) < len(problem.hypotheses)
    assert all(count >= 100 for count in seen.values()), seen


def test_a_repeated_first_row_is_dropped_before_columns_are_merged():
    # The quotient keeps each row's first copy: here the copies of rows 0
    # and 1 go, the column keys are taken over the three rows left, and
    # columns 1, 2 and 3 are each XOR-equal to an earlier column there.
    perms = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [0, 1, 2, 3], [2, 3, 0, 1], [1, 0, 3, 2]])
    hyps = tuple(Hypothesis(i, None, label) for i, label in enumerate("abaeb"))
    problem, family = ProblemSpec("repeat", 2, hyps), ClassicalOracleFamily("repeat", 2, perms)
    assert_same_search(problem, family)
    count, _, _, queries, labels = _minimax(problem, family)
    assert (count, labels) == (1, ["a", "b", "e"])
    assert [(q, parts) for q, parts in queries] == [(0, {0: 0b001, 1: 0b010, 2: 0b100})]


GRIDS = [("bv", n) for n in (1, 2, 3, 4, 5)] + [("parity", n) for n in (1, 2)]


@pytest.mark.parametrize("name,n", GRIDS, ids=[f"{p}{n}" for p, n in GRIDS])
def test_infinite_families_are_those_with_clashing_rows(name, n):
    # Two equal rows under different labels certify a family infinite, and
    # a checked decision tree certifies it finite.
    problem, families = extracted(name, n)
    named = [(o, named_family(problem, o)) for o, (_, _, domain) in ORACLES.items()
             if name in domain]
    infinite = 0
    for word, family in named + families:
        count = deterministic_query_complexity(problem, family)
        assert identical_rows(problem, family)[1] == math.isinf(count), word
        check_tree(problem, family, decision_tree(problem, family), count)
        infinite += math.isinf(count)
    assert infinite > 0


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
    count, _, memo, _, labels = _minimax(problem, named_family(problem, "OS"))
    assert count == n + 1
    assert len(memo) == (1 << (n + 1)) - 1
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
