"""Random forest: bootstrapped CART trees with Gini-impurity axis splits and
majority voting. Each tree is held as three flat node arrays in level
order, with implicit children (the k-th split node's are 2k + 1 and 2k + 2),
and predicts a whole matrix level by level in numpy. On disk a forest is one
table of its distinct split thresholds and, per tree, a string of one
character per node and a list of indices into that table: every threshold is
the midpoint of two neighbouring training values of its feature, so the trees
share most of them (Louppe, arXiv:1407.7502, ch. 3).

The trees grow level by level, as the depthwise policy of gradient-boosting
libraries does (Louppe, arXiv:1407.7502, ch. 3 and 5; Chen & Guestrin, KDD
2016), in passes of _PASS_TREES trees: every step finds the splits of every
open node of every tree in the pass in one batched numpy search, so a pass
takes one step per level of its deepest tree. The search sorts each
(node, feature) pair's entries by value and counts the classes left of every
cut with one cumulative sum of the weights per class, class-major as
(class x entry) rows (Louppe, ch. 5). Each tree has its own
generator, seeded from the master seed and its index, and its own bootstrap
draw, and takes one feature order per open node in level order. So a tree is
bit-identical to growing it on its own, breadth-first: its generator is drawn
from only for its own nodes, in the same order; class counts are exact
integers; and the impurity of every cut comes from the same element-wise
arithmetic, with the same first-minimum tie rules. No tree depends on the
pass size or on the other trees.

A tree grows on the distinct rows of its bootstrap draw, each weighted by how
often it was drawn, as scikit-learn's forest does (Louppe, arXiv:1407.7502,
ch. 5). The copies of a row share its value on every feature, so they never
straddle a cut: the cuts are the same, and a node's class counts, its size and
the counts left of every cut are sums of the same integers, exact in float64.
So every impurity, tie and threshold is that of growing on the copies, with
about a third fewer entries to sort.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple

import numpy as np

from ..config import MODE_ORDER, N_FEATURES, TrainConfig
from .features import N_CLASSES


class Tree(NamedTuple):
    """One fitted tree as flat node arrays in level order; node 0 is the root.

    A split node sends x to its left child when x[feature] <= threshold and to
    its right child otherwise; the k-th split node in node order has the
    implicit children 2k + 1 and 2k + 2. A leaf has feature -1 and threshold
    0, and `vote` holds the majority class of its training rows, ties falling
    to the lowest class index. A split node's vote is 0 and never read. On
    disk a tree is one node string and one list of cuts (trees_to_json).
    """

    feature: np.ndarray
    threshold: np.ndarray
    vote: np.ndarray

    def leaves(self, X: np.ndarray) -> np.ndarray:
        """Leaf index of every row of X, descending level by level and
        advancing only the rows that have not reached a leaf yet."""
        first_child = 2 * np.cumsum(self.feature >= 0) - 1
        node = np.zeros(X.shape[0], dtype=np.intp)
        rows = np.arange(X.shape[0])
        while rows.size:
            at = node[rows]
            feature = self.feature[at]
            inner = feature >= 0
            rows, at, feature = rows[inner], at[inner], feature[inner]
            go_left = X[rows, feature] <= self.threshold[at]
            node[rows] = first_child[at] + ~go_left
        return node


# A stored node is one character: a split node's feature as a digit, a leaf's
# vote as its mode's initial (T, C or S). Code c < N_FEATURES is feature c,
# and code N_FEATURES + v is a leaf voting v.
_NODE_CHARS = "".join(map(str, range(N_FEATURES))) + "".join(m.display[0] for m in MODE_ORDER)
_CODE_BYTES = np.frombuffer(_NODE_CHARS.encode("ascii"), np.uint8)
_BYTE_CODES = np.full(256, -1, dtype=np.intp)
_BYTE_CODES[_CODE_BYTES] = np.arange(len(_NODE_CHARS))
# the types of a JSON number; a bool's type is bool, though it is an int
_NUMBER_TYPES = frozenset((int, float))


def trees_to_json(trees: list[Tree]) -> dict:
    """The trees as stored: `thresholds`, every distinct split threshold of the
    forest in ascending order, and per tree a `nodes` string of one
    _NODE_CHARS character per node and a `cuts` list holding each split node's
    index into `thresholds`, both in node order."""
    feature, threshold, vote = (np.concatenate(arrays) for arrays in zip(*trees))
    split = feature >= 0
    # np.unique holds -0.0 and 0.0 as one value; the two split every row alike
    table, cuts = np.unique(threshold[split], return_inverse=True)
    cuts = cuts.tolist()
    text = _CODE_BYTES[np.where(split, feature, N_FEATURES + vote)].tobytes().decode("ascii")
    bounds = np.r_[0, np.cumsum([len(tree.feature) for tree in trees])]
    node_at, cut_at = bounds.tolist(), np.r_[0, np.cumsum(split)][bounds].tolist()
    return {
        "thresholds": table.tolist(),
        "nodes": [text[a:b] for a, b in zip(node_at[:-1], node_at[1:])],
        "cuts": [cuts[a:b] for a, b in zip(cut_at[:-1], cut_at[1:])],
    }


def trees_from_json(stored: dict) -> list[Tree]:
    """The trees of a trees_to_json form; a ValueError unless `thresholds` is
    a list of finite numbers, `nodes` a list of strings and `cuts` a list of
    lists, every node is a _NODE_CHARS character, and each of at least one
    tree holds 2n + 1 nodes and n cuts for its n split nodes, in level order,
    each cut an integer index into `thresholds`."""
    thresholds, nodes, cuts = stored["thresholds"], stored["nodes"], stored["cuts"]
    if not isinstance(thresholds, list) or not _NUMBER_TYPES.issuperset(map(type, thresholds)):
        raise ValueError("thresholds must be a list of numbers")
    table = np.array(thresholds)
    if table.dtype.kind not in "iuf":  # an int past the int64 range
        raise ValueError("thresholds must be a list of numbers")
    if not isinstance(nodes, list) or not all(isinstance(tree, str) for tree in nodes):
        raise ValueError("nodes must be a list of node strings")
    if not isinstance(cuts, list) or not all(isinstance(tree, list) for tree in cuts):
        raise ValueError("cuts must be a list of cut lists")
    if len(nodes) != len(cuts) or not nodes:
        raise ValueError(f"{len(nodes)} node strings and {len(cuts)} cut lists")
    finite = np.isfinite(table)
    if not finite.all():
        raise ValueError(f"threshold {table[np.argmin(finite)]} is not finite")
    text = "".join(nodes)
    # latin-1 with "replace" keeps one byte per character, so code[i] is text[i]'s
    code = _BYTE_CODES[np.frombuffer(text.encode("latin-1", "replace"), np.uint8)]
    if (code < 0).any():
        raise ValueError(f"node {text[np.argmax(code < 0)]!r} is not one of {_NODE_CHARS!r}")
    split = code < N_FEATURES
    bounds = np.r_[0, np.cumsum([len(tree) for tree in nodes])]
    n_nodes = np.diff(bounds)
    before = np.r_[0, np.cumsum(split)]  # split nodes before each node of the forest
    n_split = np.diff(before[bounds])
    n_cuts = np.array([len(tree) for tree in cuts], dtype=np.intp)
    bad = (n_nodes != 2 * n_split + 1) | (n_cuts != n_split)
    if bad.any():
        t = int(np.argmax(bad))
        raise ValueError(
            f"tree {t}: {n_nodes[t]} nodes and {n_cuts[t]} cuts"
            f" are not a full level-order tree of {n_split[t]} split nodes"
        )
    # the k-th split node's children are nodes 2k + 1 and 2k + 2, so node i >= 1
    # has a parent only if its tree's first i nodes hold ceil(i / 2) split nodes
    start = np.repeat(bounds[:-1], n_nodes)
    i = np.arange(len(code)) - start
    orphan = before[:-1] - before[start] < (i + 1) // 2
    if orphan.any():
        g = int(np.argmax(orphan))
        t = int(np.searchsorted(bounds, g, side="right")) - 1
        raise ValueError(f"tree {t}: node {i[g]} is the child of no split node before it")
    threshold = np.zeros(len(code))
    threshold[split] = table[_integers("cut", [c for tree in cuts for c in tree], 0, len(table))]
    arrays = np.where(split, code, -1), threshold, np.where(split, 0, code - N_FEATURES)
    return [Tree(*tree) for tree in zip(*(np.split(a, bounds[1:-1]) for a in arrays))]


def _integers(name: str, values: list, low: int, high: int) -> np.ndarray:
    """The values as integers; a ValueError naming the first that is not an
    integer in [low, high)."""
    given = np.array(values) if _NUMBER_TYPES.issuperset(map(type, values)) else None
    if given is None or given.dtype.kind not in "iuf":  # a bool, string, null or list; or a big int
        given = np.array([v if type(v) in _NUMBER_TYPES else np.nan for v in values], dtype=float)
    bad = ~((given == np.floor(given)) & (low <= given) & (given < high))  # NaN is bad too
    if bad.any():
        value = values[int(np.argmax(bad))]
        raise ValueError(f"{name} {value!r} is not an integer in [{low}, {high})")
    return given.astype(np.intp)


@dataclass
class ForestModel:
    trees: list[Tree]
    seed: int = 0
    # always empty: perfbench's tracer reads len(loss_curve) of every kind's model
    loss_curve: list[float] = field(default_factory=list)

    kind: ClassVar[str] = "rf"

    def predict_proba_matrix(self, X: np.ndarray) -> np.ndarray:
        rows = np.arange(X.shape[0])
        votes = np.zeros((X.shape[0], N_CLASSES), dtype=np.intp)
        for tree in self.trees:  # one tree at a time keeps memory at O(rows)
            votes[rows, tree.vote[tree.leaves(X)]] += 1
        return votes / len(self.trees)


# A step's split search runs in chunks of at most this many (node, feature,
# row) entries, which bounds its transient memory.
_CHUNK_ENTRIES = 8192

# The trees grow this many at a time, which bounds the memory a fit holds at
# once; no tree depends on the others of its pass.
_PASS_TREES = 25


def _scan_features(X, y, rank, rows, weight, first, size, features):
    """Best Gini split of every (node, feature) pair.

    Node i owns rows[first[i]:first[i] + size[i]], drawn weight times each,
    and features[i] lists the features to scan. Returns, per pair, the
    lowest weighted impurity over the cuts between neighbouring distinct
    values (inf when the feature is constant over the node) and the midpoint
    threshold of that cut, ties falling to the lowest cut.

    Each chunk of pairs is sorted once by (pair, dense rank of the value), and
    the class counts left of every cut come from one cumulative sum of the
    weights per class, a row of the class-major (class x entry) `counts`,
    less the count before the pair's first entry. The counts are exact, the
    sums over the classes run in numpy's (a + b) + c order, that of the
    row-major (entry x class) sums the stored models are pinned to, and the
    impurity arithmetic is element for element that of a single column, so
    the results are bit-identical to scanning each column on its own.
    """
    n_nodes, width = features.shape
    impurity = np.full(n_nodes * width, np.inf)
    threshold = np.zeros(n_nodes * width)
    pair_size = np.repeat(size, width)
    pair_first = np.repeat(first, width)
    pair_feature = features.ravel()
    pair_end = np.cumsum(pair_size)
    lo = 0
    while lo < len(pair_size):
        base = pair_end[lo] - pair_size[lo]
        hi = max(lo + 1, int(np.searchsorted(pair_end, base + _CHUNK_ENTRIES, side="right")))
        sizes = pair_size[lo:hi]
        starts = pair_end[lo:hi] - sizes - base
        pair = np.repeat(np.arange(hi - lo), sizes)
        entry = np.repeat(pair_first[lo:hi] - starts, sizes) + np.arange(len(pair))
        r, w = rows[entry], weight[entry]
        cell = r * X.shape[1] + np.repeat(pair_feature[lo:hi], sizes)  # flat index of X[r, f]
        key = pair * len(rank) + np.take(rank, cell)
        order = np.argsort(key)  # permutes within pairs only, so `pair` stays valid
        key, r, cell, w = key[order], r[order], cell[order], w[order]
        cut = np.flatnonzero((key[1:] != key[:-1]) & (pair[1:] == pair[:-1])) + 1
        if cut.size:
            counts = np.zeros((N_CLASSES, len(r) + 1))
            label = y[r]
            for c in range(N_CLASSES):
                np.cumsum(np.where(label == c, w, 0.0), out=counts[c, 1:])
            at = pair[cut]
            begin = starts[at]
            below = np.take(counts, cut, axis=1)
            left = below - np.take(counts, begin, axis=1)
            right = np.take(counts, begin + sizes[at], axis=1) - below
            n_left = left.sum(axis=0)
            n_right = right.sum(axis=0)
            gini_left = 1.0 - ((left / n_left) ** 2).sum(axis=0)
            gini_right = 1.0 - ((right / n_right) ** 2).sum(axis=0)
            weighted = (n_left * gini_left + n_right * gini_right) / (n_left + n_right)
            head = np.flatnonzero(np.diff(at, prepend=-1))
            lowest = np.minimum.reduceat(weighted, head)
            hit = np.flatnonzero(weighted == np.repeat(lowest, np.diff(head, append=len(at))))
            best = hit[np.diff(at[hit], prepend=-1) > 0]  # the first lowest cut of each pair
            c = cut[best]
            impurity[lo + at[best]] = weighted[best]
            threshold[lo + at[best]] = 0.5 * (np.take(X, cell[c - 1]) + np.take(X, cell[c]))
        lo = hi
    return impurity.reshape(n_nodes, width), threshold.reshape(n_nodes, width)


def _best_splits(X, y, rank, rows, weight, first, size, order, k):
    """Split of every node, scanning features in the node's random order:
    the lowest impurity among the first k (ties to the earlier feature) or,
    when none of them splits, the first later feature that does, as the
    usual max_features semantics have it. Returns feature and threshold per
    node, feature -1 where no feature splits."""
    scan = (X, y, rank, rows, weight)
    impurity, threshold = _scan_features(*scan, first, size, order[:, :k])
    nodes = np.arange(len(order))
    pick = impurity.argmin(axis=1)
    feature = np.where(np.isfinite(impurity[nodes, pick]), order[nodes, pick], -1)
    threshold = threshold[nodes, pick]
    stuck = np.flatnonzero(feature < 0)
    if stuck.size and k < order.shape[1]:
        impurity, later = _scan_features(*scan, first[stuck], size[stuck], order[stuck, k:])
        splits = np.isfinite(impurity)
        pick = splits.argmax(axis=1)
        nodes = np.arange(len(stuck))
        feature[stuck] = np.where(splits[nodes, pick], order[stuck, k + pick], -1)
        threshold[stuck] = later[nodes, pick]
    return feature, threshold


def fit(X: np.ndarray, y: np.ndarray, cfg: TrainConfig) -> ForestModel:
    """Grow the trees, _PASS_TREES at a time."""
    rank = np.column_stack([np.unique(column, return_inverse=True)[1] for column in X.T])
    trees = []
    for lo in range(0, cfg.n_trees, _PASS_TREES):
        trees += _grow(X, y, rank, cfg, lo, min(lo + _PASS_TREES, cfg.n_trees))
    return ForestModel(trees=trees, seed=cfg.seed)


def _grow(X, y, rank, cfg: TrainConfig, lo: int, hi: int) -> list[Tree]:
    """Grow trees lo to hi - 1 of the forest together, level by level.

    The frontier holds every open node of every tree as (tree, node, start,
    end) arrays, grouped by tree and in level order within each; each step
    finds all their splits in one batched search and puts their children,
    numbered per tree in level order, in the next frontier. A tree's
    distinct rows, with their draw counts in `weight`, fill one slice of
    `flat`, and a node owns a part of it, which its split partitions in
    place. rank holds each value's dense rank within its column of X.
    """
    n, n_features = X.shape
    n_trees = hi - lo
    k = max(1, int(np.sqrt(n_features))) if cfg.max_features == "sqrt" else cfg.max_features
    rngs = [np.random.default_rng([cfg.seed, t]) for t in range(lo, hi)]
    drawn = np.ones((n_trees, n), dtype=np.intp)  # how often each tree drew each row
    if cfg.bootstrap:
        drawn = np.stack([np.bincount(rng.integers(0, n, size=n), minlength=n) for rng in rngs])
    end = np.cumsum(np.count_nonzero(drawn, axis=1))
    flat = np.flatnonzero(drawn)  # each tree's distinct rows, tree after tree
    weight = drawn.ravel()[flat].astype(float)
    flat %= n
    del drawn
    tree, node, start = np.arange(n_trees), np.zeros(n_trees, dtype=np.intp), np.r_[0, end[:-1]]
    n_nodes = np.ones(n_trees, dtype=np.intp)
    voted, splits = [], []  # per level: (tree, node, vote), (tree, node, feature, threshold)
    depth = 0
    while tree.size:
        size = end - start
        first = np.cumsum(size) - size
        seg = np.repeat(np.arange(len(tree)), size)
        slot = np.repeat(start - first, size) + np.arange(len(seg))
        rows, w = flat[slot], weight[slot]
        counts = np.bincount(seg * N_CLASSES + y[rows], w, minlength=len(tree) * N_CLASSES)
        counts = counts.reshape(-1, N_CLASSES)
        voted.append((tree, node, counts.argmax(axis=1)))  # ties fall to the lowest class index
        if cfg.max_depth is not None and depth == cfg.max_depth:
            break
        depth += 1
        split = np.flatnonzero(counts.max(axis=1) < counts.sum(axis=1))  # more than one class
        # each tree draws one feature order per open node, in level order: one
        # permuted call over a tree's rows takes its stream as that many
        # permutation calls would
        order = np.tile(np.arange(n_features), (len(split), 1))
        per_tree = np.bincount(tree[split], minlength=n_trees)
        for t, stop in zip(np.flatnonzero(per_tree), np.cumsum(per_tree)[per_tree > 0]):
            block = order[stop - per_tree[t] : stop]
            rngs[t].permuted(block, axis=1, out=block)
        feature, threshold = _best_splits(X, y, rank, rows, w, first[split], size[split], order, k)
        found = feature >= 0
        split, feature, threshold = split[found], feature[found], threshold[found]
        # a node that does not split keeps all its rows on the left, in place
        seg_feature = np.zeros(len(tree), dtype=np.intp)
        seg_feature[split] = feature
        seg_threshold = np.full(len(tree), np.inf)
        seg_threshold[split] = threshold
        goes_left = X[rows, seg_feature[seg]] <= seg_threshold[seg]
        moved = np.argsort(2 * seg + ~goes_left, kind="stable")
        flat[slot], weight[slot] = rows[moved], w[moved]
        mid = start[split] + np.bincount(seg[goes_left], minlength=len(tree))[split]
        parent_tree = tree[split]
        # the j-th split of a tree at this level gets children 2j and 2j + 1 after its last node
        j = np.arange(len(split)) - np.searchsorted(parent_tree, parent_tree)
        left = n_nodes[parent_tree] + 2 * j
        n_nodes += 2 * np.bincount(parent_tree, minlength=n_trees)
        splits.append((parent_tree, node[split], feature, threshold))
        tree = np.repeat(parent_tree, 2)
        node = np.column_stack([left, left + 1]).ravel()
        edges = np.column_stack([start[split], mid, end[split]])
        start, end = edges[:, :2].ravel(), edges[:, 1:].ravel()
    return _assemble(n_nodes, voted, splits)


def _assemble(n_nodes, voted, splits) -> list[Tree]:
    """The trees, from the node counts and the per-level records of _grow."""
    bounds = np.r_[0, np.cumsum(n_nodes)]
    feature = np.full(bounds[-1], -1, dtype=np.intp)
    threshold = np.zeros(bounds[-1])
    vote = np.zeros(bounds[-1], dtype=np.intp)
    for tree, node, votes in voted:
        vote[bounds[tree] + node] = votes
    for tree, node, features, thresholds in splits:
        at = bounds[tree] + node
        feature[at], threshold[at], vote[at] = features, thresholds, 0
    return [
        Tree(*(array[a:b].copy() for array in (feature, threshold, vote)))
        for a, b in zip(bounds[:-1], bounds[1:])
    ]
