"""Random forest: bootstrapped CART trees with Gini-impurity axis splits and
majority voting. Each tree is stored as flat node arrays, the layout of
scikit-learn's `_tree` module, and predicts a whole matrix level by level in
numpy.

The trees of a share (below) grow in lockstep. Each tree has its own
generator, seeded from the master seed and its index, its own bootstrap draw
and its own depth-first stack; every step pops the top node of each stack
and finds all their splits in one batched numpy search. The trees are
bit-identical to growing each on its own: a tree's generator is drawn from
only for that tree's nodes, in the same order; class counts are exact
integers; and the impurity of every cut comes from the same element-wise
arithmetic, with the same first-minimum tie rules.

A tree grows on the distinct rows of its bootstrap draw, each weighted by how
often it was drawn, as scikit-learn's forest does (Louppe, arXiv:1407.7502,
ch. 5). The copies of a row share its value on every feature, so they never
straddle a cut: the cuts are the same, and a node's class counts, its size and
the counts left of every cut are sums of the same integers, exact in float64.
So every impurity, tie and threshold is that of growing on the copies, with
about a third fewer entries to sort.

The trees are grown, and their votes counted, in one share per usable CPU
(`_in_shares`). Tree t keeps generator [seed, t] and its place, and votes are
integer counts that add exactly, so no result depends on the CPU count.
"""

from __future__ import annotations

import os
import pickle
import threading
from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple

import numpy as np

from .config import BenchmarkError, TrainConfig
from .features import N_CLASSES


class Tree(NamedTuple):
    """One fitted tree as flat node arrays; node 0 is the root.

    An internal node sends x to `left` when x[feature] <= threshold and to
    `right` otherwise. A leaf has feature -1, and `vote` holds the majority
    class of its training rows, ties falling to the lowest class index.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    vote: np.ndarray

    @classmethod
    def from_lists(cls, feature, threshold, left, right, vote) -> "Tree":
        return cls(
            feature=np.array(feature, dtype=np.intp),
            threshold=np.array(threshold, dtype=float),
            left=np.array(left, dtype=np.intp),
            right=np.array(right, dtype=np.intp),
            vote=np.array(vote, dtype=np.intp),
        )

    def leaves(self, X: np.ndarray) -> np.ndarray:
        """Leaf index of every row of X, descending level by level and
        advancing only the rows that have not reached a leaf yet."""
        node = np.zeros(X.shape[0], dtype=np.intp)
        rows = np.arange(X.shape[0])
        while rows.size:
            at = node[rows]
            feature = self.feature[at]
            inner = feature >= 0
            rows, at, feature = rows[inner], at[inner], feature[inner]
            go_left = X[rows, feature] <= self.threshold[at]
            node[rows] = np.where(go_left, self.left[at], self.right[at])
        return node


@dataclass
class ForestModel:
    trees: list[Tree]
    seed: int = 0
    loss_curve: list[float] = field(default_factory=list)  # unused; kept for parity

    kind: ClassVar[str] = "rf"

    def predict_proba_matrix(self, X: np.ndarray) -> np.ndarray:
        rows = np.arange(X.shape[0])

        def count_votes(lo, hi):
            votes = np.zeros((X.shape[0], N_CLASSES), dtype=np.intp)
            for tree in self.trees[lo:hi]:  # one tree at a time keeps memory at O(rows)
                votes[rows, tree.vote[tree.leaves(X)]] += 1
            return votes

        return sum(_in_shares(count_votes, len(self.trees))) / len(self.trees)


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_shares(work, n_items: int) -> list:
    """The results of work(lo, hi) over contiguous shares of range(n_items),
    one share per usable CPU, in share order. The shares after the first run
    in forked children, which pickle their results back through pipes; this
    process runs the first. One call work(0, n_items) runs here alone when
    there is one CPU or item, when fork is missing, or when another thread is
    alive, since forking beside live threads can deadlock."""
    n_shares = min(_usable_cpus(), n_items)
    if n_shares < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [work(0, n_items)]
    bounds = [n_items * i // n_shares for i in range(n_shares + 1)]
    children = []  # (pid, read end of its pipe), in share order
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            read_end, write_end = os.pipe()
            reader = os.fdopen(read_end, "rb")
            with os.fdopen(write_end, "wb") as writer:  # closed here once the child has it
                try:
                    pid = os.fork()
                except OSError:
                    reader.close()
                    raise
                if pid == 0:
                    _run_in_child(work, lo, hi, writer)
            children.append((pid, reader))
        results = [work(0, bounds[1])]
        while children:
            pid, pipe = children[0]
            payload = pipe.read()  # to EOF before waiting, so a full pipe cannot block the child
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            pipe.close()
            if status != 0:
                raise BenchmarkError(f"forest worker exited with status {status} without a result")
            done, result = pickle.loads(payload)
            if not done:
                raise result
            results.append(result)
        return results
    finally:
        if children:  # this process failed: end and reap the children left
            import signal  # only here, so that importing the package loads no more modules

            for pid, pipe in children:
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _run_in_child(work, lo, hi, writer) -> None:
    """Run one share in a forked child and end the child, with status 0 only
    once the pickled (True, result) or (False, exception) is written whole."""
    status = 1
    try:
        try:
            outcome = (True, work(lo, hi))
        except BaseException as exc:  # raised again in the parent
            outcome = (False, exc)
        payload = pickle.dumps(outcome)
        with writer:
            writer.write(payload)
        status = 0
    finally:
        os._exit(status)


# A step's split search runs in chunks of at most this many (node, feature,
# row) entries, which bounds its transient memory.
_CHUNK_ENTRIES = 8192

# Each tree draws its nodes' feature orders this many at a time.
_ORDER_BLOCK = 64


def _scan_features(X, y, rank, rows, weight, first, size, features):
    """Best Gini split of every (node, feature) pair.

    Node i owns rows[first[i]:first[i] + size[i]], drawn weight times each,
    and features[i] lists the features to scan. Returns, per pair, the
    lowest weighted impurity over the cuts between neighbouring distinct
    values (inf when the feature is constant over the node) and the midpoint
    threshold of that cut, ties falling to the lowest cut.

    Each chunk of pairs is sorted once by (pair, dense rank of the value), and
    the class counts left of every cut come from one cumulative sum of the
    weights, less the count before the pair's first entry. The counts are
    exact and the impurity arithmetic is element for element that of a single
    column, so the results are bit-identical to scanning each column on its
    own.
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
        f = np.repeat(pair_feature[lo:hi], sizes)
        key = pair * len(rank) + rank[r, f]
        order = np.argsort(key)  # permutes within pairs only, so `pair` stays valid
        key, r, f, w = key[order], r[order], f[order], w[order]
        cut = np.flatnonzero((key[1:] != key[:-1]) & (pair[1:] == pair[:-1])) + 1
        if cut.size:
            counts = np.zeros((len(r) + 1, N_CLASSES))
            counts[1:] = np.cumsum(np.eye(N_CLASSES)[y[r]] * w[:, None], axis=0)
            at = pair[cut]
            begin = starts[at]
            left = counts[cut] - counts[begin]
            right = counts[begin + sizes[at]] - counts[cut]
            n_left = left.sum(axis=1)
            n_right = right.sum(axis=1)
            gini_left = 1.0 - ((left / n_left[:, None]) ** 2).sum(axis=1)
            gini_right = 1.0 - ((right / n_right[:, None]) ** 2).sum(axis=1)
            weighted = (n_left * gini_left + n_right * gini_right) / (n_left + n_right)
            head = np.flatnonzero(np.diff(at, prepend=-1))
            lowest = np.minimum.reduceat(weighted, head)
            hit = np.flatnonzero(weighted == np.repeat(lowest, np.diff(head, append=len(at))))
            best = hit[np.diff(at[hit], prepend=-1) > 0]  # the first lowest cut of each pair
            c = cut[best]
            impurity[lo + at[best]] = weighted[best]
            threshold[lo + at[best]] = 0.5 * (X[r[c - 1], f[c - 1]] + X[r[c], f[c]])
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


_NODE = np.dtype(
    [
        ("feature", np.intp),
        ("threshold", float),
        ("left", np.intp),
        ("right", np.intp),
        ("vote", np.intp),
    ]
)
_LEAF = np.array((-1, 0.0, -1, -1, 0), dtype=_NODE)


def _widen(array: np.ndarray, fill) -> np.ndarray:
    """array with its second axis doubled, the new places set to fill."""
    extra = np.full(array.shape, fill, dtype=array.dtype)
    return np.concatenate([array, extra], axis=1)


def fit(X: np.ndarray, y: np.ndarray, cfg: TrainConfig) -> ForestModel:
    """Grow the trees, one contiguous share of them per usable CPU."""
    rank = np.column_stack([np.unique(column, return_inverse=True)[1] for column in X.T])
    shares = _in_shares(lambda lo, hi: _grow(X, y, rank, cfg, lo, hi), cfg.n_trees)
    return ForestModel(trees=[tree for share in shares for tree in share], seed=cfg.seed)


def _grow(X, y, rank, cfg: TrainConfig, lo: int, hi: int) -> list[Tree]:
    """Grow trees lo to hi - 1 of the forest in lockstep.

    Each tree keeps its own generator, bootstrap draw and depth-first stack
    (right child first); each step pops the top node of every non-empty
    stack and finds all their splits in one batched search. A tree's distinct
    rows, with their draw counts in `weight`, fill one slice of `flat`, and a
    node owns a part of it, which its split partitions in place. rank holds
    each value's dense rank within its column of X.
    """
    n, n_features = X.shape
    n_trees = hi - lo
    k = max(1, int(np.sqrt(n_features))) if cfg.max_features == "sqrt" else cfg.max_features
    rngs = [np.random.default_rng([cfg.seed, t]) for t in range(lo, hi)]
    drawn = np.ones((n_trees, n), dtype=np.intp)  # how often each tree drew each row
    if cfg.bootstrap:
        drawn = np.stack([np.bincount(rng.integers(0, n, size=n), minlength=n) for rng in rngs])
    stop = np.cumsum(np.count_nonzero(drawn, axis=1))
    flat = np.flatnonzero(drawn)  # each tree's distinct rows, tree after tree
    weight = drawn.ravel()[flat].astype(np.int32)
    flat %= n
    del drawn
    nodes = np.full((n_trees, 64), _LEAF, dtype=_NODE)
    n_nodes = np.ones(n_trees, dtype=np.intp)
    stack = np.zeros((n_trees, 64, 4), dtype=np.intp)  # pending (node, start, end, depth)
    stack[:, 0, 1:3] = np.column_stack([np.r_[0, stop[:-1]], stop])
    height = np.ones(n_trees, dtype=np.intp)
    # A tree's generator feeds only its nodes' feature orders after the
    # bootstrap, so they are drawn _ORDER_BLOCK at a time: permuting the rows
    # of a block takes the stream exactly as that many permutation calls.
    orders = np.empty((n_trees, _ORDER_BLOCK, n_features), dtype=np.intp)
    used = np.full(n_trees, _ORDER_BLOCK)  # orders taken from each tree's block
    while (trees := np.flatnonzero(height)).size:
        height[trees] -= 1
        node, start, end, depth = stack[trees, height[trees]].T
        size = end - start
        first = np.cumsum(size) - size
        seg = np.repeat(np.arange(len(trees)), size)
        slot = np.repeat(start - first, size) + np.arange(len(seg))
        rows, w = flat[slot], weight[slot]
        counts = np.bincount(seg * N_CLASSES + y[rows], w, minlength=len(trees) * N_CLASSES)
        counts = counts.reshape(-1, N_CLASSES)
        nodes["vote"][trees, node] = counts.argmax(axis=1)  # ties fall to the lowest class index
        open_ = counts.max(axis=1) < counts.sum(axis=1)  # more than one class
        if cfg.max_depth is not None:
            open_ &= depth < cfg.max_depth
        split = np.flatnonzero(open_)
        if not split.size:
            continue
        tree = trees[split]
        for t in tree[used[tree] == _ORDER_BLOCK]:
            orders[t] = np.arange(n_features)
            rngs[t].permuted(orders[t], axis=1, out=orders[t])
            used[t] = 0
        order = orders[tree, used[tree]]
        used[tree] += 1
        feature, threshold = _best_splits(X, y, rank, rows, w, first[split], size[split], order, k)
        found = feature >= 0
        split, feature, threshold = split[found], feature[found], threshold[found]
        if not split.size:
            continue
        # a node that does not split keeps all its rows on the left, in place
        seg_feature = np.zeros(len(trees), dtype=np.intp)
        seg_feature[split] = feature
        seg_threshold = np.full(len(trees), np.inf)
        seg_threshold[split] = threshold
        goes_left = X[rows, seg_feature[seg]] <= seg_threshold[seg]
        moved = np.argsort(2 * seg + ~goes_left, kind="stable")
        flat[slot], weight[slot] = rows[moved], w[moved]
        mid = start[split] + np.bincount(seg[goes_left], minlength=len(trees))[split]
        tree, parent = trees[split], node[split]
        child = n_nodes[tree]
        nodes["feature"][tree, parent] = feature
        nodes["threshold"][tree, parent] = threshold
        nodes["left"][tree, parent] = child
        nodes["right"][tree, parent] = child + 1
        n_nodes[tree] += 2
        if n_nodes.max() > nodes.shape[1]:
            nodes = _widen(nodes, _LEAF)
        top = height[tree]
        height[tree] += 2
        if height.max() > stack.shape[1]:
            stack = _widen(stack, 0)
        stack[tree, top] = np.column_stack([child, start[split], mid, depth[split] + 1])
        stack[tree, top + 1] = np.column_stack([child + 1, mid, end[split], depth[split] + 1])
    return [
        Tree(*(np.ascontiguousarray(grown[name]) for name in Tree._fields))
        for grown in (nodes[t, : n_nodes[t]] for t in range(n_trees))
    ]
