"""Random forest: bootstrapped CART trees with Gini-impurity axis splits and
majority voting. Per-tree seeds derive from the master seed, so fitting is
deterministic and trees could be grown in parallel without changing results.
Each tree is stored as flat node arrays, the layout of scikit-learn's `_tree`
module, and predicts a whole matrix level by level in numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple

import numpy as np

from .config import TrainConfig
from .features import N_CLASSES

def _gini_best_threshold(column: np.ndarray, y: np.ndarray):
    """Best split of one feature column, or None when the column is constant.

    Returns (weighted_gini, threshold) where threshold is the midpoint of the
    neighbouring distinct values.
    """
    n = len(y)
    order = np.argsort(column, kind="stable")
    sorted_col = column[order]
    boundaries = np.nonzero(sorted_col[1:] > sorted_col[:-1])[0] + 1
    if len(boundaries) == 0:
        return None
    one_hot = np.zeros((n, N_CLASSES))
    one_hot[np.arange(n), y[order]] = 1.0
    prefix = np.vstack([np.zeros(N_CLASSES), np.cumsum(one_hot, axis=0)])
    left = prefix[boundaries]
    right = prefix[n] - left
    n_left = boundaries.astype(float)
    n_right = n - n_left
    gini_left = 1.0 - ((left / n_left[:, None]) ** 2).sum(axis=1)
    gini_right = 1.0 - ((right / n_right[:, None]) ** 2).sum(axis=1)
    weighted = (n_left * gini_left + n_right * gini_right) / n
    best = int(np.argmin(weighted))
    cut = boundaries[best]
    threshold = 0.5 * (sorted_col[cut - 1] + sorted_col[cut])
    return float(weighted[best]), float(threshold)


def _find_split(X: np.ndarray, y: np.ndarray, feature_order: np.ndarray, k: int):
    """Scan features in the given random order: the first k form the candidate
    pool, and the scan keeps extending past k until some feature admits a
    valid split (mirroring the usual max_features semantics)."""
    best = None
    for position, feature in enumerate(feature_order):
        if position >= k and best is not None:
            break
        result = _gini_best_threshold(X[:, feature], y)
        if result is None:
            continue
        impurity, threshold = result
        if best is None or impurity < best[0]:
            best = (impurity, int(feature), threshold)
    return best


def _resolve_max_features(max_features: str | int, n_features: int) -> int:
    if max_features == "sqrt":
        return max(1, int(np.sqrt(n_features)))
    if isinstance(max_features, int) and 1 <= max_features <= n_features:
        return max_features
    raise ValueError(f"max_features must be 'sqrt' or an int in [1, {n_features}]")


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


def _build_tree(X, y, rng, k, max_depth) -> Tree:
    """Grow one tree depth-first, right child first; children are numbered
    when their parent splits, so the node order is the creation order."""
    n_features = X.shape[1]
    feature, threshold, left, right, vote = [-1], [0.0], [-1], [-1], [0]
    stack = [(0, np.arange(len(y)), 0)]
    while stack:
        node, idx, depth = stack.pop()
        labels = y[idx]
        counts = np.bincount(labels, minlength=N_CLASSES)
        vote[node] = int(np.argmax(counts))  # ties fall to the lowest class index
        at_depth_limit = max_depth is not None and depth >= max_depth
        if at_depth_limit or len(idx) < 2 or counts.max() == len(idx):
            continue
        split = _find_split(X[idx], labels, rng.permutation(n_features), k)
        if split is None:
            continue
        _, feature[node], threshold[node] = split
        mask = X[idx, feature[node]] <= threshold[node]
        left[node], right[node] = len(feature), len(feature) + 1
        for column, blank in ((feature, -1), (threshold, 0.0), (left, -1), (right, -1), (vote, 0)):
            column.extend((blank, blank))
        stack.append((left[node], idx[mask], depth + 1))
        stack.append((right[node], idx[~mask], depth + 1))
    return Tree.from_lists(feature, threshold, left, right, vote)


@dataclass
class ForestModel:
    trees: list[Tree]
    seed: int = 0
    loss_curve: list[float] = field(default_factory=list)  # unused; kept for parity

    kind: ClassVar[str] = "rf"

    def predict_proba_matrix(self, X: np.ndarray) -> np.ndarray:
        votes = np.zeros((X.shape[0], N_CLASSES))
        rows = np.arange(X.shape[0])
        for tree in self.trees:  # one tree at a time keeps memory at O(rows)
            votes[rows, tree.vote[tree.leaves(X)]] += 1.0
        return votes / len(self.trees)


def fit(X: np.ndarray, y: np.ndarray, cfg: TrainConfig) -> ForestModel:
    n = X.shape[0]
    k = _resolve_max_features(cfg.max_features, X.shape[1])
    trees = []
    for tree_index in range(cfg.n_trees):
        rng = np.random.default_rng([cfg.seed, tree_index])
        if cfg.bootstrap:
            sample = rng.integers(0, n, size=n)
            trees.append(_build_tree(X[sample], y[sample], rng, k, cfg.max_depth))
        else:
            trees.append(_build_tree(X, y, rng, k, cfg.max_depth))
    return ForestModel(trees=trees, seed=cfg.seed)
