"""Reference random forest: the original dict-of-dict implementation, kept
frozen as the oracle for the array-backed forest in
`modechoice.benchmarks.forest`.

Internal nodes are {"feature", "threshold", "left", "right"}; leaves are
{"counts"}. The split search, the RNG draws and the node order are those the
array forest must reproduce bit for bit, so this file must not change when
the production forest is optimised. Nodes are grown breadth-first from a FIFO
queue, level by level and left before right within a level, which is the
order in which a tree draws its feature orders.
"""

from collections import deque

import numpy as np

N_CLASSES = 3


def gini_best_threshold(column, y):
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


def find_split(X, y, feature_order, k):
    best = None
    for position, feature in enumerate(feature_order):
        if position >= k and best is not None:
            break
        result = gini_best_threshold(X[:, feature], y)
        if result is None:
            continue
        impurity, threshold = result
        if best is None or impurity < best[0]:
            best = (impurity, int(feature), threshold)
    return best


def build_tree(X, y, rng, k, max_depth):
    n_features = X.shape[1]
    root = {}
    queue = deque([(root, np.arange(len(y)), 0)])
    while queue:
        node, idx, depth = queue.popleft()
        labels = y[idx]
        counts = np.bincount(labels, minlength=N_CLASSES)
        at_depth_limit = max_depth is not None and depth >= max_depth
        if at_depth_limit or len(idx) < 2 or counts.max() == len(idx):
            node["counts"] = counts.tolist()
            continue
        split = find_split(X[idx], labels, rng.permutation(n_features), k)
        if split is None:
            node["counts"] = counts.tolist()
            continue
        _, feature, threshold = split
        mask = X[idx, feature] <= threshold
        node["feature"] = feature
        node["threshold"] = threshold
        node["left"] = {}
        node["right"] = {}
        queue.append((node["left"], idx[mask], depth + 1))
        queue.append((node["right"], idx[~mask], depth + 1))
    return root


def tree_vote(node, x):
    while "counts" not in node:
        node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
    return int(np.argmax(node["counts"]))  # ties fall to the lowest class index


def fit(X, y, cfg):
    """Dict trees for `cfg`, with max_features resolved as the forest does."""
    n = X.shape[0]
    if cfg.max_features == "sqrt":
        k = max(1, int(np.sqrt(X.shape[1])))
    else:
        k = cfg.max_features
    trees = []
    for tree_index in range(cfg.n_trees):
        rng = np.random.default_rng([cfg.seed, tree_index])
        if cfg.bootstrap:
            sample = rng.integers(0, n, size=n)
            trees.append(build_tree(X[sample], y[sample], rng, k, cfg.max_depth))
        else:
            trees.append(build_tree(X, y, rng, k, cfg.max_depth))
    return trees


def predict_proba_matrix(trees, X):
    votes = np.zeros((X.shape[0], N_CLASSES))
    for tree in trees:
        for i, x in enumerate(X):
            votes[i, tree_vote(tree, x)] += 1.0
    return votes / len(trees)
