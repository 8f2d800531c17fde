import dataclasses
import hashlib
import json
import math
import pickle
import random

import numpy as np
import pytest

from modechoice.benchmarks import (
    BenchmarkError,
    ClassMissing,
    EmptyTrainingSet,
    FeatureScaler,
    ForestModel,
    MnlModel,
    NonFiniteLoss,
    TrainConfig,
    default_train_config,
    encode_matrix,
    fit_classifier,
    fit_scaler,
    model_from_dict,
    model_to_dict,
    predict_labels,
)
from modechoice.benchmarks import forest, mnl, neural
from modechoice.benchmarks.features import N_CLASSES
from modechoice.benchmarks.forest import Tree
from modechoice.dataset import ColumnMap, ModeLabel, load_raw, to_choice_situations
from modechoice.pipeline import model_text

import reference_forest
import reference_neural
from conftest import (
    make_situation,
    random_situation,
    records,
    synthetic_raw_rows,
    table_of,
    write_survey_file,
)


def numeric_grad(f, arrays, eps=1e-6):
    """Central finite differences of f() w.r.t. each array, mutating in place."""
    grads = []
    for arr in arrays:
        grad = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            saved = arr[idx]
            arr[idx] = saved + eps
            up = f()
            arr[idx] = saved - eps
            down = f()
            arr[idx] = saved
            grad[idx] = (up - down) / (2 * eps)
        grads.append(grad)
    return grads


def relative_error(analytic, numeric):
    diff = np.linalg.norm(analytic - numeric)
    scale = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
    return diff / scale


# leaves the numerics unscaled
IDENTITY = FeatureScaler(means=np.zeros(6), stds=np.ones(6))


def situations_from_file(tmp_path, n=400, seed=7):
    path = write_survey_file(tmp_path / "bench.dat", synthetic_raw_rows(n, seed=seed))
    cmap = ColumnMap()
    return to_choice_situations(load_raw(path, cmap), cmap)


# --- scaler and encoding -----------------------------------------------------


def test_fit_scaler_hand_values():
    rows = table_of([
        make_situation(sid="a", times=(10, 20, 30), costs=(1, 2, 3)),
        make_situation(sid="b", times=(20, 40, 60), costs=(3, 4, 5)),
        make_situation(sid="c", times=(30, 60, 90), costs=(5, 6, 7)),
    ])
    scaler = fit_scaler(rows)
    # layout: train_time, train_cost, car_time, car_cost, sm_time, sm_cost
    assert np.allclose(scaler.means, [20, 3, 40, 4, 60, 5])
    expected_std = [math.sqrt(200 / 3), math.sqrt(8 / 3)]
    assert np.allclose(scaler.stds[:2], expected_std)
    encoded = encode_matrix(rows[:1], scaler)[0]
    assert np.allclose(encoded[0], (10 - 20) / math.sqrt(200 / 3))
    assert np.allclose(encoded[1], (1 - 3) / math.sqrt(8 / 3))


def test_fit_scaler_single_row_degenerate():
    scaler = fit_scaler(table_of([make_situation()]))
    assert scaler.degenerate.all()
    encoded = encode_matrix(table_of([make_situation()]), scaler)[0]
    assert np.allclose(encoded[:6], 0.0)


def test_feature_at_mean_scores_zero():
    rows = table_of([
        make_situation(sid="a", times=(10, 20, 30), costs=(2, 4, 6)),
        make_situation(sid="b", times=(30, 40, 50), costs=(6, 8, 10)),
    ])
    scaler = fit_scaler(rows)
    midpoint = make_situation(sid="m", times=(20, 30, 40), costs=(4, 6, 8))
    assert np.allclose(encode_matrix(table_of([midpoint]), scaler)[0, :6], 0.0)


def test_binaries_pass_through():
    rows = table_of(
        [make_situation(regular=True, annual=False), make_situation(regular=False, annual=True)]
    )
    encoded = encode_matrix(rows, IDENTITY)
    assert encoded[0, 6] == 1.0 and encoded[0, 7] == 0.0
    assert encoded[1, 6] == 0.0 and encoded[1, 7] == 1.0


def test_encode_deterministic():
    scaler = fit_scaler(
        table_of([make_situation(sid=f"s{i}", times=(10 + i, 20, 30)) for i in range(5)])
    )
    a = encode_matrix(table_of([make_situation()]), scaler)
    b = encode_matrix(table_of([make_situation()]), scaler)
    assert np.array_equal(a, b)


def test_fit_scaler_empty():
    with pytest.raises(EmptyTrainingSet):
        fit_scaler(table_of([]))


# --- multinomial logit -------------------------------------------------------


def test_mnl_initial_loss_is_ln3():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(50, 8))
    y = rng.integers(0, 3, size=50)
    loss, _, _ = mnl.loss_and_grad(np.zeros((3, 8)), np.zeros(3), X, y, l2_strength=1.0)
    assert abs(loss - math.log(3)) < 1e-12


def test_mnl_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    for _ in range(30):
        n = int(rng.integers(4, 30))
        f = int(rng.integers(2, 9))
        X = rng.normal(size=(n, f))
        y = rng.integers(0, 3, size=n)
        weights = rng.normal(size=(3, f))
        intercepts = rng.normal(size=3)
        l2 = float(rng.choice([0.0, 0.5, 1.0]))
        _, dw, db = mnl.loss_and_grad(weights, intercepts, X, y, l2)
        num_dw, num_db = numeric_grad(
            lambda: mnl.loss_and_grad(weights, intercepts, X, y, l2)[0],
            [weights, intercepts],
        )
        assert relative_error(dw, num_dw) < 1e-4
        assert relative_error(db, num_db) < 1e-4


def test_mnl_loss_curve_non_increasing(tmp_path):
    rows = situations_from_file(tmp_path, n=300)
    scaler = fit_scaler(rows)
    model = fit_classifier("mnl", rows, default_train_config("mnl"), scaler)
    curve = model.loss_curve
    assert len(curve) >= 2
    assert curve[0] == pytest.approx(math.log(3), abs=1e-9)
    assert all(a >= b for a, b in zip(curve, curve[1:]))


def test_mnl_learns_separable_rule():
    rng = random.Random(3)
    rows = []
    for i in range(300):
        situation = random_situation(rng, f"s{i}")
        total = {
            m: situation.travel_time_min[m] + situation.travel_cost[m] for m in ModeLabel
        }
        chosen = min(ModeLabel, key=lambda m: (total[m], m))
        rows.append(
            make_situation(
                sid=situation.situation_id,
                times=tuple(situation.travel_time_min[m] for m in ModeLabel),
                costs=tuple(situation.travel_cost[m] for m in ModeLabel),
                regular=situation.is_regular_train_user,
                annual=situation.owns_annual_pass,
                chosen=chosen,
            )
        )
    rows = table_of(rows)
    scaler = fit_scaler(rows)
    model = fit_classifier("mnl", rows, default_train_config("mnl"), scaler)
    labels = predict_labels(model, encode_matrix(rows, scaler))
    accuracy = sum(p == s.chosen for p, s in zip(labels, records(rows))) / len(rows)
    assert accuracy > 0.9


def test_mnl_matches_sklearn_objective(tmp_path):
    sklearn_linear = pytest.importorskip("sklearn.linear_model")
    rows = situations_from_file(tmp_path, n=400)
    scaler = fit_scaler(rows)
    X = encode_matrix(rows, scaler)
    y = rows.chosen
    model = fit_classifier("mnl", rows, default_train_config("mnl"), scaler)
    reference = sklearn_linear.LogisticRegression(C=1.0, max_iter=2000, tol=1e-10)
    reference.fit(X, y)
    ours = mnl.loss_and_grad(model.weights, model.intercepts, X, y, 1.0)[0]
    theirs = mnl.loss_and_grad(reference.coef_, reference.intercept_, X, y, 1.0)[0]
    assert ours <= theirs + 1e-4  # same objective, so a sound fit can't be worse


def newton_mnl_optimum(X, y, l2_strength):
    """Damped Newton solve of the MNL objective, written apart from `mnl`:
    mean cross-entropy plus l2/(2N)·||W||², intercepts unpenalized. Returns
    the objective, the optimum as a (3, n_features + 1) array with the
    intercepts last, and the largest gradient entry there.

    Shifting all three intercepts by one constant leaves the loss unchanged,
    so the Hessian is singular along that shift; `lstsq` takes the
    minimum-norm step, which has no component along it."""
    n, f = X.shape
    Z = np.hstack([X, np.ones((n, 1))])
    onehot = np.eye(3)[y]
    penalty = np.append(np.full(f, l2_strength / n), 0.0)  # per column of theta

    def objective(theta):
        logits = Z @ theta.T
        top = logits.max(axis=1)
        log_norm = top + np.log(np.exp(logits - top[:, None]).sum(axis=1))
        return (log_norm - logits[np.arange(n), y]).mean() + 0.5 * (penalty * theta**2).sum()

    def gradient_and_proba(theta):
        p = mnl.softmax(Z @ theta.T)
        return (p - onehot).T @ Z / n + penalty * theta, p

    theta = np.zeros((3, f + 1))
    for _ in range(50):
        grad, p = gradient_and_proba(theta)
        if np.abs(grad).max() < 1e-12:
            break
        curvature = p[:, :, None] * np.eye(3) - p[:, :, None] * p[:, None, :]
        hessian = np.einsum("ikl,ij,im->kjlm", curvature, Z, Z).reshape(3 * (f + 1), -1) / n
        hessian += np.diag(np.tile(penalty, 3))
        step = np.linalg.lstsq(hessian, -grad.ravel(), rcond=None)[0].reshape(theta.shape)
        scale, current = 1.0, objective(theta)
        while objective(theta + scale * step) > current and scale > 1e-12:
            scale *= 0.5
        theta = theta + scale * step
    return objective, theta, np.abs(gradient_and_proba(theta)[0]).max()


def test_mnl_reaches_newton_optimum(tmp_path):
    rows = situations_from_file(tmp_path, n=400)
    scaler = fit_scaler(rows)
    X = encode_matrix(rows, scaler)
    y = rows.chosen
    cfg = default_train_config("mnl")
    objective, optimum, max_grad = newton_mnl_optimum(X, y, cfg.l2_strength)
    assert max_grad < 1e-9  # the reference did converge
    model = fit_classifier("mnl", rows, cfg, scaler)
    ours = objective(np.hstack([model.weights, model.intercepts[:, None]]))
    assert ours <= objective(optimum) + 1e-6


def test_mnl_deterministic(tmp_path):
    rows = situations_from_file(tmp_path, n=200)
    scaler = fit_scaler(rows)
    a = fit_classifier("mnl", rows, default_train_config("mnl"), scaler)
    b = fit_classifier("mnl", rows, default_train_config("mnl"), scaler)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.intercepts, b.intercepts)


def test_mnl_requires_all_classes():
    rows = table_of([make_situation(sid=f"s{i}", chosen=ModeLabel.CAR) for i in range(10)])
    scaler = fit_scaler(rows)
    with pytest.raises(ClassMissing):
        fit_classifier("mnl", rows, default_train_config("mnl"), scaler)


@pytest.mark.parametrize(
    "error",
    [
        BenchmarkError("no fit"),
        EmptyTrainingSet("cannot fit on an empty training set"),
        NonFiniteLoss("loss became nan during training"),
        ClassMissing({ModeLabel.TRAIN}),
        ClassMissing({ModeLabel.CAR, ModeLabel.SWISSMETRO}),
    ],
)
def test_benchmark_errors_survive_pickling(error):
    # a fit in a forked worker sends its error back pickled
    clone = pickle.loads(pickle.dumps(error))
    assert type(clone) is type(error)
    assert str(clone) == str(error)
    assert isinstance(clone, BenchmarkError)


# --- neural network ----------------------------------------------------------


def test_nn_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(10):
        X = rng.normal(size=(12, 8))
        y = rng.integers(0, 3, size=12)
        w1, b1, w2, b2 = neural.init_params(8, 5, rng)
        w1 += rng.normal(scale=0.1, size=w1.shape)
        b1 += rng.normal(scale=0.1, size=b1.shape)
        b2 += rng.normal(scale=0.1, size=b2.shape)
        l2 = 1e-3
        _, grads = neural.loss_and_grad(w1, b1, w2, b2, X, y, l2)
        numeric = numeric_grad(
            lambda: neural.loss_and_grad(w1, b1, w2, b2, X, y, l2)[0],
            [w1, b1, w2, b2],
        )
        for analytic, approx in zip(grads, numeric):
            assert relative_error(analytic, approx) < 1e-3


def test_nn_learns_and_is_seed_deterministic(tmp_path):
    rows = situations_from_file(tmp_path, n=400)
    scaler = fit_scaler(rows)
    cfg = default_train_config("nn", seed=5)
    a = fit_classifier("nn", rows, cfg, scaler)
    b = fit_classifier("nn", rows, default_train_config("nn", seed=5), scaler)
    for left, right in zip((a.w1, a.b1, a.w2, a.b2), (b.w1, b.b1, b.w2, b.b2)):
        assert np.array_equal(left, right)
    labels = predict_labels(a, encode_matrix(rows, scaler))
    accuracy = sum(p == s.chosen for p, s in zip(labels, records(rows))) / len(rows)
    assert accuracy > 0.7
    different = fit_classifier("nn", rows, default_train_config("nn", seed=6), scaler)
    assert not np.array_equal(a.w1, different.w1)


def test_nn_matches_reference_training(tmp_path):
    X, y = reference_training_set(tmp_path)  # 206 rows
    default = default_train_config("nn", seed=3)
    configs = [
        default,
        dataclasses.replace(default, seed=4, batch_size=64, max_epochs=40),
        dataclasses.replace(default, seed=5, tolerance=0.05),
        dataclasses.replace(default, seed=6, l2_strength=0.0, max_epochs=40),
    ]
    assert len(y) % configs[1].batch_size
    epochs = []
    for cfg in configs:
        model = neural.fit(X, y, cfg)
        *params, curve = reference_neural.fit(X, y, cfg)
        for ours, theirs in zip((model.w1, model.b1, model.w2, model.b2), params, strict=True):
            assert np.array_equal(ours, theirs)
        assert np.array_equal(model.loss_curve, curve)
        epochs.append(len(curve))
    assert epochs[2] < configs[2].max_epochs  # the large tolerance stopped training early


def test_nn_stops_on_the_epoch_mean_of_its_batch_losses(tmp_path, monkeypatch):
    X, y = reference_training_set(tmp_path)  # 206 rows: 5 batches of 45 and one of 26
    cfg = dataclasses.replace(
        default_train_config("nn", seed=8), batch_size=45, max_epochs=100, tolerance=0.05
    )
    steps = []  # the parameters and rows of every batch, before its step
    loss_and_grad = neural.loss_and_grad

    def recorded(*args):
        steps.append([np.copy(a) for a in args[:6]])
        return loss_and_grad(*args)

    monkeypatch.setattr(neural, "loss_and_grad", recorded)
    model = neural.fit(X, y, cfg)
    per_epoch = math.ceil(len(y) / cfg.batch_size)
    assert len(steps) % per_epoch == 0
    epochs = len(steps) // per_epoch
    assert 10 < epochs < cfg.max_epochs  # stopping fired, after the 10 stalled epochs it needs
    assert len(model.loss_curve) == epochs
    for epoch, loss in enumerate(model.loss_curve):
        batches = steps[epoch * per_epoch : (epoch + 1) * per_epoch]
        total = 0.0
        for *params, X_batch, y_batch in batches:
            total += reference_neural.loss_value(*params, X_batch, y_batch, cfg.l2_strength) * len(
                y_batch
            )
        assert sum(len(y_batch) for *_, y_batch in batches) == len(y)
        assert loss == total / len(y)


# --- random forest -----------------------------------------------------------


@pytest.mark.parametrize("n_features", [1, 2, 8])
def test_rf_feature_orders_drawn_in_blocks_match_one_draw_per_node(n_features):
    # a tree's generator feeds its bootstrap draw, then one feature order per
    # open node in level order; the forest draws a level's orders for a tree
    # with one permuted call over as many rows as the tree has open nodes
    n = 50
    levels = [1, 2, 3, 64, 130, 5]
    one_at_a_time = np.random.default_rng([3, 7])
    one_at_a_time.integers(0, n, size=n)
    expected = [one_at_a_time.permutation(n_features) for _ in range(sum(levels))]
    per_level = np.random.default_rng([3, 7])
    per_level.integers(0, n, size=n)
    drawn = []
    for c in levels:
        block = np.tile(np.arange(n_features), (c, 1))
        per_level.permuted(block, axis=1, out=block)
        drawn.append(block)
    assert np.array_equal(np.concatenate(drawn), expected)


def test_rf_single_tree_shatters_unique_points():
    rng = random.Random(2)
    rows = []
    seen = set()
    while len(rows) < 50:
        situation = random_situation(rng, f"s{len(rows)}")
        key = situation.travel_time_min + situation.travel_cost
        if key in seen:
            continue
        seen.add(key)
        rows.append(situation)
    rows = table_of(rows)
    cfg = TrainConfig(kind="rf", seed=0, n_trees=1, max_features=8, bootstrap=False)
    model = fit_classifier("rf", rows, cfg, IDENTITY)
    labels = predict_labels(model, encode_matrix(rows, IDENTITY))
    assert all(p == s.chosen for p, s in zip(labels, records(rows)))


def leaf_tree(counts):
    """A one-node tree: a leaf holding these class counts."""
    return Tree(np.array([-1]), np.zeros(1), np.array([np.argmax(counts)]))


def test_rf_vote_probabilities():
    trees = [
        leaf_tree([5, 0, 0]),
        leaf_tree([3, 1, 1]),
        leaf_tree([0, 9, 0]),
        leaf_tree([0, 0, 2]),
    ]
    model = ForestModel(trees=trees, seed=0)
    proba = model.predict_proba_matrix(np.zeros((1, 8)))
    assert np.allclose(proba, [0.5, 0.25, 0.25])


def test_rf_prediction_invariant_to_tree_order(tmp_path):
    rows = situations_from_file(tmp_path, n=150)
    scaler = fit_scaler(rows)
    cfg = TrainConfig(kind="rf", seed=3, n_trees=15)
    model = fit_classifier("rf", rows, cfg, scaler)
    X = encode_matrix(rows[:40], scaler)
    base = model.predict_proba_matrix(X)
    shuffled = ForestModel(trees=list(reversed(model.trees)), seed=3)
    assert np.allclose(base, shuffled.predict_proba_matrix(X))


def test_rf_seed_deterministic(tmp_path):
    rows = situations_from_file(tmp_path, n=120)
    scaler = fit_scaler(rows)
    cfg = TrainConfig(kind="rf", seed=9, n_trees=10)
    a = fit_classifier("rf", rows, cfg, scaler)
    b = fit_classifier("rf", rows, TrainConfig(kind="rf", seed=9, n_trees=10), scaler)
    assert len(a.trees) == len(b.trees) == 10
    for left, right in zip(a.trees, b.trees):
        for name in Tree._fields:
            assert np.array_equal(getattr(left, name), getattr(right, name))


def assert_same_tree(reference, tree):
    """Walk a reference dict tree and the node arrays side by side, the k-th
    split node's children at 2k + 1 and 2k + 2; returns the number of leaves
    whose counts tie for the majority."""
    ties = 0
    stack = [(reference, 0)]
    visited = 0
    while stack:
        node, i = stack.pop()
        visited += 1
        if "counts" in node:
            counts = np.array(node["counts"])
            ties += int((counts == counts.max()).sum() > 1)
            assert tree.feature[i] == -1
            assert tree.threshold[i] == 0
            assert tree.vote[i] == int(np.argmax(counts))
        else:
            assert tree.feature[i] == node["feature"]
            assert tree.threshold[i] == node["threshold"]
            assert tree.vote[i] == 0
            k = np.count_nonzero(tree.feature[:i] >= 0)  # split nodes before this one
            stack.append((node["left"], 2 * k + 1))
            stack.append((node["right"], 2 * k + 2))
    assert visited == len(tree.feature)
    return ties


def reference_training_set(tmp_path):
    rows = situations_from_file(tmp_path, n=200)
    scaler = fit_scaler(rows)
    X = encode_matrix(rows, scaler)
    y = rows.chosen
    # identical feature vectors with different labels cannot be split apart,
    # so an unpruned tree grown on every row must end in tied leaves
    return np.vstack([X, X[:6]]), np.concatenate([y, (y[:6] + 1) % 3])


def fit_against_reference(X, y, cfg):
    """Fit cfg with the forest and with the reference, and compare them node
    for node; returns both and the number of tie-vote leaves."""
    model = forest.fit(X, y, cfg)
    reference = reference_forest.fit(X, y, cfg)
    assert len(model.trees) == len(reference) == cfg.n_trees
    ties = sum(assert_same_tree(dict_tree, tree) for dict_tree, tree in zip(reference, model.trees))
    return model, reference, ties


def assert_same_arrays(a, b):
    for left, right in zip(a.trees, b.trees, strict=True):
        for name in Tree._fields:
            assert np.array_equal(getattr(left, name), getattr(right, name))


def test_rf_matches_reference_forest(tmp_path):
    X, y = reference_training_set(tmp_path)
    # the default config's first step searches 100 trees x about 130 distinct
    # rows (a bootstrap draw keeps about 63% of 206) x 2 features at once,
    # past the chunk limit, so it runs in chunks
    assert 100 * (len(X) // 2) * 2 > forest._CHUNK_ENTRIES
    configs = [
        default_train_config("rf", seed=4),
        TrainConfig(kind="rf", seed=5, n_trees=20, max_depth=3),
        TrainConfig(kind="rf", seed=6, n_trees=20, max_features=5),
        TrainConfig(kind="rf", seed=7, n_trees=10, bootstrap=False),
        TrainConfig(kind="rf", seed=8, n_trees=20, max_features=1),
        TrainConfig(kind="rf", seed=9, n_trees=10, max_features=8),
    ]
    rng = np.random.default_rng(8)
    ties = 0
    for cfg in configs:
        model, reference, tied = fit_against_reference(X, y, cfg)
        ties += tied
        # rows sitting exactly on the root threshold must go left in both
        on_threshold = X[:20].copy()
        on_threshold[:, model.trees[0].feature[0]] = model.trees[0].threshold[0]
        probe = np.vstack([X, X + rng.normal(scale=0.3, size=X.shape), on_threshold])
        assert np.array_equal(
            model.predict_proba_matrix(probe),
            reference_forest.predict_proba_matrix(reference, probe),
        )
    assert ties > 0


def test_rf_rows_on_the_threshold_train_left():
    # the midpoint of two neighbouring floats rounds to the lower one, so the
    # threshold equals a training value and only `<=` separates the rows
    low, high = 1.0, np.nextafter(1.0, 2.0)
    assert 0.5 * (low + high) == low
    X = np.zeros((4, 8))
    X[:, 3] = [low, high, low, high]
    y = np.array([0, 1, 0, 1])
    # with `<`, no row would go left and the right child would split forever;
    # the depth limit turns that into a mismatch instead of a hang
    cfg = TrainConfig(kind="rf", seed=0, n_trees=3, bootstrap=False, max_depth=3)
    model, _, _ = fit_against_reference(X, y, cfg)
    assert np.array_equal(predict_labels(model, X), [ModeLabel(0), ModeLabel(1)] * 2)


def test_rf_deep_tree_matches_reference():
    # alternating labels along one feature: every split peels off the lowest
    # row, so each tree is a 150-level chain, grown in 150 steps whose
    # frontier holds one open node and one new leaf per tree
    X = np.arange(150, dtype=float)[:, None]
    y = np.arange(150) % 2
    cfg = TrainConfig(kind="rf", seed=0, n_trees=2, bootstrap=False)
    model, _, _ = fit_against_reference(X, y, cfg)
    assert [len(tree.feature) for tree in model.trees] == [2 * 150 - 1] * 2


def test_rf_scan_extends_past_max_features(tmp_path):
    X, y = reference_training_set(tmp_path)
    X[:, 1:7] = 0.5  # six constant columns: often no candidate of a node can split
    cfg = TrainConfig(kind="rf", seed=10, n_trees=20)  # sqrt: 2 candidates of 8
    model, _, _ = fit_against_reference(X, y, cfg)
    extended = 0
    for index, tree in enumerate(model.trees):
        # replay the tree's draws: the bootstrap sample, then the root's feature order
        rng = np.random.default_rng([cfg.seed, index])
        rng.integers(0, len(y), size=len(y))
        candidates = rng.permutation(X.shape[1])[:2]
        assert tree.feature[0] >= 0
        extended += int(tree.feature[0] not in candidates)
    assert extended > 0


def test_rf_trees_do_not_affect_each_other(tmp_path):
    X, y = reference_training_set(tmp_path)
    alone = forest.fit(X, y, TrainConfig(kind="rf", seed=11, n_trees=1))
    batched = forest.fit(X, y, TrainConfig(kind="rf", seed=11, n_trees=20))
    assert_same_arrays(alone, ForestModel(trees=batched.trees[:1]))


def test_rf_search_chunk_size_is_invisible(tmp_path, monkeypatch):
    X, y = reference_training_set(tmp_path)
    cfg = TrainConfig(kind="rf", seed=12, n_trees=10)
    default = forest.fit(X, y, cfg)
    # smaller than most (node, feature) pairs, so each chunk holds one pair or a few tiny ones
    monkeypatch.setattr(forest, "_CHUNK_ENTRIES", 5)
    assert_same_arrays(default, forest.fit(X, y, cfg))


def test_rf_pass_size_is_invisible(tmp_path, monkeypatch):
    X, y = reference_training_set(tmp_path)
    cfg = TrainConfig(kind="rf", seed=13, n_trees=20)
    default = forest.fit(X, y, cfg)
    assert forest._PASS_TREES >= cfg.n_trees  # one pass by default
    for size in (1, 7):  # one tree a pass, and uneven passes with a short last one
        monkeypatch.setattr(forest, "_PASS_TREES", size)
        assert_same_arrays(default, forest.fit(X, y, cfg))


def test_rf_labels_are_pinned_to_the_model_format_version():
    """Any change to a fitted forest must bump MODEL_FORMAT_VERSION, or models
    stored before it would still be served; edit both together."""
    i = np.arange(90)
    X = ((i[:, None] * [3, 5, 7, 11, 13, 17, 19, 23]) % 31) / 31.0
    y = (X[:, 0] + X[:, 3] > 1.0).astype(np.intp) + (X[:, 5] > 0.6)
    y[::9] = 2 - y[::9]  # label noise, so that trees split deep and disagree
    model = forest.fit(X, y, TrainConfig(kind="rf", seed=5, n_trees=10))
    probe = ((i[:60, None] * [29, 2, 23, 3, 19, 5, 17, 7]) % 37) / 37.0
    labels = "".join(str(int(label)) for label in predict_labels(model, probe))
    assert model_to_dict(model, IDENTITY)["format_version"] == 6
    assert hashlib.sha256(labels.encode()).hexdigest() == (
        "8e7eb05f65318a86a9519a3519e0510112afa471f27ca08a8e9b6e7ae08ea121"
    )


@pytest.mark.parametrize(
    "kind, fit, digest",
    [
        ("mnl", mnl.fit, "f9a403e4bc1d45ccebd188ad5280ba2ee78a97630d8d4fedd75d2b282f64df9b"),
        ("rf", forest.fit, "50c495e482c61764cd1b065fbcbe9c515e7c3bd7d9dd283c193cd3dfac57c336"),
        ("nn", neural.fit, "8fd5d5d0985719cd9879db9fdf2cc5408cc00d0df4766dbd38dafd0a1a322605"),
    ],
    ids=["mnl", "rf", "nn"],  # a new digest must not rename the test
)
def test_model_bytes_are_pinned_to_the_model_format_version(tmp_path, kind, fit, digest):
    """Every bit of a stored model, thresholds and weights too, not just the
    labels it predicts: a change to any must bump MODEL_FORMAT_VERSION, or
    models stored before it would still be served; edit both together."""
    X, y = reference_training_set(tmp_path)
    text = model_text(fit(X, y, default_train_config(kind)), IDENTITY)
    assert json.loads(text)["format_version"] == 6
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_stored_forest_reads_back_array_for_array(tmp_path):
    """A forest is stored as one ascending table of its distinct split
    thresholds and, per tree, one character per node and one cut into the
    table per split node; reading it back rebuilds every node array, and
    storing that again gives the same text."""
    X, y = reference_training_set(tmp_path)
    model = forest.fit(X, y, default_train_config("rf"))
    text = model_text(model, IDENTITY)
    stored = json.loads(text)["parameters"]["trees"]
    assert sorted(stored) == ["cuts", "nodes", "thresholds"]
    table = stored["thresholds"]
    assert all(a < b for a, b in zip(table, table[1:]))  # strictly ascending
    split_thresholds = np.concatenate([tree.threshold[tree.feature >= 0] for tree in model.trees])
    assert table == np.unique(split_thresholds).tolist()  # each split threshold once
    assert len(stored["nodes"]) == len(stored["cuts"]) == len(model.trees)
    for tree, nodes, cuts in zip(model.trees, stored["nodes"], stored["cuts"]):
        split = tree.feature >= 0
        assert len(nodes) == len(tree.feature) == 2 * len(cuts) + 1
        assert nodes == "".join(
            str(f) if f >= 0 else "TCS"[v] for f, v in zip(tree.feature, tree.vote)
        )
        assert [table[cut] for cut in cuts] == tree.threshold[split].tolist()
    clone, _ = model_from_dict(json.loads(text))
    for fitted, read in zip(model.trees, clone.trees, strict=True):
        for name in Tree._fields:
            assert getattr(read, name).dtype == getattr(fitted, name).dtype
            assert np.array_equal(getattr(read, name), getattr(fitted, name))
    assert model_text(clone, IDENTITY) == text


def test_class_major_sums_match_the_row_major_reduction():
    """The split search keeps its class counts class-major, (class x cut), and
    sums them with .sum(axis=0), which numpy computes as (a + b) + c. The
    stored trees are pinned to the order of a row-major (cut x class)
    .sum(axis=1); if a numpy release orders either reduction differently,
    this fails by name rather than the trees changing silently."""
    rng = np.random.default_rng(11)
    rows = rng.random((500, N_CLASSES)) * rng.integers(1, 10**6, size=(500, 1))
    rows[::5, 0] = 0.0  # a class absent on one side of the cut
    rows[1::5, 1] = 0.0
    rows[2::5, 2] = 0.0
    n_rows = rows.sum(axis=1)
    gini_rows = 1.0 - ((rows / n_rows[:, None]) ** 2).sum(axis=1)
    counts = np.ascontiguousarray(rows.T)
    n = counts.sum(axis=0)
    gini = 1.0 - ((counts / n) ** 2).sum(axis=0)
    a, b, c = counts
    assert n.tobytes() == ((a + b) + c).tobytes() == n_rows.tobytes()
    assert gini.tobytes() == gini_rows.tobytes()


def test_rf_learns(tmp_path):
    rows = situations_from_file(tmp_path, n=300)
    scaler = fit_scaler(rows)
    model = fit_classifier("rf", rows, default_train_config("rf"), scaler)
    labels = predict_labels(model, encode_matrix(rows, scaler))
    accuracy = sum(p == s.chosen for p, s in zip(labels, records(rows))) / len(rows)
    assert accuracy > 0.9  # bootstrap forest nearly memorizes its training data


# --- shared prediction contract ----------------------------------------------


def test_mnl_zero_params_uniform():
    model = MnlModel(weights=np.zeros((3, 8)), intercepts=np.zeros(3))
    assert np.allclose(model.predict_proba_matrix(np.zeros((1, 8))), 1 / 3)


def test_softmax_analytic_example():
    model = MnlModel(weights=np.zeros((3, 8)), intercepts=np.array([math.log(2), 0.0, 0.0]))
    assert np.allclose(model.predict_proba_matrix(np.zeros((1, 8))), [0.5, 0.25, 0.25])


def test_predict_label_argmax_and_ties():
    model = MnlModel(
        weights=np.zeros((3, 8)),
        intercepts=np.log(np.array([0.2, 0.5, 0.3])),
    )
    assert predict_labels(model, np.zeros((1, 8)))[0] is ModeLabel.CAR
    tie = ForestModel(trees=[leaf_tree([1, 0, 0]), leaf_tree([0, 1, 0])], seed=0)
    assert np.allclose(tie.predict_proba_matrix(np.zeros((1, 8))), [0.5, 0.5, 0.0])
    assert predict_labels(tie, np.zeros((1, 8)))[0] is ModeLabel.TRAIN


def test_probabilities_sum_to_one(tmp_path):
    rows = situations_from_file(tmp_path, n=120)
    scaler = fit_scaler(rows)
    X = encode_matrix(rows, scaler)
    rng = np.random.default_rng(4)
    for kind in ("mnl", "rf", "nn"):
        cfg = default_train_config(kind)
        if kind == "nn":
            cfg.hidden_units = 12
            cfg.max_epochs = 20
        if kind == "rf":
            cfg.n_trees = 7
        model = fit_classifier(kind, rows, cfg, scaler)
        for _ in range(50):
            x = X[rng.integers(0, len(X))] + rng.normal(scale=0.1, size=(1, 8))
            proba = model.predict_proba_matrix(x)
            assert abs(proba.sum() - 1.0) < 1e-12
            assert (proba >= 0).all()
            assert predict_labels(model, x) == [ModeLabel(int(np.argmax(proba)))]


def test_fit_classifier_guards(tmp_path):
    rows = situations_from_file(tmp_path, n=60)
    scaler = fit_scaler(rows)
    with pytest.raises(EmptyTrainingSet):
        fit_classifier("mnl", [], default_train_config("mnl"), scaler)
    with pytest.raises(ValueError):
        fit_classifier("rf", rows, default_train_config("mnl"), scaler)


# --- serialization -----------------------------------------------------------


def test_model_serialization_round_trip(tmp_path):
    rows = situations_from_file(tmp_path, n=120)
    scaler = fit_scaler(rows)
    X = encode_matrix(rows[:30], scaler)
    for kind in ("mnl", "rf", "nn"):
        cfg = default_train_config(kind)
        if kind == "nn":
            cfg.hidden_units = 10
            cfg.max_epochs = 15
        if kind == "rf":
            cfg.n_trees = 5
        model = fit_classifier(kind, rows, cfg, scaler)
        doc = model_to_dict(model, scaler)
        clone, scaler_clone = model_from_dict(json.loads(json.dumps(doc)))
        assert json.dumps(model_to_dict(clone, scaler_clone), sort_keys=True) == json.dumps(
            doc, sort_keys=True
        )
        assert np.array_equal(
            model.predict_proba_matrix(X), clone.predict_proba_matrix(X)
        )


def test_model_from_dict_rejects_unknown_version():
    with pytest.raises(ValueError):
        model_from_dict({"format_version": 99})
