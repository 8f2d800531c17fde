"""Supervised baselines (multinomial logit, random forest, neural network)
over the shared 8-feature encoding, written from scratch on numpy."""

from __future__ import annotations

import numpy as np

from ..config import BENCHMARK_KINDS, MODE_ORDER, ModeLabel, TrainConfig, default_train_config
from ..dataset import SituationTable
from . import forest, mnl, neural
from .config import BenchmarkError, ClassMissing, EmptyTrainingSet, NonFiniteLoss
from .features import FeatureScaler, encode_matrix, fit_scaler
from .forest import ForestModel
from .mnl import MnlModel
from .model_io import model_from_dict, model_to_dict
from .neural import NeuralModel

_FITS = {"mnl": mnl.fit, "rf": forest.fit, "nn": neural.fit}  # in BENCHMARK_KINDS order

__all__ = [
    "BENCHMARK_KINDS",
    "BenchmarkError",
    "ClassMissing",
    "EmptyTrainingSet",
    "FeatureScaler",
    "ForestModel",
    "MnlModel",
    "NeuralModel",
    "NonFiniteLoss",
    "TrainConfig",
    "default_train_config",
    "encode_matrix",
    "fit_classifier",
    "fit_scaler",
    "model_from_dict",
    "model_to_dict",
    "predict_labels",
]


def fit_classifier(
    kind: str,
    train: SituationTable,
    cfg: TrainConfig,
    scaler: FeatureScaler,
):
    """Fit one benchmark kind on encoded training situations."""
    if kind != cfg.kind:
        raise ValueError(f"kind {kind!r} does not match cfg.kind {cfg.kind!r}")
    if not train:
        raise EmptyTrainingSet("cannot fit on an empty training set")
    X = encode_matrix(train, scaler)
    y = train.chosen
    if kind in ("mnl", "nn"):
        missing = {m for m in MODE_ORDER if int(m) not in set(y)}
        if missing:
            raise ClassMissing(missing)
    return _FITS[kind](X, y, cfg)


def predict_labels(model, X: np.ndarray) -> list[ModeLabel]:
    proba = model.predict_proba_matrix(np.asarray(X, dtype=float))
    return [ModeLabel(int(i)) for i in np.argmax(proba, axis=1)]
