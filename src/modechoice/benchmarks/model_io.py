"""Versioned JSON serialization of fitted models together with their scaler."""

from __future__ import annotations

import dataclasses

import numpy as np

from .features import FeatureScaler
from .forest import ForestModel, Tree
from .mnl import MnlModel
from .neural import NeuralModel

FORMAT_VERSION = 5  # 2: flat trees; 3: level-wise forest; 4: NN batch losses; 5: no children

_MODEL_CLASSES = {model.kind: model for model in (MnlModel, ForestModel, NeuralModel)}


def _parameter_names(model_class) -> list[str]:
    """A model's fitted parameters: every field but its seed and loss curve."""
    return [f.name for f in dataclasses.fields(model_class) if f.name not in ("seed", "loss_curve")]


def _to_json(name: str, value):
    if name == "trees":
        return [tree.to_lists() for tree in value]
    return value.tolist()


def _from_json(name: str, value):
    if name == "trees":
        return [Tree.from_lists(**tree) for tree in value]
    return np.array(value, dtype=float)


def model_to_dict(model, scaler: FeatureScaler) -> dict:
    if type(model) not in _MODEL_CLASSES.values():
        raise TypeError(f"cannot serialize model of type {type(model).__name__}")
    return {
        "format_version": FORMAT_VERSION,
        "kind": model.kind,
        "seed": model.seed,
        "loss_curve": [float(v) for v in model.loss_curve],
        "scaler": {
            "means": scaler.means.tolist(),
            "stds": scaler.stds.tolist(),
        },
        "parameters": {
            name: _to_json(name, getattr(model, name)) for name in _parameter_names(type(model))
        },
    }


def model_from_dict(doc: dict):
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format_version {version!r}")
    scaler = FeatureScaler(
        means=np.array(doc["scaler"]["means"], dtype=float),
        stds=np.array(doc["scaler"]["stds"], dtype=float),
    )
    model_class = _MODEL_CLASSES.get(doc["kind"])
    if model_class is None:
        raise ValueError(f"unknown model kind {doc['kind']!r}")
    stored = doc["parameters"]
    params = {name: _from_json(name, stored[name]) for name in _parameter_names(model_class)}
    return model_class(**params, seed=doc["seed"], loss_curve=list(doc["loss_curve"])), scaler
