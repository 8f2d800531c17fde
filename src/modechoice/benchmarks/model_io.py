"""Versioned JSON serialization of fitted models together with their scaler."""

from __future__ import annotations

import dataclasses

import numpy as np

from .features import FeatureScaler
from .forest import ForestModel, trees_from_json, trees_to_json
from .mnl import MnlModel
from .neural import NeuralModel

# 2: flat trees; 3: level-wise forest; 4: NN batch losses; 5: no children;
# 6: one node string per tree, with cuts into a shared threshold table
FORMAT_VERSION = 6

_MODEL_CLASSES = {model.kind: model for model in (MnlModel, ForestModel, NeuralModel)}


def _parameter_names(model_class) -> list[str]:
    """A model's fitted parameters: every field but its seed and loss curve."""
    return [f.name for f in dataclasses.fields(model_class) if f.name not in ("seed", "loss_curve")]


def _to_json(name: str, value):
    if name == "trees":
        return trees_to_json(value)
    return value.tolist()


def _from_json(name: str, value):
    if name == "trees":
        return trees_from_json(value)
    return _numbers(name, value)


def _numbers(name: str, value) -> np.ndarray:
    """A stored array of JSON numbers, nested to any depth, as float64; a
    ValueError naming the first entry that is not one, such as a bool, a
    string or null."""
    entries = np.array(value, dtype=object)
    for entry in entries.flat:
        if type(entry) not in (int, float):
            raise ValueError(f"{name} entry {entry!r} is not a number")
    return entries.astype(float)


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
    if not isinstance(doc, dict):
        raise ValueError(f"a model is a JSON object, not {type(doc).__name__}")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format_version {version!r}")
    scaler = FeatureScaler(
        means=_numbers("means", doc["scaler"]["means"]),
        stds=_numbers("stds", doc["scaler"]["stds"]),
    )
    model_class = _MODEL_CLASSES.get(doc["kind"])
    if model_class is None:
        raise ValueError(f"unknown model kind {doc['kind']!r}")
    stored = doc["parameters"]
    params = {name: _from_json(name, stored[name]) for name in _parameter_names(model_class)}
    return model_class(**params, seed=doc["seed"], loss_curve=list(doc["loss_curve"])), scaler
