"""Versioned JSON serialization of fitted models together with their scaler."""

from __future__ import annotations

import numpy as np

from .features import FeatureScaler
from .forest import ForestModel, Tree
from .mnl import MnlModel
from .neural import NeuralModel

FORMAT_VERSION = 2  # 2: random-forest trees as flat node arrays


def model_to_dict(model, scaler: FeatureScaler) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": model.kind,
        "seed": model.seed,
        "loss_curve": [float(v) for v in model.loss_curve],
        "scaler": {
            "means": scaler.means.tolist(),
            "stds": scaler.stds.tolist(),
        },
    }
    if isinstance(model, MnlModel):
        doc["parameters"] = {
            "weights": model.weights.tolist(),
            "intercepts": model.intercepts.tolist(),
        }
    elif isinstance(model, NeuralModel):
        doc["parameters"] = {
            "w1": model.w1.tolist(),
            "b1": model.b1.tolist(),
            "w2": model.w2.tolist(),
            "b2": model.b2.tolist(),
        }
    elif isinstance(model, ForestModel):
        doc["parameters"] = {
            "trees": [
                {name: column.tolist() for name, column in tree._asdict().items()}
                for tree in model.trees
            ]
        }
    else:
        raise TypeError(f"cannot serialize model of type {type(model).__name__}")
    return doc


def model_from_dict(doc: dict):
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format_version {version!r}")
    scaler = FeatureScaler(
        means=np.array(doc["scaler"]["means"], dtype=float),
        stds=np.array(doc["scaler"]["stds"], dtype=float),
    )
    kind = doc["kind"]
    params = doc["parameters"]
    common = {"seed": doc["seed"], "loss_curve": list(doc["loss_curve"])}
    if kind == "mnl":
        model = MnlModel(
            weights=np.array(params["weights"], dtype=float),
            intercepts=np.array(params["intercepts"], dtype=float),
            **common,
        )
    elif kind == "nn":
        model = NeuralModel(
            w1=np.array(params["w1"], dtype=float),
            b1=np.array(params["b1"], dtype=float),
            w2=np.array(params["w2"], dtype=float),
            b2=np.array(params["b2"], dtype=float),
            **common,
        )
    elif kind == "rf":
        model = ForestModel(trees=[Tree.from_lists(**tree) for tree in params["trees"]], **common)
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    return model, scaler

