"""Feature encoding: six z-scored numerics plus two pass-through binaries.

Vector layout (fixed): [train_time, train_cost, car_time, car_cost,
swissmetro_time, swissmetro_cost] z-scored, then [is_regular_train_user,
owns_annual_pass] as raw 0/1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dataset import SituationTable
from .config import N_FEATURES, EmptyTrainingSet

N_NUMERIC = 6
N_CLASSES = 3


def _raw_matrix(situations: SituationTable) -> np.ndarray:
    """Unscaled (n, 8) feature matrix in the fixed feature order."""
    pairs = np.stack([situations.times, situations.costs], axis=2).reshape(-1, N_NUMERIC)
    return np.column_stack([pairs, situations.regular, situations.annual_pass]).astype(float)


@dataclass
class FeatureScaler:
    """Per-feature mean/std over the six numerics; degenerate (zero-variance)
    features map to 0 instead of dividing by zero."""

    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=float)
        self.stds = np.asarray(self.stds, dtype=float)
        if self.means.shape != (N_NUMERIC,) or self.stds.shape != (N_NUMERIC,):
            raise ValueError(f"scaler must cover exactly {N_NUMERIC} numeric features")
        if np.any(self.stds < 0):
            raise ValueError("stds must be non-negative")

    @property
    def degenerate(self) -> np.ndarray:
        return self.stds == 0

    def transform(self, raw: np.ndarray) -> np.ndarray:
        safe_std = np.where(self.degenerate, 1.0, self.stds)
        z = (raw - self.means) / safe_std
        return np.where(self.degenerate, 0.0, z)


def fit_scaler(train: SituationTable) -> FeatureScaler:
    if not train:
        raise EmptyTrainingSet("cannot fit a scaler on an empty training set")
    raw = _raw_matrix(train)[:, :N_NUMERIC]
    return FeatureScaler(means=raw.mean(axis=0), stds=raw.std(axis=0))


def encode_matrix(situations: SituationTable, scaler: FeatureScaler) -> np.ndarray:
    """One deterministic 8-vector per situation, stacked row-wise."""
    X = _raw_matrix(situations)
    X[:, :N_NUMERIC] = scaler.transform(X[:, :N_NUMERIC])
    return X
