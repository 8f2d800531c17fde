"""Training configuration and error types shared by the benchmark models."""

from __future__ import annotations

from dataclasses import dataclass

N_FEATURES = 8  # width of the encoding in features.py, which imports it from here


class BenchmarkError(Exception):
    pass


class EmptyTrainingSet(BenchmarkError):
    pass


class NonFiniteLoss(BenchmarkError):
    pass


class ClassMissing(BenchmarkError):
    def __init__(self, missing):
        self.missing = missing
        super().__init__(f"training set lacks classes: {sorted(m.display for m in missing)}")

    def __reduce__(self):  # args holds the message; rebuild from the classes instead
        return ClassMissing, (self.missing,)


@dataclass
class TrainConfig:
    """Hyper-parameters for one benchmark kind; see default_train_config for
    the per-kind defaults (chosen to mimic common toolkit defaults)."""

    kind: str  # "mnl" | "rf" | "nn"
    seed: int = 0
    # gradient-trained models: mnl by gradient descent with step halving,
    # nn by mini-batch Adam
    learning_rate: float = 1e-3
    max_epochs: int = 200
    tolerance: float = 1e-4
    l2_strength: float = 1e-4
    hidden_units: int = 100
    batch_size: int = 200
    # random forest
    n_trees: int = 100
    max_features: str | int = "sqrt"
    bootstrap: bool = True
    max_depth: int | None = None

    def __post_init__(self):
        if self.kind not in FIELDS_READ:
            raise ValueError(f"unknown benchmark kind {self.kind!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.learning_rate <= 0 or self.max_epochs <= 0 or self.tolerance <= 0:
            raise ValueError("learning_rate, max_epochs, and tolerance must be positive")
        if self.l2_strength < 0:
            raise ValueError("l2_strength must be non-negative")
        if self.hidden_units <= 0 or self.batch_size <= 0 or self.n_trees <= 0:
            raise ValueError("hidden_units, batch_size, and n_trees must be positive")
        if self.max_depth is not None and self.max_depth <= 0:
            raise ValueError("max_depth must be positive when set")
        if self.max_features != "sqrt" and not (
            type(self.max_features) is int and 1 <= self.max_features <= N_FEATURES
        ):
            raise ValueError(f"max_features must be 'sqrt' or an int in [1, {N_FEATURES}]")


# the TrainConfig fields each kind reads; a config file may set no other
_DESCENT = ("seed", "learning_rate", "max_epochs", "tolerance", "l2_strength")
FIELDS_READ = {
    "mnl": _DESCENT,
    "rf": ("seed", "n_trees", "max_features", "bootstrap", "max_depth"),
    "nn": (*_DESCENT, "hidden_units", "batch_size"),
}


def default_train_config(kind: str, seed: int = 0) -> TrainConfig:
    if kind == "mnl":
        # full-batch descent with step halving: monotone and insensitive to the
        # initial step, so a generous starting rate is fine
        return TrainConfig(
            kind="mnl",
            seed=seed,
            learning_rate=1.0,
            max_epochs=2000,
            tolerance=1e-9,
            l2_strength=1.0,
        )
    return TrainConfig(kind=kind, seed=seed)
