"""Error types shared by the benchmark models. Their train settings,
TrainConfig and its defaults, live in the package's `config`, which needs no
numpy."""

from __future__ import annotations


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
