"""Checks that need the public Swissmetro survey file; they skip unless it is
available (SWISSMETRO_DAT env var or data/swissmetro.dat[.gz])."""

import numpy as np

from modechoice.benchmarks import fit_scaler
from modechoice.dataset import ColumnMap, balanced_split, load_raw, to_choice_situations

from conftest import real_data_path, records, requires_real_data

# documented summary statistics for a balanced 1,200-row sample of the survey;
# the sampling seed behind them is unknown, so these are ±25% sanity bands,
# not equalities
EXPECTED_NUMERIC_MEANS = {
    "train_time": 160.6,
    "train_cost": 89.1,
    "car_time": 139.1,
    "car_cost": 87.9,
    "swissmetro_time": 84.2,
    "swissmetro_cost": 110.2,
}
EXPECTED_BINARY_MEANS = {"regular_user": 0.34, "annual_pass": 0.13}


def _situations():
    cmap = ColumnMap()
    return to_choice_situations(load_raw(real_data_path(), cmap), cmap)


@requires_real_data
def test_full_file_yields_9036_situations():
    assert len(_situations()) == 9036


@requires_real_data
def test_balanced_sample_means_within_band():
    situations = _situations()
    train, test = balanced_split(situations, 1000, 200, seed=42)
    # ingest keeps the file's row order, so each row's index finds its position
    rows = np.r_[train.row_index, test.row_index]
    sample = situations[np.searchsorted(situations.row_index, rows)]
    scaler = fit_scaler(sample)
    for name, observed in zip(EXPECTED_NUMERIC_MEANS, scaler.means):
        target = EXPECTED_NUMERIC_MEANS[name]
        assert abs(observed - target) <= 0.25 * target, (name, observed, target)
    regular = np.mean(sample.regular)
    annual = np.mean(sample.annual_pass)
    assert abs(regular - 0.34) <= 0.25 * 0.34, regular
    assert abs(annual - 0.13) <= 0.25 * 0.13, annual


@requires_real_data
def test_reingest_byte_determinism():
    assert records(_situations()) == records(_situations())
