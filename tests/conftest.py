"""Shared fixtures."""

import csv
import functools

import numpy as np
import pytest

from spidergda.verify import SUITES


@pytest.fixture(scope="session")
def suite_checks():
    """`suite_checks(suite)`: check name -> `Check` of a `verify` suite,
    each suite run once per session."""
    return functools.cache(lambda suite: {c.name: c for c in SUITES[suite]()})


def _save_dataset_csv(path, features: np.ndarray, targets: np.ndarray,
                      groups: np.ndarray) -> None:
    """Write a dataset to CSV with the header `load_dataset_csv` reads:
    feature_0,...,feature_{d-1},target,group (UTF-8, LF, shortest repr)."""
    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    groups = np.asarray(groups, dtype=np.int64)
    d = features.shape[1]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"feature_{j}" for j in range(d)] + ["target", "group"])
        for i in range(features.shape[0]):
            writer.writerow([repr(float(v)) for v in features[i]]
                            + [repr(float(targets[i])), int(groups[i])])


@pytest.fixture(scope="session")
def save_dataset_csv():
    """`save_dataset_csv(path, features, targets, groups)`: write a dataset
    CSV for `load_dataset_csv` (the package has no writer)."""
    return _save_dataset_csv
