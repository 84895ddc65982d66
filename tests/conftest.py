"""Shared fixtures."""

import csv
import functools

import numpy as np
import pytest

from spidergda import ScalarConvex, TraceRow
from spidergda.smoothing import _envelope_from_prox
from spidergda.verify import SUITES


@pytest.fixture(scope="session")
def suite_checks():
    """`suite_checks(suite)`: check name -> `Check` of a `verify` suite,
    each suite run once per session."""
    return functools.cache(lambda suite: {c.name: c for c in SUITES[suite]()})


def _trace_bits(trace):
    """Everything a `RunTrace` records, each column (named as a `TraceRow`
    field) and output array as its dtype, shape and bytes, so that equal
    values mean equal bits, signs of zeros included."""
    output = (None if trace.output_pair is None
              else [v.tobytes() for v in (*trace.output_pair, trace.output_z)])
    columns = (getattr(trace, name) for name in TraceRow._fields)
    return ([(c.dtype.str, c.shape, c.tobytes()) for c in columns],
            output, trace.output_index, trace.total_samples)


@pytest.fixture(scope="session")
def trace_bits():
    """`trace_bits(trace)`: the rows, output and samples of a `RunTrace`,
    bit for bit comparable."""
    return _trace_bits


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


# central-difference step of `fd_check`
_FD_STEP = 1e-5


def _fd_check(value_fn, grad_fn, point) -> float:
    """Max relative error of grad_fn against central differences of value_fn.

    Per-coordinate error |fd_j - g_j| is normalized by max(1, ||g||), so the
    result is meaningful for both tiny and large gradients.
    """
    point = np.asarray(point, dtype=np.float64)
    grad = np.asarray(grad_fn(point), dtype=np.float64)
    fd = np.empty_like(grad)
    for j in range(point.size):
        e = np.zeros_like(point)
        e[j] = _FD_STEP
        fd[j] = (value_fn(point + e) - value_fn(point - e)) / (2.0 * _FD_STEP)
    denom = max(1.0, float(np.linalg.norm(grad)))
    return float(np.max(np.abs(fd - grad)) / denom)


@pytest.fixture(scope="session")
def fd_check():
    """`fd_check(value_fn, grad_fn, point)`: max relative error of a
    gradient against central differences of its value."""
    return _fd_check


def _group_losses(spec, theta) -> np.ndarray:
    """Per-group mean loss of the linear predictor theta (true nonsmooth
    loss, not the smoothed surrogate)."""
    theta = np.asarray(theta, dtype=np.float64)
    out = np.empty(len(spec.groups))
    for gi, (X, t) in enumerate(spec.groups):
        pred = np.asarray(X, dtype=np.float64) @ theta
        t = np.asarray(t, dtype=np.float64)
        if spec.loss == "squared":
            out[gi] = float(np.mean((pred - t) ** 2))
        else:
            out[gi] = float(np.mean(np.maximum(0.0, 1.0 - t * pred)))
    return out


@pytest.fixture(scope="session")
def group_losses():
    """`group_losses(spec, theta)`: per-group mean loss of a `GroupDroSpec`."""
    return _group_losses


class _AbsValue(ScalarConvex):
    """h(q) = |q|: the prox soft-thresholds, so the envelope is the Huber
    function."""

    def envelopes(self, lam, w):
        shrunk = np.abs(w) - lam
        # +0.0 where the threshold swallows w, keeping the sign of w
        p = np.copysign(np.where(0.0 > shrunk, 0.0, shrunk), w)
        return _envelope_from_prox(lam, w, p, np.abs(p))


@pytest.fixture(scope="session")
def abs_value():
    """`abs_value()`: an |q| h component (the package ships none)."""
    return _AbsValue
