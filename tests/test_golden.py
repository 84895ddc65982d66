"""Golden digests: SHA-256 of iterates that must not move.

Rerun equality is tested elsewhere; these pin the actual bits, so a change
to an RNG stream, a summation order or an oracle's arithmetic fails here
even when every tolerance-based test still passes.  A change that moves a
trajectory on purpose updates the digest and says why in CHANGES.md.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from spidergda import (Box, FiniteSum, GroupDroSpec, ProblemInstance,
                       SmoothnessMeta, SolverConfig, StochasticOracle,
                       as_problem, estimator_mse, full_grad_x, full_grad_y,
                       lyapunov, make_group_dro, make_quadratic_saddle,
                       make_two_group_regression, run)
from spidergda.cli import EXIT_OK, run_experiment

# output_pair and every trace row's (x, y) of the criterion-08 group-DRO
# config, seeds 0-3; the hinge variant swaps only the loss
GDRO_DIGESTS = {
    "squared": "091077a1b9c7fc6f2bbe916cd33fb315f6a3cdf0c477f7b9253659e457aab88a",
    "hinge": "b83468f176df6e764ada22f3414027456fdd1702d80c6d673b8ab9ec9f0a99e8",
}

# full_grad_x/y of four quadratic-saddle fixtures at 50 random points each
QUAD_FULL_GRAD_DIGEST = \
    "1f3035fe1ffd724fb9993ee4e91b1230f8ef3dffb6e34d7cc0cba467f8669f24"

# mse_x, mse_y, se_x and se_y of estimator_mse on a 4x3 quadratic saddle
# along a six-point trajectory (M=4, 64 trials)
ESTIMATOR_MSE_DIGEST = \
    "7b54a6e3e510e77737ed10105c2d361c654e7c7f293a84eb7c9ed4d4dd996255"

# value, f_r, d_r and p_r of the certified merit at all 50 trace rows of
# criterion 12's run (a 1-D saddle whose p_r comes from a 513-point grid)
CERTIFIED_MERIT_DIGEST = \
    "de8a3cd1417d5f23f3a73486bca2acfb5007e5dc7f28d576a1f28d8f17e345c0"


@pytest.mark.parametrize("loss", sorted(GDRO_DIGESTS))
def test_group_dro_trajectory_digest(loss):
    h = hashlib.sha256()
    for seed in range(4):
        base = make_two_group_regression(n=200, d=3, minority_frac=0.1,
                                         noise=0.1, noise_ratio=10.0,
                                         seed=seed)
        spec = GroupDroSpec(groups=base.groups, loss=loss)
        prob = as_problem(make_group_dro(spec), lam=1e-3)
        config = SolverConfig(K=40, T=25, M=32, B=200, alpha_x=5e-3,
                              alpha_y=0.05, beta=0.05, r=0.5, seed=seed)
        trace = run(prob, config)
        h.update(trace.output_pair[0].tobytes())
        h.update(trace.output_pair[1].tobytes())
        for row in trace.rows:
            h.update(row.x.tobytes())
            h.update(row.y.tobytes())
    assert h.hexdigest() == GDRO_DIGESTS[loss]


def test_quadratic_full_grad_digest():
    h = hashlib.sha256()
    for d_x, d_y in [(2, 2), (4, 3), (1, 1), (5, 2)]:
        prob = make_quadratic_saddle(d_x, d_y, seed=3)
        rng = np.random.default_rng(1)
        for _ in range(50):
            x, y = rng.normal(size=d_x), rng.normal(size=d_y)
            h.update(full_grad_x(prob, x, y).tobytes())
            h.update(full_grad_y(prob, x, y).tobytes())
    assert h.hexdigest() == QUAD_FULL_GRAD_DIGEST


def test_estimator_mse_digest():
    prob = make_quadratic_saddle(4, 3, n_samples=32, seed=2)
    rng = np.random.default_rng(5)
    x, y = rng.normal(size=4), rng.normal(size=3)
    traj = [(x, y)]
    for _ in range(5):
        x = x + 0.05 * rng.normal(size=4)
        y = y + 0.05 * rng.normal(size=3)
        traj.append((x, y))
    res = estimator_mse(prob, traj, M=4, trials=64,
                        rng=np.random.default_rng(9))
    h = hashlib.sha256()
    for a in (res.mse_x, res.mse_y, res.se_x, res.se_y):
        h.update(a.tobytes())
    assert h.hexdigest() == ESTIMATOR_MSE_DIGEST


def test_certified_merit_digest():
    # criterion 12: F = a x^2/2 + b x y - c y^2/2 on [-4, 4] x [-2, 2]
    a, b, c, r = 2.0, 1.0, 1.0, 1.0
    oracle = StochasticOracle(
        regime=FiniteSum(1),
        grads_batch=lambda X, Y, ids: (a * X + b * Y, b * X - c * Y),
        values_batch=lambda X, Y, ids: (0.5 * a * X ** 2 + b * X * Y
                                        - 0.5 * c * Y ** 2)[:, 0])
    prob = ProblemInstance(
        oracle=oracle, set_x=Box([-4.0], [4.0]), set_y=Box([-2.0], [2.0]),
        constants=SmoothnessMeta(L_x=a, L_y=max(b, c), rho=0.0, ell=10.0,
                                 mu=math.sqrt(2.0 * c), theta=0.5))
    config = SolverConfig(K=50, T=1, M=1, B=1, alpha_x=0.05, alpha_y=0.2,
                          beta=0.1, r=r, seed=0)
    trace = run(prob, config, x0=np.array([1.5]), y0=np.array([1.0]))
    assert len(trace.rows) == 50
    h = hashlib.sha256()
    for row in trace.rows:
        lv = lyapunov(prob, r, row.x, row.y, row.z)
        assert lv.certified
        h.update(np.array([lv.value, lv.f_r, lv.d_r, lv.p_r]).tobytes())
    assert h.hexdigest() == CERTIFIED_MERIT_DIGEST


# trace_seed*.csv and summary.json of two small `spidergda run` configs.
# The quadratic one turns on every diagnostic (per-row gs_residuals, the
# merit function with its solve_x_r ascents, dz_norm); the kl_example one
# overrides K/T/M; the two_group_regression one runs a Moreau-smoothed
# composite at a fixed lambda with user mu and theta.
CLI_CONFIGS = {
    "quadratic": {
        "problem": {"kind": "quadratic_saddle", "dim_x": 4, "dim_y": 3,
                    "n_samples": 16, "seed": 11},
        "tuner": {"epsilon": 0.001,
                  "overrides": {"alpha_y": 4.0, "beta": 0.016, "K": 6,
                                "T": 4, "M": 8}},
        "solver": {"trace_stride": 1},
        "diagnostics": {"residual_stride": 1, "lyapunov_stride": 10,
                        "dz_norm": True},
        "seeds": [0, 1],
    },
    "kl_example": {
        "problem": {"kind": "kl_example"},
        "tuner": {"epsilon": 0.1,
                  "overrides": {"alpha_y": 0.2, "K": 30, "T": 3, "M": 2,
                                "B": 1}},
        "solver": {"y0": [1.8]},
        "diagnostics": {"residual_stride": 4},
        "seeds": [0, 1],
    },
    "two_group_regression": {
        "problem": {"kind": "two_group_regression", "n": 60, "seed": 2},
        "tuner": {"epsilon": 0.05, "mu": 0.5, "theta": 0.5, "lambda": 0.01,
                  "sample_cap": 1e12, "overrides": {"K": 5, "T": 4, "M": 4}},
        "diagnostics": {"residual_stride": 2},
        "seeds": [0, 1],
    },
}

CLI_DIGESTS = {
    "quadratic": {
        "summary.json":
            "40d63be598481dea101675ee3a33be95a6a869802a27a2a3e46e2a4defda6eff",
        "trace_seed0.csv":
            "8937e6550ddb57d515d34f25ca37c48064fd4efdd866eb6a61f0ea997e26f27e",
        "trace_seed1.csv":
            "4872f4ae4bf184cf8381000819f82a32e6663fa28bc3f94df80d70dd9ed4c797",
    },
    "kl_example": {
        "summary.json":
            "a80e02fa0b3449be5b45c59671ba0e38f94963042d0213a3942ace1ea8423808",
        "trace_seed0.csv":
            "c85948e0be2165cd29f0206d443bf64586641ea0cae6c66173c3d79df87644d9",
        "trace_seed1.csv":
            "c85948e0be2165cd29f0206d443bf64586641ea0cae6c66173c3d79df87644d9",
    },
    "two_group_regression": {
        "summary.json":
            "9114dde440d1773811fa407e5b8edd196b8985ce2cf3d0d9802dad1f7d2b80be",
        "trace_seed0.csv":
            "dbcd528455604108f7a64d6b88136ff953082b1d3a80cb5a0be1af98a5648e8a",
        "trace_seed1.csv":
            "6c67bb35a2c0fd8103f6b87fc667885dfca4b1b8662a49617594da5431aea77e",
    },
}


@pytest.mark.parametrize("name", sorted(CLI_CONFIGS))
def test_cli_artifact_digests(name, tmp_path):
    cfg = dict(CLI_CONFIGS[name],
               output={"directory": str(tmp_path / "out"),
                       "formats": ["csv", "json"]})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert run_experiment(str(path), quiet=True) == EXIT_OK
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
           for f in sorted((tmp_path / "out").iterdir())}
    assert got == CLI_DIGESTS[name]
