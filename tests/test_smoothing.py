"""Envelope smoothing tests.

Oracle: the envelope definition itself, evaluated by brute force --
min over a dense grid of h(q) + (w - q)^2/(2 lam).  Closed-form prox
implementations must agree with the grid to ~1e-4 everywhere and exactly on
dyadic hand examples (lam = 1/4, w = k/8 keep every operation exact in
binary floating point).
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spidergda import (AbsValue, Box, FiniteSum, Hinge, MoreauComposite,
                       ScalarConvex, ScaledIdentity, as_problem, envelope,
                       near_stationarity_certificate, smooth_grad_x,
                       smooth_grad_y, smooth_value, spot_check_composite)
from spidergda.diagnostics import fd_check
from spidergda.smoothing import CompositeConstants


def _envelope_oracle(h, lam, w, lip=1.0):
    """Brute-force envelope value: dense-grid minimization of the defining
    problem over the interval that must contain the prox point."""
    half = lam * lip + 1.0
    q = np.linspace(w - half, w + half, 200_001)
    vals = np.array([h.value(float(t)) for t in q]) + (q - w) ** 2 / (2.0 * lam)
    return float(vals.min())


# ----------------------------------------------------------------------------
# scalar envelopes

def test_absvalue_envelope_dyadic():
    # |w| > lam: prox soft-thresholds to 0.25; value 0.25 + 0.0625/0.5
    assert envelope(AbsValue(), 0.25, 0.5) == (0.375, 1.0)
    # |w| <= lam: prox collapses to 0; quadratic cap w^2/(2 lam)
    assert envelope(AbsValue(), 0.25, 0.125) == (0.03125, 0.5)
    assert envelope(AbsValue(), 0.25, -0.5) == (0.375, -1.0)


def test_hinge_envelope_dyadic():
    assert envelope(Hinge(), 0.25, -1.0) == (0.0, 0.0)
    assert envelope(Hinge(), 0.25, 1.0) == (0.875, 1.0)
    assert envelope(Hinge(), 0.25, 0.125) == (0.03125, 0.5)


def test_scaled_identity_envelope_closed_form():
    # h(q) = a q: envelope value a w - lam a^2/2, derivative a, exactly
    for a, lam, w in [(2.0, 0.25, 1.0), (1.0, 0.5, -0.75), (0.5, 0.125, 3.0)]:
        val, der = envelope(ScaledIdentity(a), lam, w)
        assert val == a * w - lam * a * a / 2.0
        assert der == a


def test_absvalue_envelope_is_huber():
    for w in np.linspace(-2.0, 2.0, 41):
        lam = 0.3
        val, der = envelope(AbsValue(), lam, float(w))
        huber = w * w / (2 * lam) if abs(w) <= lam else abs(w) - lam / 2
        assert val == pytest.approx(huber, abs=1e-15)


def test_envelopes_match_grid_oracle():
    rng = np.random.default_rng(3)
    for h in [AbsValue(), Hinge(), ScaledIdentity(1.7)]:
        lip = getattr(h, "a", 1.0)
        for _ in range(25):
            lam = float(rng.uniform(0.05, 1.0))
            w = float(rng.uniform(-3.0, 3.0))
            val, _ = envelope(h, lam, w)
            assert val == pytest.approx(_envelope_oracle(h, lam, w, lip),
                                        abs=1e-4)


def test_envelope_sandwich():
    # h^lam <= h <= h^lam + lam ell_h^2 / 2 for 1-Lipschitz h
    rng = np.random.default_rng(4)
    for h in [AbsValue(), Hinge()]:
        for _ in range(200):
            lam = float(rng.uniform(0.01, 2.0))
            w = float(rng.uniform(-5.0, 5.0))
            val, _ = envelope(h, lam, w)
            assert val <= h.value(w) + 1e-12
            assert h.value(w) <= val + lam / 2.0 + 1e-12


def test_envelope_derivative_lipschitz():
    rng = np.random.default_rng(5)
    lam = 0.2
    for h in [AbsValue(), Hinge(), ScaledIdentity(2.0)]:
        for _ in range(300):
            w1, w2 = rng.uniform(-2.0, 2.0, size=2)
            _, d1 = envelope(h, lam, float(w1))
            _, d2 = envelope(h, lam, float(w2))
            assert abs(d1 - d2) <= abs(w1 - w2) / lam + 1e-12


def test_envelope_rejects_bad_lambda():
    with pytest.raises(ValueError):
        envelope(AbsValue(), 0.0, 1.0)


# ----------------------------------------------------------------------------
# composite smoothing

def _affine_composite(seed=0, d_x=3, d_h=2, n=4):
    """phi(u, y) = u.y + y.y/2 over nonnegative y, c affine per sample."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, d_h, d_x))
    b = rng.normal(size=(n, d_h))
    ell_c = float(max(np.linalg.norm(A[i], 2) for i in range(n)))
    return MoreauComposite(
        c=lambda x, i: A[i] @ x + b[i],
        c_jac=lambda x, i: A[i].T,
        h=[AbsValue(), Hinge()],
        phi=lambda u, y, i: float(u @ y + 0.5 * y @ y),
        phi_grad1=lambda u, y, i: y.copy(),
        phi_grad_y=lambda u, y, i: u + y,
        constants=CompositeConstants(ell_c=ell_c, ell_h=1.0, ell_phi=3.0,
                                     L_c=0.0, L_phi=1.0, d_h=d_h),
        regime=FiniteSum(n),
        set_x=Box(-2 * np.ones(d_x), 2 * np.ones(d_x)),
        set_y=Box(0.25 * np.ones(d_h), 2 * np.ones(d_h)))


def test_smooth_value_by_hand():
    # single sample, c(x) = x (identity), h = (|.|, hinge), y = (1, 2):
    # u = (0.375, 0.875) at x = (0.5, 1.0), lam = 1/4
    comp = MoreauComposite(
        c=lambda x, i: x.copy(),
        c_jac=lambda x, i: np.eye(2),
        h=[AbsValue(), Hinge()],
        phi=lambda u, y, i: float(u @ y),
        phi_grad1=lambda u, y, i: y.copy(),
        phi_grad_y=lambda u, y, i: u.copy(),
        constants=CompositeConstants(ell_c=1.0, ell_h=1.0, ell_phi=3.0,
                                     L_c=0.0, L_phi=1.0, d_h=2),
        regime=FiniteSum(1),
        set_x=Box([-2, -2], [2, 2]), set_y=Box([0, 0], [4, 4]))
    x = np.array([0.5, 1.0])
    y = np.array([1.0, 2.0])
    assert smooth_value(comp, 0.25, x, y, 0) == 0.375 * 1.0 + 0.875 * 2.0
    # grad_x = I @ (envelope derivs * y) = (1*1, 1*2)
    assert smooth_grad_x(comp, 0.25, x, y, 0).tolist() == [1.0, 2.0]
    assert smooth_grad_y(comp, 0.25, x, y, 0).tolist() == [0.375, 0.875]


def test_smooth_gradients_pass_fd_check():
    comp = _affine_composite(seed=1)
    lam = 0.3
    rng = np.random.default_rng(2)
    for trial in range(5):
        x0 = comp.set_x.project(rng.uniform(-1.5, 1.5, size=comp.dim_x))
        y0 = comp.set_y.project(rng.uniform(0.3, 1.8, size=comp.dim_y))
        i = int(rng.integers(4))
        err_x = fd_check(lambda x: smooth_value(comp, lam, x, y0, i),
                         lambda x: smooth_grad_x(comp, lam, x, y0, i), x0)
        err_y = fd_check(lambda y: smooth_value(comp, lam, x0, y, i),
                         lambda y: smooth_grad_y(comp, lam, x0, y, i), y0)
        assert err_x <= 1e-5
        assert err_y <= 1e-5


def test_as_problem_carries_smoothed_constants():
    comp = _affine_composite()
    lam = 0.25
    p = as_problem(comp, lam)
    cc = comp.constants
    want_Lx = math.sqrt(3 * cc.ell_c ** 4 * cc.ell_phi ** 2 * cc.d_h / lam ** 2
                        + 3 * cc.d_h * cc.ell_h ** 2 * cc.ell_phi ** 2 * cc.L_c ** 2
                        + 3 * cc.ell_c ** 4 * cc.d_h ** 2 * cc.ell_h ** 4 * cc.L_phi ** 2)
    assert p.constants.L_x == want_Lx
    assert p.constants.rho == (cc.d_h * cc.L_phi * cc.ell_h ** 2 * cc.ell_c ** 2
                               + cc.L_c * cc.ell_phi * cc.ell_h * math.sqrt(cc.d_h))
    assert p.metadata["lambda"] == lam
    # the oracle is the smoothed objective
    x = np.array([0.3, -0.4, 0.8])
    y = np.array([0.5, 1.0])
    assert p.oracle.eval_f(x, y, 2) == smooth_value(comp, lam, x, y, 2)
    with pytest.raises(ValueError):
        as_problem(comp, 0.0)


def test_linear_pieces_smooth_to_constant_shift():
    # ScaledIdentity components make the envelope an exact downward shift
    # by lam a^2/2, so the smoothed objective never bends the landscape
    comp = MoreauComposite(
        c=lambda x, i: np.array([x[0] + float(i)]),
        c_jac=lambda x, i: np.array([[1.0]]),
        h=[ScaledIdentity(2.0)],
        phi=lambda u, y, i: float(u[0] * y[0]),
        phi_grad1=lambda u, y, i: y.copy(),
        phi_grad_y=lambda u, y, i: u.copy(),
        constants=CompositeConstants(ell_c=1.0, ell_h=2.0, ell_phi=1.0,
                                     L_c=0.0, L_phi=1.0, d_h=1),
        regime=FiniteSum(3),
        set_x=Box([-2], [2]), set_y=Box([0.5], [1.5]))
    lam = 0.125
    x, y = np.array([0.75]), np.array([1.0])
    for i in range(3):
        raw = 2.0 * (x[0] + i) * y[0]
        shift = lam * 4.0 / 2.0 * y[0]
        assert smooth_value(comp, lam, x, y, i) == raw - shift


# ----------------------------------------------------------------------------
# array envelopes and the batch path
#
# The vectorized path must reproduce the scalar one bit for bit, so these
# compare raw bytes (which also tells -0.0 from +0.0), not values.

def _same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# entries of w: plain floats, or the branch points 0, -0.0, +-lam and
# their nearest neighbours, resolved against the drawn lam
_W_ENTRY = st.one_of(
    st.floats(-1e3, 1e3, allow_nan=False),
    st.sampled_from(["0", "-0", "lam", "-lam", "lam+", "lam-", "-lam+",
                     "-lam-"]))


def _resolve_w(entries, lam):
    named = {"0": 0.0, "-0": -0.0, "lam": lam, "-lam": -lam,
             "lam+": np.nextafter(lam, np.inf), "lam-": np.nextafter(lam, 0.0),
             "-lam+": -np.nextafter(lam, np.inf),
             "-lam-": -np.nextafter(lam, 0.0)}
    return np.array([named[e] if isinstance(e, str) else e for e in entries],
                    dtype=np.float64)


@settings(deadline=None)
@given(st.sampled_from(["abs", "hinge", "identity"]),
       st.floats(1e-6, 10.0), st.floats(-4.0, 4.0), st.booleans(),
       st.lists(_W_ENTRY, min_size=1, max_size=12))
def test_array_envelopes_match_scalar_bitwise(kind, lam, a, numpy_lam,
                                              entries):
    h = {"abs": AbsValue(), "hinge": Hinge(),
         "identity": ScaledIdentity(a)}[kind]
    lam = np.float64(lam) if numpy_lam else lam  # tuners may hand either
    w = _resolve_w(entries, float(lam))
    vals, ders = h.envelopes(lam, w)
    ref = [envelope(h, lam, float(wk)) for wk in w]
    assert _same_bits(vals, [v for v, _ in ref])
    assert _same_bits(ders, [d for _, d in ref])


@pytest.mark.parametrize("h", [AbsValue(), Hinge(), ScaledIdentity(1.7)],
                         ids=["abs", "hinge", "identity"])
def test_array_envelopes_match_scalar_on_dense_w(h):
    # the squares differ from a plain multiply in well under 1 % of random
    # values, so a dense sample is what catches an array `** 2`
    rng = np.random.default_rng(5)
    for lam in (1e-3, 0.37):
        w = rng.normal(size=20_000) * 10.0 ** rng.integers(-3, 3, size=20_000)
        vals, ders = h.envelopes(lam, w)
        ref = np.array([envelope(h, lam, float(wk)) for wk in w])
        assert _same_bits(vals, ref[:, 0])
        assert _same_bits(ders, ref[:, 1])


def test_array_envelopes_reject_bad_lambda():
    for h in (AbsValue(), Hinge(), ScaledIdentity(2.0)):
        with pytest.raises(ValueError):
            h.envelopes(0.0, np.zeros(2))


class _UserAbs(ScalarConvex):
    """|q| as a user would write it: value and prox, no `envelopes`."""

    def value(self, w):
        return abs(w)

    def prox(self, lam, w):
        return math.copysign(max(abs(w) - lam, 0.0), w)


def test_default_array_envelopes_loop_the_scalar_prox():
    h = _UserAbs()
    w = np.array([-1.0, 0.05, 0.75])
    vals, ders = h.envelopes(0.25, w)
    ref = [envelope(h, 0.25, float(wk)) for wk in w]
    assert _same_bits(vals, [v for v, _ in ref])
    assert _same_bits(ders, [d for _, d in ref])


def _with_batch_hooks(comp, A, b):
    """The affine composite plus its batched hooks, built the way the
    docstring of StochasticOracle asks (stacked matmul, same layouts)."""
    comp.c_batch = lambda X, ids: ((A[ids] @ X[:, :, None])[:, :, 0] + b[ids],
                                   np.swapaxes(A[ids], 1, 2))
    comp.phi_grads_batch = lambda u, Y, ids: (Y.copy(), u + Y)
    return comp


def test_as_problem_installs_batch_path_only_with_both_hooks():
    comp = _affine_composite(seed=3)
    assert as_problem(comp, 0.25).oracle.grads_batch is None
    comp.c_batch = lambda x, ids: None
    assert as_problem(comp, 0.25).oracle.grads_batch is None
    comp.phi_grads_batch = lambda u, y, ids: None
    assert as_problem(comp, 0.25).oracle.grads_batch is not None


def test_composite_batch_rows_match_per_sample_path():
    # two h pieces (|.| and hinge), so the envelope loop over components
    # and the stacked Jacobian product both run with d_h > 1
    n, d_x, d_h = 6, 3, 2
    rng = np.random.default_rng(4)
    A = rng.normal(size=(n, d_h, d_x))
    b = rng.normal(size=(n, d_h))
    comp = MoreauComposite(
        c=lambda x, i: A[i] @ x + b[i],
        c_jac=lambda x, i: A[i].T,
        h=[AbsValue(), Hinge()],
        phi=lambda u, y, i: float(u @ y),
        phi_grad1=lambda u, y, i: y.copy(),
        phi_grad_y=lambda u, y, i: u + y,
        constants=CompositeConstants(ell_c=3.0, ell_h=1.0, ell_phi=3.0,
                                     L_c=0.0, L_phi=1.0, d_h=d_h),
        regime=FiniteSum(n),
        set_x=Box(-2 * np.ones(d_x), 2 * np.ones(d_x)),
        set_y=Box(np.zeros(d_h), 2 * np.ones(d_h)))
    scalar = as_problem(comp, 0.3)
    batch = as_problem(_with_batch_hooks(comp, A, b), 0.3)
    for _ in range(50):
        # one point per row
        X = rng.normal(size=(9, d_x))
        Y = rng.choice([0.0, 0.5, 1.25], size=(9, d_h))  # zeros reach -0.0 terms
        ids = rng.integers(0, n, size=9)
        gx, gy = batch.oracle.batch_grads(X, Y, ids)
        rx, ry = scalar.oracle.batch_grads(X, Y, ids)
        assert _same_bits(gx, rx) and _same_bits(gy, ry)
        for row, i in enumerate(ids):
            assert _same_bits(gx[row], smooth_grad_x(comp, 0.3, X[row], Y[row], int(i)))
            assert _same_bits(gy[row], smooth_grad_y(comp, 0.3, X[row], Y[row], int(i)))


# ----------------------------------------------------------------------------
# certificate translation

def test_certificate_hand_example():
    comp = MoreauComposite(
        c=lambda x, i: x.copy(), c_jac=lambda x, i: np.eye(1),
        h=[AbsValue()],
        phi=lambda u, y, i: float(u @ y),
        phi_grad1=lambda u, y, i: y.copy(),
        phi_grad_y=lambda u, y, i: u.copy(),
        constants=CompositeConstants(ell_c=1.0, ell_h=1.0, ell_phi=1.0,
                                     L_c=1.0, L_phi=1.0, d_h=1),
        regime=FiniteSum(1), set_x=Box([-1], [1]), set_y=Box([0], [1]))
    # rho_lam = 1*1*1*1 + 1*1*1*1 = 2 (lambda-independent); with r=2,
    # D_X=1, g=1/2, lam=1/4:
    # delta = (2/2)(1/2) + (1/2)(1/2) + (2/8 + 1/2)(1/4) + 1/4 = 1.1875
    delta, g, res_y = near_stationarity_certificate(
        comp, 0.25, r=2.0, grad_z_norm=0.5, D_X=1.0)
    assert delta == 1.1875
    assert g == 0.5
    assert res_y == math.sqrt(0.25 ** 2 / 2.0)


def test_certificate_zero_gradient_leaves_smoothing_bias():
    comp = _affine_composite()
    cc = comp.constants
    lam = 0.1
    delta, g, res_y = near_stationarity_certificate(
        comp, lam, r=5.0, grad_z_norm=0.0, D_X=3.0, res_y_smoothed=0.02)
    assert g == 0.0
    assert delta == lam * cc.ell_phi * cc.ell_h ** 2 * math.sqrt(cc.d_h)
    want = math.sqrt(2 * 0.02 ** 2 + lam ** 2 * cc.d_h * cc.L_phi ** 2 * cc.ell_h ** 4 / 2)
    assert res_y == want


def test_certificate_tightens_as_lambda_shrinks():
    comp = _affine_composite()
    sol = {"r": 5.0, "grad_z_norm": 0.3, "D_X": 3.0}
    deltas = [near_stationarity_certificate(comp, lam, **sol)[0]
              for lam in (0.5, 0.1, 0.01, 1e-6)]
    assert all(a > b for a, b in zip(deltas, deltas[1:]))
    # limit: only the g-terms survive
    lim = near_stationarity_certificate(comp, 1e-12, **sol)[0]
    cc = comp.constants
    rho_lam = (cc.d_h * cc.L_phi * cc.ell_h ** 2 * cc.ell_c ** 2
               + cc.L_c * cc.ell_phi * cc.ell_h * math.sqrt(cc.d_h))
    want = ((rho_lam * 3.0 / 5.0) * 0.3
            + (cc.ell_phi * cc.ell_h * cc.ell_c * math.sqrt(cc.d_h) / 5.0) * 0.3
            + (rho_lam / 50.0 + 0.2) * 0.09)
    assert lim == pytest.approx(want, rel=1e-9)


# ----------------------------------------------------------------------------
# contract spot checks

def test_spot_check_accepts_valid_composite():
    comp = _affine_composite(seed=6)
    spot_check_composite(comp, np.random.default_rng(7))


def test_spot_check_rejects_nonconvex_h():
    class Concave(AbsValue):
        def value(self, w):
            return -abs(w)

    comp = _affine_composite(seed=8)
    comp.h = [Concave(), Hinge()]
    with pytest.raises(ValueError, match="convexity"):
        spot_check_composite(comp, np.random.default_rng(9))


def test_spot_check_rejects_decreasing_phi():
    comp = _affine_composite(seed=10)
    comp.phi = lambda u, y, i: float(-u @ y)
    with pytest.raises(ValueError, match="nondecreasing"):
        spot_check_composite(comp, np.random.default_rng(11))


def test_spot_check_rejects_lipschitz_violation():
    comp = _affine_composite(seed=12)
    comp.h = [ScaledIdentity(5.0), Hinge()]  # slope 5 vs declared ell_h = 1
    with pytest.raises(ValueError, match="Lipschitz"):
        spot_check_composite(comp, np.random.default_rng(13))


def test_import_does_not_load_scipy():
    # numpy is the only runtime dependency; scipy stays a test-only oracle
    code = ("import sys, spidergda, spidergda.cli; "
            "sys.exit('scipy' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


@pytest.mark.parametrize("name", ["ell_c", "ell_h", "ell_phi", "L_c", "L_phi"])
def test_composite_constants_must_be_nonnegative_and_finite(name):
    base = dict(ell_c=1.0, ell_h=1.0, ell_phi=1.0, L_c=1.0, L_phi=1.0, d_h=1)
    with pytest.raises(ValueError, match=f"{name} must be nonnegative"):
        CompositeConstants(**dict(base, **{name: float("nan")}))
    with pytest.raises(OverflowError, match=f"{name} is inf"):
        CompositeConstants(**dict(base, **{name: float("inf")}))
