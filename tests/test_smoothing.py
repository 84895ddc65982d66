"""Envelope smoothing tests.

Oracles: scalar closed forms of each component's h and prox written here,
and the envelope definition itself, evaluated by brute force -- min over a
dense grid of h(q) + (w - q)^2/(2 lam).  The array envelopes must agree
with the grid to ~1e-4 everywhere, with the scalar prox bit for bit, and
exactly on dyadic hand examples (lam = 1/4, w = k/8 keep every operation
exact in binary floating point).
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spidergda import (Box, FiniteSum, Hinge, MoreauComposite, ScaledIdentity,
                       as_problem, near_stationarity_certificate)
from spidergda.smoothing import CompositeConstants

# the slope of the "identity" kind, h(q) = a q, where a test fixes none
_A = 1.7


def _scalar_forms(kind, a=_A):
    """h and prox_{lam h} of a component kind as scalar closed forms."""
    if kind == "abs":
        return abs, lambda lam, w: math.copysign(max(abs(w) - lam, 0.0), w)
    if kind == "hinge":
        return (lambda q: max(0.0, q),
                lambda lam, w: w if w <= 0.0 else (w - lam if w >= lam else 0.0))
    return (lambda q: a * q), (lambda lam, w: w - lam * a)


def _scalar_envelope(kind, lam, w, a=_A):
    """Envelope value h(p) + (w - p)^2/(2 lam) and derivative (w - p)/lam
    at one float w, from the scalar prox point p."""
    value, prox = _scalar_forms(kind, a)
    p = prox(lam, w)
    return value(p) + (w - p) ** 2 / (2.0 * lam), (w - p) / lam


def _component(kind, abs_value, a=_A):
    return {"abs": abs_value, "hinge": Hinge,
            "identity": lambda: ScaledIdentity(a)}[kind]()


def _envelope_at(h, lam, w):
    """(value, derivative) of h's envelope at one float w."""
    vals, ders = h.envelopes(lam, np.array([w]))
    return vals[0], ders[0]


def _envelope_oracle(value, lam, w, lip=1.0):
    """Brute-force envelope value: dense-grid minimization of the defining
    problem over the interval that must contain the prox point."""
    half = lam * lip + 1.0
    q = np.linspace(w - half, w + half, 200_001)
    vals = np.array([value(float(t)) for t in q]) + (q - w) ** 2 / (2.0 * lam)
    return float(vals.min())


# ----------------------------------------------------------------------------
# envelopes of the components

def test_absvalue_envelope_dyadic(abs_value):
    # |w| > lam: prox soft-thresholds to 0.25; value 0.25 + 0.0625/0.5;
    # |w| <= lam: prox collapses to 0; quadratic cap w^2/(2 lam)
    vals, ders = abs_value().envelopes(0.25, np.array([0.5, 0.125, -0.5]))
    assert vals.tolist() == [0.375, 0.03125, 0.375]
    assert ders.tolist() == [1.0, 0.5, -1.0]


def test_hinge_envelope_dyadic():
    vals, ders = Hinge().envelopes(0.25, np.array([-1.0, 1.0, 0.125]))
    assert vals.tolist() == [0.0, 0.875, 0.03125]
    assert ders.tolist() == [0.0, 1.0, 0.5]


def test_scaled_identity_envelope_closed_form():
    # h(q) = a q: envelope value a w - lam a^2/2, derivative a, exactly
    for a, lam, w in [(2.0, 0.25, 1.0), (1.0, 0.5, -0.75), (0.5, 0.125, 3.0)]:
        val, der = _envelope_at(ScaledIdentity(a), lam, w)
        assert val == a * w - lam * a * a / 2.0
        assert der == a


def test_absvalue_envelope_is_huber(abs_value):
    lam = 0.3
    w = np.linspace(-2.0, 2.0, 41)
    vals, _ = abs_value().envelopes(lam, w)
    huber = np.where(np.abs(w) <= lam, w * w / (2 * lam), np.abs(w) - lam / 2)
    assert vals == pytest.approx(huber, abs=1e-15)


def test_envelopes_match_grid_oracle(abs_value):
    rng = np.random.default_rng(3)
    for kind in ("abs", "hinge", "identity"):
        h, value = _component(kind, abs_value), _scalar_forms(kind)[0]
        lip = _A if kind == "identity" else 1.0
        for _ in range(25):
            lam = float(rng.uniform(0.05, 1.0))
            w = float(rng.uniform(-3.0, 3.0))
            val, _ = _envelope_at(h, lam, w)
            assert val == pytest.approx(_envelope_oracle(value, lam, w, lip),
                                        abs=1e-4)


def test_envelope_sandwich(abs_value):
    # h^lam <= h <= h^lam + lam ell_h^2 / 2 for 1-Lipschitz h
    rng = np.random.default_rng(4)
    for kind in ("abs", "hinge"):
        h, value = _component(kind, abs_value), _scalar_forms(kind)[0]
        for _ in range(200):
            lam = float(rng.uniform(0.01, 2.0))
            w = float(rng.uniform(-5.0, 5.0))
            val, _ = _envelope_at(h, lam, w)
            assert val <= value(w) + 1e-12
            assert value(w) <= val + lam / 2.0 + 1e-12


def test_envelope_derivative_lipschitz(abs_value):
    rng = np.random.default_rng(5)
    lam = 0.2
    for h in (abs_value(), Hinge(), ScaledIdentity(2.0)):
        w = rng.uniform(-2.0, 2.0, size=(300, 2))
        d = h.envelopes(lam, w.ravel())[1].reshape(300, 2)
        assert np.all(np.abs(d[:, 0] - d[:, 1])
                      <= np.abs(w[:, 0] - w[:, 1]) / lam + 1e-12)


def test_envelope_rejects_bad_lambda(abs_value):
    # a negative or NaN lambda, where `test_array_envelopes_reject_bad_lambda`
    # takes zero
    for h in (abs_value(), Hinge(), ScaledIdentity(2.0)):
        for lam in (-0.25, math.nan):
            with pytest.raises(ValueError):
                h.envelopes(lam, np.ones(2))


# ----------------------------------------------------------------------------
# composite smoothing

def _affine_rows(A, b):
    """c_batch of the affine maps c_i(x) = A_i x + b_i, built the way the
    docstring of StochasticOracle asks (stacked matmul; Jacobian rows A_i^T
    as a swapped view of A's rows)."""
    return lambda X, ids: ((A[ids] @ X[:, :, None])[:, :, 0] + b[ids],
                           np.swapaxes(A[ids], 1, 2))


def _one_row(oracle, x, y, i):
    """The oracle's values and gradients at (x, y) for sample i, from
    one-row calls: (value, grad_x, grad_y)."""
    X, Y, ids = x[None], y[None], np.array([i])
    gx, gy = oracle.batch_grads(X, Y, ids)
    return oracle.batch_values(X, Y, ids)[0], gx[0], gy[0]


def _affine_composite(abs_value, seed=0, d_x=3, d_h=2, n=4):
    """phi(u, y) = u.y + y.y/2 over nonnegative y, c affine per sample,
    h = (|.|, hinge)."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, d_h, d_x))
    b = rng.normal(size=(n, d_h))
    ell_c = float(max(np.linalg.norm(A[i], 2) for i in range(n)))
    return MoreauComposite(
        c_batch=_affine_rows(A, b),
        h=[abs_value(), Hinge()],
        phi_batch=lambda u, Y, ids: np.sum(u * Y, axis=1) + 0.5 * np.sum(Y * Y, axis=1),
        phi_grads_batch=lambda u, Y, ids: (Y.copy(), u + Y),
        constants=CompositeConstants(ell_c=ell_c, ell_h=1.0, ell_phi=3.0,
                                     L_c=0.0, L_phi=1.0, d_h=d_h),
        regime=FiniteSum(n),
        set_x=Box(-2 * np.ones(d_x), 2 * np.ones(d_x)),
        set_y=Box(0.25 * np.ones(d_h), 2 * np.ones(d_h)))


def test_smooth_value_by_hand(abs_value):
    # single sample, c(x) = x (identity), h = (|.|, hinge), y = (1, 2):
    # u = (0.375, 0.875) at x = (0.5, 1.0), lam = 1/4
    comp = MoreauComposite(
        c_batch=_affine_rows(np.eye(2)[None], np.zeros((1, 2))),
        h=[abs_value(), Hinge()],
        phi_batch=lambda u, Y, ids: np.sum(u * Y, axis=1),
        phi_grads_batch=lambda u, Y, ids: (Y.copy(), u.copy()),
        constants=CompositeConstants(ell_c=1.0, ell_h=1.0, ell_phi=3.0,
                                     L_c=0.0, L_phi=1.0, d_h=2),
        regime=FiniteSum(1),
        set_x=Box([-2, -2], [2, 2]), set_y=Box([0, 0], [4, 4]))
    x = np.array([0.5, 1.0])
    y = np.array([1.0, 2.0])
    value, gx, gy = _one_row(as_problem(comp, 0.25).oracle, x, y, 0)
    assert value == 0.375 * 1.0 + 0.875 * 2.0
    # grad_x = I @ (envelope derivs * y) = (1*1, 1*2)
    assert gx.tolist() == [1.0, 2.0]
    assert gy.tolist() == [0.375, 0.875]


def test_smooth_gradients_pass_fd_check(abs_value, fd_check):
    comp = _affine_composite(abs_value, seed=1)
    oracle = as_problem(comp, 0.3).oracle
    rng = np.random.default_rng(2)
    for trial in range(5):
        x0 = comp.set_x.project(rng.uniform(-1.5, 1.5, size=comp.set_x.dim))
        y0 = comp.set_y.project(rng.uniform(0.3, 1.8, size=comp.set_y.dim))
        i = int(rng.integers(4))
        err_x = fd_check(lambda x: _one_row(oracle, x, y0, i)[0],
                         lambda x: _one_row(oracle, x, y0, i)[1], x0)
        err_y = fd_check(lambda y: _one_row(oracle, x0, y, i)[0],
                         lambda y: _one_row(oracle, x0, y, i)[2], y0)
        assert err_x <= 1e-5
        assert err_y <= 1e-5


def test_as_problem_carries_smoothed_constants(abs_value):
    comp = _affine_composite(abs_value)
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
    # the oracle is the smoothed objective: h^lam(c(x)).y + y.y/2
    x = np.array([0.3, -0.4, 0.8])
    y = np.array([0.5, 1.0])
    w = comp.c_batch(x[None], np.array([2]))[0][0]
    u = np.array([_scalar_envelope(kind, lam, float(wj))[0]
                  for kind, wj in zip(("abs", "hinge"), w)])
    assert _one_row(p.oracle, x, y, 2)[0] == pytest.approx(u @ y + 0.5 * y @ y,
                                                           rel=1e-15)
    with pytest.raises(ValueError):
        as_problem(comp, 0.0)


def test_linear_pieces_smooth_to_constant_shift():
    # ScaledIdentity components make the envelope an exact downward shift
    # by lam a^2/2, so the smoothed objective never bends the landscape
    comp = MoreauComposite(
        c_batch=_affine_rows(np.ones((3, 1, 1)), np.arange(3.0)[:, None]),
        h=[ScaledIdentity(2.0)],
        phi_batch=lambda u, Y, ids: u[:, 0] * Y[:, 0],
        phi_grads_batch=lambda u, Y, ids: (Y.copy(), u.copy()),
        constants=CompositeConstants(ell_c=1.0, ell_h=2.0, ell_phi=1.0,
                                     L_c=0.0, L_phi=1.0, d_h=1),
        regime=FiniteSum(3),
        set_x=Box([-2], [2]), set_y=Box([0.5], [1.5]))
    lam = 0.125
    oracle = as_problem(comp, lam).oracle
    x, y = np.array([0.75]), np.array([1.0])
    for i in range(3):
        raw = 2.0 * (x[0] + i) * y[0]
        shift = lam * 4.0 / 2.0 * y[0]
        assert _one_row(oracle, x, y, i)[0] == raw - shift


# ----------------------------------------------------------------------------
# array envelopes and the row path
#
# The array envelopes must reproduce the scalar prox closed forms bit for
# bit, and a row of a many-row call its one-row call, so these compare raw
# bytes (which also tells -0.0 from +0.0), not values.

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
def test_array_envelopes_match_scalar_bitwise(abs_value, kind, lam, a,
                                              numpy_lam, entries):
    h = _component(kind, abs_value, a)
    lam = np.float64(lam) if numpy_lam else lam  # tuners may hand either
    w = _resolve_w(entries, float(lam))
    vals, ders = h.envelopes(lam, w)
    ref = [_scalar_envelope(kind, lam, float(wk), a) for wk in w]
    assert _same_bits(vals, [v for v, _ in ref])
    assert _same_bits(ders, [d for _, d in ref])


@pytest.mark.parametrize("kind", ["abs", "hinge", "identity"])
def test_array_envelopes_match_scalar_on_dense_w(abs_value, kind):
    # the squares differ from a plain multiply in well under 1 % of random
    # values, so a dense sample is what catches an array `** 2`
    h = _component(kind, abs_value)
    rng = np.random.default_rng(5)
    for lam in (1e-3, 0.37):
        w = rng.normal(size=20_000) * 10.0 ** rng.integers(-3, 3, size=20_000)
        vals, ders = h.envelopes(lam, w)
        ref = np.array([_scalar_envelope(kind, lam, float(wk)) for wk in w])
        assert _same_bits(vals, ref[:, 0])
        assert _same_bits(ders, ref[:, 1])


def test_array_envelopes_reject_bad_lambda(abs_value):
    for h in (abs_value(), Hinge(), ScaledIdentity(2.0)):
        with pytest.raises(ValueError):
            h.envelopes(0.0, np.zeros(2))


def test_as_problem_installs_batch_path_only_with_both_hooks(abs_value):
    # the row functions are required fields: a composite without one of
    # them is refused, so every smoothed oracle has the batch path
    comp = _affine_composite(abs_value, seed=3)
    fields = dict(c_batch=comp.c_batch, h=comp.h, phi_batch=comp.phi_batch,
                  phi_grads_batch=comp.phi_grads_batch, constants=comp.constants,
                  regime=comp.regime, set_x=comp.set_x, set_y=comp.set_y)
    for name in ("c_batch", "phi_batch", "phi_grads_batch"):
        with pytest.raises(TypeError, match=name):
            MoreauComposite(**{k: v for k, v in fields.items() if k != name})


def test_composite_batch_rows_match_per_sample_path(abs_value):
    # two h pieces (|.| and hinge), so the envelope loop over components
    # and the stacked Jacobian product both run with d_h > 1; each row of a
    # many-row call equals the one-row call at its point and id
    n, d_x, d_h = 6, 3, 2
    rng = np.random.default_rng(4)
    A = rng.normal(size=(n, d_h, d_x))
    b = rng.normal(size=(n, d_h))
    comp = MoreauComposite(
        c_batch=_affine_rows(A, b),
        h=[abs_value(), Hinge()],
        phi_batch=lambda u, Y, ids: (u[:, None, :] @ Y[:, :, None])[:, 0, 0],
        phi_grads_batch=lambda u, Y, ids: (Y.copy(), u + Y),
        constants=CompositeConstants(ell_c=3.0, ell_h=1.0, ell_phi=3.0,
                                     L_c=0.0, L_phi=1.0, d_h=d_h),
        regime=FiniteSum(n),
        set_x=Box(-2 * np.ones(d_x), 2 * np.ones(d_x)),
        set_y=Box(np.zeros(d_h), 2 * np.ones(d_h)))
    oracle = as_problem(comp, 0.3).oracle
    for _ in range(50):
        # one point per row
        X = rng.normal(size=(9, d_x))
        Y = rng.choice([0.0, 0.5, 1.25], size=(9, d_h))  # zeros reach -0.0 terms
        ids = rng.integers(0, n, size=9)
        gx, gy = oracle.batch_grads(X, Y, ids)
        values = oracle.batch_values(X, Y, ids)
        for row, i in enumerate(ids):
            value, rx, ry = _one_row(oracle, X[row], Y[row], i)
            assert _same_bits(gx[row], rx) and _same_bits(gy[row], ry)
            assert _same_bits(values[row], value)
            # the chain rule, entry by entry: jac_c^T (envelope derivs * y)
            e = [_scalar_envelope(kind, 0.3, float(w))[1]
                 for kind, w in zip(("abs", "hinge"), A[i] @ X[row] + b[i])]
            assert rx == pytest.approx(A[i].T @ (np.array(e) * Y[row]),
                                       rel=1e-12, abs=1e-12)


# ----------------------------------------------------------------------------
# certificate translation

def test_certificate_hand_example(abs_value):
    comp = MoreauComposite(
        c_batch=_affine_rows(np.eye(1)[None], np.zeros((1, 1))),
        h=[abs_value()],
        phi_batch=lambda u, Y, ids: np.sum(u * Y, axis=1),
        phi_grads_batch=lambda u, Y, ids: (Y.copy(), u.copy()),
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


def test_certificate_zero_gradient_leaves_smoothing_bias(abs_value):
    comp = _affine_composite(abs_value)
    cc = comp.constants
    lam = 0.1
    delta, g, res_y = near_stationarity_certificate(
        comp, lam, r=5.0, grad_z_norm=0.0, D_X=3.0, res_y_smoothed=0.02)
    assert g == 0.0
    assert delta == lam * cc.ell_phi * cc.ell_h ** 2 * math.sqrt(cc.d_h)
    want = math.sqrt(2 * 0.02 ** 2 + lam ** 2 * cc.d_h * cc.L_phi ** 2 * cc.ell_h ** 4 / 2)
    assert res_y == want


def test_certificate_tightens_as_lambda_shrinks(abs_value):
    comp = _affine_composite(abs_value)
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
