"""Closed-form parameter schedules mapping problem constants and a target
accuracy epsilon to a full SolverConfig.

The smooth pipeline is r -> alpha_x -> alpha_y -> beta -> (K, T, M, B), in
that order (beta's dual error-bound factor uses the already-chosen alpha_y).
The nonsmooth pipeline takes the composite itself: it picks the smoothing
level lambda ~ epsilon, builds the smoothed problem with
`smoothing.as_problem` (the one owner of the smoothed constants), and runs
the smooth pipeline on that problem's constants, so the schedule is tuned
for the very problem that runs.  Asymptotic schedules (the theta > 1/2 beta branch, the online
budgets) carry a single user-tunable multiplicative constant, default 1.

Every run records an audit: all formula inputs and outputs, such that
re-running the tuner on the recorded inputs reproduces each value
bit-exactly.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field
from typing import Union

from .core import FiniteSum, ProblemInstance, Regime, SmoothnessMeta
from .smoothing import MoreauComposite, as_problem
from .solver import SolverConfig, _is_count, samples_drawn

__all__ = [
    "BETA_CAP",
    "OVERRIDE_KEYS",
    "TunerInput",
    "TunerAudit",
    "InfeasibleScheduleError",
    "compute_r",
    "alpha_x_interval",
    "compute_alpha_y",
    "compute_varpi",
    "compute_beta",
    "compute_budget",
    "tune_smooth",
    "tune_nonsmooth",
]

logger = logging.getLogger("spidergda.tuner")

BETA_CAP = 1.0 / 30.0

# schedule values a user may set in place of their formula
OVERRIDE_KEYS = frozenset({"r", "alpha_x", "alpha_y", "beta", "K", "T", "M", "B"})


class InfeasibleScheduleError(Exception):
    """No schedule can be planned: no valid alpha_x exists for the given
    (possibly user-overridden) r, or the smoothing level underflows to 0."""


# ----------------------------------------------------------------------------
# inputs

@dataclass
class TunerInput:
    """Everything the smooth schedules consume.

    meta and regime are those of the problem that will run; for a composite,
    `tune_nonsmooth` fills them in from the smoothed problem and takes the
    other fields as keyword settings.  delta_phi_estimate is the user's
    estimate of the initial potential gap (initial merit value minus a lower
    bound on F); sample_cap bounds the planned total sample draws
    (OverflowError beyond it).
    """

    meta: SmoothnessMeta
    epsilon: float
    regime: Regime
    delta_phi_estimate: float = 1.0
    overrides: dict = field(default_factory=dict)
    asymptotic_constant: float = 1.0
    sample_cap: float = 1e9

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not self.sample_cap > 0:
            raise ValueError("sample_cap must be positive")
        if not self.delta_phi_estimate > 0:
            raise ValueError("delta_phi_estimate must be positive")
        if not self.asymptotic_constant > 0:
            raise ValueError("asymptotic_constant must be positive")
        unknown = set(self.overrides) - OVERRIDE_KEYS
        if unknown:
            raise ValueError(f"unknown override keys: {sorted(unknown)}")
        for name in ("K", "T", "M", "B"):
            if name in self.overrides and not _is_count(self.overrides[name]):
                raise ValueError(f"override {name} must be a positive integer")


# ----------------------------------------------------------------------------
# individual schedules

def compute_r(meta: SmoothnessMeta) -> float:
    """Proximal-center weight r: the larger of the two admissible branches

        2 rho + 325 (L_y + 1) + 12 sqrt(L_x) sqrt(2 (L_y + 1))
        2 rho + 54 L_y (L_y + 1) + 4 sqrt(L_x) sqrt(3 L_y (L_y + 1))
    """
    L_x, L_y, rho = meta.L_x, meta.L_y, meta.rho
    b1 = 2.0 * rho + 325.0 * (L_y + 1.0) + 12.0 * math.sqrt(L_x) * math.sqrt(2.0 * (L_y + 1.0))
    b2 = 2.0 * rho + 54.0 * L_y * (L_y + 1.0) + 4.0 * math.sqrt(L_x) * math.sqrt(3.0 * L_y * (L_y + 1.0))
    return max(b1, b2)


def alpha_x_interval(meta: SmoothnessMeta, r: float) -> tuple[float, float]:
    """Admissible interval [lower, upper] for alpha_x at this r.

    upper is the min of the three step-size branches (L_y = 0 removes the
    third), the primal step unless overridden; lower is the required
    24 (L_y + 1)/(r - rho)^2.
    """
    L_x, L_y, rho = meta.L_x, meta.L_y, meta.rho
    if r <= rho:
        raise InfeasibleScheduleError(f"r={r} must exceed rho={rho}")
    b1 = 1.0 / (12.0 * (r + L_x + 2.0 * L_y))
    b2 = (r - rho) ** 2 / (24.0 * (r + L_x) ** 2 * (L_y + 1.0))
    b3 = (r - (rho + 2.0 * L_y)) / (2.0 * L_y * (L_x + r)) if L_y > 0 else math.inf
    upper = min(b1, b2, b3)
    lower = 24.0 * (L_y + 1.0) / (r - rho) ** 2
    return lower, upper


def compute_alpha_y(meta: SmoothnessMeta, alpha_x: float) -> float:
    """Dual step size: min{alpha_x, 1/(40 L_y), 1/(4 (2 L_y + 1))}."""
    L_y = meta.L_y
    b2 = 1.0 / (40.0 * L_y) if L_y > 0 else math.inf
    b3 = 1.0 / (4.0 * (2.0 * L_y + 1.0))
    return min(alpha_x, b2, b3)


def compute_varpi(meta: SmoothnessMeta, r: float, alpha_y: float) -> float:
    """Dual error-bound amplification factor

        varpi = (2 (ell D_Y)^{1-2 theta} / (r - rho))
                * ((2/alpha_y^2 + 2 L_y^2 s2^2 + 2 L_y^2) / mu^2),
        s2 = 2 + L_y / (r - rho).
    """
    L_y, rho, ell, mu, theta = meta.L_y, meta.rho, meta.ell, meta.mu, meta.theta
    D_Y = meta.D_Y if meta.D_Y is not None else 1.0
    s2 = 2.0 + L_y / (r - rho)
    lead = 2.0 * (ell * D_Y) ** (1.0 - 2.0 * theta) / (r - rho)
    return lead * ((2.0 / alpha_y ** 2 + 2.0 * L_y ** 2 * s2 ** 2 + 2.0 * L_y ** 2) / mu ** 2)


def compute_beta(meta: SmoothnessMeta, r: float, alpha_x: float, epsilon: float,
                 alpha_y: float, asymptotic_constant: float = 1.0) -> float:
    """Averaging weight for the prox-center sequence.

    theta <= 1/2: exact min{1/30, 1/(30 r), L_y/(20 r varpi)} with varpi
    evaluated at the configured alpha_y.  theta > 1/2: asymptotic_constant
    times the min of the four asymptotic branches, clamped to (0, 1/30].
    """
    L_y, mu, theta = meta.L_y, meta.mu, meta.theta
    if theta <= 0.5:
        varpi = compute_varpi(meta, r, alpha_y)
        b3 = L_y / (20.0 * r * varpi) if (L_y > 0 and varpi > 0) else math.inf
        return min(BETA_CAP, 1.0 / (30.0 * r), b3)
    q1 = 1.0 / r
    q2 = (alpha_x ** ((2.0 * theta - 1.0) / (2.0 * theta))
          * L_y ** (-1.0 / (2.0 * theta)) * mu ** (1.0 / theta)
          * epsilon ** ((2.0 * theta - 1.0) / theta)) if L_y > 0 else math.inf
    q3 = (r ** (-(2.0 * theta - 1.0)) * mu ** 2 / L_y
          * epsilon ** (4.0 * theta - 2.0)) if L_y > 0 else math.inf
    q4 = (r ** (-(2.0 * theta - 1.0) / theta) * L_y ** ((theta - 1.0) / theta)
          * mu ** (1.0 / theta) * epsilon ** ((2.0 * theta - 1.0) / theta)) if L_y > 0 else math.inf
    beta = asymptotic_constant * min(q1, q2, q3, q4)
    return min(beta, BETA_CAP)


def _kt_branches(meta: SmoothnessMeta, epsilon: float) -> float:
    """max-branch of the iteration-count schedule (without the potential-gap
    factor), per the theta regime."""
    L_x, L_y, mu, theta = meta.L_x, meta.L_y, meta.mu, meta.theta
    if theta <= 0.5:
        return max(L_x + L_y ** 2, (L_y + math.sqrt(L_x)) / mu ** 2) / epsilon ** 2
    t1 = L_y ** 2 * (L_y ** 2 + L_x) / epsilon ** 2
    t2 = ((L_y ** 2 + L_y * math.sqrt(L_x)) ** (2.0 * theta) * L_y
          / (mu ** 2 * epsilon ** (4.0 * theta)))
    t3 = ((L_x + L_y ** 2) ** ((2.0 * theta - 1.0) / (2.0 * theta))
          * L_y ** (1.0 / (2.0 * theta)) * (L_y ** 2 + L_y * math.sqrt(L_x))
          / (mu ** (1.0 / theta) * epsilon ** ((4.0 * theta - 1.0) / theta)))
    t4 = (L_y ** 2 * (L_y + math.sqrt(L_x)) ** ((3.0 * theta - 1.0) / theta)
          / (mu ** (1.0 / theta) * epsilon ** ((4.0 * theta - 1.0) / theta)))
    return max(t1, t2, t3, t4)


def _online_B(meta: SmoothnessMeta, epsilon: float) -> float:
    # theta > 1/2 shares the max-branch structure of the iteration schedule,
    # with the variance ratio as the leading factor
    L_x, L_y, mu, theta = meta.L_x, meta.L_y, meta.mu, meta.theta
    sig2 = meta.sigma_x ** 2 + meta.sigma_y ** 2
    if theta <= 0.5:
        return (L_y ** 2 * sig2 / ((L_y ** 2 + L_x) * epsilon ** 2)) * max(
            L_x + L_y ** 2, (L_y + math.sqrt(L_x)) / mu ** 2)
    return sig2 / (L_y ** 2 + L_x) * _kt_branches(meta, epsilon)


def compute_budget(tin: TunerInput) -> tuple[int, int, int, int, float]:
    """Batch sizes, loop counts and the iteration target (K, T, M, B, KT).

    Finite-sum: B = N.  Online: B = asymptotic_constant times the
    theta-appropriate schedule.  T = M = ceil(sqrt(B/2)); K = ceil(KT/T)
    with KT = asymptotic_constant * delta_phi_estimate * max-branch (KT is
    returned even when K is overridden; the audit records it).

    Raises
    ------
    OverflowError
        If the planned total sample draws (`solver.samples_drawn` of the
        K*T-step run; a finite-sum anchor draws N whatever B is) exceed
        tin.sample_cap.
    """
    meta, eps, ac, ov = tin.meta, tin.epsilon, tin.asymptotic_constant, tin.overrides
    if "B" in ov:
        B = int(ov["B"])
    elif isinstance(tin.regime, FiniteSum):
        B = tin.regime.n
    else:
        B = max(1, math.ceil(ac * _online_B(meta, eps)))
    T = int(ov["T"]) if "T" in ov else max(1, math.ceil(math.sqrt(B / 2.0)))
    M = int(ov["M"]) if "M" in ov else max(1, math.ceil(math.sqrt(B / 2.0)))
    kt_target = ac * tin.delta_phi_estimate * _kt_branches(meta, eps)
    K = int(ov["K"]) if "K" in ov else max(1, math.ceil(kt_target / T))
    planned = samples_drawn(tin.regime, T, M, B, K * T - 1)
    if planned > tin.sample_cap:
        raise OverflowError(
            f"planned sample draws {planned} exceed cap {tin.sample_cap:g}; "
            f"raise sample_cap or loosen epsilon")
    return K, T, M, B, kt_target


# ----------------------------------------------------------------------------
# audit

@dataclass
class TunerAudit:
    """Bit-reproducible record of one tuner evaluation."""

    inputs: dict
    outputs: dict


def _regime_dict(regime: Regime) -> dict:
    if isinstance(regime, FiniteSum):
        return {"kind": "finite_sum", "n": regime.n}
    return {"kind": "online"}


# ----------------------------------------------------------------------------
# pipelines

def tune_smooth(tin: TunerInput) -> tuple[SolverConfig, TunerAudit]:
    """Evaluate the full smooth-case schedule.

    Per-parameter user overrides replace the formula value at their stage,
    and all downstream stages consume the overridden value; the final
    (r, alpha_x) pair is always validated against the admissible interval.
    """
    ov = tin.overrides
    meta = tin.meta

    r = float(ov["r"]) if "r" in ov else compute_r(meta)
    lower, upper = alpha_x_interval(meta, r)
    alpha_x = float(ov["alpha_x"]) if "alpha_x" in ov else upper
    if not lower <= alpha_x <= upper:
        raise InfeasibleScheduleError(
            f"no valid alpha_x={alpha_x} at r={r}: the admissible interval "
            f"is [{lower}, {upper}]")
    alpha_y = float(ov["alpha_y"]) if "alpha_y" in ov else compute_alpha_y(meta, alpha_x)
    varpi = compute_varpi(meta, r, alpha_y) if meta.theta <= 0.5 else None
    beta = float(ov["beta"]) if "beta" in ov else compute_beta(
        meta, r, alpha_x, tin.epsilon, alpha_y, tin.asymptotic_constant)
    K, T, M, B, kt_target = compute_budget(tin)

    config = SolverConfig(K=K, T=T, M=M, B=B, alpha_x=alpha_x, alpha_y=alpha_y,
                          beta=beta, r=r)
    audit = TunerAudit(
        # every TunerInput field, so that a replay of the audit sees them all
        inputs={**asdict(tin), "regime": _regime_dict(tin.regime)},
        outputs={
            "r": r,
            "alpha_x": alpha_x,
            "alpha_x_lower_bound": lower,
            "alpha_x_upper_bound": upper,
            "alpha_y": alpha_y,
            "varpi": varpi,
            "beta": beta,
            "K": K, "T": T, "M": M, "B": B,
            "KT_target": kt_target,
            "planned_samples": samples_drawn(tin.regime, T, M, B, K * T - 1),
        },
    )
    return config, audit


def tune_nonsmooth(comp: MoreauComposite, epsilon: float,
                   lambda_choice: Union[str, float] = "auto", **settings
                   ) -> tuple[ProblemInstance, SolverConfig, TunerAudit]:
    """Smooth the composite, then tune the smooth schedule on the result.

    lambda_choice is "auto" (lambda = asymptotic_constant * epsilon) or an
    explicit positive value; either is clamped to the admissible ceiling
    2 delta_tilde / (ell_h^2 sqrt(d_h)), d_h = len(comp.h), with a logged
    warning.  The smoothed problem is `as_problem(comp, lambda)`, and
    `tune_smooth` runs on its constants and regime; settings are the other
    `TunerInput` fields.  Returns that problem with the config and the audit, which
    also records the composite's constants with its d_h, lambda_choice,
    lambda, its ceiling and the smoothed L_x, L_y, rho and ell.

    Finite-sum composites only: the smoothed constants carry sigma = 0,
    which would plan an online run from no variance at all (ValueError).
    An automatic lambda that underflows to 0 raises
    InfeasibleScheduleError; an explicit non-positive one, ValueError.
    """
    if not isinstance(comp.regime, FiniteSum):
        raise ValueError("an online composite goes through as_problem, with sigma "
                         "set on its constants, and then tune_smooth")
    # epsilon sets the smoothing level, so it is checked before lambda
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    cc = comp.constants
    cap = (2.0 * cc.delta_tilde / (cc.ell_h ** 2 * math.sqrt(len(comp.h)))
           if cc.ell_h > 0 else math.inf)
    ac = settings.get("asymptotic_constant", TunerInput.asymptotic_constant)
    requested = ac * epsilon if lambda_choice == "auto" else float(lambda_choice)
    if lambda_choice == "auto" and requested == 0.0 and ac > 0:
        raise InfeasibleScheduleError(f"smoothing level asymptotic_constant * epsilon"
                                      f" = {ac:g} * {epsilon:g} underflows to 0")
    lam = min(requested, cap)  # as_problem rejects a non-positive or NaN lambda
    if lam < requested:
        logger.warning("smoothing level clamped from %g to the admissible "
                       "ceiling %g", requested, cap)

    problem = as_problem(comp, lam)
    meta = problem.constants
    config, audit = tune_smooth(TunerInput(meta=meta, epsilon=epsilon,
                                           regime=problem.regime, **settings))
    audit.inputs["composite"] = {**asdict(cc), "d_h": len(comp.h)}
    audit.inputs["lambda_choice"] = ("auto" if lambda_choice == "auto"
                                     else float(lambda_choice))
    audit.outputs["lambda"] = lam
    audit.outputs["lambda_cap"] = cap
    audit.outputs.update({f"smoothed_{k}": getattr(meta, k)
                          for k in ("L_x", "L_y", "rho", "ell")})
    return problem, config, audit
