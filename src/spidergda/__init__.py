"""Variance-reduced smoothed gradient descent-ascent for constrained
stochastic minimax problems, with schedule tuning, Moreau smoothing for
nonsmooth composites, and stationarity diagnostics."""

from .core import (DimError, FiniteSum, Online, ProblemInstance, Regime,
                   RegimeError, SmoothnessMeta, StochasticOracle, UniformDraw,
                   estimate_sigmas, full_grad_x, full_grad_y, full_grads,
                   full_value, sequential_sum)
from .projections import (Ball, Box, ConstraintSet, FullSpace,
                          InfeasibleError, Simplex, normal_cone_dist)
from .estimator import (EstimatorMse, anchor, batch_ids, batch_rng,
                        estimator_mse, recurse)
from .solver import (NonFiniteError, RunTrace, SolverConfig, TraceRow,
                     default_initial_point, run, samples_drawn, step)
from .tuner import (InfeasibleScheduleError, TunerAudit, TunerInput,
                    compute_alpha_x, compute_alpha_y, compute_beta,
                    compute_budget, compute_r, compute_varpi, tune_nonsmooth,
                    tune_smooth)
from .smoothing import (AbsValue, CertificateInput, CompositeConstants, Hinge,
                        IterativeProx, MoreauComposite, ProxFailure,
                        ScalarConvex, ScaledIdentity, as_problem, envelope,
                        near_stationarity_certificate, smooth_grad_x,
                        smooth_grad_y, smooth_value, smoothed_constants,
                        spot_check_composite)
from .diagnostics import (InnerSolveConfig, LyapunovValue, MaxItersError,
                          dz_norm, fd_check, gs_residuals, lyapunov,
                          mc_gs_residuals, solve_x_r)
from . import problems
from .problems import (DomainError, EmptyGroupError, GroupDroSpec,
                       PhiDivDroSpec, SingularityError, group_losses,
                       kl_example_grad, kl_example_value, load_dataset_csv,
                       make_group_dro, make_kl_example, make_phi_div_dro,
                       make_quadratic_saddle, make_two_group_regression,
                       save_dataset_csv, spec_from_csv)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "FiniteSum", "Online", "Regime", "StochasticOracle", "UniformDraw",
    "SmoothnessMeta",
    "ProblemInstance", "RegimeError", "DimError", "full_grads", "full_grad_x",
    "full_grad_y", "full_value", "sequential_sum", "estimate_sigmas",
    # projections
    "ConstraintSet", "Box", "Ball", "Simplex", "FullSpace",
    "normal_cone_dist", "InfeasibleError",
    # estimator
    "EstimatorMse", "anchor", "recurse", "estimator_mse",
    "batch_rng", "batch_ids",
    # solver
    "SolverConfig", "RunTrace", "TraceRow", "NonFiniteError",
    "default_initial_point", "run", "samples_drawn", "step",
    # tuner
    "TunerInput", "TunerAudit",
    "InfeasibleScheduleError", "compute_r",
    "compute_varpi", "compute_alpha_x",
    "compute_alpha_y", "compute_beta", "compute_budget", "tune_smooth",
    "tune_nonsmooth",
    # smoothing
    "CompositeConstants", "smoothed_constants", "ScalarConvex", "AbsValue",
    "Hinge", "ScaledIdentity", "IterativeProx",
    "MoreauComposite", "ProxFailure", "envelope", "smooth_value",
    "smooth_grad_x", "smooth_grad_y", "as_problem", "CertificateInput",
    "near_stationarity_certificate", "spot_check_composite",
    # diagnostics
    "InnerSolveConfig", "MaxItersError", "LyapunovValue", "gs_residuals",
    "mc_gs_residuals", "solve_x_r", "dz_norm", "lyapunov", "fd_check",
    # problems
    "problems", "DomainError", "EmptyGroupError", "SingularityError",
    "GroupDroSpec", "PhiDivDroSpec", "group_losses", "kl_example_grad",
    "kl_example_value", "load_dataset_csv", "make_group_dro",
    "make_kl_example", "make_phi_div_dro", "make_quadratic_saddle",
    "make_two_group_regression", "save_dataset_csv", "spec_from_csv",
]
