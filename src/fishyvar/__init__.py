"""Coupled-chain estimators of fishy functions and MCMC asymptotic variances.

Coupled Markov chains that meet exactly after a random number of steps yield
unbiased estimators of Poisson-equation solutions ("fishy functions") at a
point.  Combined with unbiased signed-measure approximations of the target,
they produce unbiased, finite-cost estimators of the asymptotic variance of
ergodic averages, plus convergence diagnostics from the meeting times.
"""

__version__ = "0.1.0"

from .avar import (
    AvarEstimate,
    EpaveEstimate,
    InefficiencySummary,
    epave,
    inefficiency,
    sample_suave,
    selection_probs,
    suave_multivariate,
    unbiased_target_variance,
)
from .chains import (
    Ar1Model,
    CauchyNormalModel,
    CoupledKernel,
    FiniteChainModel,
    MarkovKernel,
    ModelBundle,
    TestFunction,
)
from .config import ExperimentConfig, build_bundle, build_model, finite_chain_from_csv, load_config
from .couplings import (
    MaximalCouplingCapError,
    ar1_kernel,
    cauchy_gibbs_kernel,
    cauchy_mrth_kernel,
    finite_kernel,
    maximal_coupling,
    reflection_maximal_1d,
    reflection_maximal_nd,
)
from .diagnostics import TailFit, bootstrap_ci, tail_fit, tv_curve, tv_upper_bound
from .fishy import (
    FishyEstimate,
    FishyProfile,
    estimate_fishy,
    fishy_profile,
)
from .oracle import (
    Ar1TheoryBound,
    OracleSolution,
    ar1_avar_exact,
    ar1_fishy_exact,
    ar1_survival_bound,
    solve_finite,
)
from .rng import RngStream
from .simulate import (
    CoupledRun,
    MeetingSample,
    TransitionBudgetError,
    run_coupled,
    sample_meetings,
)
from .umcmc import (
    PilotTuning,
    SelectionProbs,
    SignedMeasure,
    UnbiasedEstimate,
    h_kl_estimator,
    pilot_tuning,
    reservoir_select,
    sample_unbiased,
    signed_measure,
    subsample_estimator,
    vt_weight,
)

__all__ = [name for name in dir() if not name.startswith("_")]
