"""Shifted-binomial approximation of Poisson-binomial distributions.

Exact PMFs for sums of independent non-identical Bernoulli variables, six
approximating laws (Poisson, shifted Poisson, one- and two-parameter
binomials, discretized normal, three-parameter shifted binomial), exact
total-variation and local distances, and computable error bounds.
"""

from .bounds import BoundReport, corollary_bounds, ehm_bound, theorem_bounds, two_param_bound
from .distributions import (
    BRUTE_FORCE_MAX_M,
    METHODS,
    DegenerateEnsembleError,
    FitRangeError,
    IntegerDistribution,
    ShiftedBinomialFit,
    approximation_pmf,
    brute_force_pmf,
    discretized_normal_pmf,
    exact_pmf,
    exact_pmfs,
    fit_shifted_binomial,
    fractional_binomial_loglik,
    one_param_binomial_pmf,
    poisson_pmf,
    shifted_binomial_pmf,
    shifted_poisson_pmf,
    two_param_binomial_pmf,
)
from .ensemble import (
    BernoulliEnsemble,
    MomentSummary,
    ensemble_from_spec,
    make_ensemble,
    moments,
    read_probs_file,
)
from .metrics import loc_distance, tv_distance
from .sweep import SWEEP_HEADER, SweepRow, run_sweep, sweep_csv

__version__ = "0.1.0"

__all__ = [
    "BernoulliEnsemble",
    "MomentSummary",
    "make_ensemble",
    "moments",
    "ensemble_from_spec",
    "read_probs_file",
    "IntegerDistribution",
    "ShiftedBinomialFit",
    "DegenerateEnsembleError",
    "FitRangeError",
    "BRUTE_FORCE_MAX_M",
    "exact_pmf",
    "exact_pmfs",
    "brute_force_pmf",
    "fit_shifted_binomial",
    "shifted_binomial_pmf",
    "poisson_pmf",
    "shifted_poisson_pmf",
    "one_param_binomial_pmf",
    "two_param_binomial_pmf",
    "discretized_normal_pmf",
    "METHODS",
    "approximation_pmf",
    "fractional_binomial_loglik",
    "tv_distance",
    "loc_distance",
    "BoundReport",
    "theorem_bounds",
    "corollary_bounds",
    "ehm_bound",
    "two_param_bound",
    "SweepRow",
    "SWEEP_HEADER",
    "run_sweep",
    "sweep_csv",
    "__version__",
]
