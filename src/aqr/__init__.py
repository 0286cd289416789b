"""Average quantile regression: weighted-quantile risk functionals and estimators."""

__version__ = "0.1.0"

from . import errors
from .families import (WeightFamily, j_value, g_value, omega, validate_c1,
                       es, ges, extremile, ge, tcrm, exp_spectral, qr_dirac,
                       tabulated)
from .oracle import (AnalyticDistribution, normal, student_t, exponential,
                     uniform, beta_dist, frechet, point_mass, quantile,
                     population_aqr, frechet_limit_ratio)
from .sample_risk import (CoherenceReport, aqr_sample, coherence_check,
                          risk_sample)
from .kernel_cde import (Dataset, StepCDF, cde_eval, cde_curve,
                         index_cde_eval, index_cde_grad, cv_bandwidth,
                         rule_bandwidth, default_bandwidth_grid)
from .estimator import AqrEstimate, aqr_conditional, aqr_profile, rpad
from .single_index import (IndexModel, normalize_beta, psis_objective,
                           psis_gradient, psis_hessian, fit_full)
from .distributed import (ShardPlan, CommReport, partition, local_init,
                          newton_round, default_rounds, run_distributed, aae)
from .portfolio import (ReturnsMatrix, PortfolioWeights, portfolio_risk,
                        project_simplex, optimize_weights, evaluate)
from .experiments import INDEX_RATE_EXPONENT, fit_pooled, fit_sharded

__all__ = [
    "errors", "WeightFamily", "j_value", "g_value", "omega", "validate_c1",
    "es", "ges", "extremile", "ge", "tcrm", "exp_spectral", "qr_dirac",
    "tabulated",
    "AnalyticDistribution", "normal", "student_t", "exponential", "uniform",
    "beta_dist", "frechet", "point_mass", "quantile", "population_aqr",
    "frechet_limit_ratio",
    "CoherenceReport", "aqr_sample", "coherence_check", "risk_sample",
    "Dataset", "StepCDF", "cde_eval", "cde_curve",
    "index_cde_eval", "index_cde_grad", "cv_bandwidth", "rule_bandwidth",
    "default_bandwidth_grid",
    "AqrEstimate", "aqr_conditional", "aqr_profile", "rpad",
    "IndexModel", "normalize_beta", "psis_objective", "psis_gradient",
    "psis_hessian", "fit_full",
    "ShardPlan", "CommReport", "partition", "local_init", "newton_round",
    "default_rounds", "run_distributed", "aae",
    "ReturnsMatrix", "PortfolioWeights", "portfolio_risk", "project_simplex",
    "optimize_weights", "evaluate",
    "INDEX_RATE_EXPONENT", "fit_pooled", "fit_sharded",
]
