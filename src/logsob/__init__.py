"""Certified logarithmic Sobolev constant bounds with Monte Carlo verification."""

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    bakry_emery_bound,
    dimension_sweep,
    fk_bound,
    fk_mono_bound,
    holley_stroock_bound,
    optimize_epsilon,
)
from .curvature import (
    Certificate,
    CurvatureReport,
    SearchConfig,
    certify_double_well,
    certify_quadric,
    kappa,
    kappa_tilde,
)
from .errors import (
    EstimationError,
    EvaluationError,
    ParameterError,
    PreconditionError,
)
from .perturbations import (
    ConditionReport,
    Perturbation,
    arctan_perturbation,
    check_BM,
    check_G,
    identity_perturbation,
    make_custom_perturbation,
    parse_perturbation,
    psi,
    psi_radial,
)
from .potentials import (
    Potential,
    hessian_eigenvalues,
    jacobi_eigenvalues,
    make_custom_potential,
    make_potential,
    parse_potential,
    rho_minus,
)
from .sde import (
    EstimateResult,
    Lane,
    PathBatch,
    SdeConfig,
    SmoothFunction,
    estimate_expectation,
    estimate_fk_gradient,
    estimate_gradient_fd,
    simulate,
    simulate_lanes,
)
from .verify import (
    CheckReport,
    EntropyEstimate,
    builtin_test_family,
    entropy_ratio,
    lsi_audit,
    martingale_check,
    monotone_comparison,
    representation_check,
    sample_measure,
)

__all__ = [name for name in dir() if not name.startswith("_")]
