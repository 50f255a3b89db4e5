"""Moving frames and closed-form differential invariants for the symmetry
group of u_t + u*u_x + u_xxx = 0, plus the machinery to verify every identity
they satisfy: prolonged group actions on jets of any order, equivariant
frames for two normalizations, invariant differentiation, recurrence and
commutator relations, and generating-set reconstruction."""

from .errors import (
    DegeneratePointError,
    DomainError,
    JetFrameError,
    SingularFrameError,
    UsageError,
)
from .frame import FrameKind, FrameResult, equivariance_defect, moving_frame, pivot_value
from .group import (
    GroupElement,
    VectorField,
    act_point,
    compose,
    determining_equation_residuals,
    eta_alpha,
    inverse,
    pr_v_apply,
    prolong_act,
)
from .invariants import (
    InvariantTable,
    SolutionGerm,
    commutator_coefficients,
    invariant_commutator,
    invariant_derivative,
    invariant_table,
    normalized_invariant,
    reconstruct_generators,
    recurrence_rhs,
)
from .jets import Jet, MultiIndex, multi_indices
from .solutions import (
    CATALOG,
    Constant,
    Custom,
    Rational,
    Solution,
    Soliton,
    jet_of_solution,
    kdv_residual,
    make_solution,
)
from .taylor import (
    TruncatedSeries,
    analytic,
    series_pow,
    series_recip,
    series_sech,
)
from .verify import SUITES, CheckReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "CATALOG",
    "CheckReport",
    "Constant",
    "Custom",
    "DegeneratePointError",
    "DomainError",
    "FrameKind",
    "FrameResult",
    "GroupElement",
    "InvariantTable",
    "Jet",
    "JetFrameError",
    "MultiIndex",
    "Rational",
    "SingularFrameError",
    "Solution",
    "SolutionGerm",
    "Soliton",
    "SUITES",
    "TruncatedSeries",
    "UsageError",
    "VectorField",
    "act_point",
    "analytic",
    "commutator_coefficients",
    "compose",
    "determining_equation_residuals",
    "equivariance_defect",
    "eta_alpha",
    "inverse",
    "invariant_commutator",
    "invariant_derivative",
    "invariant_table",
    "jet_of_solution",
    "kdv_residual",
    "make_solution",
    "moving_frame",
    "multi_indices",
    "normalized_invariant",
    "pivot_value",
    "pr_v_apply",
    "prolong_act",
    "reconstruct_generators",
    "recurrence_rhs",
    "run_suite",
    "series_pow",
    "series_recip",
    "series_sech",
]
