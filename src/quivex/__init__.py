"""quivex: exact decisions for quiver subrepresentations and dimension expanders.

The library decides whether a general representation of an acyclic quiver
admits a subrepresentation of a given dimension vector, specializes the
answer to a closed form for generalized Kronecker quivers, computes sharp
dimension-expander coefficients in exact quadratic-irrational arithmetic,
and cross-validates everything with a finite-field brute-force oracle.
"""

from .expander import (
    ExpanderDecision,
    ExpanderParams,
    SlopeParams,
    StabilityFunction,
    epsilon_k,
    epsilon_m_alpha_delta,
    expander_exists,
    expander_exists_uniform,
    theta_epsilon_supremum,
    theta_expander_exists,
)
from .finfield import (
    ExpanderVerdict,
    FiniteFieldRep,
    Subspace,
    dual_rep,
    enumerate_subspaces,
    gaussian_binomial,
    has_subrep_of_dim,
    image_sum_dim,
    is_expander_rep,
    random_rep,
)
from .kronecker import (
    ClosedFormInapplicableError,
    KroneckerContext,
    beta,
    c_d_ceil,
    c_d_exact,
    dual_dim,
    embeds_closed_form,
)
from .quiver import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    CycleError,
    DimVector,
    Quiver,
    QuiverError,
    QuiverParseError,
    dominates,
    euler_form,
    in_fundamental_domain,
    load_quiver,
    make_kronecker,
    parse_quiver,
    symmetrized_form,
    unit_vector,
)
from .schofield import SubdimCache, embeds, generic_subdims
from .surd import QuadraticSurd

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "ClosedFormInapplicableError",
    "CycleError",
    "DEFAULT_BUDGET",
    "DimVector",
    "ExpanderDecision",
    "ExpanderParams",
    "ExpanderVerdict",
    "FiniteFieldRep",
    "KroneckerContext",
    "QuadraticSurd",
    "Quiver",
    "QuiverError",
    "QuiverParseError",
    "SlopeParams",
    "StabilityFunction",
    "SubdimCache",
    "Subspace",
    "beta",
    "c_d_ceil",
    "c_d_exact",
    "dominates",
    "dual_dim",
    "dual_rep",
    "embeds",
    "embeds_closed_form",
    "enumerate_subspaces",
    "epsilon_k",
    "epsilon_m_alpha_delta",
    "euler_form",
    "expander_exists",
    "expander_exists_uniform",
    "gaussian_binomial",
    "generic_subdims",
    "has_subrep_of_dim",
    "image_sum_dim",
    "in_fundamental_domain",
    "is_expander_rep",
    "load_quiver",
    "make_kronecker",
    "parse_quiver",
    "random_rep",
    "symmetrized_form",
    "theta_epsilon_supremum",
    "theta_expander_exists",
    "unit_vector",
]
