"""Exact local tropical geometry with constructive series lifting.

The package computes w-initial forms and ideals over number-field
towers, decides membership of weight vectors in local tropical
varieties, evaluates the induced coset valuations, walks Groebner
cones, and lifts tropical points to truncated Puiseux or Hahn series
that solve the ideal to a requested precision.
"""

from .errors import (
    CapabilityError,
    DescentWitnessError,
    ExtensionUnsupportedError,
    InsufficientTruncationError,
    InternalInvariantError,
    NonMemberError,
    TropliftError,
    UsageError,
    WitnessSearchError,
)
from .ideals import (
    IdealPresentation,
    contains_monomial,
    dimension,
    eliminate,
    ideal_member,
    ideal_quotient,
    ideals_equal,
    normal_form,
    presentation,
    saturate,
    torus_point,
)
from .lifting import (
    DescentStep,
    LiftProblem,
    LiftResult,
    RationalSpan,
    VerifyReport,
    descend,
    lift_point,
    newton_puiseux,
    rational_span,
    verify_lift,
)
from .polyring import (
    INF,
    OrderDescriptor,
    Polynomial,
    PolyRing,
    initial_form,
    poly_str,
    w_order,
)
from .parsing import (
    parse_ideal_text,
    parse_point,
    parse_poly,
    parse_query,
    parse_scalar,
    parse_series,
    parse_weights,
)
from .scalars import (
    AlgebraicNumber,
    NumberField,
    ValueScalar,
    adjoin_root,
    roots_in_extension,
    scalar_str,
)
from .series import (
    AtLeast,
    ValuedSeries,
    poly_to_series_coeffs,
    series_str,
    substitute,
    valuation_at_least,
)
from .tropical import (
    TropCone,
    TropMembership,
    TropQuery,
    trop_enumerate,
    trop_hypersurface,
    trop_member,
)
from .valfan import (
    CosetValuationHandle,
    GroebnerCone,
    InitialData,
    TensorCertificate,
    groebner_cone,
    init_additivity_check,
    initial_ideal,
    tensor_combine,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
