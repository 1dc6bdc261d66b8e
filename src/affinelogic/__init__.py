"""Workbench for affine continuous logic over finite metric structures."""

from .errors import (
    AffineLogicError,
    CaptureError,
    EvalError,
    InputError,
    NotAffineError,
    ParseError,
    SignatureError,
    UniverseCapError,
    UnsatisfiableError,
    ValidationError,
)
from .syntax import (
    Condition,
    Formula,
    Signature,
    Symbol,
    Term,
    Theory,
    affine_combination,
    alpha_equal,
    constant_symbol,
    format_condition,
    format_formula,
    function_symbol,
    parse_condition,
    parse_formula,
    parse_term,
    relation_symbol,
    substitute,
)
from .structures import (
    FiniteStructure,
    check_condition,
    eval_formula,
    make_structure,
    quotient,
    rendezvous_value,
    validate,
    value_table,
)
from .ultramean import Charge, MeanStructure, charge, fubini, powermean, ultramean
from .satisfiability import (
    NotSeparable,
    Sat,
    Separation,
    Unsat,
    consequence_margin,
    sat_over_family,
    separate,
)
from .typespace import (
    FormulaBasis,
    TypePolytope,
    TypeVector,
    logic_distance,
    make_basis,
    norm_distance,
    realized_types,
    restrict_type,
    type_polytope,
)
from .proofs import ProofNode, check, soundness_probe

__version__ = "0.1.0"
