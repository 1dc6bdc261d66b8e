"""Exception hierarchy shared by all modules."""


class AffineLogicError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(AffineLogicError):
    """Syntax error in a formula, term, condition or rational literal."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class SignatureError(AffineLogicError):
    """Unknown symbol, arity mismatch, or ill-formed signature."""


class CaptureError(AffineLogicError):
    """Substitution would capture a free variable of the substituted term."""


class NotAffineError(AffineLogicError):
    """An affine-only operation was applied to a formula with min/max nodes."""


class EvalError(AffineLogicError):
    """Missing assignment, bad exponent, or table gap during evaluation."""


class ValidationError(AffineLogicError):
    """A structure failed validation where a valid one was required."""


class UniverseCapError(AffineLogicError):
    """Work would exceed a fixed cap: the tuples of a mean, the variables of
    one quantifier elimination; refused before the work starts."""


class UnsatisfiableError(AffineLogicError):
    """A theory required to be satisfiable over a family is not; carries the certificate."""

    def __init__(self, message: str, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class InputError(AffineLogicError):
    """Malformed input file or CLI argument."""
