"""Exception types shared across the package.

Every error condition promised by a public operation maps to one of these,
so callers (and the CLI) can distinguish usage errors from verification
failures without string matching.  Any other exception escaping the package
is a bug in it.
"""


class ContactPathError(Exception):
    """Base class of every error condition the package promises."""


class InvalidRankError(ContactPathError, ValueError):
    """Root-system rank outside the supported range."""


class InvalidParabolicError(ContactPathError, ValueError):
    """Empty or out-of-range set of crossed Dynkin nodes."""


class UnsupportedDimensionError(ContactPathError, ValueError):
    """Requested a case the theory deliberately excludes (e.g. n = 2)."""


class InconsistencyError(ContactPathError, ArithmeticError):
    """An element failed to expand in the stored basis; signals a wrong basis."""


class HousingAmbiguityError(ContactPathError, RuntimeError):
    """Zero or several candidate subspaces matched an extreme weight."""


class SpecFormatError(ContactPathError, ValueError):
    """ODE spec file violates the documented schema."""


class DegeneratePointError(ContactPathError, ValueError):
    """A pointwise reduction lost rank, typically because C vanishes there."""


class TorsionPreconditionError(ContactPathError, ValueError):
    """Operation requires vanishing contact torsion and it does not vanish."""


class SingularArcError(ContactPathError, RuntimeError):
    """Integration ran into C -> 0; carries the last good state."""

    def __init__(self, message, t, state):
        super().__init__(message)
        self.t = t
        self.state = state


class NonFiniteStateError(ContactPathError, ArithmeticError):
    """Integration produced an inf or nan state; carries the last finite one."""

    def __init__(self, message, t, state):
        super().__init__(message)
        self.t = t
        self.state = state


class StepUnderflowError(ContactPathError, RuntimeError):
    """Integration's step fell below 1e-13 of the interval it covers."""


class ExprError(ContactPathError, ValueError):
    """Base class for expression language failures."""


class ExprSyntaxError(ExprError):
    """Malformed source text; `offset` is the byte position of the failure."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ExprNameError(ExprError):
    """Reference to an undeclared variable or unknown function."""


class ExprEvalError(ExprError):
    """Runtime evaluation failure: division by zero or log domain."""
