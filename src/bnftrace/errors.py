"""Exception hierarchy.

Two broad classes matter for the CLI exit codes: input/schema problems
(exit 2) and mathematical failures such as resonances, poles or rank
deficiencies (exit 3).
"""


class BnfError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(BnfError):
    """Malformed input data: bad JSON layout, dimension mismatch, bad orders."""


class MathError(BnfError):
    """A mathematically meaningful failure (pole, resonance, rank loss, ...)."""


class DimensionMismatchError(SchemaError):
    pass


class FieldError(MathError):
    """An operation is not available on the active coefficient field."""


class PoleError(MathError):
    """Some k*mu_j hit 2*pi*i*Z: a csch factor has a pole."""


class ResonanceError(MathError):
    """Integer combination of Floquet exponents lies in 2*pi*i*Z."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class SmallDenominatorError(MathError):
    """|exp(<k,mu>) - 1| below threshold in a homological division."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class RankDeficiencyError(MathError):
    """A recovery linear system is rank deficient or inconsistent."""


class ConditioningError(MathError):
    """A float recovery system too ill-conditioned for its precision."""


class ConvergenceError(MathError):
    """Lattice sum or iteration would not converge for the given data."""
