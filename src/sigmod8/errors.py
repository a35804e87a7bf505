"""Exception types shared across the library.

Every precondition failure raises a subclass of :class:`InvariantError`,
so callers (in particular the CLI) can distinguish bad mathematical input
from programming errors.
"""


class InvariantError(ValueError):
    """Base class for all domain errors raised by this library."""


class SingularForm(InvariantError):
    """A nonsingular bilinear form was required."""


class AnisotropicInput(InvariantError):
    """An isotropic form (zero diagonal) was required."""


class DegenerateRestriction(InvariantError):
    """A form restricted to a subspace turned out to be singular."""


class FormMismatch(InvariantError):
    """Two enhancements do not live on the same underlying form."""


class NotLinearDifference(InvariantError):
    """A raw value table is not a quadratic enhancement difference."""


class NotDivisibleBy4(InvariantError):
    """q(v) is nonzero in Z4, so the Wu sublagrangian is undefined."""


class DimTooLarge(InvariantError):
    """Gauss-sum enumeration bound exceeded."""


class NoGaussMatch(InvariantError):
    """A Gauss sum did not land on any of the eight admissible values."""


class NotUnimodular(InvariantError):
    """An integer form with determinant +-1 was required."""


class DegenerateForm(InvariantError):
    """An integer form with nonzero determinant was required."""


class OddDiagonal(InvariantError):
    """An even integer form (all diagonal entries even) was required."""


class NotTwoPrimary(InvariantError):
    """The cokernel has odd torsion; only 2-groups are supported."""


class GroupTooLarge(InvariantError):
    """Linking-form enumeration bound exceeded."""


class NotMod4Multiplicative(InvariantError):
    """sigma(e) != sigma(b)sigma(f) mod 4, so the defect is undefined."""


class ShapeMismatch(InvariantError):
    """Matrices of a chain complex have incompatible shapes."""


class InvalidClass(InvariantError):
    """A cochain pair (u, v) is not a valid mod-2 cohomology class."""


class SignatureMismatch(InvariantError):
    """sigma != P2(wu) mod 4 for a middle-concentrated unimodular complex."""


class NotMiddleConcentrated(InvariantError):
    """A complex concentrated in its middle degree was required."""


class ZeroVector(InvariantError):
    """A nonzero vector was required."""


class OddDimension(InvariantError):
    """Symplectic matrices must have even size."""


class NotSymplectic(InvariantError):
    """A matrix failed M^T J M = J."""


class OneMinusFSingular(InvariantError):
    """det(I - f) = 0; the closed Wall form is undefined, use the general one."""


class CommutatorRelationViolated(InvariantError):
    """Monodromy data whose commutators do not multiply to the identity."""

    def __init__(self, message, product=None):
        super().__init__(message)
        self.product = product


class ParseError(InvariantError):
    """A text-format file could not be parsed."""

    def __init__(self, message, path=None, line=None):
        super().__init__(message)
        self.path = path
        self.line = line

    def __str__(self):
        loc = ""
        if self.path is not None:
            loc = f"{self.path}:"
            if self.line is not None:
                loc += f"{self.line}:"
            loc += " "
        return loc + super().__str__()
