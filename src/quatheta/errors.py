"""Error types shared across the package."""


class QuathetaError(Exception):
    """Base class; carries a machine-readable code equal to the class name."""

    @property
    def code(self) -> str:
        return type(self).__name__


class UnsupportedField(QuathetaError):
    """Field index d outside the vetted narrow-class-number-one allowlist."""


class RamifiedPrime(QuathetaError):
    """The rational prime divides the field discriminant."""


class CompositeP(QuathetaError):
    """A prime argument (the algebra, auxiliary or Hecke prime) is not a rational prime."""


class RamificationMismatch(QuathetaError):
    """Computed Hilbert symbols disagree with the expected ramification set."""


class NotAnOrder(QuathetaError):
    """Lattice failed an order certification (unity, closure, discriminant)."""


class BadPrime(QuathetaError):
    """Neighbor prime divides the level or the field discriminant."""


class MassMismatch(QuathetaError):
    """Class enumeration terminated without reaching the predicted mass."""


class LevelOneImpossible(QuathetaError):
    """Some prime above p has odd residue degree, so no maximal order of trivial discriminant exists."""


class LevelMismatch(QuathetaError):
    """Lattice level of a Hom module disagrees with the run mode."""


class BoundTooLarge(QuathetaError):
    """Enumeration volume exceeds the configured safety cap."""


class IncompatibleBounds(QuathetaError):
    """Theta series with different fields or trace bounds cannot be combined."""


class CoefficientOutOfRange(QuathetaError):
    """Requested coefficient index lies beyond the computed trace bound."""
