"""Exception types shared across the package."""


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes."""


class ShapeMismatch(ValueError):
    """Parameter grid does not match the ansatz configuration."""


class LengthMismatch(ValueError):
    """Sequences that must align index-by-index have different lengths."""


class NotPowerOfTwo(ValueError):
    """Matrix or vector dimension is not a power of two."""


class SingularMatrix(ArithmeticError):
    """A pivot fell below tolerance during factorization."""


class RankDeficient(ArithmeticError):
    """Smallest singular value is negligible relative to the largest."""


class ZeroRightHandSide(ValueError):
    """Right-hand side has zero norm, so no unit state exists."""


class DegenerateImage(ArithmeticError):
    """The matrix maps the candidate state to numerically zero."""


class NotNormalized(ValueError):
    """Vector expected to have unit norm does not."""


class DivergedAt(RuntimeError):
    """Trajectory integration exceeded the overflow guard.

    Carries the 1-based index of the failed step and the partial trajectory
    accumulated before it.
    """

    def __init__(self, step, trajectory=None):
        super().__init__(f"integration diverged at step {step}")
        self.step = step
        self.trajectory = trajectory
