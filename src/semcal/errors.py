"""Exception types shared across the calibration pipeline."""


class CalibrationError(Exception):
    """Base class for all errors raised by this package."""


class ZeroDenominator(CalibrationError):
    """No points carry any of the requested class labels."""


class InsufficientPairs(CalibrationError):
    """Fewer than the minimum number of usable centroid pairs were found."""


class Degenerate(CalibrationError):
    """Input configuration is rank-deficient (collinear points, singular system)."""


class NonPlanar(CalibrationError):
    """The 3D centroids do not lie close enough to a common plane."""


class NonFiniteCost(CalibrationError):
    """The objective returned NaN or infinity during optimization."""


class EmptyScene(CalibrationError):
    """Synthetic scene generation produced a frame with no visible points."""


class FormatError(CalibrationError):
    """A data file could not be parsed."""
