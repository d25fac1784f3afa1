"""Exception types shared across the package."""


class GrastarError(Exception):
    """Base class for all package-specific errors."""


class RangeError(GrastarError):
    """A parameter lies outside the supported desk-scale range."""


class PoleError(GrastarError):
    """A coefficient polynomial vanishes at the requested value of c.

    Carries the frame whose polynomial is responsible so callers (and the
    CLI) can report it.
    """

    def __init__(self, frame, c_value):
        self.frame = frame
        self.c_value = c_value
        super().__init__(
            f"coefficient polynomial of frame {frame} vanishes at c = {c_value}"
        )


class ConvergenceError(GrastarError):
    """A jet matrix inverse met an ill-conditioned constant term or missed its residual bound."""
