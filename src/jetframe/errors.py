"""Exception hierarchy shared across the package."""


class JetFrameError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(JetFrameError, ValueError):
    """A caller violated an interface contract (bad order, missing entry, ...)."""


class DomainError(JetFrameError, ValueError):
    """A point or argument lies outside the mathematical domain of an operation."""


class SingularFrameError(DomainError):
    """The moving frame is undefined because its pivot quantity vanishes.

    `pivot_name` names the vanishing quantity ("u_t + u*u_x" or "u_x") so
    callers can report exactly which normalization broke down.
    """

    def __init__(self, pivot_name, value=0.0, detail=""):
        self.pivot_name = pivot_name
        self.value = value
        msg = f"singular frame: pivot {pivot_name} = {value!r}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class DegeneratePointError(JetFrameError):
    """The reconstruction system is too ill-conditioned to solve at this base point.

    Generic points are fine; the caller should pick another base point.
    """
