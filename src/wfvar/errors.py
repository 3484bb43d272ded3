"""Exception taxonomy shared across the toolkit.

Every failure mode that callers are expected to handle derives from
:class:`WfvarError`, so the CLI can map any domain failure to a single
diagnostic line and exit code 1.
"""

from __future__ import annotations


class WfvarError(Exception):
    """Base class for all toolkit errors."""


class DomainError(WfvarError):
    """A time or index fell outside the object's domain, or segment times are bad."""


class SuperluminalError(WfvarError):
    """A trajectory segment or a given velocity reaches speed >= 1."""


class InsufficientHistoryError(WfvarError):
    """A cone solve needs trajectory data outside the provided domain."""


class ConvergenceError(WfvarError):
    """An iterative solve (root find, Gauss-Newton, quadrature) failed to converge."""


class ConeSolveError(ConvergenceError):
    """A cone root search spent its step budget.

    ``event`` and ``branch`` name the solve: ``event`` is the (t, x) pair of
    a cone solve, (t, n, R) of a far-cone solve, or the partner junction
    event (tau, x2(tau)) of a cone crossing.
    """

    def __init__(self, message: str, event=None, branch=None):
        super().__init__(message)
        self.event = event
        self.branch = branch


class CollisionError(WfvarError):
    """Interparticle distance fell below the collision cutoff."""


class ContractError(WfvarError):
    """An input violates a documented precondition (e.g. perturbation endpoints)."""


class InfeasibleJumpError(WfvarError):
    """No subluminal post-jump velocity makes the currents continuous."""


class InsufficientSamplingError(WfvarError):
    """A direction set is too small or degenerate for the requested check."""


class InconsistentParamsError(WfvarError):
    """Separation-family parameters admit no single-valued trajectory.

    Carries the consistency report produced so far in ``report``.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class CoverageError(WfvarError):
    """Too many direction samples were undefined to trust a sphere quadrature."""


class ConfigError(WfvarError):
    """A scenario file or option block is malformed."""
