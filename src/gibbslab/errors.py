"""Exception types shared across the package."""

__all__ = [
    "GibbslabError",
    "ArgumentError",
    "DomainError",
    "LandscapeDefinitionError",
    "DegenerateCurvatureError",
    "RadiusError",
    "DivergenceError",
    "ConditioningError",
    "ContractError",
    "ResolutionError",
    "ConfigError",
]


class GibbslabError(Exception):
    """Base class for all package errors."""


class ArgumentError(GibbslabError, ValueError):
    """An argument violates a documented precondition."""


class DomainError(GibbslabError, ValueError):
    """A query point lies outside the landscape's experiment domain."""


class LandscapeDefinitionError(GibbslabError, ValueError):
    """A landscape violates its own contract (e.g. non-isolated minima)."""


class DegenerateCurvatureError(GibbslabError, ValueError):
    """λ_min + λ = 0: the Taylor approximation error is undefined."""


class RadiusError(GibbslabError, ValueError):
    """A radius exceeds the disjointness radius r0."""


class DivergenceError(GibbslabError, RuntimeError):
    """An SGLD iterate left the experiment domain by a wide margin."""


class ConditioningError(GibbslabError, ValueError):
    """Too few samples survive region conditioning for reliable statistics."""


class ContractError(GibbslabError, ValueError):
    """An estimator received inputs that violate its usage contract."""


class ResolutionError(GibbslabError, RuntimeError):
    """A quadrature grid is too coarse for the requested integrand.

    Carries ``suggested_nodes``, a per-dimension node count expected to pass
    the Richardson check.
    """

    def __init__(self, message, suggested_nodes=None):
        super().__init__(message)
        self.suggested_nodes = suggested_nodes


class ConfigError(GibbslabError, ValueError):
    """An experiment configuration failed validation.

    ``violations`` lists every offending field as ``path: message``.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(
            "invalid experiment configuration:\n  "
            + "\n  ".join(self.violations)
        )
