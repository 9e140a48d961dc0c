"""Exception taxonomy shared across the package.

Everything raised on purpose derives from EquidynError so callers (and the
CLI exit-code mapping) can distinguish domain failures from genuine bugs.
"""


class EquidynError(Exception):
    pass


class IncompatibleConfigurations(EquidynError):
    """Operands disagree on alphabet or indexing."""


class InsufficientRadius(EquidynError):
    """A computation needs symbols outside the valid window of a configuration."""


class AlphabetMismatch(EquidynError, ValueError):
    """A measure met a cylinder, configuration or system over another space (alphabet or side);
    for a system, `systems.check_measure` raises it before the first draw, on every seed."""


class NullCylinder(EquidynError):
    """Conditioning on a cylinder of measure zero."""


class NullBall(EquidynError):
    """Density ratio against a ball of measure zero."""


class UnsupportedSystem(EquidynError):
    """The operation is not defined for this system kind."""


class EnumerationTooLarge(EquidynError):
    """An exhaustive enumeration would exceed the configured cap."""

    def __init__(self, needed: int, cap: int, what: str = "enumeration"):
        self.needed = needed
        self.cap = cap
        super().__init__(
            f"{what} needs {needed} words but the cap is {cap}; "
            f"raise the cap to at least {needed} or use the sampled path"
        )


class OverlappingBalls(EquidynError):
    """Orbit balls that an eigenfunction needs disjoint overlap at this horizon."""


class ConfigInvalid(EquidynError):
    """An experiment configuration failed validation; `field` names the culprit."""

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"invalid config field '{field}': {reason}")
