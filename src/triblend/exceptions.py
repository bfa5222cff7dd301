"""Exception types shared across the solver."""


class TriblendError(Exception):
    """Base class for all solver errors."""


class ConfigError(TriblendError):
    """Bad or inconsistent user configuration (CLI exit code 2)."""


class MeshError(TriblendError):
    """Mesh file cannot be parsed or violates solver requirements."""


class UnsupportedElement(MeshError):
    """Mesh file contains an element type the solver cannot use."""


class NumericalAbort(TriblendError):
    """The run left the invariant domain or otherwise broke down (exit code 3).

    `record` holds the message's facts as JSON-ready fields: `step`, `stage`
    (None for a collapsed time step), `t`, and either `dofs`, the offending
    DoFs named (kind "point" or "average", index, position `xy`, `state`),
    or `element`, the element whose time step collapsed (index, `xy`,
    `wave_speed`)."""

    def __init__(self, message, **record):
        super().__init__(message)
        self.record = record
