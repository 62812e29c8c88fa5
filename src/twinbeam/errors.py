"""Exception types shared across the package."""


class TwinbeamError(Exception):
    """Base class for all errors raised by this package."""


class PauliExclusionError(TwinbeamError, ValueError):
    """A fermionic mode would be occupied more than once."""


class StatisticsMismatchError(TwinbeamError, ValueError):
    """Two states with different particle statistics were combined."""


class NotUnitaryError(TwinbeamError, ValueError):
    """A matrix that must be unitary is not, within tolerance."""


class OccupancyError(TwinbeamError, ValueError):
    """A state violates the per-path occupancy required by a reduction."""


class NetworkError(TwinbeamError, ValueError):
    """A beam-splitter network violates its structural invariants."""
