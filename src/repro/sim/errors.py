"""Exception types raised by the simulation kernel."""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all simulation-kernel errors."""


class EventAlreadyTriggered(SimulationError):
    """An event was succeeded or failed more than once."""


class StopSimulation(SimulationError):
    """Raised internally to halt :meth:`Simulator.run` early."""

    def __init__(self, value=None):
        super().__init__(value)
        self.value = value


class UnboundResource(SimulationError):
    """An operation referenced a resource item not currently submitted."""
