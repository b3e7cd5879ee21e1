"""Discrete-event simulation kernel (virtual time, fluid resources)."""

from .errors import (
    EventAlreadyTriggered,
    SimulationError,
    StopSimulation,
    UnboundResource,
)
from .events import AllOf, AnyOf, Event, Timeout
from .fluid import FluidItem, FluidScheduler
from .process import Process
from .rand import RandomStreams
from .simulator import Simulator, kernel_totals

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "EventAlreadyTriggered",
    "FluidItem",
    "FluidScheduler",
    "Process",
    "RandomStreams",
    "SimulationError",
    "Simulator",
    "StopSimulation",
    "Timeout",
    "UnboundResource",
    "kernel_totals",
]
