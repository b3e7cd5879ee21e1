"""Deterministic fault injection ("chaos") for the simulated cluster.

Everything here runs in virtual time and draws randomness only from
seeded named streams, so a chaos run — faults, retries, recoveries and
all — replays bit-for-bit from its seed.  The pieces:

* :mod:`~repro.chaos.faults` — the fault vocabulary, hand-scripted
  :class:`FaultSchedule`\\ s, and seeded :class:`RandomFaultPlan`\\ s;
* :mod:`~repro.chaos.injector` — applies a schedule to a live runtime;
* :mod:`~repro.chaos.invariants` — a DES observer asserting global
  invariants (placement, DRAM conservation, fluid sanity, no stuck
  gates) after every event;
* :mod:`~repro.chaos.oracle` — a brute-force water-fill used as a
  differential-testing reference for the incremental fluid engine;
* :mod:`~repro.chaos.scenario` — a canned workload + faults + checking
  harness behind ``python -m repro chaos``.
"""

from .faults import (
    Fault,
    FaultSchedule,
    MachineCrash,
    MachineRestart,
    MemoryPressure,
    MemoryPressureRelease,
    MigrationFlakiness,
    NetworkPartition,
    NicDegrade,
    NicRestore,
    PartitionHeal,
    RandomFaultPlan,
)
from .differential import differential_task
from .injector import ChaosInjector
from .invariants import InvariantChecker, InvariantViolation
from .oracle import Divergence, compare, max_min_rates, reference_rates
from .scenario import (ChaosConfig, ChaosResult, chaos_grid_specs,
                       run_chaos, run_chaos_summary)

__all__ = [
    "ChaosConfig",
    "ChaosInjector",
    "ChaosResult",
    "Divergence",
    "Fault",
    "FaultSchedule",
    "InvariantChecker",
    "InvariantViolation",
    "MachineCrash",
    "MachineRestart",
    "MemoryPressure",
    "MemoryPressureRelease",
    "MigrationFlakiness",
    "NetworkPartition",
    "NicDegrade",
    "NicRestore",
    "PartitionHeal",
    "RandomFaultPlan",
    "chaos_grid_specs",
    "compare",
    "differential_task",
    "max_min_rates",
    "reference_rates",
    "run_chaos",
    "run_chaos_summary",
]
