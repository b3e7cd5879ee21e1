"""Proclets: Nu's independently schedulable logical-process units.

A proclet bundles a *heap* (bytes charged against its current machine's
DRAM) and *threads* (method invocations executing on its current
machine's CPU).  Methods are written as generator functions receiving a
:class:`~repro.runtime.context.Context`::

    class Counter(Proclet):
        def __init__(self):
            super().__init__()
            self.value = 0

        def increment(self, ctx, amount=1):
            yield ctx.cpu(100e-9)      # burn 100ns of CPU
            self.value += amount
            return self.value

Plain (non-generator) methods also work for pure bookkeeping.
"""

from __future__ import annotations

import enum
from typing import Optional, Set

from ..units import KiB


class ProcletStatus(enum.Enum):
    CREATED = "created"
    RUNNING = "running"
    MIGRATING = "migrating"
    DEAD = "dead"


class Proclet:
    """Base class for all proclets.

    Subclasses must call ``super().__init__()`` and may then use
    :meth:`heap_alloc` / :meth:`heap_free` (after the runtime has placed
    them) to track the size of their user data.
    """

    #: Runtime bookkeeping bytes per proclet (stack pool, tables).
    BASE_FOOTPRINT = 64 * KiB

    def __init__(self):
        self._heap_bytes = 0.0
        # Injected by the runtime at spawn time:
        self._runtime = None
        self._id: Optional[int] = None
        self._name = ""
        self._machine = None
        self._status = ProcletStatus.CREATED
        self._inflight = 0
        self._migration_gate = None  # Event released when migration ends
        self._active_cpu: Set = set()  # FluidItems owned by running methods
        self.migrations = 0
        # Lifetime obs span (repro.obs), spawn -> destroy, or None when
        # tracing is off.
        self._span = None

    # -- identity -----------------------------------------------------------
    @property
    def id(self) -> Optional[int]:
        return self._id

    @property
    def name(self) -> str:
        return self._name

    @property
    def machine(self):
        """The machine currently hosting this proclet."""
        return self._machine

    @property
    def status(self) -> ProcletStatus:
        return self._status

    @property
    def runtime(self):
        return self._runtime

    # -- heap ------------------------------------------------------------------
    @property
    def heap_bytes(self) -> float:
        """User-data bytes currently held (excludes BASE_FOOTPRINT)."""
        return self._heap_bytes

    @property
    def footprint(self) -> float:
        """Total DRAM charged to the hosting machine."""
        return self._heap_bytes + self.BASE_FOOTPRINT

    def heap_alloc(self, nbytes: float) -> None:
        """Grow the heap, charging the hosting machine's DRAM.

        Raises :class:`repro.cluster.OutOfMemory` when the machine cannot
        fit the allocation — the Quicksand memory-pressure path exists to
        migrate data away *before* this happens.
        """
        if nbytes < 0:
            raise ValueError(f"negative allocation: {nbytes}")
        if self._machine is None:
            raise RuntimeError(f"{self!r} is not placed on a machine yet")
        self._machine.memory.reserve(nbytes)
        self._heap_bytes += nbytes
        if self._runtime is not None:
            self._runtime._notify_heap_change(self)

    def heap_free(self, nbytes: float) -> None:
        """Shrink the heap, releasing DRAM on the hosting machine."""
        if nbytes < 0:
            raise ValueError(f"negative free: {nbytes}")
        if nbytes > self._heap_bytes + 1e-6:
            raise ValueError(
                f"{self!r}: freeing {nbytes} > heap {self._heap_bytes}"
            )
        self._machine.memory.release(nbytes)
        self._heap_bytes = max(0.0, self._heap_bytes - nbytes)
        if self._runtime is not None:
            self._runtime._notify_heap_change(self)

    # -- lifecycle hooks -----------------------------------------------------
    def twin(self) -> "Proclet":
        """An unspawned, empty proclet wired like this one: the
        successor a split child or a recovered incarnation starts from.
        Subclasses that hold wiring (an owner, a task source) copy it."""
        return type(self)()

    def on_start(self, ctx):
        """Optional startup method (generator or plain); invoked at spawn."""

    def on_migrated(self, src_machine, dst_machine) -> None:
        """Synchronous hook called after each completed migration."""

    # -- fault-tolerance hooks (repro.ft) ------------------------------------
    def ft_capture(self):
        """Snapshot user state for checkpoint/replication.

        Returns ``(state, nbytes)`` where *state* is an opaque value
        :meth:`ft_restore` can rebuild from and *nbytes* is the wire/DRAM
        size of the snapshot, or ``(None, 0.0)`` for stateless proclets
        (the default) — those recover via ``RESTART`` semantics.
        Capturing must not mutate the proclet.
        """
        return None, 0.0

    def ft_restore(self, state) -> None:
        """Rebuild user state from an :meth:`ft_capture` snapshot.

        Called on a freshly respawned incarnation, already placed on a
        machine — implementations charge DRAM through the normal
        :meth:`heap_alloc` path so accounting invariants keep holding.
        """

    def __repr__(self) -> str:
        where = self._machine.name if self._machine is not None else "?"
        return (f"<{type(self).__name__} #{self._id} {self._name!r} "
                f"on {where} {self._status.value} "
                f"heap={self._heap_bytes:.0f}B>")
