"""Execution context handed to every proclet method.

The context is how method code consumes simulated resources: CPU work,
sleeps, nested proclet calls, bulk data transfers, heap allocation.  Its
key property is *migration transparency*: a CPU work item started through
``ctx.cpu`` is registered with the proclet, so the migration engine can
detach it from the source machine and reattach it at the destination —
the method's ``yield`` wakes up none the wiser, exactly like a Nu thread
migrating with its proclet.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..cluster import Priority
from ..sim import Event
from ..sim.events import PENDING

if TYPE_CHECKING:
    from .proclet import Proclet
    from .ref import ProcletRef


class Context:
    """Per-invocation execution context."""

    __slots__ = ("runtime", "proclet", "priority")

    def __init__(self, runtime, proclet: "Proclet",
                 priority: Priority = Priority.NORMAL):
        self.runtime = runtime
        self.proclet = proclet
        self.priority = priority

    # -- environment -----------------------------------------------------
    @property
    def sim(self):
        return self.runtime.sim

    @property
    def now(self) -> float:
        return self.runtime.sim.now

    @property
    def machine(self):
        """The machine the proclet is on *right now* (moves with it)."""
        return self.proclet.machine

    def rng(self, name: str = "ctx"):
        return self.runtime.sim.random.stream(name)

    # -- resources -----------------------------------------------------------
    def cpu(self, work: float, threads: float = 1.0) -> Event:
        """Consume *work* core-seconds on the proclet's machine.

        Returns the work item, which is its own completion event
        (``yield ctx.cpu(...)``).  It follows the proclet across
        migrations.
        """
        proclet = self.proclet
        # Straight to the fluid scheduler (``Cpu.run`` is one more hop on
        # the hottest path); it submits with the same arguments.
        item = proclet._machine.cpu.sched.submit(
            work, threads, self.priority, f"{proclet._name}.cpu", proclet)
        if item._value is not PENDING:
            return item
        active = proclet._active_cpu
        active.add(item)
        # Pending, so not yet processed: append instead of subscribe().
        # The item is the event its callbacks receive.
        cbs = item.callbacks
        if cbs is None:
            item.callbacks = [active.discard]
        else:
            cbs.append(active.discard)
        return item

    def sleep(self, delay: float) -> Event:
        """Suspend the method for *delay* virtual seconds."""
        return self.sim.timeout(delay)

    def alloc(self, nbytes: float) -> None:
        """Grow the proclet heap (charges the hosting machine's DRAM)."""
        self.proclet.heap_alloc(nbytes)

    def free(self, nbytes: float) -> None:
        """Shrink the proclet heap."""
        self.proclet.heap_free(nbytes)

    # -- communication --------------------------------------------------------
    def call(self, ref: "ProcletRef", method: str, *args,
             req_bytes: float = 0.0, **kwargs) -> Event:
        """Invoke a method on another proclet (location-transparent).

        The runtime charges a cheap function call when *ref* is colocated
        and an RPC otherwise (§3.1).  ``req_bytes`` models a bulk request
        payload (e.g. a write), charged as a fabric transfer.
        """
        proclet = self.proclet
        return self.runtime.invoke(
            ref, method, *args, caller_machine=proclet._machine,
            caller_proclet_id=proclet._id,
            priority=self.priority, req_bytes=req_bytes, **kwargs,
        )

    def send(self, dst_machine, nbytes: float, name: str = "") -> Event:
        """Bulk-transfer bytes from the proclet's machine to *dst_machine*."""
        return self.runtime.fabric.transfer(
            self.proclet.machine, dst_machine, nbytes,
            priority=int(self.priority), name=name,
        )

    def __repr__(self) -> str:
        return f"<Context of {self.proclet!r}>"
