"""Event primitives for the discrete-event simulation kernel.

The design follows the classic callback-event model (as popularized by
simpy): an :class:`Event` is a one-shot box that is *triggered* with either
a value (``succeed``) or an exception (``fail``).  Triggering schedules the
event on the simulator's queue; when the simulator pops it, the event's
callbacks run and the event becomes *processed*.

Processes (see :mod:`repro.sim.process`) suspend by yielding events and are
resumed from an event callback.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from .errors import EventAlreadyTriggered

#: Sentinel for "not yet triggered".
PENDING = object()

#: Event queue priorities: URGENT events at the same timestamp are
#: processed before NORMAL ones (used for rate re-settlement before
#: user-visible callbacks).
URGENT = 0
NORMAL = 1


class Event:
    """A one-shot occurrence at a point in simulated time.

    Callbacks are invoked exactly once, in registration order, when the
    simulator processes the event.  After processing, newly added
    callbacks are invoked immediately (so late subscribers never miss the
    event).
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_processed",
                 "_cancelled")

    def __init__(self, sim: "Simulator"):  # noqa: F821 (forward ref)
        self.sim = sim
        # Lazily allocated: most events (timeouts on the poller hot path)
        # collect exactly one subscriber, many collect none.  ``None``
        # means "no subscribers yet" *or* "already processed" — check
        # ``_processed`` to distinguish.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = None
        self._value: Any = PENDING
        self._ok: bool = True
        self._processed = False
        self._cancelled = False

    # -- inspection -------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def cancelled(self) -> bool:
        """True if :meth:`Simulator.cancel` tombstoned this event."""
        return self._cancelled

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception of the event."""
        if self._value is PENDING:
            raise AttributeError("value not yet available")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully, scheduling callback delivery."""
        if self._value is not PENDING:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        if delay:
            self.sim._schedule(self, delay)
        else:
            self.sim._ready.append(self)
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event with an exception."""
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        if self._value is not PENDING:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._ok = False
        self._value = exc
        if delay:
            self.sim._schedule(self, delay)
        else:
            self.sim._ready.append(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Mirror another (processed) event's outcome onto this one."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    # -- subscription -----------------------------------------------------
    def subscribe(self, callback: Callable[["Event"], None]) -> None:
        """Register *callback*; runs immediately if already processed."""
        if self._processed:
            callback(self)
        else:
            cbs = self.callbacks
            if cbs is None:
                self.callbacks = [callback]
            else:
                cbs.append(callback)

    # -- kernel hook ------------------------------------------------------
    def _process(self) -> None:
        """Run callbacks.  Called by the simulator only.

        ``Simulator.run`` inlines this body in its dispatch loop (no
        Event subclass overrides it); keep the two in sync.
        """
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        if callbacks:
            for cb in callbacks:
                cb(self)

    def __repr__(self) -> str:
        state = (
            "pending"
            if self._value is PENDING
            else ("ok" if self._ok else "failed")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers automatically after a virtual-time delay."""

    __slots__ = ("delay",)

    def __init__(self, sim, delay: float, value: Any = None):
        # Timeouts are the single most-constructed object in poller-heavy
        # workloads; the base __init__ is inlined (and the PENDING dance
        # skipped — a timeout is born triggered) to keep construction to
        # plain slot stores.
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        self.sim = sim
        self.callbacks = None
        self._ok = True
        self._value = value
        self._processed = False
        self._cancelled = False
        self.delay = delay
        if delay:
            sim._schedule(self, delay)
        else:
            sim._ready.append(self)


class ConditionBase(Event):
    """Shared machinery for :class:`AllOf` / :class:`AnyOf`."""

    __slots__ = ("events", "_remaining")

    def __init__(self, sim, events):
        super().__init__(sim)
        self.events = tuple(events)
        self._remaining = len(self.events)
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            if ev.sim is not sim:
                raise ValueError("all events must belong to one simulator")
            ev.subscribe(self._on_child)

    def _collect(self) -> dict:
        return {
            ev: ev._value
            for ev in self.events
            if ev._processed and ev._ok
        }

    def _on_child(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(ConditionBase):
    """Succeeds when every child event has succeeded.

    Fails as soon as any child fails (with that child's exception).
    """

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._collect())


class AnyOf(ConditionBase):
    """Succeeds when the first child event succeeds."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self.succeed(self._collect())
