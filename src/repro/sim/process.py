"""Generator-based simulation processes.

A process is a Python generator that *yields events* to suspend.  When a
yielded event is processed, the process resumes with the event's value (or
has the event's exception thrown into it).  The :class:`Process` object is
itself an event that triggers when the generator returns, so processes
compose: one process can ``yield`` another.

A process is freed by reference count once it has finished and nothing
else holds it: the bound ``_resume`` callback it keeps for its waits is
dropped on every exit path, the traceback of the exception a failed
process holds does not start at the ``_resume`` frame (whose ``self`` is
the process), and the entry that starts it is a :class:`_Start`, not a
full :class:`Event`.
"""

from __future__ import annotations

from typing import Generator

from .events import PENDING, Event


class _Start:
    """The ready-FIFO entry that starts a process.

    Dispatch reads only ``callbacks``, ``_processed`` and
    ``_cancelled``, and ``Process._resume`` only ``_ok`` and ``_value``,
    so the entry carries two slots and keeps the rest at class level: a
    start is never cancelled and always succeeds with ``None``.
    """

    __slots__ = ("callbacks", "_processed")

    _ok = True
    _value = None
    _cancelled = False

    def __init__(self, resume):
        self.callbacks = [resume]
        self._processed = False

    def _process(self) -> None:
        """Run the resume callback (``Simulator.step``; ``run`` inlines
        this like ``Event._process``)."""
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        for cb in callbacks:
            cb(self)


class Process(Event):
    """Drives a generator as a cooperative simulation process.

    While alive, a process is referenced by the event it waits on (its
    ``_resume_cb`` is in that event's callbacks) or by its start entry
    in the ready FIFO.  When the generator returns or raises, the
    process drops ``_resume_cb``, the bound method that would otherwise
    keep it in a reference cycle with itself.
    """

    __slots__ = ("generator", "name", "_resume_cb")

    def __init__(self, sim, generator: Generator, name: str = ""):
        if not hasattr(generator, "send"):
            raise TypeError(
                f"Process needs a generator, got {type(generator).__name__}; "
                "did you forget to call the generator function?"
            )
        # Event.__init__ inlined: one process per proclet call.
        self.sim = sim
        self.callbacks = None
        self._value = PENDING
        self._ok = True
        self._processed = False
        self._cancelled = False
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "proc")
        # One bound method for the process's whole lifetime: every yield
        # re-subscribes this callback, and binding it per-yield is pure
        # allocator churn on the dispatch hot path.  _resume drops it
        # when the generator ends (it is a reference to self).
        resume = self._resume_cb = self._resume
        # Kick off from the ready FIFO at the current time.
        sim._ready.append(_Start(resume))

    # -- inspection -------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    # -- engine -----------------------------------------------------------
    def _resume(self, event: Event) -> None:
        while True:
            try:
                if event._ok:
                    next_ev = self.generator.send(event._value)
                else:
                    next_ev = self.generator.throw(event._value)
            except StopIteration as stop:
                self._resume_cb = None
                if self._value is PENDING:
                    self.succeed(stop.value)
                return
            except BaseException as exc:
                self._resume_cb = None
                if self._value is PENDING:
                    # The traceback's head is this frame, whose ``self``
                    # is about to hold the exception: drop it, or the
                    # failed process sits in a cycle until the cyclic
                    # collector runs.  (No local for the traceback: a
                    # frame holding its own traceback is a cycle too.)
                    exc.__traceback__ = exc.__traceback__.tb_next
                    self.fail(exc)
                    return
                raise

            if not isinstance(next_ev, Event):
                err = TypeError(
                    f"process {self.name!r} yielded {next_ev!r}; "
                    "processes may only yield Event instances"
                )
                try:
                    self.generator.throw(err)
                except StopIteration:
                    self._resume_cb = None
                    self.succeed(None)
                except BaseException as exc:
                    self._resume_cb = None
                    self.fail(exc)
                return

            if next_ev._processed:
                # Already-processed event: continue synchronously.
                event = next_ev
                continue
            # Inlined subscribe (next_ev is known unprocessed here).
            cbs = next_ev.callbacks
            if cbs is None:
                next_ev.callbacks = [self._resume_cb]
            else:
                cbs.append(self._resume_cb)
            return

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else "done"
        return f"<Process {self.name!r} {state}>"
