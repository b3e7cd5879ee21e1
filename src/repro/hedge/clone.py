"""First-response-wins request cloning over the proclet call path.

``NuRuntime.invoke(..., clone_to=N, hedge_after=t)`` routes through a
:class:`CloneCall` coordinator instead of a single ``_invoke_proc``
process.  The coordinator launches up to N attempts of the same method
call — all at once (``clone_to`` alone), staggered by a hedge timer
(``hedge_after``), or strictly sequentially for non-retryable calls —
and settles on the first attempt to complete:

* the winner's value becomes the call's value;
* every live loser is cancelled *through the real kernel machinery*:
  its active CPU work items are removed from their fluid schedulers
  (capacity returns at the cancellation instant, and the items are
  deregistered from the owner proclet so an in-flight migration cannot
  resurrect them), the heap timer it is parked on is tombstoned
  via :meth:`Simulator.cancel`, and the attempt process is interrupted
  with :class:`CloneCancelled`;
* a loser that finished in the same virtual instant as the winner (the
  cancellation race) is simply recorded as a late completion — the
  decision event is already triggered, so the outcome is resolved by
  deterministic ``(when, priority, seq)`` event order, never wall time.

Retries and hedges *compose instead of multiplying*: all attempts share
one :class:`CloneState`, whose ``retries`` counter is the attempt index
handed to ``RecoveryManager.retry_delay`` — the recovery budget caps
transparent retries across the whole clone set, not per clone.  The
shared ``executions`` counter (bumped just before a method body starts)
is what lets non-retryable clones guarantee at-most-once execution:
``retryable=False`` forces sequential failover, and a failed attempt
whose body had already started surfaces its error instead of launching
the next clone.

Bytes already on the wire are not recalled: a loser's in-flight fabric
transfer drains on its own (you cannot un-send an RPC); only its CPU
work and timers are reclaimed.
"""

from __future__ import annotations

from typing import Any, List, Optional

from ..runtime.errors import RuntimeFault

__all__ = ["CloneCancelled", "CloneState", "CloneAttempt", "CloneCall"]


class CloneCancelled(RuntimeFault):
    """Interrupt cause thrown into losing clone attempts."""


class CloneState:
    """Bookkeeping shared by every attempt of one cloned call."""

    __slots__ = ("retries", "executions")

    def __init__(self):
        #: Transparent-retry count across *all* clones — the index handed
        #: to ``RecoveryManager.retry_delay`` so the recovery budget is a
        #: per-call budget, not a per-clone one.
        self.retries = 0
        #: Method-body executions started across all clones (at-most-once
        #: accounting for ``retryable=False``).
        self.executions = 0


class CloneAttempt:
    """One launched attempt of a cloned call."""

    __slots__ = ("index", "process", "work_items", "launched_at",
                 "exec_mark", "won", "cancelled")

    def __init__(self, index: int, launched_at: float, exec_mark: int):
        self.index = index
        self.process = None
        #: FluidItems the attempt's method body started via ``ctx.cpu``
        #: (collected through the Context work-item scope).
        self.work_items: List = []
        self.launched_at = launched_at
        #: ``CloneState.executions`` at launch; a failure with the
        #: counter advanced past this mark means the body started.
        self.exec_mark = exec_mark
        self.won = False
        self.cancelled = False


class CloneCall:
    """Coordinator process for one ``clone_to``/``hedge_after`` call."""

    def __init__(self, runtime, ref, method: str, args, kwargs, *,
                 caller_machine=None, caller_proclet_id=None,
                 priority=None, req_bytes: float = 0.0,
                 retryable: bool = True, clone_to: int = 2,
                 hedge_after: Optional[float] = None):
        self.runtime = runtime
        self.sim = runtime.sim
        self.ref = ref
        self.method = method
        self.args = args
        self.kwargs = kwargs
        self.caller_machine = caller_machine
        self.caller_proclet_id = caller_proclet_id
        self.priority = priority
        self.req_bytes = req_bytes
        self.retryable = retryable
        self.clone_to = clone_to
        self.hedge_after = hedge_after
        self.state = CloneState()
        self.attempts: List[CloneAttempt] = []
        self.winner: Optional[int] = None
        self.decided_at: Optional[float] = None
        self.failures = 0
        self.hedges_fired = 0
        self.losers_cancelled = 0
        self.late_completions = 0
        self._decided = self.sim.event()
        self._hedge_timer = None
        self._span = None
        self.process = None

    # -- lifecycle --------------------------------------------------------
    def start(self):
        """Spawn the coordinator; returns its Process (the call event)."""
        self.runtime._register_clone_call(self)
        self.process = self.sim.process(
            self._run(), name=f"clone:{self.ref.name}.{self.method}")
        return self.process

    def _run(self):
        tr = self.sim.tracer
        if tr is not None:
            self._span = tr.begin(
                "hedge", f"{self.ref.name}.{self.method}",
                track=f"hedge:{self.ref.name}", clones=self.clone_to,
                hedge_after=self.hedge_after, retryable=self.retryable)
        # Launch policy: parallel fan-out needs at-least-once semantics
        # (retryable); hedged and non-retryable calls start with one
        # attempt and add more on the hedge timer / on safe failover.
        initial = (self.clone_to
                   if self.retryable and self.hedge_after is None else 1)
        for _ in range(initial):
            self._launch()
        if self.hedge_after is not None:
            self._arm_hedge()
        try:
            result = yield self._decided
        except BaseException:
            if tr is not None:
                tr.end(self._span, outcome="failed",
                       attempts=len(self.attempts),
                       executions=self.state.executions)
            raise
        finally:
            self._disarm_hedge()
        if tr is not None:
            tr.end(self._span, outcome="won", winner=self.winner,
                   attempts=len(self.attempts),
                   retries=self.state.retries,
                   executions=self.state.executions)
        return result

    # -- attempt management ----------------------------------------------
    def _launch(self) -> CloneAttempt:
        att = CloneAttempt(index=len(self.attempts),
                           launched_at=self.sim.now,
                           exec_mark=self.state.executions)
        self.attempts.append(att)
        runtime = self.runtime
        gen = runtime._invoke_proc(
            self.ref, self.method, self.args, self.kwargs,
            self.caller_machine, self.caller_proclet_id, self.priority,
            self.req_bytes, self.retryable, clone_state=self.state,
            work_items=att.work_items)
        att.process = self.sim.process(
            gen, name=f"clone{att.index}:{self.ref.name}.{self.method}")
        runtime.clone_stats["clones_launched"] += 1
        if runtime.metrics is not None:
            runtime.metrics.count("hedge.clones_launched")
        att.process.subscribe(lambda event, a=att: self._on_attempt(a, event))
        return att

    def _on_attempt(self, att: CloneAttempt, event) -> None:
        if event.ok:
            if self._decided.triggered:
                # Cancellation race: this loser completed in the same
                # virtual instant the winner was decided.  The decision
                # already stands (deterministic event order); just count.
                self.late_completions += 1
                self.runtime.clone_stats["late_completions"] += 1
            else:
                self._decide(att, event.value)
        elif not att.cancelled and not self._decided.triggered:
            self.failures += 1
            if self._may_failover(att):
                self._launch()
                if self.hedge_after is not None:
                    # Restart the hedge clock relative to the failover.
                    self._disarm_hedge()
                    self._arm_hedge()
            elif all(a.process.triggered for a in self.attempts):
                self._decided.fail(event.value)
        self._maybe_settle()

    def _may_failover(self, att: CloneAttempt) -> bool:
        if len(self.attempts) >= self.clone_to:
            return False
        if self.retryable:
            return True
        # Non-retryable: failover only when the failed attempt provably
        # never started executing the method body (at-most-once).
        # Attempts run sequentially in this mode, so the executions
        # delta since launch is attributable to this attempt alone.
        return self.state.executions == att.exec_mark

    def _decide(self, winner: CloneAttempt, value: Any) -> None:
        winner.won = True
        self.winner = winner.index
        self.decided_at = self.sim.now
        runtime = self.runtime
        runtime.clone_stats["calls_won"] += 1
        if runtime.metrics is not None:
            runtime.metrics.count("hedge.calls_won")
        self._decided.succeed(value)
        for att in self.attempts:
            if att is not winner:
                self._cancel_attempt(att)
        self._disarm_hedge()

    def _cancel_attempt(self, att: CloneAttempt) -> None:
        proc = att.process
        if proc.triggered:
            return  # already finished on its own — nothing to reclaim
        att.cancelled = True
        sim = self.sim
        # 1. Reclaim CPU work: remove the loser's fluid items from their
        #    schedulers (capacity back this instant) and deregister them
        #    from the owner proclet so a migration in flight cannot
        #    reattach them at the destination.
        for item in att.work_items:
            if item.active:
                sched = item._sched
                if sched is not None:
                    sched.cancel(item)
            owner = item.owner
            if owner is not None:
                owner._active_cpu.discard(item)
        # 2. Tombstone the timer the attempt is parked on (retry backoff,
        #    call-overhead or network-hop delay) through the real
        #    cancellation machinery — the heap entry is reclaimed,
        #    not leaked.  Shared events (migration gates, resource
        #    completions) are left alone: interrupt() detaches this
        #    process from them without disturbing other waiters.
        target = proc.target
        if target is not None and type(target).__name__ == "Timeout":
            sim.cancel(target)
        # 3. Kill the attempt process.
        proc.interrupt(CloneCancelled(
            f"clone {att.index} of {self.ref.name}.{self.method} lost"))
        self.losers_cancelled += 1
        runtime = self.runtime
        runtime.clone_stats["losers_cancelled"] += 1
        if runtime.metrics is not None:
            runtime.metrics.count("hedge.losers_cancelled")
        tr = sim.tracer
        if tr is not None:
            tr.instant("hedge", f"cancel clone {att.index}",
                       parent=self._span)

    # -- hedge timer ------------------------------------------------------
    def _arm_hedge(self) -> None:
        if self._decided.triggered or len(self.attempts) >= self.clone_to:
            return
        self._hedge_timer = self.sim.timeout(self.hedge_after)
        self._hedge_timer.subscribe(self._on_hedge_timer)

    def _on_hedge_timer(self, _event) -> None:
        self._hedge_timer = None
        if self._decided.triggered or len(self.attempts) >= self.clone_to:
            return
        self.hedges_fired += 1
        self.runtime.clone_stats["hedges_fired"] += 1
        if self.runtime.metrics is not None:
            self.runtime.metrics.count("hedge.hedges_fired")
        tr = self.sim.tracer
        if tr is not None:
            tr.instant("hedge", f"hedge clone {len(self.attempts)}",
                       parent=self._span)
        self._launch()
        self._arm_hedge()

    def _disarm_hedge(self) -> None:
        timer = self._hedge_timer
        self._hedge_timer = None
        if timer is not None and not timer.processed:
            self.sim.cancel(timer)

    # -- settlement -------------------------------------------------------
    @property
    def decided(self) -> bool:
        return self._decided.triggered

    @property
    def settled(self) -> bool:
        """Decision made and every attempt process finished."""
        return (self._decided.triggered
                and all(a.process.triggered for a in self.attempts))

    def _maybe_settle(self) -> None:
        if self.settled:
            self.runtime._unregister_clone_call(self)

    def __repr__(self) -> str:
        state = ("settled" if self.settled
                 else "decided" if self.decided else "racing")
        return (f"<CloneCall {self.ref.name}.{self.method} "
                f"x{self.clone_to} {state}>")
