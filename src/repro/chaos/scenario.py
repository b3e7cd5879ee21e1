"""Canned chaos scenario: workload + faults + invariants in one call.

:func:`run_chaos` builds a cluster, starts a realistic mixed workload
(an elastic compute pool streaming tasks plus a set of memory shards
under key churn), expands a seeded :class:`RandomFaultPlan` into a
schedule, arms the injector, attaches the :class:`InvariantChecker`,
and runs to the horizon.  The whole run is a pure function of the
config — same seed, same everything — which :meth:`ChaosResult.digest`
makes checkable: the CLI runs a scenario twice and diffs the digests.

Fault tolerance comes in two flavors, selected by
``ChaosConfig.recovery_policy``:

* ``None`` (default) — application-level redo: a healer listener
  re-spawns pool members and memory shards a short delay after each
  crash, and the drivers treat :class:`ProcletLost` on a stale ref as a
  signal to count the loss and move on.  Bit-identical to runs
  predating :mod:`repro.ft`.
* a :class:`~repro.ft.RecoveryPolicy` value (``"none"``/``"restart"``/
  ``"checkpoint"``/``"replicate"``/``"lineage"``) — runtime-level
  recovery: the app healer is disabled, shards are protected under the
  chosen policy (pool members under RESTART), and the recovery manager
  re-places lost proclets while blocked calls transparently retry.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

from ..cluster import ClusterSpec, MachineSpec, OutOfMemory
from ..core import Quicksand, QuicksandConfig
from ..metrics import Summary
from ..obs import Decision
from ..runtime import MachineFailed, MigrationFailed, ProcletLost
from ..runtime.errors import DeadProclet, InvalidPlacement
from ..units import GiB, MiB
from .faults import FaultSchedule, MachineCrash, RandomFaultPlan
from .injector import ChaosInjector
from .invariants import InvariantChecker


@dataclass
class ChaosConfig:
    """Knobs for one chaos run.  Everything that can influence the
    simulation is in here — the run is a pure function of this object."""

    seed: int = 42
    machines: int = 4
    cores: int = 8
    dram_bytes: float = 4 * GiB
    duration: float = 2.0
    # Workload.
    shards: int = 6
    shard_item_bytes: float = 8 * MiB
    churn_interval: float = 0.002
    pool_members: int = 3
    parallelism: int = 2
    task_interval: float = 0.003
    task_work: float = 0.004
    # Fault plan (see RandomFaultPlan for the remaining defaults).
    crash_probability: float = 0.6
    migration_flakiness: float = 0.25
    heal_delay: float = 0.02
    # Runtime-level recovery: None = legacy app-level healing, else a
    # RecoveryPolicy value for the shards ("none" runs the detector and
    # registry but recovers nothing — lost proclets stay lost).
    recovery_policy: Optional[str] = None
    # Autoscaler mode: replaces the legacy size controller with the
    # ShardAutoscaler and adds a range-sharded map under routed-key
    # churn, so faults land at every reshard phase boundary.  The
    # default False keeps pre-autoscaler digests byte-identical.
    autoscale: bool = False
    map_item_bytes: float = 2 * MiB
    map_churn_interval: float = 0.002
    # Checking.
    oracle: bool = False
    gate_timeout: Optional[float] = None  # default: the full horizon


@dataclass
class ChaosResult:
    """Outcome of a chaos run that completed with all invariants holding
    (a violation raises instead of returning)."""

    config: ChaosConfig
    schedule: FaultSchedule
    injected: int
    skipped: int
    machines_crashed: int
    tasks_done: int
    lost_calls: int
    invariant_checks: int
    oracle_comparisons: int
    migrations: int
    migrations_retried: int
    migrations_failed: int
    # Runtime-level recovery outcomes (all zero under the legacy path).
    suspects: int = 0
    confirms: int = 0
    recoveries: int = 0
    failed_recoveries: int = 0
    call_retries: int = 0
    sheds: int = 0
    # Reshard/autoscaler outcomes (all zero with autoscale off).
    reshard_splits: int = 0
    reshard_merges: int = 0
    reshard_aborts: int = 0
    autoscale_decisions: int = 0
    autoscale_sheds: int = 0
    #: The run's ``runtime.decisions``.
    decisions: List[Decision] = field(repr=False, default_factory=list)
    counters: List[str] = field(repr=False, default_factory=list)
    #: The run's closed gate windows (seconds) per kind; not digested.
    gate_windows: Dict[str, Summary] = field(repr=False,
                                             default_factory=dict)

    def digest(self) -> str:
        """Hex digest of everything observable about the run.  Two runs
        of the same config must produce identical digests — this is the
        determinism acceptance check."""
        h = hashlib.sha256()
        for decision in self.decisions:
            h.update(str(decision).encode())
            h.update(b"\n")
        for line in self.counters:
            h.update(line.encode())
            h.update(b"\n")
        h.update(f"tasks={self.tasks_done}\n".encode())
        h.update(f"lost={self.lost_calls}\n".encode())
        h.update(f"checks={self.invariant_checks}\n".encode())
        return h.hexdigest()

    def report(self) -> str:
        lines = [
            f"chaos run: seed={self.config.seed} "
            f"machines={self.config.machines} "
            f"duration={self.config.duration:.2f}s",
            f"  faults injected   : {self.injected} "
            f"({self.skipped} skipped)",
            f"  machines crashed  : {self.machines_crashed}",
            f"  tasks completed   : {self.tasks_done}",
            f"  calls hit faults  : {self.lost_calls}",
            f"  migrations        : {self.migrations} "
            f"({self.migrations_retried} retried, "
            f"{self.migrations_failed} failed)",
            f"  invariant checks  : {self.invariant_checks} "
            f"(oracle comparisons: {self.oracle_comparisons})",
        ]
        if self.config.recovery_policy is not None:
            # Recoveries count proclets; confirms count machines.
            lines.append(
                f"  recovery ({self.config.recovery_policy}): "
                f"{_count(self.recoveries, 'proclet')} recovered after "
                f"{_count(self.confirms, 'confirmed machine death')} "
                f"({self.failed_recoveries} failed, {self.sheds} "
                f"shed, {self.call_retries} calls retried)")
        if self.config.autoscale:
            lines.append(
                f"  autoscaler        : {self.autoscale_decisions} "
                f"decisions, {self.reshard_splits} splits + "
                f"{self.reshard_merges} merges committed, "
                f"{self.reshard_aborts} aborted, "
                f"{self.autoscale_sheds} sheds")
        if self.gate_windows:
            lines.append("  gate windows      :")
            lines += [f"    {kind:<14}: {s.count} windows, "
                      f"p50 {s.p50 * 1e3:.3f} ms, p99 {s.p99 * 1e3:.3f} ms, "
                      f"max {s.maximum * 1e3:.3f} ms"
                      for kind, s in self.gate_windows.items()]
        lines += [
            f"  digest            : {self.digest()}",
            "fault schedule:",
            self.schedule.describe(),
        ]
        return "\n".join(lines)


def _count(n: int, noun: str) -> str:
    """``n`` and *noun*, plural unless ``n`` is one."""
    return f"{n} {noun}" if n == 1 else f"{n} {noun}s"


def run_chaos(config: ChaosConfig = ChaosConfig()) -> ChaosResult:
    """Execute one seeded chaos scenario end to end.

    Raises :class:`repro.chaos.InvariantViolation` the moment any global
    invariant breaks; returns a :class:`ChaosResult` otherwise.
    """
    names = [f"m{i}" for i in range(config.machines)]
    spec = ClusterSpec(
        machines=[MachineSpec(name=n, cores=config.cores,
                              dram_bytes=config.dram_bytes)
                  for n in names],
        seed=config.seed,
    )
    qs = Quicksand(spec, config=QuicksandConfig())
    sim = qs.sim
    autoscaler = qs.enable_autoscaler() if config.autoscale else None

    plan = RandomFaultPlan(
        seed=config.seed, machines=names, duration=config.duration,
        crash_probability=config.crash_probability,
        migration_flakiness=config.migration_flakiness,
    )
    schedule = plan.schedule(dram_bytes=config.dram_bytes)
    injector = ChaosInjector(qs.runtime, schedule)
    checker = InvariantChecker(
        qs.runtime, oracle=config.oracle,
        gate_timeout=(config.gate_timeout if config.gate_timeout is not None
                      else config.duration),
    ).attach(sim)

    state = _Workload(qs, config)
    state.start()

    def after_fault(fault) -> None:
        if isinstance(fault, MachineCrash):
            sim.call_in(config.heal_delay, state.heal)

    if config.recovery_policy is None:
        # Legacy path: the application heals itself after crashes.
        injector.on_fault(after_fault)
    injector.start()

    qs.run(until=config.duration)
    checker.check()  # final state must hold too
    checker.detach()

    metrics = qs.metrics
    counters = [f"{name}={c.total:g}"
                for name, c in sorted(metrics._counters.items())]

    recovery = qs.recovery
    reshard = qs.runtime.reshard_ledger.counters
    return ChaosResult(
        config=config,
        schedule=schedule,
        injected=len(injector.injected),
        skipped=len(injector.skipped),
        machines_crashed=injector.machines_crashed,
        tasks_done=state.pool.total_done,
        lost_calls=state.lost_calls,
        invariant_checks=checker.checks,
        oracle_comparisons=checker.oracle_comparisons,
        migrations=qs.runtime.migration.migrations_completed,
        migrations_retried=qs.runtime.migration.migrations_retried,
        migrations_failed=qs.runtime.migration.migrations_failed,
        suspects=recovery.detector.suspects if recovery else 0,
        confirms=recovery.detector.confirms if recovery else 0,
        recoveries=sum(recovery.recoveries.values()) if recovery else 0,
        failed_recoveries=recovery.failed_recoveries if recovery else 0,
        call_retries=int(qs.metrics.counter("ft.call_retries").total)
        if recovery else 0,
        sheds=recovery.sheds if recovery else 0,
        reshard_splits=reshard["split_committed"],
        reshard_merges=reshard["merge_committed"],
        reshard_aborts=(reshard["split_aborted"]
                        + reshard["merge_aborted"]),
        autoscale_decisions=(autoscaler.decision_count
                             if autoscaler else 0),
        autoscale_sheds=autoscaler.sheds if autoscaler else 0,
        decisions=qs.runtime.decisions,
        counters=counters,
        gate_windows=qs.runtime.gate_summary(),
    )


def run_chaos_summary(**config_kwargs) -> dict:
    """One chaos run as a picklable, cacheable task (see ``repro.exec``).

    Accepts :class:`ChaosConfig` fields as keyword arguments and returns
    plain data — the replay digest plus the headline counters — so a
    seed grid can fan out across worker processes and the parent can
    diff digests without shipping decision records around.
    """
    config = ChaosConfig(**config_kwargs)
    result = run_chaos(config)
    return {
        "seed": config.seed,
        "digest": result.digest(),
        "injected": result.injected,
        "machines_crashed": result.machines_crashed,
        "tasks_done": result.tasks_done,
        "lost_calls": result.lost_calls,
        "invariant_checks": result.invariant_checks,
        "migrations": result.migrations,
        "confirms": result.confirms,
        "recoveries": result.recoveries,
        "failed_recoveries": result.failed_recoveries,
        "call_retries": result.call_retries,
        "reshard_splits": result.reshard_splits,
        "reshard_merges": result.reshard_merges,
        "reshard_aborts": result.reshard_aborts,
        "autoscale_decisions": result.autoscale_decisions,
        "autoscale_sheds": result.autoscale_sheds,
    }


def chaos_grid_specs(seeds, policies=(None,), prefix: str = "chaos",
                     **config_kwargs) -> list:
    """RunSpecs of :func:`run_chaos_summary` over *policies* x *seeds*.

    *config_kwargs* are further :class:`ChaosConfig` fields shared by
    every cell; the run name records the seed, the recovery policy and
    whether the autoscaler is on."""
    from ..exec import RunSpec

    return [
        RunSpec(run_chaos_summary,
                dict(config_kwargs, seed=seed, recovery_policy=policy),
                name=f"{prefix}.seed={seed}"
                     + (f".rec={policy}" if policy else "")
                     + (".autoscale" if config_kwargs.get("autoscale")
                        else ""))
        for policy in policies
        for seed in seeds
    ]


class _Workload:
    """The mixed workload a chaos scenario runs underneath the faults."""

    def __init__(self, qs: Quicksand, config: ChaosConfig):
        self.qs = qs
        self.config = config
        self.pool = None
        self.shards: List = []
        self.map = None
        self.lost_calls = 0
        self.lineage = None
        self._next_key = 0
        self._next_map_key = 0

    def start(self) -> None:
        from ..ft import LineageLog, RecoveryPolicy

        policy = (RecoveryPolicy(self.config.recovery_policy)
                  if self.config.recovery_policy is not None else None)
        manager = self.qs.enable_recovery() if policy is not None else None
        if policy is RecoveryPolicy.LINEAGE:
            self.lineage = LineageLog()
        self.pool = self.qs.compute_pool(
            name="chaos-pool", parallelism=self.config.parallelism,
            initial_members=self.config.pool_members)
        for i in range(self.config.shards):
            self.shards.append(self.qs.spawn_memory(name=f"shard{i}"))
        if manager is not None:
            # Shards carry the grid's policy; pool members are stateless
            # workers, so RESTART is always the right recovery for them.
            # (Split-derived proclets are unprotected: recovering only
            # registered state is itself a policy worth chaos-testing.)
            for ref in self.shards:
                manager.protect(ref, policy, lineage=self.lineage)
            member_policy = (RecoveryPolicy.RESTART
                             if policy is not RecoveryPolicy.NONE
                             else RecoveryPolicy.NONE)
            for ref in self.pool.members:
                manager.protect(ref, member_policy)
        if self.config.autoscale:
            # Routed traffic against a range-sharded map: splits/merges
            # re-route keys while faults land at every protocol phase.
            self.map = self.qs.sharded_map(name="chaos-map")
            self.qs.sim.spawn(self._map_driver(), name="chaos-map-churn")
        self.qs.sim.spawn(self._task_driver(), name="chaos-tasks")
        self.qs.sim.spawn(self._churn_driver(), name="chaos-churn")

    # -- fault recovery ------------------------------------------------------
    def heal(self) -> None:
        """Replace pool members and shards lost to a crash.  Retries
        later if the cluster currently has nowhere to put them."""
        try:
            self.pool.heal()
            dead = [ref for ref in self.shards
                    if self.qs.runtime._proclets.get(ref.proclet_id) is None]
            for ref in dead:
                self.shards.remove(ref)
                self.shards.append(
                    self.qs.spawn_memory(name=f"{ref.name}.re"))
        except (OutOfMemory, InvalidPlacement, MachineFailed):
            self.qs.sim.call_in(self.config.heal_delay, self.heal)

    # -- drivers -------------------------------------------------------------
    def _task_driver(self) -> Generator:
        rng = self.qs.sim.random.stream("chaos.workload.tasks")
        while True:
            yield self.qs.sim.timeout(
                rng.expovariate(1.0 / self.config.task_interval))
            if not self.pool.members:
                continue  # wiped out; the healer will restock
            work = rng.uniform(0.5, 1.5) * self.config.task_work
            try:
                self.pool.run(work)
            except (ProcletLost, DeadProclet, MachineFailed):
                self.lost_calls += 1

    def _churn_driver(self) -> Generator:
        rng = self.qs.sim.random.stream("chaos.workload.mem")
        while True:
            yield self.qs.sim.timeout(
                rng.expovariate(1.0 / self.config.churn_interval))
            if not self.shards:
                continue
            ref = self.shards[rng.randrange(len(self.shards))]
            key = f"k{self._next_key}"
            self._next_key += 1
            nbytes = rng.uniform(0.5, 1.5) * self.config.shard_item_bytes
            if self.lineage is not None:
                ev = self.lineage.recording_put(self.qs.runtime, ref,
                                                key, nbytes)
            else:
                ev = self.qs.runtime.invoke(ref, "mp_put", key, nbytes)
            ev.subscribe(self._on_churn_done)

    def _map_driver(self) -> Generator:
        """Routed key churn against the autoscaled map: mostly inserts
        (growing the keyspace so shards split), occasional deletes (so
        drained shards merge back), occasional reads."""
        rng = self.qs.sim.random.stream("chaos.workload.map")
        while True:
            yield self.qs.sim.timeout(
                rng.expovariate(1.0 / self.config.map_churn_interval))
            roll = rng.random()
            if roll < 0.70 or self._next_map_key == 0:
                key = f"mk{self._next_map_key:08d}"
                self._next_map_key += 1
                nbytes = (rng.uniform(0.5, 1.5)
                          * self.config.map_item_bytes)
                ev = self.map.put(key, self._next_map_key, nbytes)
            else:
                key = f"mk{rng.randrange(self._next_map_key):08d}"
                ev = (self.map.delete(key) if roll < 0.85
                      else self.map.get(key))
            ev.subscribe(self._on_map_done)

    def _on_map_done(self, event) -> None:
        if event.ok:
            return
        if isinstance(event.value,
                      (DeadProclet, MachineFailed, OutOfMemory,
                       MigrationFailed, KeyError)):
            # KeyError: the deleted/read key never landed (its insert
            # hit a fault) or died with an unrecovered shard.
            self.lost_calls += 1
        else:
            raise event.value

    def _on_churn_done(self, event) -> None:
        if not event.ok:
            if isinstance(event.value,
                          (DeadProclet, MachineFailed, OutOfMemory,
                           MigrationFailed)):
                self.lost_calls += 1
            else:
                raise event.value
