"""Datacenter-scale multi-tenant serving (the paper's §1 pitch, measured).

The paper opens with the claim that static VM-shaped carve-ups waste the
datacenter: every tenant sizes for its own peak, peaks don't align, and
the stranded capacity cannot be lent because VM boundaries are rigid.
Quicksand's counter-bet is fungibility — tenants expressed as granular
resource proclets that a cluster-wide scheduler can grow, shrink, and
migrate at millisecond scale, so one tenant's diurnal trough becomes
another tenant's burst headroom.

This module makes that comparison a single switchable scenario:

* Each **tenant** is an SLO-annotated request fleet: a seeded
  nonhomogeneous arrival trace (:mod:`repro.apps.traces`), exponential
  service demand, PS service at HIGH priority on whichever machines its
  :class:`ServingReplica` proclets currently occupy, and an
  SLO-aware :class:`AdmissionController` that sheds load it cannot
  serve within the deadline.

* ``mode="fungible"`` runs all tenants on one shared Quicksand cluster
  under a tenant-aware :class:`ServingScheduler`: per-tenant demand is
  EWMA-estimated from the live trace, cluster cores are divided by
  weighted max-min water-filling, replica fleets are scaled to their
  allocation through normal Quicksand placement, and replicas are
  migrated off contended machines using the machine index's bucketed
  extreme queries (no per-round sweep over the fleet).

* ``mode="static"`` is the baseline the paper argues against: machines
  are hard-partitioned up front (largest-remainder apportionment by
  weight x mean demand), replicas are pinned, and no scheduler runs.
  Idle cycles in one partition are invisible to every other tenant.

Both modes report goodput (completions within the SLO deadline over
offered load), p99/p999 latency, and cluster utilization — the
experiment driver (:mod:`repro.experiments.serving`) sweeps them over a
seed grid and CI pins the fungible:static goodput ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from ..cluster import Machine, Priority, symmetric_cluster
from ..core.config import QuicksandConfig
from ..core.quicksand import Quicksand
from ..core.resource import ResourceKind, ResourceProclet
from ..metrics import LatencyLog, Summary
from ..metrics.stats import percentile
from ..runtime import MigrationFailed, ProcletStatus
from ..runtime.errors import InvalidPlacement, MachineFailed
from ..units import GiB, MS
from .traces import ArrivalTrace, TraceSpec

_HIGH = int(Priority.HIGH)


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: an arrival trace plus an SLO and a sharing weight."""

    name: str
    trace: TraceSpec
    #: Mean CPU demand per request (core-seconds; exponential draws).
    service_mean: float
    #: Response-time SLO: a request completing within *slo_deadline*
    #: of its arrival counts toward goodput.
    slo_deadline: float
    #: Water-filling weight (relative claim on contended cores).
    weight: float = 1.0

    def __post_init__(self):
        if self.service_mean <= 0:
            raise ValueError("service_mean must be positive")
        if self.slo_deadline <= self.service_mean:
            raise ValueError("slo_deadline must exceed service_mean")
        if self.weight <= 0:
            raise ValueError("weight must be positive")

    @property
    def mean_demand_cores(self) -> float:
        """Long-run mean core demand (rate x service)."""
        return self.trace.mean_rate * self.service_mean


class ServingReplica(ResourceProclet):
    """One single-core serving instance of a tenant.

    Replicas are plain compute proclets: placement packs them by
    planned CPU, the scheduler migrates them like any other proclet,
    and a machine crash kills them fail-stop.  Requests execute on the
    replica's *current* machine, so migration shifts where a tenant's
    load lands without touching the tenant's request loop.
    """

    kind = ResourceKind.COMPUTE
    parallelism = 1

    def __init__(self, tenant_name: str):
        super().__init__()
        self.tenant_name = tenant_name


@dataclass(frozen=True)
class AdmissionController:
    """SLO-aware load shedding at the tenant frontend.

    Under processor sharing, ``k`` resident requests on one core each
    see ``k x service_mean`` response time, so a request admitted while
    ``k >= deadline / service_mean`` is already doomed.  The controller
    caps per-tenant in-flight requests at that bound times *slack*
    (< 1 leaves margin for service-time variance), scaled by the
    tenant's current replica capacity — shedding early is what keeps
    the p99 of *admitted* requests inside the SLO when the tenant is
    under-provisioned.
    """

    slack: float = 0.8

    def __post_init__(self):
        if not 0.0 < self.slack <= 2.0:
            raise ValueError("slack must be in (0, 2]")

    def max_inflight(self, spec: TenantSpec, capacity_cores: float) -> int:
        per_core = spec.slo_deadline / spec.service_mean
        return max(1, int(capacity_cores * per_core * self.slack))

    def admit(self, spec: TenantSpec, inflight: int,
              capacity_cores: float) -> bool:
        return inflight < self.max_inflight(spec, capacity_cores)


class Tenant:
    """Runtime state of one tenant inside a scenario (counters, replica
    fleet, request path).  Created by :class:`ServingScenario`."""

    def __init__(self, scenario: "ServingScenario", spec: TenantSpec):
        self.scenario = scenario
        self.spec = spec
        self.sim = scenario.qs.sim
        self.rng_service = self.sim.random.stream(
            f"serving.{spec.name}.service")
        self.trace = ArrivalTrace(
            spec.trace,
            self.sim.random.stream(f"serving.{spec.name}.arrivals"),
            scenario.duration)
        #: Live ``(ref, proclet)`` pairs in dispatch order.  The scenario
        #: appends on spawn and rebinds (never mutates) on removal, from
        #: its locator listener, so nothing here ever scans the runtime.
        self.replicas: List[Tuple] = []
        self.spawned = 0                  # monotone replica name counter
        self._req_name = f"{spec.name}.req"
        self._service_rate = 1.0 / spec.service_mean
        self._rr = 0                      # round-robin cursor
        self._arrivals = self.trace.arrivals()
        self._t_prev = 0.0                # time of the last arrival
        # Admission cap and the fleet size it was computed for.
        self._cap_size = self._cap = 0
        self.inflight = 0
        self.offered = 0
        self.admitted = 0
        self.rejected = 0
        self.completed = 0
        self.slo_ok = 0
        self.failed = 0
        #: (arrival time, response time) per completed request, in
        #: completion order.  :meth:`_finish` appends to the two columns
        #: through their bound ``append``s, so recording a sample adds
        #: no Python-level call per request.
        self.samples = LatencyLog()
        self._log_arrived = self.samples.arrived.append
        self._log_latency = self.samples.latency.append
        #: Arrivals since the scheduler last sampled (demand estimator).
        self.window_arrivals = 0
        #: EWMA of core demand (rate x service_mean), seeded analytically.
        self.demand_ewma = spec.trace.base_rate * spec.service_mean
        #: In-flight FluidItems (starvation invariant inspects rates).
        self.active_items: set = set()
        # Post-warmup counter baselines, set by the warmup marker.
        self._base: Dict[str, int] = {}

    # -- replica fleet -----------------------------------------------------
    def live_replicas(self) -> List[Tuple]:
        """Current ``(ref, proclet)`` pairs in dispatch order (no scan:
        locator removals keep :attr:`replicas` current)."""
        return self.replicas

    # -- request path ------------------------------------------------------
    def start(self) -> None:
        """Queue the start of the arrival stream at the current instant.

        A zero-delay timeout, so the first arrival's timeout is created
        when the start is dispatched, in tenant order with every other
        entry of the ready FIFO.
        """
        self.sim.timeout(0.0).callbacks = [self._next_arrival]

    def _next_arrival(self, _event=None) -> None:
        """Schedule the timeout of the next arrival, if any is left."""
        t = next(self._arrivals, None)
        if t is None:
            return
        ev = self.sim.timeout(t - self._t_prev)
        ev.callbacks = [self._on_arrival]
        self._t_prev = t

    def _on_arrival(self, _event) -> None:
        """One arrival: count it, admit or shed it, then arm the next."""
        self.offered += 1
        self.window_arrivals += 1
        live = self.replicas
        # The admission cap depends only on the fleet size, which
        # changes a few times per scheduler round at most.
        if len(live) != self._cap_size:
            self._cap_size = len(live)
            self._cap = self.scenario.admission.max_inflight(
                self.spec, self._cap_size)
        if not live or self.inflight >= self._cap:
            self.rejected += 1
        else:
            self.admitted += 1
            self.inflight += 1
            _ref, proclet = live[self._rr % len(live)]
            self._rr += 1
            self._serve(proclet)
        self._next_arrival()

    def _serve(self, proclet: ServingReplica) -> None:
        """Start one admitted request: one FluidItem on the replica's
        current machine, resolved by :meth:`_finish` on the item."""
        draw = self.rng_service.expovariate(self._service_rate)
        # Straight to the fluid scheduler, like ``ctx.cpu``: ``Cpu.run``
        # submits with the same arguments.
        item = proclet.machine.cpu.sched.submit(
            draw, 1.0, _HIGH, self._req_name)
        self.active_items.add(item)
        # A new item has no callbacks and is not yet processed (a
        # zero-work one is only queued), so no subscribe() is needed.
        item.callbacks = [self._finish]

    def _finish(self, item) -> None:
        """Resolve one request; its arrival time is the item's
        submission time."""
        self.active_items.discard(item)
        self.inflight -= 1
        if not item._ok:
            if isinstance(item._value, MachineFailed):
                self.failed += 1
                return
            raise item._value
        arrived_at = item.submitted_at
        latency = self.sim._now - arrived_at
        self.completed += 1
        self._log_arrived(arrived_at)
        self._log_latency(latency)
        if latency <= self.spec.slo_deadline:
            self.slo_ok += 1

    # -- reporting ---------------------------------------------------------
    def mark_baseline(self) -> None:
        """Snapshot counters at warmup end; stats() reports deltas."""
        self._base = {"offered": self.offered, "admitted": self.admitted,
                      "rejected": self.rejected, "completed": self.completed,
                      "slo_ok": self.slo_ok, "failed": self.failed}

    def stats(self, since: float = 0.0) -> Dict:
        base = self._base
        offered = self.offered - base.get("offered", 0)
        slo_ok = self.slo_ok - base.get("slo_ok", 0)
        lats = self.samples.latencies(since)
        summary = Summary.of(lats)
        return {
            "tenant": self.spec.name,
            "offered": offered,
            "admitted": self.admitted - base.get("admitted", 0),
            "rejected": self.rejected - base.get("rejected", 0),
            "completed": self.completed - base.get("completed", 0),
            "slo_ok": slo_ok,
            "failed": self.failed - base.get("failed", 0),
            "goodput": slo_ok / offered if offered else 0.0,
            "mean": summary.mean,
            "p50": summary.p50,
            "p99": summary.p99,
            "p999": percentile(lats, 99.9) if lats else 0.0,
            "replicas": len(self.replicas),
        }


def weighted_water_fill(demands: Dict[str, float],
                        weights: Dict[str, float],
                        capacity: float) -> Dict[str, float]:
    """Weighted max-min allocation of *capacity* across *demands*.

    Iteratively satisfies every demand below its weighted fair share
    and re-divides the leftovers among the rest, so no tenant gets more
    than it asked for and contended capacity splits by weight.
    Deterministic: iteration order is sorted tenant names.
    """
    if capacity < 0:
        raise ValueError("capacity must be >= 0")
    names = sorted(demands)
    alloc = {name: 0.0 for name in names}
    active = [n for n in names if demands[n] > 0]
    remaining = capacity
    while active and remaining > 1e-12:
        total_w = sum(weights[n] for n in active)
        share = remaining / total_w
        sated = [n for n in active if demands[n] <= share * weights[n]]
        if not sated:
            for n in active:
                alloc[n] = share * weights[n]
            return alloc
        for n in sated:
            alloc[n] = demands[n]
            remaining -= demands[n]
        active = [n for n in active if n not in sated]
    return alloc


class ServingScheduler:
    """Tenant-aware global scheduling for the fungible mode.

    Every *interval* of virtual time, one round:

    1. **Estimate** each tenant's demand (cores) from its arrival count
       this window, EWMA-smoothed.
    2. **Allocate** cluster cores by weighted max-min water-filling —
       the §5 "slow global decisions" step, but over tenants rather
       than proclets.
    3. **Scale** each tenant's replica fleet toward its allocation:
       spawns go through normal Quicksand placement (bucketed machine
       index); shrinks destroy surplus replicas (one-round hysteresis
       avoids thrash).
    4. **Migrate** at most one replica from the most planned-committed
       machine to the least, picked tenant-aware (the most
       over-provisioned tenant's replica moves first).  Both extremes
       come from :meth:`MachineIndex.cpu_ratio_extremes` — O(buckets),
       not O(machines), which is what keeps a round affordable at a
       thousand machines.

    Cluster capacity is tracked event-driven off the runtime's
    failure/restore hooks, so rounds never sum over the fleet.
    """

    def __init__(self, scenario: "ServingScenario",
                 interval: float = 20 * MS, ewma_alpha: float = 0.35,
                 headroom: float = 1.25, migrate_threshold: float = 0.5,
                 min_replicas: int = 1):
        if interval <= 0:
            raise ValueError("interval must be positive")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        self.scenario = scenario
        self.qs = scenario.qs
        self.interval = interval
        self.ewma_alpha = ewma_alpha
        self.headroom = headroom
        self.migrate_threshold = migrate_threshold
        self.min_replicas = min_replicas
        self.rounds = 0
        self.scale_ups = 0
        self.scale_downs = 0
        self.migrations = 0
        self._capacity = sum(m.cpu.cores for m in self.qs.machines)
        self.qs.runtime.on_machine_failure(self._on_failure)
        self.qs.runtime.on_machine_restore(self._on_restore)
        self._process = self.qs.sim.spawn(self._loop(),
                                          name="serving-sched")

    # -- capacity tracking (event-driven, no fleet sums) -------------------
    def _on_failure(self, machine, _lost) -> None:
        self._capacity -= machine.spec.cores

    def _on_restore(self, machine) -> None:
        self._capacity += machine.spec.cores

    # -- the round ---------------------------------------------------------
    def _loop(self) -> Generator:
        while True:
            yield self.qs.sim.timeout(self.interval)
            self.rounds += 1
            self._round()

    def _round(self) -> None:
        tenants = self.scenario.tenants
        demands: Dict[str, float] = {}
        weights: Dict[str, float] = {}
        for t in tenants:
            rate = t.window_arrivals / self.interval
            t.window_arrivals = 0
            sample = rate * t.spec.service_mean
            t.demand_ewma += self.ewma_alpha * (sample - t.demand_ewma)
            demands[t.spec.name] = t.demand_ewma * self.headroom
            weights[t.spec.name] = t.spec.weight
        alloc = weighted_water_fill(demands, weights,
                                    max(0.0, self._capacity))
        for t in tenants:
            target = max(self.min_replicas,
                         math.ceil(alloc[t.spec.name] - 1e-9))
            live = t.replicas
            if len(live) < target:
                for _ in range(target - len(live)):
                    if not self._spawn(t):
                        break
            elif len(live) > target + 1:
                # One replica of hysteresis so an allocation flickering
                # across an integer boundary doesn't churn spawns.
                self._shrink(t, live, len(live) - target)
        self._migrate_if_imbalanced()

    def _spawn(self, tenant: Tenant) -> bool:
        try:
            self.scenario._spawn_replica(tenant)
        except InvalidPlacement:
            return False
        self.scale_ups += 1
        return True

    def _shrink(self, tenant: Tenant, live: List, n: int) -> None:
        # Newest first: oldest replicas keep serving (stable dispatch).
        # Each destroy rebinds tenant.replicas via the scenario's locator
        # listener; *live* is the list from before, so iterating it holds.
        for ref, p in reversed(live):
            if n == 0:
                return
            if p.status is ProcletStatus.RUNNING:
                self.qs.runtime.destroy(ref)
                self.scale_downs += 1
                n -= 1

    def _migrate_if_imbalanced(self) -> None:
        index = self.qs.machine_index
        healthy = self.qs.placement._healthy
        low, low_r, high, high_r = index.cpu_ratio_extremes(healthy)
        if high is None or low is high:
            return
        if high_r - low_r < self.migrate_threshold:
            return
        candidates = [
            p for p in self.qs.runtime.proclets_on(high)
            if isinstance(p, ServingReplica)
            and p.status is ProcletStatus.RUNNING
        ]
        if not candidates:
            return
        by_name = self.scenario.tenant_by_name
        def surplus(p: ServingReplica) -> Tuple[float, int]:
            t = by_name[p.tenant_name]
            return (len(t.replicas) - t.demand_ewma, p.id)
        victim = max(candidates, key=surplus)
        self.migrations += 1
        ev = self.qs.runtime.migrate(victim, low)
        ev.subscribe(self._swallow_migration_failure)

    @staticmethod
    def _swallow_migration_failure(event) -> None:
        if not event.ok and not isinstance(event.value, MigrationFailed):
            raise event.value


class ServingScenario:
    """A multi-tenant serving cluster, fungible or statically carved.

    Build it, :meth:`run` it, read :meth:`results`.  The same tenant
    specs, seeds, and traces drive both modes, so any difference in the
    report is the resource model, not the workload.
    """

    MODES = ("fungible", "static")

    def __init__(self, tenants: Sequence[TenantSpec], machines: int = 24,
                 cores: float = 2.0, dram_bytes: float = 1 * GiB,
                 mode: str = "fungible", seed: int = 0,
                 duration: float = 2.0, warmup: float = 0.25,
                 admission_slack: float = 0.4,
                 sched_interval: float = 20 * MS,
                 headroom: float = 1.8,
                 migrate_threshold: float = 0.5):
        if mode not in self.MODES:
            raise ValueError(f"unknown mode: {mode!r}")
        if not tenants:
            raise ValueError("need at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ValueError("tenant names must be unique")
        if not 0.0 <= warmup < duration:
            raise ValueError("warmup must be in [0, duration)")
        self.mode = mode
        self.duration = duration
        self.warmup = warmup
        # Local/global/split-merge off: replicas never starve (HIGH
        # priority work is the only load) and the ServingScheduler *is*
        # the global policy here — one owner of every move.
        self.qs = Quicksand(
            symmetric_cluster(machines, cores=cores, dram_bytes=dram_bytes,
                              seed=seed),
            QuicksandConfig(enable_local_scheduler=False,
                            enable_global_scheduler=False,
                            enable_split_merge=False))
        self.admission = AdmissionController(admission_slack)
        self.tenants = [Tenant(self, spec) for spec in tenants]
        self.tenant_by_name = {t.spec.name: t for t in self.tenants}
        #: Replica pid -> owning tenant, for the locator listener.
        self._replica_owner: Dict[int, Tenant] = {}
        self.qs.runtime.locator.add_listener(self._on_location)
        self.partitions: Dict[str, List] = {}
        self.scheduler: Optional[ServingScheduler] = None
        if mode == "fungible":
            self._bootstrap_fungible()
            self.scheduler = ServingScheduler(
                self, interval=sched_interval, headroom=headroom,
                migrate_threshold=migrate_threshold)
        else:
            self._bootstrap_static()
        for t in self.tenants:
            t.start()
        self.qs.sim.process(self._warmup_marker(), name="serving.warmup")
        self._util_t0 = 0.0
        self._util_integrals: List[Tuple[object, float]] = []

    # -- replica fleet -----------------------------------------------------
    def _spawn_replica(self, tenant: Tenant,
                       machine: Optional[Machine] = None) -> None:
        """Spawn one replica of *tenant* (on *machine*, or wherever
        placement puts it) at the end of its dispatch order.  Raises
        :class:`InvalidPlacement` when placement finds no machine."""
        replica = ServingReplica(tenant.spec.name)
        ref = self.qs.spawn(replica, machine,
                            name=f"{tenant.spec.name}.r{tenant.spawned}")
        tenant.spawned += 1
        self._replica_owner[ref.proclet_id] = tenant
        tenant.replicas.append((ref, replica))

    def _on_location(self, pid: int, _src, dst) -> None:
        """Locator listener.  A removal is a replica leaving the runtime
        (``destroy`` or ``fail_machine``, the only two ways out), so the
        owner's fleet drops it here and no arrival ever has to prune."""
        if dst is None:
            tenant = self._replica_owner.pop(pid, None)
            if tenant is not None:
                tenant.replicas = [pair for pair in tenant.replicas
                                   if pair[0].proclet_id != pid]

    # -- bootstrap ---------------------------------------------------------
    def _bootstrap_fungible(self) -> None:
        for t in self.tenants:
            target = max(1, math.ceil(t.spec.mean_demand_cores))
            for _ in range(target):
                try:
                    self._spawn_replica(t)
                except InvalidPlacement:
                    break

    def _bootstrap_static(self) -> None:
        """Hard-partition machines by *reservation weight* (largest
        remainder, every tenant at least one machine), pin one replica
        per core, run no scheduler — the VM baseline.

        Sizing by weight rather than by measured demand is the point:
        a static carve-up reflects what each tenant reserved (and pays
        for), not what it turns out to need.  Tenants that over-reserve
        strand capacity nobody else can borrow; tenants that
        under-reserve drown at their own peaks with idle cores one
        partition over — the §1 utilization story, made measurable.
        """
        machines = self.qs.machines
        if len(machines) < len(self.tenants):
            raise ValueError(
                f"static mode needs >= 1 machine per tenant "
                f"({len(machines)} machines, {len(self.tenants)} tenants)")
        share = {t.spec.name: t.spec.weight for t in self.tenants}
        total = sum(share.values())
        spare = len(machines) - len(self.tenants)
        quota = {name: spare * s / total if total > 0 else 0.0
                 for name, s in share.items()}
        counts = {name: 1 + int(quota[name]) for name in quota}
        leftover = len(machines) - sum(counts.values())
        remainders = sorted(quota,
                            key=lambda n: (quota[n] - int(quota[n]), n),
                            reverse=True)
        for name in remainders[:leftover]:
            counts[name] += 1
        cursor = 0
        for t in self.tenants:
            owned = machines[cursor:cursor + counts[t.spec.name]]
            cursor += counts[t.spec.name]
            self.partitions[t.spec.name] = owned
            for m in owned:
                for _ in range(int(m.cpu.cores)):
                    self._spawn_replica(t, m)

    # -- measurement windows -----------------------------------------------
    def _warmup_marker(self) -> Generator:
        yield self.qs.sim.timeout(self.warmup)
        for t in self.tenants:
            t.mark_baseline()
        self._util_t0 = self.qs.sim.now
        self._util_integrals = [(m, m.cpu.snapshot_integral())
                                for m in self.qs.machines]

    # -- driving -----------------------------------------------------------
    def run(self) -> None:
        self.qs.run(until=self.duration)

    # -- reporting ---------------------------------------------------------
    def utilization(self) -> float:
        """Core-weighted mean CPU utilization since warmup (machines
        that crashed mid-window are excluded: their cores are gone)."""
        busy = 0.0
        cores = 0.0
        for m, integral0 in self._util_integrals:
            if not m.up or m.cpu.cores <= 0:
                continue
            busy += m.cpu.utilization_since(self._util_t0,
                                            integral0) * m.cpu.cores
            cores += m.cpu.cores
        return busy / cores if cores > 0 else 0.0

    def results(self) -> Dict:
        per_tenant = [t.stats(since=self.warmup) for t in self.tenants]
        offered = sum(s["offered"] for s in per_tenant)
        slo_ok = sum(s["slo_ok"] for s in per_tenant)
        lats = [lat for t in self.tenants
                for lat in t.samples.latencies(self.warmup)]
        return {
            "mode": self.mode,
            "machines": len(self.qs.machines),
            "tenants": per_tenant,
            "offered": offered,
            "slo_ok": slo_ok,
            "goodput": slo_ok / offered if offered else 0.0,
            "p99": percentile(lats, 99.0) if lats else 0.0,
            "p999": percentile(lats, 99.9) if lats else 0.0,
            "utilization": self.utilization(),
            "migrations": (self.scheduler.migrations
                           if self.scheduler else 0),
            "scale_ups": (self.scheduler.scale_ups
                          if self.scheduler else 0),
            "scale_downs": (self.scheduler.scale_downs
                            if self.scheduler else 0),
        }

    def check_no_starvation(self) -> List[str]:
        """Chaos invariant: no tenant that is offering load is starved.

        A tenant with admitted traffic must keep at least one live
        replica, and if it has requests in flight right now, at least
        one of them must be receiving CPU (HIGH-priority PS shares
        equally, so zero service everywhere means the tenant's machines
        are all gone — the scheduler should have respawned elsewhere).
        """
        violations = []
        for t in self.tenants:
            if t.admitted == 0:
                continue
            if not t.live_replicas():
                violations.append(
                    f"tenant {t.spec.name}: no live replicas")
            if t.inflight > 0 and t.active_items:
                served = sum(item.rate for item in t.active_items
                             if item.active)
                if served <= 0.0:
                    violations.append(
                        f"tenant {t.spec.name}: {t.inflight} in-flight "
                        f"requests receiving zero CPU")
        return violations


def default_tenants(n: int = 8, over_rate: float = 700.0,
                    under_rate: float = 1900.0,
                    service_mean: float = 2.5 * MS,
                    slo_deadline: float = 50 * MS,
                    period: float = 1.0) -> Tuple[TenantSpec, ...]:
    """A staggered-peak, reservation-mismatched tenant population.

    Phases spread evenly over the diurnal period, so the *sum* of
    demand is nearly flat while every individual tenant swings hard.
    Even tenants **over-reserve** (weight 2, modest demand); odd
    tenants **under-reserve** (weight 1, ~3x the demand) — in static
    mode the former strand capacity their neighbours drown for, which
    is the paper's §1 utilization pitch as a measurable gap.  Every
    third tenant additionally gets 3x burst windows (a release, a news
    spike) that only a borrowing scheduler can absorb.

    At the canonical 24 x 2-core cluster this population offers ~55%
    of cluster capacity in the mean, with per-tenant peaks well beyond
    any static share — the regime where the fungible:static goodput
    ratio the golden tests pin (>= 1.3) holds with margin.
    """
    tenants = []
    for i in range(n):
        over = (i % 2 == 0)
        bursty = (i % 3 == 0)
        tenants.append(TenantSpec(
            name=f"t{i}",
            trace=TraceSpec(
                base_rate=over_rate if over else under_rate,
                period=period,
                amplitude=0.9,
                phase=i / n,
                burst_factor=3.0 if bursty else 1.0,
                bursts_per_period=2.0 if bursty else 0.0,
                burst_duration=0.08 * period,
            ),
            service_mean=service_mean,
            slo_deadline=slo_deadline,
            weight=2.0 if over else 1.0,
        ))
    return tuple(tenants)
