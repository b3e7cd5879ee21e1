"""Latency-critical request services (the HIGH-priority tenants).

Fig. 1's premise is that machines host latency-critical services whose
idle cycles others should harvest *without hurting them*.
:class:`LatencyService` makes that claim measurable on one machine:
Poisson request arrivals served at HIGH priority, with per-request
latency recorded — run it with and without a filler underneath and
compare the tail.

:class:`CloneService` scales the same open-loop workload to a *fleet*
of PS servers and adds synchronized request cloning (clone-to-c with
first-finished-wins cancellation) and heterogeneous service-time
distributions — the workload half of the
:mod:`repro.hedge` differential suite, built so its steady state is
*exactly* the M/G/1-PS model the closed-form oracle predicts.
"""

from __future__ import annotations

from typing import Generator, List, Sequence

from ..cluster import Machine, Priority
from ..metrics import LatencyLog, Summary
from ..runtime.errors import MachineFailed
from ..units import US


class LatencyService:
    """Open-loop request service at HIGH priority on one machine."""

    def __init__(self, machine: Machine, arrival_rate: float,
                 service_cpu: float = 500 * US,
                 name: str = "service", rng_stream: str = "service"):
        if arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive")
        if service_cpu <= 0:
            raise ValueError("service_cpu must be positive")
        self.machine = machine
        self.arrival_rate = arrival_rate
        self.service_cpu = service_cpu
        self.name = name
        self.rng = machine.sim.random.stream(rng_stream)
        #: :class:`~repro.metrics.LatencyLog` of (arrival time, response
        #: time) per completed request, in completion order (the same log
        #: as :attr:`CloneService.samples`).
        self.samples = LatencyLog()
        self.requests_done = 0
        self._running = False

    @property
    def latencies(self) -> List[float]:
        return self.samples.latencies()

    @property
    def offered_load(self) -> float:
        """Mean cores of demand (arrival_rate x service_cpu)."""
        return self.arrival_rate * self.service_cpu

    def start(self) -> None:
        if self._running:
            raise RuntimeError("service already started")
        self._running = True
        self.machine.sim.spawn(self._arrivals(),
                               name=f"{self.name}.arrivals")

    def stop(self) -> None:
        self._running = False

    def _arrivals(self) -> Generator:
        sim = self.machine.sim
        while self._running:
            yield sim.timeout(self.rng.expovariate(self.arrival_rate))
            if not self._running:
                return
            sim.process(self._serve(sim.now), name=f"{self.name}.req")

    def _serve(self, arrived_at: float) -> Generator:
        sim = self.machine.sim
        item = self.machine.cpu.run(
            work=self.service_cpu, threads=1.0,
            priority=Priority.HIGH, name=f"{self.name}.req",
        )
        yield item
        self.requests_done += 1
        self.samples.append(arrived_at, sim.now - arrived_at)

    def latency_summary(self, since: float = 0.0) -> Summary:
        """Summary of response times for requests arriving at or after
        *since* (the same warmup-trimming contract as
        :meth:`CloneService.latency_summary`)."""
        return self.samples.summary(since)

    def __repr__(self) -> str:
        return (f"<LatencyService {self.name!r} on {self.machine.name} "
                f"rate={self.arrival_rate:g}/s "
                f"load={self.offered_load:.2f} cores>")


class CloneService:
    """Open-loop request service over a fleet of PS servers with
    synchronized request cloning.

    The *machines* are partitioned into ``n / clone_factor`` groups.
    Each Poisson arrival is routed (uniformly, seeded stream) to one
    group and cloned to *every* server of that group with an iid
    service-time draw per clone; the first clone to finish defines the
    response time and the losers are cancelled on the spot — so each
    server runs exactly the M/G/1-PS queue with min-of-c service times
    that :mod:`repro.hedge.oracle` predicts in closed form.

    Each request's work runs at *priority* with ``demand = cores`` on
    its server, which under the fluid scheduler gives every resident
    request an equal ``cores/k`` share: processor sharing, not an
    approximation of it.

    A clone stranded on a crashed machine fails without failing the
    request while any sibling survives (cloning doubles as fault
    tolerance), and a crashed server gets no clones; only requests
    losing *all* clones, or routed to a group with every server down,
    count as ``failed_requests``.
    """

    def __init__(self, machines: Sequence[Machine], arrival_rate: float,
                 service_dist, clone_factor: int = 1,
                 priority: Priority = Priority.HIGH,
                 name: str = "clones"):
        if not machines:
            raise ValueError("need at least one machine")
        if arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive")
        if not isinstance(clone_factor, int) or clone_factor < 1:
            raise ValueError(f"clone_factor must be a positive int, "
                             f"got {clone_factor!r}")
        if len(machines) % clone_factor != 0:
            raise ValueError(
                f"clone_factor {clone_factor} must divide the server "
                f"count {len(machines)} (synchronized cloning)")
        self.machines = list(machines)
        self.sim = machines[0].sim
        self.arrival_rate = arrival_rate
        self.service_dist = service_dist
        self.clone_factor = clone_factor
        self.priority = priority
        self.name = name
        c = clone_factor
        self.groups = [self.machines[i * c:(i + 1) * c]
                       for i in range(len(self.machines) // c)]
        # Independent named streams so the arrival process, routing, and
        # service draws stay decoupled across configurations.
        self.rng_arrival = self.sim.random.stream(f"{name}.arrival")
        self.rng_route = self.sim.random.stream(f"{name}.route")
        self.rng_service = self.sim.random.stream(f"{name}.service")
        #: :class:`~repro.metrics.LatencyLog` of (arrival time, response
        #: time) per completed request, in completion order —
        #: :meth:`latency_summary` slices by arrival time so a warmup
        #: window can be discarded.
        self.samples = LatencyLog()
        self.requests_done = 0
        self.failed_requests = 0
        self.clones_launched = 0
        self.clones_cancelled = 0
        self._running = False

    # -- derived ----------------------------------------------------------
    @property
    def offered_load(self) -> float:
        """Per-server utilization the oracle predicts for this config
        (``lambda * c / n * E[min-of-c]``)."""
        from ..hedge.oracle import clone_utilization
        return clone_utilization(self.arrival_rate, len(self.machines),
                                 self.clone_factor, self.service_dist)

    @property
    def latencies(self) -> List[float]:
        return self.samples.latencies()

    def latency_summary(self, since: float = 0.0) -> Summary:
        """Summary of response times for requests arriving at or after
        *since* (use to trim the empty-system warmup transient)."""
        return self.samples.summary(since)

    # -- lifecycle --------------------------------------------------------
    def start(self) -> None:
        if self._running:
            raise RuntimeError("service already started")
        self._running = True
        self.sim.spawn(self._arrivals(), name=f"{self.name}.arrivals")

    def stop(self) -> None:
        self._running = False

    def _arrivals(self) -> Generator:
        sim = self.sim
        while self._running:
            yield sim.timeout(self.rng_arrival.expovariate(self.arrival_rate))
            if not self._running:
                return
            group = self.groups[self.rng_route.randrange(len(self.groups))]
            sim.process(self._serve(group, sim.now), name=f"{self.name}.req")

    # -- request path -----------------------------------------------------
    def _launch(self, server: Machine, items: List) -> None:
        draw = self.service_dist.sample(self.rng_service)
        cores = server.cpu.cores
        item = server.cpu.run(work=draw * cores, threads=cores,
                              priority=self.priority,
                              name=f"{self.name}.req")
        items.append((server, item))
        self.clones_launched += 1

    def _serve(self, group: Sequence[Machine], arrived_at: float) -> Generator:
        sim = self.sim
        items: List = []
        for server in group:
            if server.up:  # a crashed server takes no clone
                self._launch(server, items)
        winner = None
        try:
            while True:
                for _server, item in items:
                    if item.triggered and item.ok:
                        winner = item
                        break
                if winner is not None:
                    break
                live = [item for _server, item in items
                        if not item.triggered]
                if not live:
                    self.failed_requests += 1  # every clone crashed
                    return
                try:
                    yield sim.any_of(live)
                except MachineFailed:
                    continue  # a clone died; re-wait on the rest
            self.requests_done += 1
            self.samples.append(arrived_at, sim.now - arrived_at)
        finally:
            # First-finished-wins: reclaim every losing clone's CPU at
            # this virtual instant.
            for server, item in items:
                if item is not winner and item.active:
                    server.cpu.release(item)
                    self.clones_cancelled += 1

    def __repr__(self) -> str:
        return (f"<CloneService {self.name!r} n={len(self.machines)} "
                f"c={self.clone_factor} rate={self.arrival_rate:g}/s "
                f"rho={self.offered_load:.2f}>")
