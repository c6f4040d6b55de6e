"""The simulated server machine with closed-loop clients.

One :class:`ServerMachine` models the paper's testbed host: worker threads
(Apache/Squid processes), shared CPU cores, the client-facing 10 Gbps
link, a disk, an optional backend farm, and — for LibSEAL configurations —
the enclave execution constraints: at most S SGX threads execute enclave
work concurrently, async ecalls need a free lthread task, and the
dedicated polling thread burns CPU (§4.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.asynccalls import AsyncCallRuntime
from repro.http import HttpRequest, HttpResponse
from repro.sim.clock import SimClock
from repro.sim.costs import (
    APACHE_REQUEST_CYCLES,
    ASYNC_CALL_CYCLES,
    CORES,
    FREQ_HZ,
    LAN_LATENCY_S,
    LOGGING_BASE_CYCLES,
    NET_BANDWIDTH_BPS,
    NET_EFFICIENCY,
    POLLING_THREAD_BURN,
    CheckingWorkload,
    RequestProfile,
)
from repro.obs import hooks as _obs
from repro.servers.connection import ConnectionLimits
from repro.servers.eventloop import EventLoop
from repro.sim.engine import Simulator
from repro.sim.resources import CorePool, FifoDevice, Link, Semaphore
from repro.workloads.traffic import Arrival, default_request


@dataclass
class MachineConfig:
    """Host parameters (defaults = the paper's testbed)."""

    cores: int = CORES
    freq_hz: float = FREQ_HZ
    worker_threads: int = 48
    sgx_threads: int = 3
    lthread_tasks_per_thread: int = 48
    use_async_calls: bool = True
    polling_burn: float = POLLING_THREAD_BURN
    net_bandwidth_bps: float = NET_BANDWIDTH_BPS
    net_efficiency: float = NET_EFFICIENCY
    net_latency_s: float = LAN_LATENCY_S


@dataclass
class RunResult:
    """Measurements from one closed-loop run."""

    clients: int
    throughput_rps: float
    mean_latency_s: float
    median_latency_s: float
    p25_latency_s: float
    p75_latency_s: float
    cpu_utilisation: float  # in cores (4.0 == fully busy 4-core box)
    completed: int
    task_wait_events: int = 0
    checks_run: int = 0
    check_rows_scanned: float = 0.0
    check_cycles: float = 0.0


@dataclass
class FrontendConfig:
    """Cost model for open-loop front-end runs (``run_frontend``).

    The event loop executes *real* work (TLS/HTTP state machines,
    handler dispatch, audit ocalls); this config converts each executed
    scheduler slice into modelled time on the machine's cores, so
    queueing delay past the capacity knee is emergent from genuine
    ready-queue backlog rather than a dialled-in curve.
    """

    #: Simulated enclave worker slots the one scheduler multiplexes.
    num_workers: int = 3
    #: Fixed cycles per scheduler slice (dispatch + state-machine step).
    slice_base_cycles: float = 25_000.0
    #: Cycles a completed (or 400-rejected) request costs on top.
    request_cycles: float = APACHE_REQUEST_CYCLES
    #: Extra cycles per served request when the audit runtime is attached
    #: (HTTP parse + SSM + hash chain of the logging pipeline).
    audit_cycles: float = LOGGING_BASE_CYCLES
    #: Attach an :class:`AsyncCallRuntime` so every audit append crosses
    #: the enclave boundary as a metered async-ocall.
    use_async_audit: bool = True
    #: Deadlines for open-loop runs (generous: the load, not the
    #: timeout, should be what ends a connection in a saturation sweep).
    handshake_timeout_s: float = 60.0
    idle_timeout_s: float = 120.0
    #: Deadline-enforcement cadence, in executed slices.
    tick_every_slices: int = 4096


@dataclass
class FrontendRunResult:
    """Measurements from one open-loop front-end run."""

    connections: int
    offered_rps: float  # arrival rate over the admission window
    completed: int  # connections whose request(s) finished
    aborted: int  # torn down (violations + deadline reaps)
    throughput_rps: float  # completed / makespan
    mean_latency_s: float
    p50_latency_s: float
    p95_latency_s: float
    p99_latency_s: float
    makespan_s: float  # first arrival -> last completion (sim time)
    peak_concurrent: int  # live-connection high-water mark
    peak_ready_depth: int  # run-queue high-water mark
    slices: int  # scheduler slices executed
    task_wait_events: int  # driver parks on empty inboxes
    audit_ocalls: int  # audit appends through the slot runtime
    reaped_tasks: int  # parked tasks cancelled at teardown


def _default_frontend_handler(request: HttpRequest) -> HttpResponse:
    return HttpResponse(200, body=b"ok:" + request.path.encode())


class ServerMachine:
    """Executes one request profile under closed-loop load."""

    def __init__(self, config: MachineConfig | None = None):
        self.config = config or MachineConfig()

    def run(
        self,
        profile: RequestProfile,
        clients: int,
        duration_s: float = 3.0,
        warmup_s: float = 0.75,
        checking: CheckingWorkload | None = None,
    ) -> RunResult:
        """Simulate ``clients`` closed-loop clients for ``duration_s``."""
        cfg = self.config
        sim = Simulator()
        cores = CorePool(sim, cfg.cores, cfg.freq_hz, switch_penalty_cycles=15_000)
        link = Link(
            sim,
            cfg.net_bandwidth_bps,
            cfg.net_latency_s,
            efficiency=cfg.net_efficiency,
        )
        disk = FifoDevice(sim, "disk")
        workers = Semaphore(sim, cfg.worker_threads, "workers")
        lthread_tasks = Semaphore(
            sim, cfg.sgx_threads * cfg.lthread_tasks_per_thread, "lthreads"
        )
        backend = Semaphore(sim, max(1, profile.backend_workers), "backend")

        latencies: list[float] = []
        completions = [0]
        measuring = [False]
        # Checking state: pairs logged, whole-log rows, rows since the
        # last check (the delta a watermark checker would scan).
        check_state = {
            "pairs": 0,
            "log_rows": 0.0,
            "delta_rows": 0.0,
            "checks": 0,
            "rows_scanned": 0.0,
            "cycles": 0.0,
        }

        enclave_used = profile.enclave_cycles > 0
        # When the SGX threads plus the dedicated poller oversubscribe the
        # physical cores (S >= cores), enclave threads are constantly
        # preempted; every preemption of enclave code flushes the TLB and
        # refetches encrypted cache lines, wasting cycles — the "increased
        # contention between the SGX and Apache threads" that makes S=4
        # slower than S=3 on the 4-core testbed (§6.8, Tab. 3).
        enclave_cycles = profile.enclave_cycles
        if enclave_used and cfg.use_async_calls and cfg.sgx_threads >= cfg.cores:
            thrash = 0.28 * (cfg.sgx_threads + 1 - cfg.cores)
            enclave_cycles *= 1.0 + thrash
        async_latency_s = profile.async_latency_s
        # Async mode: S resident SGX threads serve enclave jobs from a
        # queue; while idle they spin-wait (the §6.8 contention source),
        # and a dedicated polling thread burns CPU permanently.
        from collections import deque

        enclave_queue: deque = deque()
        if enclave_used and cfg.use_async_calls:
            for s in range(cfg.sgx_threads):
                sim.spawn(
                    self._sgx_thread(sim, cores, cfg, enclave_queue),
                    name=f"sgx-{s}",
                )
            if cfg.polling_burn > 0:
                sim.spawn(self._polling_thread(cores, cfg), name="poller")

        def request_flow():
            yield from link.transfer(profile.request_bytes)
            yield from workers.acquire()
            try:
                if profile.outside_cycles:
                    yield from cores.execute(profile.outside_cycles)
                if enclave_used:
                    if cfg.use_async_calls:
                        yield from lthread_tasks.acquire()
                        try:
                            done = sim.waiter()
                            enclave_queue.append((enclave_cycles, done))
                            yield done
                        finally:
                            lthread_tasks.release()
                    else:
                        # Synchronous transitions: every worker enters the
                        # enclave itself; transition cost included.
                        yield from cores.execute(
                            profile.enclave_cycles + profile.transition_cycles
                        )
                if checking is not None:
                    check_state["pairs"] += 1
                    check_state["log_rows"] += checking.tuples_per_request
                    check_state["delta_rows"] += checking.tuples_per_request
                    if check_state["pairs"] % checking.check_interval == 0:
                        rows = checking.rows_scanned(
                            check_state["log_rows"], check_state["delta_rows"]
                        )
                        cycles = checking.cycles(
                            check_state["log_rows"], check_state["delta_rows"]
                        )
                        check_state["delta_rows"] = 0.0
                        if measuring[0]:
                            check_state["checks"] += 1
                            check_state["rows_scanned"] += rows
                            check_state["cycles"] += cycles
                        # The checking pass runs inside the enclave; the
                        # triggering request blocks on it (§5.2 in-band
                        # result delivery).
                        if enclave_used and cfg.use_async_calls:
                            done = sim.waiter()
                            enclave_queue.append((cycles, done))
                            yield done
                        else:
                            yield from cores.execute(cycles)
                if profile.wan_rtt_s:
                    yield profile.wan_rtt_s
                if profile.backend_service_s:
                    yield from backend.acquire()
                    try:
                        yield profile.backend_service_s
                    finally:
                        backend.release()
                if async_latency_s:
                    yield async_latency_s
                if profile.disk_flush_s:
                    # fsyncs from different worker threads overlap on the
                    # SSD (NCQ); each thread blocks for the flush time.
                    disk.jobs_served += 1
                    yield profile.disk_flush_s
                if profile.rote_s:
                    yield profile.rote_s
                yield from link.transfer(profile.response_bytes)
            finally:
                workers.release()

        def client_loop(start_offset: float):
            yield start_offset  # desynchronise client phases
            while True:
                started = sim.now
                yield from request_flow()
                if measuring[0]:
                    latencies.append(sim.now - started)
                    completions[0] += 1

        for i in range(clients):
            sim.spawn(client_loop(i * 0.0013), name=f"client-{i}")

        sim.run_until(warmup_s)
        cores.reset_accounting()
        measuring[0] = True
        sim.run_until(warmup_s + duration_s)

        count = completions[0]
        ordered = sorted(latencies)

        def pct(p: float) -> float:
            if not ordered:
                return 0.0
            index = min(len(ordered) - 1, int(p / 100 * len(ordered)))
            return ordered[index]

        result = RunResult(
            clients=clients,
            throughput_rps=count / duration_s,
            mean_latency_s=sum(ordered) / count if count else 0.0,
            median_latency_s=pct(50),
            p25_latency_s=pct(25),
            p75_latency_s=pct(75),
            cpu_utilisation=cores.utilisation(duration_s),
            completed=count,
            task_wait_events=lthread_tasks.wait_events,
            checks_run=check_state["checks"],
            check_rows_scanned=check_state["rows_scanned"],
            check_cycles=check_state["cycles"],
        )
        if _obs.ON:
            # Metrics are recorded after the simulation finished: the
            # sim's discrete-event outcome is bit-identical with the
            # plane enabled, disabled or absent (asserted by the parity
            # test in tests/obs/).
            self._obs_record(result, duration_s)
        return result

    def _obs_record(self, result: RunResult, duration_s: float) -> None:
        cfg = self.config
        metrics = _obs.active().metrics
        labels = {"clients": result.clients}
        metrics.gauge(
            "sim_throughput_rps", "Simulated requests per second", **labels
        ).set(result.throughput_rps)
        metrics.gauge(
            "sim_cpu_utilisation_cores", "Busy cores over the measured window",
            **labels,
        ).set(result.cpu_utilisation)
        metrics.counter(
            "sim_requests_completed_total", "Requests completed while measuring"
        ).inc(result.completed)
        metrics.counter(
            "sim_check_cycles_total", "Modelled cycles spent checking in-run"
        ).inc(result.check_cycles)
        metrics.counter(
            "sim_check_rows_scanned_total", "Rows scanned by in-run checking"
        ).inc(result.check_rows_scanned)
        metrics.counter(
            "sim_busy_cycles_total", "Modelled busy cycles over the window"
        ).inc(result.cpu_utilisation * duration_s * cfg.freq_hz)
        metrics.histogram(
            "sim_request_latency_s", "Simulated request latency (seconds)",
            **labels,
        ).observe(result.mean_latency_s)

    def _sgx_thread(self, sim, cores: CorePool, cfg: MachineConfig, queue):
        """One resident enclave thread: serve jobs, spin-wait while idle.

        The idle spin (at ~50% CPU aggression) is what makes adding a
        fourth SGX thread on a 4-core machine counter-productive
        (Table 3): idle enclave threads steal cycles from Apache threads.
        """
        spin_cycles = cores.quantum_cycles // 4
        while True:
            if queue:
                cycles, waiter = queue.popleft()
                yield from cores.execute(cycles)
                waiter.wake()
            else:
                # The lthread scheduler busy-waits for async-ecalls with
                # no backoff (§4.3) — an idle SGX thread burns its core.
                yield from cores.execute(spin_cycles)

    def _polling_thread(self, cores: CorePool, cfg: MachineConfig):
        """The dedicated busy-wait poller: burns a core fraction forever."""
        quantum = cores.quantum_cycles
        burn = cfg.polling_burn
        idle_ratio = (1 - burn) / burn if burn < 1 else 0.0
        while True:
            yield from cores.execute(quantum)
            if idle_ratio:
                yield quantum / cfg.freq_hz * idle_ratio

    # ------------------------------------------------------------------
    # Open-loop front-end runs (the async §4.3 core under real load)
    # ------------------------------------------------------------------

    def run_frontend(
        self,
        connections: int,
        window_s: float = 0.5,
        frontend: FrontendConfig | None = None,
        arrivals: Iterable[Arrival] | None = None,
        handler=None,
    ) -> FrontendRunResult:
        """Drive a *real* :class:`~repro.servers.eventloop.EventLoop`
        with open-loop arrivals and convert executed slices into time.

        ``connections`` clients arrive during ``window_s`` (uniformly, or
        per ``arrivals`` — e.g. a seeded
        :class:`~repro.workloads.traffic.DiurnalOpenLoopTraffic` stream),
        each opens a supervised connection, sends one request and leaves
        when answered. Every connection is a parked lthread task on the
        single scheduler; service capacity is the machine's cores at
        ``freq_hz``, so once the offered rate exceeds
        ``capacity / cycles_per_request`` the ready queue backs up and
        latency bends — the saturation knee the benchmark sweeps for.
        """
        cfg = self.config
        fcfg = frontend or FrontendConfig()
        capacity_hz = cfg.cores * cfg.freq_hz
        clock = SimClock()
        runtime = None
        if fcfg.use_async_audit:
            runtime = AsyncCallRuntime(
                num_app_threads=1,
                num_sgx_threads=cfg.sgx_threads,
                tasks_per_thread=cfg.lthread_tasks_per_thread,
            )
        per_request_cycles = fcfg.request_cycles + (
            fcfg.audit_cycles if runtime is not None else 0.0
        )
        limits = ConnectionLimits(
            handshake_timeout_s=fcfg.handshake_timeout_s,
            idle_timeout_s=fcfg.idle_timeout_s,
        )
        latencies: list[float] = []
        finished: list[int] = []  # connections to close between slices
        opened_at: dict[int, float] = {}

        def on_result(conn_id, result):
            if result.aborted:
                return
            latencies.append(clock.now() - opened_at.pop(conn_id))
            finished.append(conn_id)

        loop = EventLoop(
            handler or _default_frontend_handler,
            limits=limits,
            clock=clock,
            num_workers=fcfg.num_workers,
            max_tasks=connections + 64,
            async_runtime=runtime,
            on_result=on_result,
        )

        def run_slice() -> bool:
            """One scheduler slice; advance the clock by its cost."""
            stats = loop.stats
            before = stats.requests_served + stats.bad_requests
            before_ocalls = loop.loop_stats.audit_ocalls
            if not loop.step():
                return False
            delta_req = stats.requests_served + stats.bad_requests - before
            delta_ocalls = loop.loop_stats.audit_ocalls - before_ocalls
            cycles = (
                fcfg.slice_base_cycles
                + delta_req * per_request_cycles
                + delta_ocalls * ASYNC_CALL_CYCLES
            )
            clock.advance(cycles / capacity_hz)
            if loop.loop_stats.slices % fcfg.tick_every_slices == 0:
                loop.tick()
            return True

        def flush_finished() -> None:
            # Closing cancels the parked task; never do it mid-slice.
            for conn_id in finished:
                loop.close(conn_id)
            finished.clear()

        if arrivals is None:
            gap = window_s / max(1, connections)
            schedule: Iterable[Arrival] = (
                Arrival(i * gap, i + 1, default_request(i + 1))
                for i in range(connections)
            )
        else:
            schedule = arrivals

        admitted = 0
        for arrival in schedule:
            if admitted >= connections:
                break
            # Serve what capacity allows before this arrival's time.
            while clock.now() < arrival.time_s and run_slice():
                flush_finished()
            if clock.now() < arrival.time_s:
                clock.advance(arrival.time_s - clock.now())  # idle gap
            conn_id = loop.open()
            opened_at[conn_id] = clock.now()
            loop.deliver(conn_id, arrival.request)
            admitted += 1
        while run_slice():
            flush_finished()
        flush_finished()
        loop.tick()
        loop.sample_obs()

        makespan = clock.now()
        ordered = sorted(latencies)

        def pct(p: float) -> float:
            if not ordered:
                return 0.0
            index = min(len(ordered) - 1, int(p / 100 * len(ordered)))
            return ordered[index]

        stats = loop.stats
        lstats = loop.loop_stats
        wait_events = lstats.parked_waits
        if runtime is not None:
            wait_events += runtime.stats.task_wait_events
        return FrontendRunResult(
            connections=admitted,
            offered_rps=admitted / window_s if window_s else 0.0,
            completed=len(ordered),
            aborted=stats.aborted,
            throughput_rps=len(ordered) / makespan if makespan else 0.0,
            mean_latency_s=sum(ordered) / len(ordered) if ordered else 0.0,
            p50_latency_s=pct(50),
            p95_latency_s=pct(95),
            p99_latency_s=pct(99),
            makespan_s=makespan,
            peak_concurrent=lstats.peak_concurrent,
            peak_ready_depth=lstats.peak_ready_depth,
            slices=lstats.slices,
            task_wait_events=wait_events,
            audit_ocalls=lstats.audit_ocalls,
            reaped_tasks=lstats.reaped_tasks,
        )

    # ------------------------------------------------------------------
    # Convenience sweeps
    # ------------------------------------------------------------------

    def max_throughput(
        self,
        profile: RequestProfile,
        clients: int = 96,
        duration_s: float = 2.0,
    ) -> RunResult:
        """Saturated-load measurement (CPU or device bound)."""
        return self.run(profile, clients=clients, duration_s=duration_s)
