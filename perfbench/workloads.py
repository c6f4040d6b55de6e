"""The benchmark's workloads and the rounds that measure them.

A workload feeds the requests of an existing ``repro.workloads`` generator
to the program. The generators build a request, hand it to ``_drive`` and
check the response; :func:`driven` subclasses a generator so that
``_drive`` sends the request over the client's TLS connection into the
event loop instead of calling the service in-process. The service itself
runs behind the loop as the connection handler.

A run is one or more rounds. A round sets up the stack, runs the timed
phase (the generator's own set-up traffic included), then the untimed
tail: its share of the check epilogue (workloads whose timed phase runs
no checks) with restarts spread through it, the violation probe (last
round only), log verification and a restart from the final stored log.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field

from repro.audit.persistence import InMemoryStorage
from repro.audit.recovery import RecoveryOutcome
from repro.core import LibSeal, LibSealConfig
from repro.http import HttpRequest
from repro.ssm import DropboxSSM, GitSSM, MessagingSSM
from repro.workloads import DropboxOpsWorkload, GitReplayWorkload, MessagingWorkload

from perfbench.host import HostSpeed
from perfbench.stack import BenchFailure, ServerStack, TlsClient, mark_checked


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    ssm: type
    generator: type
    #: ``LibSealConfig.group_seal_pairs``: 1 seals after every pair.
    group_seal_pairs: int
    #: Pairs one connection carries; 1 opens a connection per request.
    pairs_per_connection: int
    #: Mark every Nth timed request with ``Libseal-Check`` (None: never).
    check_every: int | None
    #: Checked fetches sent after the timed phases (split over the
    #: rounds), when the timed phase runs no checks of its own.
    epilogue_checks: int
    #: Timed-phase length per second of ``--seconds``.
    pairs_per_second: int
    #: Restarts spread through each round's tail, plus one from its final
    #: stored log; ``recover_s`` is the median over all rounds.
    recoveries: int
    #: Invariant the violation probe must trip.
    probe_invariant: str
    #: Rounds per run, each a fresh stack. Where cost grows with the log,
    #: a percentile is set by the pairs of one stretch of a round; more
    #: rounds sample the host at more moments for it.
    rounds: int = 1

    def pairs_for(self, seconds: int) -> int:
        return max(40, self.pairs_per_second * seconds)


WORKLOADS = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            "git-sealed", GitSSM, GitReplayWorkload,
            group_seal_pairs=1, pairs_per_connection=20, check_every=None,
            epilogue_checks=200, pairs_per_second=80, recoveries=8,
            probe_invariant="soundness",
            rounds=2,
        ),
        WorkloadSpec(
            "dropbox-checked", DropboxSSM, DropboxOpsWorkload,
            group_seal_pairs=16, pairs_per_connection=20, check_every=10,
            epilogue_checks=0, pairs_per_second=120, recoveries=4,
            probe_invariant="list_completeness",
            rounds=3,
        ),
        WorkloadSpec(
            "messaging-churn", MessagingSSM, MessagingWorkload,
            group_seal_pairs=16, pairs_per_connection=1, check_every=None,
            epilogue_checks=400, pairs_per_second=50, recoveries=8,
            probe_invariant="delivery_completeness",
            rounds=2,
        ),
    )
}


def driven(generator: type) -> type:
    """``generator`` with its requests sent through a :class:`Bench`."""

    class Driven(generator):
        def __init__(self, bench: "Bench", seed: int):
            self.bench = bench
            bench.workload = self
            super().__init__(None, seed=seed)

        def _drive(self, request: HttpRequest):
            response = self.bench.send(request)
            self.requests_issued += 1
            if response.status != 200:
                raise BenchFailure(
                    f"{request.method} {request.path} -> {response.status}"
                )
            return response

    Driven.__name__ = f"Driven{generator.__name__}"
    return Driven


_DRIVEN = {spec.name: driven(spec.generator) for spec in WORKLOADS.values()}


@dataclass
class RunResult:
    """What the rounds of one run measured (timings) and did (counts)."""

    #: Timed pairs of each round (the generator's set-up traffic included).
    round_pairs: int = 0
    timed_pairs: int = 0
    timed_s: float = 0.0
    #: (start, end) ``perf_counter`` of each round's timed phase.
    windows: list[tuple[float, float]] = field(default_factory=list)
    #: (start, end) of each round's untimed tail, which follows its timed
    #: phase; set-up is in neither.
    tails: list[tuple[float, float]] = field(default_factory=list)
    pair_seconds: list[float] = field(default_factory=list)
    check_seconds: list[float] = field(default_factory=list)
    recover_seconds: list[float] = field(default_factory=list)
    write_bytes: int = 0
    stored_bytes: int = 0
    #: Operation counts summed over the rounds (chain heads joined).
    counts: dict = field(default_factory=dict)
    #: Host speed sampled through the rounds.
    speed: HostSpeed = field(default_factory=HostSpeed)

    def add_counts(self, counts: dict) -> None:
        for key, value in counts.items():
            if isinstance(value, str):
                self.counts[key] = " ".join(filter(None, (self.counts.get(key), value)))
            else:
                self.counts[key] = self.counts.get(key, 0) + value


class Bench:
    """One round's stack, client and request scheduling."""

    def __init__(
        self, spec: WorkloadSpec, seed: int, speed: HostSpeed, tracer=None
    ):
        self.spec = spec
        self.speed = speed
        self.tracer = tracer
        self.served: list = []
        handler = self.handle
        if tracer is not None:
            handler = tracer.wrap("service.handle", handler)
        self.stack = ServerStack(
            spec.ssm(), LibSealConfig(group_seal_pairs=spec.group_seal_pairs), handler
        )
        if tracer is not None:
            tracer.instrument_enclave_api(self.stack.runtime.api)
        self.client = TlsClient(self.stack, self.served, seed)
        self.workload = None
        self.sent = 0
        self.timed = True
        self.force_check = False
        self.force_new_connection = False
        #: Set while the violation probe runs: its verdict is expected to
        #: name a violation.
        self.probing = False

    @property
    def libseal(self) -> LibSeal:
        return self.stack.libseal

    def handle(self, request: HttpRequest):
        response = self.workload.service.handle(request)
        self.served.append(response)
        return response

    def send(self, request: HttpRequest):
        spec = self.spec
        if self.force_check or (
            self.timed
            and spec.check_every is not None
            and (self.sent + 1) % spec.check_every == 0
        ):
            mark_checked(request)
        new_connection = (
            self.force_new_connection
            or self.sent % spec.pairs_per_connection == 0
        )
        if self.timed:
            self.speed.maybe_sample("timed")
        else:
            self.speed.sample("tail")
        if self.tracer is not None:
            self.tracer.pair = self.sent
        self.sent += 1
        response = self.client.exchange(request, new_connection)
        verdict = self.client.pairs[-1].verdict
        if verdict is not None and verdict != "OK" and not self.probing:
            raise BenchFailure(f"verdict {verdict!r} on honest traffic")
        return response


def run_rounds(
    spec: WorkloadSpec, seed: int, pairs: int, speed: HostSpeed, tracer=None
) -> RunResult:
    """Drive ``pairs`` timed pairs over ``spec.rounds`` rounds, each on a
    fresh stack with a seed derived from ``seed`` and each followed by its
    share of the tail; the last round also runs the violation probe."""
    result = RunResult(round_pairs=pairs // spec.rounds, speed=speed)
    for index in range(spec.rounds):
        round_seed = seed * 1000 + index
        bench = Bench(spec, round_seed, speed, tracer)
        libseal = bench.libseal
        spent = speed.spent
        started = time.perf_counter()
        workload = _DRIVEN[spec.name](bench, round_seed)
        workload.run(result.round_pairs - bench.sent)
        libseal.flush_pending()
        result.windows.append((started, time.perf_counter()))
        # The host-speed loop runs between pairs; it is not the program's.
        result.timed_s += result.windows[-1][1] - started - (speed.spent - spent)
        result.timed_pairs += bench.sent
        result.pair_seconds += [p.seconds for p in bench.client.pairs]
        result.write_bytes += libseal.storage.bytes_written
        result.stored_bytes += libseal.storage.size_bytes()

        tail_started = time.perf_counter()
        _epilogue(spec, bench, workload, result)
        if index == spec.rounds - 1:
            verdict = _probe(spec, bench, workload)
            if spec.probe_invariant not in _violated(verdict):
                raise BenchFailure(
                    f"probe verdict {verdict!r} does not name {spec.probe_invariant}"
                )
        # Honest checks only: the probe's verdict is not "OK".
        result.check_seconds += [
            p.request_seconds for p in bench.client.pairs if p.verdict == "OK"
        ]
        bench.client.close()
        _verify(bench)
        result.recover_seconds.append(_recover(spec, bench))
        result.add_counts(_counts(bench))
        result.tails.append((tail_started, time.perf_counter()))
    return result


def _epilogue(spec: WorkloadSpec, bench: Bench, workload, result: RunResult) -> None:
    """The round's share of the check epilogue, with restarts spread
    through it: recover_s and the epilogue's check latencies then sample
    the host over seconds in every round, not at one moment. Each restart
    recovers the stored log as it stands at that point."""
    bench.timed = False
    checks = spec.epilogue_checks // spec.rounds
    sent = 0
    for restart in range(spec.recoveries):
        # Fetches only, each on a connection of its own (a fresh rate-limit
        # bucket): one kind of pair keeps check latencies one cluster.
        bench.force_check = bench.force_new_connection = True
        while sent < checks * (restart + 1) // spec.recoveries:
            workload.fetch_once()
            sent += 1
        bench.force_check = bench.force_new_connection = False
        result.recover_seconds.append(_recover(spec, bench))


def _verify(bench: Bench) -> None:
    """Every pair sent was logged, and the sealed log verifies."""
    libseal = bench.libseal
    libseal.flush_pending()
    if libseal.pairs_logged != bench.sent:
        raise BenchFailure(
            f"{libseal.pairs_logged} pairs logged for {bench.sent} sent"
        )
    libseal.verify_log()


def warm_up(spec: WorkloadSpec, seed: int, pairs: int = 20) -> None:
    """A short untimed round, so one-off lazy initialisation in the
    process does not land in the first measured round."""
    bench = Bench(spec, seed, HostSpeed())
    _DRIVEN[spec.name](bench, seed).run(pairs)
    bench.client.close()


def setup_seconds(spec: WorkloadSpec, seed: int, speed: HostSpeed) -> float:
    """Time to build the stack and client, with no traffic."""
    speed.sample("setup")
    started = time.perf_counter()
    Bench(spec, seed, speed)
    return time.perf_counter() - started


def _violated(verdict: str | None) -> set[str]:
    if not verdict or not verdict.startswith("VIOLATIONS "):
        return set()
    return {part.split("=")[0] for part in verdict[len("VIOLATIONS "):].split(",")}


def _probe(spec: WorkloadSpec, bench: Bench, workload) -> str | None:
    """Corrupt the service through its ``attack_*`` hook, then send one
    checked request that exposes the corruption; returns its verdict."""
    server = workload.service.server
    bench.probing = bench.force_new_connection = True
    try:
        if spec.name == "git-sealed":
            repo_name = workload.repo_names[0]
            repo = server.repository(repo_name)
            branch = next(
                (b for b, cid in repo.advertise_refs()
                 if repo.objects.get_commit(cid).parent_id is not None),
                None,
            )
            if branch is None:
                raise BenchFailure("no branch with history to roll back")
            repo.attack_rollback(branch)
            bench.force_check = True
            workload._drive(HttpRequest(
                "GET", f"/{repo_name}/info/refs?service=git-upload-pack"
            ))
        elif spec.name == "dropbox-checked":
            account = next(
                (a for a in workload.accounts if workload._live_files[a]), None
            )
            if account is None:
                raise BenchFailure("no live file to omit")
            server.attack_omit_file(account, workload._live_files[account][0])
            bench.force_check = True
            request = HttpRequest("GET", "/list")
            request.headers.set("X-Account", account)
            request.headers.set("X-Host", "bench-host")
            workload._drive(request)
        else:
            channel = workload.channels[0]
            seq = workload.post_once(channel)
            server.attack_drop_message(channel, seq)
            bench.force_check = True
            workload.fetch_once(channel, workload.members[1])
    finally:
        bench.probing = False
        bench.force_check = bench.force_new_connection = False
    return bench.client.pairs[-1].verdict


def _recover(spec: WorkloadSpec, bench: Bench) -> float:
    """Restart from the stored log; the restart must resume cleanly on
    exactly the live chain. Returns its duration."""
    libseal = bench.libseal
    libseal.flush_pending()
    bench.speed.sample("tail")
    if bench.tracer is not None:
        bench.tracer.pair = -1
    # A restart runs in a fresh process, whose collector never walks the
    # live instance's objects: leave them out of collections while the
    # restart is timed, so collector debt from the traffic before does not
    # land on it.
    gc.collect()
    gc.freeze()
    try:
        started = time.perf_counter()
        instance, report = LibSeal.recover(
            spec.ssm(),
            libseal.storage,
            config=libseal.config,
            signing_key=libseal.signing_key,
            rote=libseal.rote,
        )
        seconds = time.perf_counter() - started
    finally:
        gc.unfreeze()
    live = libseal.audit_log.chain
    if report.outcome is not RecoveryOutcome.CLEAN_RESUME or instance is None:
        raise BenchFailure(f"recovery returned {report.outcome.value}")
    if report.entries != len(live):
        raise BenchFailure(f"recovered {report.entries} entries of {len(live)}")
    if instance.audit_log.chain.head != live.head:
        raise BenchFailure("recovered chain head differs from the live one")
    return seconds


def _counts(bench: Bench) -> dict:
    """Deterministic operation counts from the program's public state."""
    libseal = bench.libseal
    loop = bench.stack.loop
    transitions = bench.stack.runtime.enclave.interface.stats
    checker = libseal.checker.stats
    storage: InMemoryStorage = libseal.storage
    return {
        "pairs": bench.sent,
        "connections": loop.stats.opened,
        "aborted": loop.stats.aborted,
        "slices": loop.loop_stats.slices,
        "ecalls": transitions.ecalls,
        "ocalls": transitions.ocalls,
        "tuples": libseal.audit_log.appends,
        "seals": libseal.audit_log.epochs_sealed,
        "rote_retries": libseal.rote.retry_rounds,
        "check_passes": checker.checks_run,
        "delta_evaluations": checker.delta_evaluations,
        "other_evaluations": checker.full_evaluations + checker.skipped_evaluations,
        "rows_scanned": checker.rows_scanned,
        "rows_vectorized": checker.rows_vectorized,
        "bytes_written": storage.bytes_written,
        "stored_bytes": storage.size_bytes(),
        "chain_head": libseal.audit_log.chain.head.hex(),
    }
