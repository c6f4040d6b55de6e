"""Metrics from a round: end-to-end from an untraced round, per-layer from
a traced round of the same seed and length."""

from __future__ import annotations

import resource
import statistics
from collections import defaultdict

from repro.sim.costs import (
    ENCLAVE_HANDSHAKE_FACTOR,
    LOGGING_BASE_CYCLES,
    LOGGING_SEALDB_INSERT_CYCLES,
    SEAL_EPOCH_CYCLES,
    TLS_HANDSHAKE_CYCLES,
    checking_cycles,
)

from perfbench.stack import BenchFailure
from perfbench.trace import END, NAME, PAIR, PARENT, START, VALUE
from perfbench.workloads import RunResult

US, MS = 1e6, 1e3


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (``q`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise BenchFailure("percentile of no samples")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def end_to_end_phases(checks_timed: bool) -> dict[str, str]:
    """The run phase whose host speed scales each end-to-end duration or
    rate (see ``perfbench/host.py``)."""
    checks = "timed" if checks_timed else "tail"
    return {
        "pairs_per_s": "timed",
        "pair_p50_ms": "timed",
        "pair_p99_ms": "timed",
        "check_p50_ms": checks,
        "check_p90_ms": checks,
        "recover_s": "tail",
        "setup_s": "setup",
    }


def end_to_end(result: RunResult, setup_times: list[float]) -> dict[str, float]:
    pairs = result.timed_pairs
    return {
        "pairs_per_s": pairs / result.timed_s,
        "pair_p50_ms": percentile(result.pair_seconds, 0.50) * MS,
        "pair_p99_ms": percentile(result.pair_seconds, 0.99) * MS,
        "check_p50_ms": percentile(result.check_seconds, 0.50) * MS,
        "check_p90_ms": percentile(result.check_seconds, 0.90) * MS,
        "recover_s": statistics.median(result.recover_seconds),
        "write_bytes_per_pair": result.write_bytes / pairs,
        "stored_bytes_per_pair": result.stored_bytes / pairs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_times),
    }


#: Spans that start a path: every span below one belongs to that path
#: (the nearest such ancestor wins).
_PATH_ROOTS = {
    "client.connect": "client",
    "client.read": "client",
    "client.write": "client",
    "enclave_tls.accept": "server_handshake",
    "audit.seal": "seal",
    "core.run_checks": "check",
    "core.on_write": "write",
    "audit.load": "recovery",
}

#: Self-time layer of each span name (crypto is split by path below).
_LAYER = {
    "servers.feed": "servers",
    "servers.open": "servers",
    "servers.close": "servers",
    "lthreads.step": "lthreads",
    "service.handle": "service",
    "enclave_tls.accept": "enclave_tls",
    "enclave_tls.read": "enclave_tls",
    "enclave_tls.write": "enclave_tls",
    "client.connect": "client_tls",
    "client.read": "client_tls",
    "client.write": "client_tls",
    "http.parse": "http",
    "core.on_read": "core_logger",
    "core.on_write": "core_logger",
    "ssm.log": "ssm",
    "audit.append": "audit_append",
    "audit.seal": "audit_seal",
    "audit.serialize": "audit_seal",
    "audit.save": "audit_seal",
    "rote.increment": "audit_seal",
    "audit.load": "audit_recovery",
    "audit.verify": "audit_recovery",
    "rote.retrieve": "audit_recovery",
    "core.run_checks": "core_checker",
    "sealdb.execute": "sealdb",
}

_CRYPTO_LAYER = {
    "client": "crypto_client",
    "server_handshake": "crypto_server_handshake",
    "seal": "crypto_seal",
}

#: Every ``share.*`` metric, in listing order.
SHARE_LAYERS = (
    "servers", "lthreads", "service", "enclave_tls", "client_tls", "http",
    "core_logger", "ssm", "audit_append", "audit_seal", "core_checker",
    "sealdb", "crypto_server_handshake", "crypto_client", "crypto_seal",
    "crypto_other",
)


def _within(span: list, windows: list[tuple[float, float]]) -> bool:
    return any(lo <= span[START] and span[END] <= hi for lo, hi in windows)


class _Spans:
    """Per-name aggregates of the spans in every round's timed phase and
    tail (not set-up: the same operations the run's counts cover), and
    per-layer self time within the timed phases."""

    def __init__(self, spans: list[list], result: RunResult):
        self.spans = spans
        self.timed = [_within(s, result.windows) for s in spans]
        keep = [
            t or _within(s, result.tails) for t, s in zip(self.timed, spans)
        ]
        n = len(spans)
        durations = [s[END] - s[START] for s in spans]
        child = [0.0] * n
        path = [None] * n
        for i, span in enumerate(spans):
            parent = span[PARENT]
            if parent >= 0:
                child[parent] += durations[i]
                path[i] = _PATH_ROOTS.get(spans[parent][NAME], path[parent])
        self.durations = durations
        self.self_time = [durations[i] - child[i] for i in range(n)]
        self.path = path
        if any(t < -1e-9 for t in self.self_time):
            raise BenchFailure("a span ended after its parent")
        self.by_name: dict[str, list[int]] = defaultdict(list)
        for i, span in enumerate(spans):
            if keep[i]:
                self.by_name[span[NAME]].append(i)

    def select(self, name: str, where=None) -> list[int]:
        chosen = self.by_name.get(name, [])
        return chosen if where is None else [i for i in chosen if where(i)]

    def total(self, name: str, where=None) -> float:
        return sum(self.durations[i] for i in self.select(name, where))

    def self_total(self, name: str) -> float:
        return sum(self.self_time[i] for i in self.select(name))

    def count(self, name: str, where=None) -> int:
        return len(self.select(name, where))

    def mean(self, name: str, where=None) -> float:
        chosen = self.select(name, where)
        if not chosen:
            return 0.0
        return sum(self.durations[i] for i in chosen) / len(chosen)

    def timed_total(self, *names: str) -> float:
        return sum(
            self.durations[i] for name in names for i in self.select(name)
            if self.timed[i]
        )

    def layer_self(self) -> dict[str, float]:
        """Self time per layer over the timed phase."""
        totals: dict[str, float] = defaultdict(float)
        for i, span in enumerate(self.spans):
            if not self.timed[i]:
                continue
            name = span[NAME]
            if name.startswith("crypto."):
                layer = _CRYPTO_LAYER.get(self.path[i], "crypto_other")
            else:
                layer = _LAYER[name]
            totals[layer] += self.self_time[i]
        return totals

    def growth(self, name: str, pairs: int, value=None) -> float:
        """Mean over the last quarter of the timed phase's pairs divided by
        the mean over the first quarter (0 when either has no span)."""
        def mean_in(low: float, high: float) -> float | None:
            chosen = [
                i for i in self.select(name)
                if low <= self.spans[i][PAIR] < high
            ]
            if not chosen:
                return None
            if value is None:
                return sum(self.durations[i] for i in chosen) / len(chosen)
            return sum(value(self.spans[i][VALUE]) for i in chosen) / len(chosen)

        first = mean_in(0, pairs / 4)
        last = mean_in(3 * pairs / 4, pairs)
        if not first or last is None:
            return 0.0
        return last / first


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def crypto_counts(spans: list[list]) -> dict[str, int]:
    counts: dict[str, int] = defaultdict(int)
    for span in spans:
        if span[NAME].startswith("crypto."):
            counts[span[NAME]] += 1
    return dict(counts)


def per_layer(
    traced: RunResult, plain: RunResult, spans: list[list], invariants: int
) -> dict[str, float]:
    s = _Spans(spans, traced)
    counts = traced.counts
    pairs = counts["pairs"]
    conns = counts["connections"]
    seals = counts["seals"]
    passes = counts["check_passes"]
    # Numerators come from the kept spans and denominators from the
    # program's counts: both must cover the same operations.
    for name, count in (
        ("servers.open", conns), ("audit.seal", seals), ("core.run_checks", passes)
    ):
        if s.count(name) != count:
            raise BenchFailure(f"{s.count(name)} {name} spans for {count} in counts")
    in_handshake = lambda i: s.path[i] in ("client", "server_handshake")  # noqa: E731
    timed = traced.round_pairs
    evaluations = counts["delta_evaluations"] + counts["other_evaluations"]
    in_checks = lambda i: s.path[i] == "check"  # noqa: E731
    under_write = lambda i: s.path[i] == "write"  # noqa: E731
    check_total = s.total("core.run_checks")
    pass_rows = [s.spans[i][VALUE] for i in s.select("core.run_checks")]
    modelled_check = sum(checking_cycles(r, invariants, v) for r, v in pass_rows)
    logging_s = (
        s.total("core.on_read") + s.total("core.on_write")
        - s.total("audit.seal", under_write) - s.total("core.run_checks", under_write)
    )
    tuples_per_pair = counts["tuples"] / pairs
    wall = traced.timed_s
    layer_self = s.layer_self()
    attributed = sum(layer_self.values())
    metrics = {
        "servers.feed_self_us_per_pair": s.self_total("servers.feed") / pairs * US,
        "servers.open_close_us_per_conn": (
            s.total("servers.open") + s.total("servers.close")
        ) / conns * US,
        "servers.aborted": counts["aborted"],
        "lthreads.slices_per_pair": counts["slices"] / pairs,
        "enclave_tls.accept_ms_per_conn": s.total("enclave_tls.accept") / conns * MS,
        "enclave_tls.record_self_us_per_pair": (
            s.self_total("enclave_tls.read") + s.self_total("enclave_tls.write")
        ) / pairs * US,
        "sgx.ecalls_per_pair": counts["ecalls"] / pairs,
        "sgx.ocalls_per_pair": counts["ocalls"] / pairs,
        "client.tls_ms_per_pair": (
            s.total("client.connect") + s.total("client.read") + s.total("client.write")
        ) / pairs * MS,
        "crypto.sign_per_pair": s.count("crypto.sign") / pairs,
        "crypto.sign_ms": s.mean("crypto.sign") * MS,
        "crypto.verify_per_conn": s.count("crypto.verify", in_handshake) / conns,
        "crypto.verify_ms": s.mean("crypto.verify", in_handshake) * MS,
        "crypto.ecdh_ms": s.mean("crypto.ecdh") * MS,
        "http.parse_us_per_pair": s.total("http.parse") / pairs * US,
        "core.logger_self_us_per_pair": (
            s.self_total("core.on_read") + s.self_total("core.on_write")
        ) / pairs * US,
        "ssm.log_us_per_pair": s.total("ssm.log") / pairs * US,
        "ssm.tuples_per_pair": tuples_per_pair,
        "core.check_passes": passes,
        "core.check_ms_per_pass": _div(check_total, passes) * MS,
        "core.rows_scanned_per_pass": _div(counts["rows_scanned"], passes),
        "core.rows_vectorized_share": _div(
            counts["rows_vectorized"], counts["rows_scanned"]
        ),
        "core.delta_eval_share": _div(counts["delta_evaluations"], evaluations),
        "core.check_growth": s.growth("core.run_checks", timed),
        "core.rows_scanned_growth": s.growth(
            "core.run_checks", timed, value=lambda v: v[0]
        ),
        "sealdb.select_ms_per_stmt": s.mean("sealdb.execute", in_checks) * MS,
        "sealdb.stmts_per_pass": _div(s.count("sealdb.execute", in_checks), passes),
        "audit.seals_per_pair": seals / pairs,
        "audit.seal_self_ms": _div(s.self_total("audit.seal"), seals) * MS,
        "audit.serialize_ms_per_seal": s.mean("audit.serialize") * MS,
        "audit.serialize_bytes_per_seal": _div(
            sum(s.spans[i][VALUE] for i in s.select("audit.serialize")),
            s.count("audit.serialize"),
        ),
        "audit.save_us_per_seal": _div(s.total("audit.save"), seals) * US,
        "audit.rote_increment_ms": s.mean("rote.increment") * MS,
        "audit.rote_retries": counts["rote_retries"],
        "audit.seal_growth": s.growth("audit.seal", timed),
        "audit.serialize_bytes_growth": s.growth(
            "audit.serialize", timed, value=lambda v: v
        ),
        "audit.append_us_per_tuple": s.mean("audit.append") * US,
        "audit.load_ms": s.mean("audit.load") * MS,
        "audit.verify_ms": s.mean(
            "audit.verify", lambda i: s.path[i] == "recovery"
        ) * MS,
        "audit.rote_retrieve_ms": s.mean("rote.retrieve") * MS,
        # Each rate at the reference host speed, so host drift between
        # the two runs does not count as tracing overhead.
        "trace.overhead_frac": 1 - (
            traced.timed_pairs / traced.timed_s * traced.speed.factor("timed")
        ) / (plain.timed_pairs / plain.timed_s * plain.speed.factor("timed")),
        "host.factor": traced.speed.factor("timed"),
        "trace.unattributed_frac": 1 - attributed / wall,
        "calib.seal": _div(s.mean("audit.seal") * MS, SEAL_EPOCH_CYCLES / US),
        "calib.handshake": _div(
            s.total("enclave_tls.accept") / conns * MS,
            TLS_HANDSHAKE_CYCLES * ENCLAVE_HANDSHAKE_FACTOR / US,
        ),
        "calib.check_pass": _div(check_total * MS, modelled_check / US),
        "calib.pair": _div(
            logging_s / pairs * MS,
            (LOGGING_BASE_CYCLES + tuples_per_pair * LOGGING_SEALDB_INSERT_CYCLES) / US,
        ),
    }
    for layer in SHARE_LAYERS:
        metrics[f"share.{layer}"] = layer_self.get(layer, 0.0) / wall
    metrics["path.seal"] = s.timed_total("audit.seal") / wall
    metrics["path.check"] = s.timed_total("core.run_checks") / wall
    metrics["path.server_handshake"] = s.timed_total("enclave_tls.accept") / wall
    metrics["path.client"] = s.timed_total(
        "client.connect", "client.read", "client.write"
    ) / wall
    # Self times partition the root spans: if they do not add up, a span
    # was cut short or escaped its parent and the shares above are wrong.
    roots = sum(
        s.durations[i] for i, span in enumerate(spans)
        if s.timed[i] and span[PARENT] < 0
    )
    if abs(attributed - roots) > 1e-6 or roots > wall:
        raise BenchFailure("layer self times do not add up to the traced time")
    return metrics
