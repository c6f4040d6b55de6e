"""Deterministic protocol fuzzing for the TLS termination path.

LibSEAL interposes on every byte an untrusted client sends (§4.1): the
TLS record layer, the handshake state machine, the HTTP reassembly in
the audit logger and the service request parsers are all adversarial
surface. This harness drives seeded, byte-reproducible mutations through
*real* :class:`~repro.servers.connection.ServerConnection` objects at
three layers, every byte through the
:class:`~repro.servers.eventloop.EventLoop` front end (each connection
an lthread task):

- **tls** — raw record mutations (truncation, length-field lies, type
  confusion, bit flips, duplicate/reordered/dropped records, garbage
  injection, floods) against live handshakes, plus post-establishment
  attacks (handshake-flight replay, sealed-record replay, CCS
  re-injection) against deep-copied established connections;
- **http** — post-decryption mutations (request splitting, smuggled and
  malformed Content-Length, header bombs, never-terminated heads,
  pipelining abuse) against a plain-mode event loop;
- **service** — hostile service payloads (mutated JSON, broken
  pkt-lines, wrong shapes, deep nesting, binary garbage) inside valid
  HTTP over a full enclave-TLS + LibSEAL deployment, with the audit log
  verified at the end.

The contract under fuzz (the acceptance invariant): every mutation
either serves, is answered 4xx, or aborts its own connection with a
*typed* error (:class:`~repro.errors.TLSError`,
:class:`~repro.errors.HTTPError`,
:class:`~repro.errors.ProtocolViolation`); nothing hangs, no exception
escapes untyped, no other connection is disturbed, and the audit log
still verifies as a consistent prefix. Every case's bytes derive from
``random.Random(f"fuzz:{layer}:{seed}:{case}")`` — a failing case is
reproducible from ``(layer, seed, case)`` alone.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass, field

from repro.errors import HTTPError, ProtocolViolation, TLSError
from repro.faults import hooks as _faults
from repro.faults.plan import FaultEvent, FaultPlan
from repro.http import HttpRequest, HttpResponse
from repro.http.parser import HttpLimits
from repro.servers.connection import ConnectionLimits, FeedResult, SimClock
from repro.servers.eventloop import EventLoop
from repro.tls import api as native_api
from repro.tls.bio import BIO
from repro.tls.cert import CertificateAuthority, make_server_identity
from repro.tls.record import RECORD_CCS, VALID_RECORD_TYPES, frame

#: The only exception families allowed to surface for hostile input.
ALLOWED_ERRORS = (TLSError, HTTPError, ProtocolViolation)

_HEADER_LEN = 5


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FuzzOutcome:
    """What one mutation case did to its connection."""

    case: int
    op: str
    #: "served" (handled normally, incl. 4xx), "aborted" (typed
    #: teardown), or "incomplete" (server still waiting for bytes).
    result: str
    error: str = ""


@dataclass
class FuzzReport:
    """One layer's run: outcomes, plus anything that broke the contract."""

    layer: str
    seed: int
    cases: int
    outcomes: list[FuzzOutcome] = field(default_factory=list)
    #: Untyped exceptions that escaped — the contract violation list.
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def counts(self) -> dict[str, int]:
        tally: dict[str, int] = {}
        for outcome in self.outcomes:
            tally[outcome.result] = tally.get(outcome.result, 0) + 1
        return tally

    def describe(self) -> str:
        counts = ", ".join(f"{k}={v}" for k, v in sorted(self.counts().items()))
        status = "OK" if self.ok else f"{len(self.failures)} FAILURES"
        lines = [f"[{self.layer}] seed={self.seed} cases={self.cases} "
                 f"{counts} -> {status}"]
        lines += [f"  FAIL {f}" for f in self.failures]
        lines += [f"  note {n}" for n in self.notes]
        return "\n".join(lines)


def _case_rng(layer: str, seed: int, case: int) -> random.Random:
    return random.Random(f"fuzz:{layer}:{seed}:{case}")


def _record_outcome(report: FuzzReport, case: int, op: str, result) -> None:
    if result.aborted:
        violation = result.violation
        if isinstance(violation, ALLOWED_ERRORS):
            report.outcomes.append(
                FuzzOutcome(case, op, "aborted", repr(violation))
            )
        else:
            report.failures.append(
                f"case {case} op {op}: untyped violation {violation!r}"
            )
    elif result.served or result.bad_requests:
        report.outcomes.append(FuzzOutcome(case, op, "served"))
    else:
        report.outcomes.append(FuzzOutcome(case, op, "incomplete"))


# ---------------------------------------------------------------------------
# TLS layer
# ---------------------------------------------------------------------------

_TLS_PRE_OPS = (
    "pristine",
    "truncate_record",
    "truncate_stream",
    "length_lie_grow",
    "length_lie_shrink",
    "type_confusion",
    "bitflip",
    "duplicate_record",
    "reorder_records",
    "drop_record",
    "insert_garbage",
    "prehandshake_flood",
    "network_fault",
)

_TLS_POST_OPS = (
    "replay_client_hello",
    "replay_sealed_record",
    "ccs_reinjection",
    "bitflip_sealed",
    "garbage_type",
    "length_lie_sealed",
    "idle_deadline",
    "handshake_deadline",
)


def _parse_frames(data: bytes) -> list[bytes]:
    """Split a byte stream into whole framed records (tolerant)."""
    frames: list[bytes] = []
    offset = 0
    while offset + _HEADER_LEN <= len(data):
        length = int.from_bytes(data[offset + 1 : offset + 5], "big")
        end = offset + _HEADER_LEN + length
        if end > len(data):
            break
        frames.append(data[offset:end])
        offset = end
    if offset < len(data):
        frames.append(data[offset:])
    return frames


class _TlsScenario:
    """A deterministic server + captured client flights for replay.

    All DRBG seeds are fixed, so rebuilding the server reproduces the
    exact same handshake bytes; the captured client flights then replay
    verbatim — and any mutation of them perturbs a real handshake.
    """

    def __init__(self, handler=None):
        self.ca = CertificateAuthority("fuzz-root", seed=b"fuzz-ca")
        self.key, self.cert = make_server_identity(
            self.ca, "fuzz.example", seed=b"fuzz-id"
        )
        self.handler = handler or (
            lambda request: HttpResponse(200, body=b"fuzz-ok")
        )
        # Capture the canonical flights once.
        bundle = self._establish()
        self.flights: list[bytes] = bundle["flights"]
        native_api.SSL_write(
            bundle["cssl"], HttpRequest("GET", "/fuzz").encode()
        )
        self.sealed_request: bytes = bundle["wb"].read()
        bundle["sealed"] = self.sealed_request
        self._established_bundle = bundle

    def _server_ctx(self):
        ctx = native_api.SSL_CTX_new(native_api.TLS_server_method())
        native_api.SSL_CTX_use_certificate(ctx, self.cert)
        native_api.SSL_CTX_use_PrivateKey(ctx, self.key)
        ctx.drbg_seed = b"fuzz-server"
        return ctx

    def fresh_server(self, clock: SimClock | None = None):
        sup = EventLoop(
            self.handler, api=native_api, ssl_ctx=self._server_ctx(), clock=clock
        )
        return sup, sup.open()

    def _establish(self) -> dict:
        sup, cid = self.fresh_server()
        cctx = native_api.SSL_CTX_new(native_api.TLS_client_method())
        native_api.SSL_CTX_load_verify_locations(cctx, self.ca)
        cctx.drbg_seed = b"fuzz-client"
        cssl = native_api.SSL_new(cctx)
        rb, wb = BIO("fuzz-crb"), BIO("fuzz-cwb")
        native_api.SSL_set_bio(cssl, rb, wb)
        flights: list[bytes] = []
        for _ in range(10):
            native_api.SSL_connect(cssl)
            out = wb.read()
            if out:
                flights.append(out)
                result = sup.feed(cid, out)
                rb.write(result.output)
            if native_api.SSL_is_init_finished(cssl) and (
                sup.connection(cid).established
            ):
                break
        else:  # pragma: no cover - deterministic handshake
            raise TLSError("fuzz scenario handshake did not complete")
        return {
            "sup": sup, "cid": cid, "cssl": cssl, "rb": rb,
            "wb": wb, "flights": flights,
        }

    def established_copy(self) -> dict:
        """An independent established connection (≈0.6 ms, no handshake).

        Deep-copying the :class:`EventLoop` re-spawns one driver task per
        live connection on a fresh scheduler (generators cannot be
        deep-copied).
        """
        return copy.deepcopy(
            self._established_bundle, {id(native_api): native_api}
        )


def _mutate_flights(
    flights: list[bytes], op: str, rng: random.Random
) -> list[bytes]:
    mutated = [bytearray(f) for f in flights]
    target = rng.randrange(len(mutated))
    chunk = mutated[target]
    if op == "truncate_record" and len(chunk) > 1:
        del chunk[rng.randrange(1, len(chunk)) :]
    elif op == "truncate_stream":
        del mutated[target + 1 :]
        if len(chunk) > 1:
            del chunk[rng.randrange(1, len(chunk)) :]
    elif op in ("length_lie_grow", "length_lie_shrink"):
        frames = _parse_frames(bytes(chunk))
        victim = bytearray(frames[rng.randrange(len(frames))])
        if len(victim) >= _HEADER_LEN:
            lie = (
                rng.randrange(2**25, 2**31)
                if op == "length_lie_grow"
                else rng.randrange(0, max(1, len(victim) - _HEADER_LEN))
            )
            victim[1:5] = lie.to_bytes(4, "big")
        frames[rng.randrange(len(frames))] = bytes(victim)
        mutated[target] = bytearray(b"".join(frames))
    elif op == "type_confusion":
        frames = [bytearray(f) for f in _parse_frames(bytes(chunk))]
        victim = frames[rng.randrange(len(frames))]
        if victim:
            choices = sorted(VALID_RECORD_TYPES | {0, 1, 99, 255})
            victim[0] = rng.choice(choices)
        mutated[target] = bytearray(b"".join(bytes(f) for f in frames))
    elif op == "bitflip":
        for _ in range(rng.randint(1, 4)):
            index = rng.randrange(len(chunk))
            chunk[index] ^= 1 << rng.randrange(8)
    elif op == "duplicate_record":
        frames = _parse_frames(bytes(chunk))
        victim = rng.randrange(len(frames))
        frames.insert(victim, frames[victim])
        mutated[target] = bytearray(b"".join(frames))
    elif op == "reorder_records":
        frames = _parse_frames(bytes(chunk))
        rng.shuffle(frames)
        mutated[target] = bytearray(b"".join(frames))
    elif op == "drop_record":
        frames = _parse_frames(bytes(chunk))
        if len(frames) > 1:
            del frames[rng.randrange(len(frames))]
            mutated[target] = bytearray(b"".join(frames))
        else:
            del mutated[target]
    elif op == "insert_garbage":
        garbage = bytes(rng.randrange(256) for _ in range(rng.randint(1, 64)))
        position = rng.randrange(len(chunk) + 1)
        chunk[position:position] = garbage
    return [bytes(f) for f in mutated]


def fuzz_tls_layer(seed: int = 0, cases: int = 200) -> FuzzReport:
    """Mutate raw TLS bytes against live handshakes and sealed sessions."""
    report = FuzzReport(layer="tls", seed=seed, cases=cases)
    scenario = _TlsScenario()
    post_share = max(1, cases // 3)
    for case in range(cases):
        rng = _case_rng("tls", seed, case)
        try:
            if case % 3 == 0 and case // 3 < post_share:
                op = rng.choice(_TLS_POST_OPS)
                _run_tls_post_case(scenario, op, rng, report, case)
            else:
                op = rng.choice(_TLS_PRE_OPS)
                _run_tls_pre_case(scenario, op, rng, report, case)
        except ALLOWED_ERRORS as exc:  # pragma: no cover - belt and braces
            report.failures.append(
                f"case {case} op {op}: typed error escaped the "
                f"event loop: {exc!r}"
            )
        except Exception as exc:
            report.failures.append(f"case {case} op {op}: UNCAUGHT {exc!r}")
    return report


def _run_tls_pre_case(scenario, op, rng, report, case) -> None:
    clock = SimClock()
    sup, cid = scenario.fresh_server(clock=clock)
    if op == "pristine":
        # Deterministic replay: same seeds, so the captured flights
        # complete a real handshake and the sealed request serves.
        flights = list(scenario.flights) + [scenario.sealed_request]
    elif op == "prehandshake_flood":
        # Declare a huge record and trickle it: the reassembly backlog
        # bound must cut the connection off, not buffer forever.
        header = bytes([22]) + (2**24).to_bytes(4, "big")
        flights = [header] + [bytes(64 * 1024) for _ in range(40)]
    elif op == "network_fault":
        # Route a pristine replay through the conn.feed fault site so
        # the PR-1 fault plane mangles bytes instead of the fuzzer.
        kind = rng.choice(sorted(
            {"mutate_bytes", "truncate_bytes", "drop_bytes", "replay_bytes"}
        ))
        at = rng.randint(1, max(1, len(scenario.flights)))
        plan = FaultPlan(
            [FaultEvent("conn.feed", kind, at=at)],
            seed=seed_of(rng), scenario="fuzz-network",
        )
        flights = list(scenario.flights) + [scenario.sealed_request]
        with _faults.inject(plan):
            result = _feed_all(sup, cid, flights)
        _record_outcome(report, case, f"{op}:{kind}", result)
        _canary_check(scenario, sup, report, case, rng)
        return
    else:
        flights = _mutate_flights(scenario.flights, op, rng)
        flights.append(scenario.sealed_request)
    result = _feed_all(sup, cid, flights)
    if op == "pristine" and result.served != 1:
        report.failures.append(
            f"case {case}: pristine replay did not serve "
            f"(served={result.served}, violation={result.violation!r})"
        )
    _record_outcome(report, case, op, result)
    _canary_check(scenario, sup, report, case, rng)


def seed_of(rng: random.Random) -> int:
    return rng.randrange(2**31)


def _feed_all(sup: EventLoop, cid: int, flights) -> FeedResult:
    total = FeedResult()
    for chunk in flights:
        result = sup.feed(cid, chunk)
        total.served += result.served
        total.bad_requests += result.bad_requests
        total.output += result.output
        if result.aborted:
            total.aborted = True
            total.violation = result.violation
            break
    return total


def _canary_check(scenario, sup, report, case, rng) -> None:
    """Sampled cross-connection isolation probe on a fresh established copy."""
    if rng.randrange(32) != 0:
        return
    bundle = scenario.established_copy()
    result = bundle["sup"].feed(bundle["cid"], bundle["sealed"])
    if result.served != 1:
        report.failures.append(
            f"case {case}: canary connection failed to serve after "
            f"mutation (violation={result.violation!r})"
        )


def _run_tls_post_case(scenario, op, rng, report, case) -> None:
    bundle = scenario.established_copy()
    sup, cid = bundle["sup"], bundle["cid"]
    sealed = bundle["sealed"]
    if op == "replay_client_hello":
        # A captured ClientHello after keys are live must fail record
        # authentication — never reset the connection's state.
        conn = sup.connection(cid)
        before = conn.ssl.conn.records._recv_seq
        result = sup.feed(cid, scenario.flights[0])
        if not result.aborted:
            report.failures.append(
                f"case {case}: replayed ClientHello was accepted"
            )
            return
        _record_outcome(report, case, op, result)
        if conn.ssl is not None and (
            conn.ssl.conn.records._recv_seq < before
        ):  # pragma: no cover - regression guard
            report.failures.append(
                f"case {case}: replayed ClientHello rewound receive state"
            )
        return
    if op == "replay_sealed_record":
        first = sup.feed(cid, sealed)
        second = sup.feed(cid, sealed)
        if first.served != 1 or not second.aborted:
            report.failures.append(
                f"case {case}: sealed-record replay not rejected "
                f"(first={first.served}, second_aborted={second.aborted})"
            )
            return
        _record_outcome(report, case, op, second)
        return
    if op == "ccs_reinjection":
        result = sup.feed(cid, frame(RECORD_CCS, b"\x01"))
    elif op == "bitflip_sealed":
        mutated = bytearray(sealed)
        index = rng.randrange(_HEADER_LEN, len(mutated))
        mutated[index] ^= 1 << rng.randrange(8)
        result = sup.feed(cid, bytes(mutated))
    elif op == "garbage_type":
        body = bytes(rng.randrange(256) for _ in range(rng.randint(0, 32)))
        record_type = rng.choice([0, 1, 19, 24, 99, 255])
        result = sup.feed(
            cid, bytes([record_type]) + len(body).to_bytes(4, "big") + body
        )
    elif op == "length_lie_sealed":
        mutated = bytearray(sealed)
        mutated[1:5] = rng.randrange(2**27, 2**31).to_bytes(4, "big")
        result = sup.feed(cid, bytes(mutated))
    elif op == "idle_deadline":
        sup.clock.advance(sup.limits.idle_timeout_s + rng.uniform(0.1, 10.0))
        expired = sup.tick()
        if cid not in expired:
            report.failures.append(
                f"case {case}: idle connection outlived its deadline"
            )
            return
        report.outcomes.append(
            FuzzOutcome(case, op, "aborted", "DeadlineViolation")
        )
        return
    elif op == "handshake_deadline":
        fresh_sup, fresh_cid = scenario.fresh_server(clock=SimClock())
        fresh_sup.feed(fresh_cid, scenario.flights[0][: rng.randrange(1, 16)])
        fresh_sup.clock.advance(
            fresh_sup.limits.handshake_timeout_s + rng.uniform(0.1, 10.0)
        )
        expired = fresh_sup.tick()
        if fresh_cid not in expired:
            report.failures.append(
                f"case {case}: half-open handshake outlived its deadline"
            )
            return
        report.outcomes.append(
            FuzzOutcome(case, op, "aborted", "DeadlineViolation")
        )
        return
    else:  # pragma: no cover - op table mismatch
        raise AssertionError(op)
    if not result.aborted:
        report.failures.append(
            f"case {case} op {op}: hostile record accepted "
            f"(served={result.served})"
        )
        return
    _record_outcome(report, case, op, result)
    # Isolation: the replay source (the original bundle) must be able to
    # serve on an independent copy even after this case's abort.
    if rng.randrange(16) == 0:
        probe = scenario.established_copy()
        ok = probe["sup"].feed(probe["cid"], probe["sealed"])
        if ok.served != 1:
            report.failures.append(
                f"case {case} op {op}: abort leaked into fresh connection"
            )


# ---------------------------------------------------------------------------
# HTTP layer
# ---------------------------------------------------------------------------

_HTTP_OPS = (
    "valid",
    "split_request",
    "negative_cl",
    "nonnumeric_cl",
    "huge_cl",
    "smuggle_dual_cl",
    "dup_same_cl",
    "header_bomb_count",
    "header_bomb_line",
    "no_terminator_flood",
    "garbage_bytes",
    "bad_request_line",
    "pipeline_mix",
    "short_body",
    "network_fault",
)

#: Tight bounds so flood cases stay cheap; semantics identical to the
#: production defaults, just smaller numbers.
_FUZZ_HTTP_LIMITS = HttpLimits(
    max_header_count=32,
    max_header_line_bytes=1024,
    max_body_bytes=64 * 1024,
    max_buffered_head_bytes=8 * 1024,
)

#: Ops that break *framing*: the stream can never be re-synchronised,
#: so the connection must be torn down with a typed error.
_HTTP_MUST_ABORT = {
    "negative_cl", "nonnumeric_cl", "huge_cl", "smuggle_dual_cl",
    "no_terminator_flood",
}

#: Ops whose request stays delimitable but violates a parse bound: the
#: supervisor must answer 400 (or abort) — never serve it as normal.
_HTTP_MUST_REJECT = {"header_bomb_count", "header_bomb_line"}


def _http_case_bytes(op: str, rng: random.Random) -> list[bytes]:
    valid = HttpRequest("GET", f"/path/{rng.randrange(1000)}").encode()
    if op in ("valid", "network_fault"):
        return [valid]
    if op == "split_request":
        cut = rng.randrange(1, len(valid))
        return [valid[:cut], valid[cut:]]
    if op == "negative_cl":
        n = -rng.randint(1, 2**31)
        return [f"POST /x HTTP/1.1\r\nContent-Length: {n}\r\n\r\nhello".encode()]
    if op == "nonnumeric_cl":
        bad = rng.choice(["abc", "1e3", "0x10", "", "-", "9" * 40 + "x"])
        return [f"POST /x HTTP/1.1\r\nContent-Length: {bad}\r\n\r\n".encode()]
    if op == "huge_cl":
        n = rng.randint(
            _FUZZ_HTTP_LIMITS.max_body_bytes + 1, 2**40
        )
        return [f"POST /x HTTP/1.1\r\nContent-Length: {n}\r\n\r\n".encode()]
    if op == "smuggle_dual_cl":
        a = rng.randint(0, 100)
        b = a + rng.randint(1, 100)
        body = b"A" * b
        return [
            (f"POST /x HTTP/1.1\r\nContent-Length: {a}\r\n"
             f"Content-Length: {b}\r\n\r\n").encode() + body
        ]
    if op == "dup_same_cl":
        body = b"B" * 8
        return [
            b"POST /x HTTP/1.1\r\nContent-Length: 8\r\n"
            b"Content-Length: 8\r\n\r\n" + body
        ]
    if op == "header_bomb_count":
        count = _FUZZ_HTTP_LIMITS.max_header_count + rng.randint(1, 64)
        headers = "".join(f"X-H{i}: v\r\n" for i in range(count))
        return [f"GET /x HTTP/1.1\r\n{headers}\r\n".encode()]
    if op == "header_bomb_line":
        length = _FUZZ_HTTP_LIMITS.max_header_line_bytes + rng.randint(1, 4096)
        return [f"GET /x HTTP/1.1\r\nX-Bomb: {'a' * length}\r\n\r\n".encode()]
    if op == "no_terminator_flood":
        total = _FUZZ_HTTP_LIMITS.max_buffered_head_bytes + rng.randint(1, 4096)
        chunk = rng.randint(128, 1024)
        data = b"GET /flood HTTP/1.1\r\nX-Flood: " + b"a" * total
        return [data[i : i + chunk] for i in range(0, len(data), chunk)]
    if op == "garbage_bytes":
        return [bytes(rng.randrange(256) for _ in range(rng.randint(1, 512)))]
    if op == "bad_request_line":
        line = rng.choice([
            "GET", "GET /x", "GET  HTTP/1.1", "/x HTTP/1.1 GET extra junk",
        ])
        return [f"{line}\r\nHost: a\r\n\r\n".encode()]
    if op == "pipeline_mix":
        chunks = [valid] * rng.randint(1, 3)
        chunks.append(b"POST /x HTTP/1.1\r\nContent-Length: -7\r\n\r\n")
        return [b"".join(chunks)]
    if op == "short_body":
        return [b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"]
    raise AssertionError(op)  # pragma: no cover - op table mismatch


def fuzz_http_layer(seed: int = 0, cases: int = 2000) -> FuzzReport:
    """Mutate post-decryption HTTP against a plain-mode front end."""
    report = FuzzReport(layer="http", seed=seed, cases=cases)
    limits = ConnectionLimits(http=_FUZZ_HTTP_LIMITS)
    handler = lambda request: HttpResponse(200, body=b"h-ok")  # noqa: E731
    sup = EventLoop(handler, limits=limits)
    canary = sup.open()
    canary_request = HttpRequest("GET", "/canary").encode()
    for case in range(cases):
        rng = _case_rng("http", seed, case)
        op = rng.choice(_HTTP_OPS)
        try:
            chunks = _http_case_bytes(op, rng)
            cid = sup.open()
            if op == "network_fault":
                kind = rng.choice(sorted(
                    {"mutate_bytes", "truncate_bytes",
                     "drop_bytes", "replay_bytes"}
                ))
                plan = FaultPlan(
                    [FaultEvent("conn.feed", kind, at=1)],
                    seed=seed_of(rng), scenario="fuzz-network",
                )
                with _faults.inject(plan):
                    result = _feed_all(sup, cid, chunks)
                op = f"{op}:{kind}"
            else:
                result = _feed_all(sup, cid, chunks)
            base_op = op.split(":")[0]
            if base_op in _HTTP_MUST_ABORT and not result.aborted:
                report.failures.append(
                    f"case {case} op {op}: malformed framing was accepted"
                )
                continue
            if base_op in _HTTP_MUST_REJECT and not (
                result.aborted or result.bad_requests
            ):
                report.failures.append(
                    f"case {case} op {op}: over-bound request was served"
                )
                continue
            if base_op in ("valid", "split_request", "dup_same_cl") and (
                result.served < 1
            ):
                report.failures.append(
                    f"case {case} op {op}: valid request did not serve"
                )
                continue
            _record_outcome(report, case, op, result)
            if not result.aborted:
                sup.close(cid)
            # Isolation: the long-lived canary connection must still
            # serve after every single case.
            probe = sup.feed(canary, canary_request)
            if probe.served != 1:
                report.failures.append(
                    f"case {case} op {op}: canary connection broken "
                    f"(violation={probe.violation!r})"
                )
                canary = sup.open()
        except ALLOWED_ERRORS as exc:
            report.failures.append(
                f"case {case} op {op}: typed error escaped the "
                f"event loop: {exc!r}"
            )
        except Exception as exc:
            report.failures.append(f"case {case} op {op}: UNCAUGHT {exc!r}")
    return report


# ---------------------------------------------------------------------------
# Service layer
# ---------------------------------------------------------------------------


def _service_deployments():
    """name -> (ssm, handler) factories for all four services."""
    from repro.services.dropbox import DropboxHttpService
    from repro.services.git import GitHttpService, GitServer
    from repro.services.messaging import MessagingHttpService
    from repro.services.owncloud import OwnCloudHttpService
    from repro.ssm import DropboxSSM, GitSSM, MessagingSSM, OwnCloudSSM

    def git():
        service = GitHttpService(GitServer())
        service.server.create_repository("proj.git")
        return GitSSM(), service.handle

    def owncloud():
        return OwnCloudSSM(), OwnCloudHttpService().handle

    def dropbox():
        return DropboxSSM(), DropboxHttpService().handle

    def messaging():
        return MessagingSSM(), MessagingHttpService().handle

    return {
        "git": git, "owncloud": owncloud,
        "dropbox": dropbox, "messaging": messaging,
    }


def _scramble_json(template: dict, rng: random.Random) -> bytes:
    """A mutated JSON body derived deterministically from ``rng``."""
    roll = rng.randrange(10)
    if roll == 0:
        return bytes(rng.randrange(256) for _ in range(rng.randint(1, 128)))
    if roll == 1:
        depth = rng.randint(200, 3000)
        return ("[" * depth + "]" * depth).encode()
    if roll == 2:
        return json.dumps(
            rng.choice([[], 7, "str", None, True, [template]])
        ).encode()
    if roll == 3:
        return b'{"truncated": '
    mutated = dict(template)
    if mutated and roll in (4, 5):
        victim = rng.choice(sorted(mutated))
        if roll == 4:
            del mutated[victim]
        else:
            mutated[victim] = rng.choice(
                [None, -1, 2**80, "x" * rng.randint(1, 2048),
                 [], {}, {"k": [1, 2]}, True]
            )
    elif roll == 6:
        mutated[f"extra{rng.randrange(100)}"] = "y" * rng.randint(0, 512)
    elif roll == 7:
        mutated = {str(k).upper(): v for k, v in mutated.items()}
    elif roll == 8:
        mutated = {k: [v] for k, v in mutated.items()}
    return json.dumps(mutated).encode()


def _service_case_request(name: str, rng: random.Random) -> bytes:
    if name == "git":
        roll = rng.randrange(4)
        if roll == 0:
            body = bytes(rng.randrange(256) for _ in range(rng.randint(1, 256)))
        elif roll == 1:
            lines = [
                " ".join("z" * rng.randint(0, 50) for _ in range(rng.randint(0, 5)))
                for _ in range(rng.randint(1, 20))
            ]
            body = "\n".join(lines).encode()
        elif roll == 2:
            cid_a = "%040x" % rng.randrange(2**160)
            cid_b = "%040x" % rng.randrange(2**160)
            body = f"{cid_a} {cid_b} refs/heads/x\n".encode()
        else:
            body = f"{'g' * 40} {'h' * 41} b\n".encode()
        path = rng.choice([
            "/proj.git/git-receive-pack",
            "/proj.git/info/refs?service=git-upload-pack",
            "/%s/git-receive-pack" % ("p" * rng.randint(1, 40)),
        ])
        return HttpRequest("POST", path, body=body).encode()
    if name == "owncloud":
        action = rng.choice(["join", "sync", "leave"])
        templates = {
            "join": {"member": "m"},
            "sync": {"member": "m", "seq": 0,
                     "ops": [{"kind": "insert", "position": 0,
                              "text": "t", "length": 0}]},
            "leave": {"member": "m", "snapshot": "s", "seq": 1},
        }
        body = _scramble_json(templates[action], rng)
        return HttpRequest(
            "POST", f"/documents/doc{rng.randrange(4)}/{action}", body=body
        ).encode()
    if name == "dropbox":
        roll = rng.randrange(3)
        if roll == 0:
            body = _scramble_json(
                {"account": "a", "host": "h", "commits": [
                    {"file": "f", "blocklist": ["0" * 64], "size": 1},
                ]}, rng,
            )
            return HttpRequest("POST", "/commit_batch", body=body).encode()
        if roll == 1:
            body = _scramble_json(
                {"hash": "0" * 64, "data_hex": "zz" * rng.randint(0, 40)}, rng
            )
            return HttpRequest("POST", "/store_block", body=body).encode()
        request = HttpRequest("GET", "/list")
        if rng.randrange(2):
            request.headers.set("X-Account", "a" * rng.randint(1, 64))
        return request.encode()
    if name == "messaging":
        action = rng.choice(["join", "post", "fetch"])
        if action == "fetch":
            query = rng.choice([
                "member=m&since=0", "member=&since=-9", "since=abc",
                "member=m&since=99999999999999999999", "",
            ])
            return HttpRequest(
                "GET", f"/channels/c/fetch?{query}"
            ).encode()
        templates = {
            "join": {"member": "m"},
            "post": {"sender": "m", "text": "hello"},
        }
        body = _scramble_json(templates[action], rng)
        return HttpRequest("POST", f"/channels/c/{action}", body=body).encode()
    raise AssertionError(name)  # pragma: no cover


def fuzz_service_layer(
    seed: int = 0,
    cases: int = 400,
    services: list[str] | None = None,
) -> FuzzReport:
    """Hostile service payloads through the full LibSEAL deployment.

    Valid HTTP envelopes, mutated service bodies, real enclave TLS, the
    audit taps live — and the audit log must verify as a consistent
    prefix at the end.
    """
    from repro.core import LibSeal, LibSealConfig
    from repro.enclave_tls import EnclaveTlsRuntime

    report = FuzzReport(layer="service", seed=seed, cases=cases)
    deployments = _service_deployments()
    names = services or sorted(deployments)
    share = cases // len(names)
    case = 0
    for name in names:
        ssm, handler = deployments[name]()
        runtime = EnclaveTlsRuntime()
        api = runtime.api
        ca = CertificateAuthority("svc-root", seed=b"svc-ca")
        key, cert = make_server_identity(ca, f"{name}.example", seed=b"svc-id")
        ctx = api.SSL_CTX_new(api.TLS_server_method())
        api.SSL_CTX_use_certificate(ctx, cert)
        api.SSL_CTX_use_PrivateKey(ctx, key)
        libseal = LibSeal(ssm, config=LibSealConfig(flush_each_pair=False))
        libseal.attach(runtime)
        sup = EventLoop(
            handler, api=api, ssl_ctx=ctx,
            on_close=libseal.logger.close_connection,
        )

        def connect():
            cid = sup.open()
            cctx = native_api.SSL_CTX_new(native_api.TLS_client_method())
            native_api.SSL_CTX_load_verify_locations(cctx, ca)
            cctx.drbg_seed = b"svc-client"
            cssl = native_api.SSL_new(cctx)
            rb, wb = BIO("svc-crb"), BIO("svc-cwb")
            native_api.SSL_set_bio(cssl, rb, wb)
            for _ in range(10):
                native_api.SSL_connect(cssl)
                out = wb.read()
                if out:
                    result = sup.feed(cid, out)
                    rb.write(result.output)
                if native_api.SSL_is_init_finished(cssl) and (
                    sup.connection(cid).established
                ):
                    return cid, cssl, rb, wb
            raise TLSError("service fuzz handshake failed")

        cid, cssl, rb, wb = connect()
        reconnects = 0
        for _ in range(share):
            rng = _case_rng("service", seed, case)
            try:
                request_bytes = _service_case_request(name, rng)
                native_api.SSL_write(cssl, request_bytes)
                result = sup.feed(cid, wb.read())
                if result.aborted:
                    _record_outcome(report, case, f"{name}:payload", result)
                    cid, cssl, rb, wb = connect()
                    reconnects += 1
                elif result.served or result.bad_requests:
                    rb.write(result.output)
                    native_api.SSL_read(cssl)  # client consumes the reply
                    report.outcomes.append(
                        FuzzOutcome(case, f"{name}:payload", "served")
                    )
                else:
                    report.failures.append(
                        f"case {case} [{name}]: request vanished "
                        "(no response, no abort)"
                    )
            except ALLOWED_ERRORS as exc:
                report.failures.append(
                    f"case {case} [{name}]: typed error escaped the "
                    f"event loop: {exc!r}"
                )
                cid, cssl, rb, wb = connect()
                reconnects += 1
            except Exception as exc:
                report.failures.append(
                    f"case {case} [{name}]: UNCAUGHT {exc!r}"
                )
                cid, cssl, rb, wb = connect()
                reconnects += 1
            case += 1
        # The audit log must still verify as a consistent prefix.
        try:
            libseal.audit_log.seal_epoch()
            libseal.verify_log()
        except Exception as exc:
            report.failures.append(
                f"[{name}] audit log failed verification after fuzz: {exc!r}"
            )
        report.notes.append(
            f"{name}: pairs_logged={libseal.pairs_logged} "
            f"unparsable={libseal.logger.unparsable_messages} "
            f"reconnects={reconnects}"
        )
    report.cases = case
    return report


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run_fuzz(
    seed: int = 0,
    cases_per_layer: int = 300,
    layers: list[str] | None = None,
) -> list[FuzzReport]:
    """Run every requested layer; returns one report per layer."""
    runners = {
        "tls": fuzz_tls_layer,
        "http": fuzz_http_layer,
        "service": fuzz_service_layer,
    }
    selected = layers or sorted(runners)
    return [runners[name](seed=seed, cases=cases_per_layer) for name in selected]
