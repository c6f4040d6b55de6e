"""Async front-end core: the front-end contract through the event loop,
plus its scheduler semantics.

``TestFrontendParity`` runs the supervisor scenarios (typed teardown,
TLS alerts, deadlines, request budgets, audit-handle release) through
the ``make_frontend`` factory, which builds the one front-end pump.
"""

import copy
import dataclasses

import pytest

from repro.asynccalls import AsyncCallRuntime
from repro.errors import HTTPError, TLSError
from repro.http import HttpRequest, HttpResponse
from repro.http.parser import parse_response
from repro.lthreads import TaskState
from repro.servers import (
    AUDIT_FLUSH_OCALL,
    EventLoop,
    EventLoopStats,
    ReadWait,
    ServerMachine,
)
from repro.servers.connection import (
    BufferBoundViolation,
    ConnectionAborted,
    ConnectionLimits,
    SimClock,
)
from repro.tls import api as native_api
from repro.tls.bio import BIO
from repro.tls.cert import CertificateAuthority, make_server_identity
from repro.workloads.traffic import (
    DiurnalOpenLoopTraffic,
    DiurnalProfile,
    ZipfPopulation,
)


def _echo_handler(request: HttpRequest) -> HttpResponse:
    return HttpResponse(200, body=b"echo:" + request.path.encode())


def _request(path: str = "/a", headers: str = "") -> bytes:
    return f"GET {path} HTTP/1.1\r\n{headers}\r\n".encode()


def _server_ctx(api, name: str, seed: str):
    ca = CertificateAuthority(f"{name}-root", seed=f"{seed}-ca".encode())
    key, cert = make_server_identity(ca, f"{name}.example",
                                     seed=f"{seed}-id".encode())
    ctx = api.SSL_CTX_new(api.TLS_server_method())
    api.SSL_CTX_use_certificate(ctx, cert)
    api.SSL_CTX_use_PrivateKey(ctx, key)
    return ca, ctx


def _tls_connect(ca, frontend):
    """Handshake a simulated client against the front end."""
    cid = frontend.open()
    cctx = native_api.SSL_CTX_new(native_api.TLS_client_method())
    native_api.SSL_CTX_load_verify_locations(cctx, ca)
    cssl = native_api.SSL_new(cctx)
    rb, wb = BIO("el-c-rb"), BIO("el-c-wb")
    native_api.SSL_set_bio(cssl, rb, wb)
    for _ in range(10):
        native_api.SSL_connect(cssl)
        out = wb.read()
        if out:
            rb.write(frontend.feed(cid, out).output)
        if native_api.SSL_is_init_finished(cssl):
            break
    assert native_api.SSL_is_init_finished(cssl)
    return cid, cssl, rb, wb


@pytest.fixture(params=["eventloop"])
def make_frontend():
    """Factory building the front end (one path: the event loop)."""
    return EventLoop


class TestFrontendParity:
    """The supervisor scenarios, byte-for-byte, through the event loop."""

    def test_serves_wellformed_request(self, make_frontend):
        fe = make_frontend(_echo_handler)
        cid = fe.open()
        result = fe.feed(cid, _request("/hello"))
        assert result.served == 1 and not result.aborted
        assert parse_response(result.output).body == b"echo:/hello"
        assert fe.stats.requests_served == 1

    def test_delimitable_bad_request_gets_400_and_lives(self, make_frontend):
        fe = make_frontend(_echo_handler)
        cid = fe.open()
        result = fe.feed(cid, b"bogus request line\r\n\r\n")
        assert not result.aborted and result.bad_requests == 1
        assert parse_response(result.output).status == 400
        assert fe.feed(cid, _request()).served == 1

    def test_framing_violation_aborts_connection(self, make_frontend):
        fe = make_frontend(_echo_handler)
        cid = fe.open()
        result = fe.feed(cid, _request(headers="Content-Length: -1\r\n"))
        assert result.aborted
        assert isinstance(result.violation, HTTPError)
        assert cid not in fe.live_connections
        assert fe.stats.aborted == 1

    def test_abort_is_isolated_from_neighbours(self, make_frontend):
        fe = make_frontend(_echo_handler)
        good, bad = fe.open(), fe.open()
        fe.feed(good, _request("/one"))
        assert fe.feed(bad, b"X" * (1 << 17)).aborted
        result = fe.feed(good, _request("/two"))
        assert result.served == 1 and not result.aborted
        assert fe.live_connections == [good]

    def test_feed_after_abort_reports_closed(self, make_frontend):
        fe = make_frontend(_echo_handler)
        cid = fe.open()
        fe.feed(cid, _request(headers="Content-Length: -1\r\n"))
        assert cid not in fe.connections
        with pytest.raises(ConnectionAborted):
            fe.feed(cid, _request())

    def test_pipelining_depth_bound(self, make_frontend):
        limits = ConnectionLimits(max_pipelined_per_feed=2)
        fe = make_frontend(_echo_handler, limits=limits)
        cid = fe.open()
        result = fe.feed(cid, _request("/1") + _request("/2") + _request("/3"))
        assert result.aborted
        assert isinstance(result.violation, BufferBoundViolation)

    def test_lifetime_request_budget(self, make_frontend):
        limits = ConnectionLimits(max_requests_per_connection=2)
        fe = make_frontend(_echo_handler, limits=limits)
        cid = fe.open()
        assert fe.feed(cid, _request("/1")).served == 1
        assert fe.feed(cid, _request("/2")).served == 1
        result = fe.feed(cid, _request("/3"))
        assert result.aborted
        assert isinstance(result.violation, BufferBoundViolation)

    def test_idle_timeout_enforced_by_tick(self, make_frontend):
        clock = SimClock()
        limits = ConnectionLimits(idle_timeout_s=10.0)
        fe = make_frontend(_echo_handler, limits=limits, clock=clock)
        busy, idle = fe.open(), fe.open()
        clock.advance(8.0)
        fe.feed(busy, _request())
        clock.advance(4.0)
        assert fe.tick() == [idle]
        assert fe.live_connections == [busy]
        assert "idle" in fe.stats.violations[-1][1]

    def test_handshake_deadline_enforced_by_tick(self, make_frontend):
        _, ctx = _server_ctx(native_api, "elp", "elp")
        clock = SimClock()
        limits = ConnectionLimits(handshake_timeout_s=5.0)
        fe = make_frontend(_echo_handler, api=native_api, ssl_ctx=ctx,
                           limits=limits, clock=clock)
        cid = fe.open()  # never completes its handshake
        clock.advance(6.0)
        assert fe.tick() == [cid]
        assert "handshake" in fe.stats.violations[-1][1]

    def test_end_to_end_request_over_tls(self, make_frontend):
        ca, ctx = _server_ctx(native_api, "eltls", "eltls")
        fe = make_frontend(_echo_handler, api=native_api, ssl_ctx=ctx)
        cid, cssl, rb, wb = _tls_connect(ca, fe)
        native_api.SSL_write(cssl, _request("/tls"))
        result = fe.feed(cid, wb.read())
        assert result.served == 1
        rb.write(result.output)
        assert parse_response(native_api.SSL_read(cssl)).body == b"echo:/tls"

    def test_garbage_bytes_abort_with_typed_error_and_alert(
        self, make_frontend
    ):
        ca, ctx = _server_ctx(native_api, "elg", "elg")
        fe = make_frontend(_echo_handler, api=native_api, ssl_ctx=ctx)
        cid, _, _, _ = _tls_connect(ca, fe)
        result = fe.feed(cid, b"\xde\xad\xbe\xef" * 16)
        assert result.aborted
        assert isinstance(result.violation, TLSError)
        # Best-effort fatal alert drained before teardown.
        assert result.output != b""
        assert cid not in fe.live_connections

    def test_tls_abort_leaves_neighbour_serving(self, make_frontend):
        ca, ctx = _server_ctx(native_api, "eln", "eln")
        fe = make_frontend(_echo_handler, api=native_api, ssl_ctx=ctx)
        bad_cid, _, _, _ = _tls_connect(ca, fe)
        good_cid, good_ssl, good_rb, good_wb = _tls_connect(ca, fe)
        assert fe.feed(bad_cid, b"\x00" * 64).aborted
        native_api.SSL_write(good_ssl, _request("/still-up"))
        result = fe.feed(good_cid, good_wb.read())
        assert result.served == 1 and not result.aborted

    def test_teardown_releases_state_by_ssl_handle(self, make_frontend):
        """``on_close`` receives the SSL handle captured before
        ``SSL_free``, in teardown order."""
        from repro.enclave_tls import EnclaveTlsRuntime

        runtime = EnclaveTlsRuntime()
        api = runtime.api
        ca, ctx = _server_ctx(api, "elh", "elh")
        closed: list[int] = []
        fe = make_frontend(_echo_handler, api=api, ssl_ctx=ctx,
                           on_close=closed.append)
        abort_cid = _tls_connect(ca, fe)[0]
        close_cid = _tls_connect(ca, fe)[0]
        abort_handle = fe.connection(abort_cid).audit_handle
        close_handle = fe.connection(close_cid).audit_handle
        assert fe.feed(abort_cid, b"\x00" * 64).aborted
        fe.close(close_cid)
        assert closed == [abort_handle, close_handle]


class TestEventLoopScheduling:
    """Semantics only the lthreads path has: parking, slices, reaping."""

    def test_driver_parks_on_read_until_bytes_arrive(self):
        loop = EventLoop(_echo_handler)
        cid = loop.open()
        loop.pump()  # first slice parks the driver on ReadWait
        task = loop._tasks[cid]
        assert task.state is TaskState.WAITING
        assert isinstance(task.pending_yield, ReadWait)
        assert loop.loop_stats.parked_waits >= 1

    def test_request_spans_multiple_slices(self):
        """TLS/ingress and HTTP dispatch are separate scheduler turns —
        the FIFO fairness boundary the refactor exists for."""
        loop = EventLoop(_echo_handler)
        cid = loop.open()
        loop.pump()
        before = loop.loop_stats.slices
        result = loop.feed(cid, _request("/multi"))
        assert result.served == 1
        # ingress slice + dispatch slice at minimum.
        assert loop.loop_stats.slices - before >= 2

    def test_open_loop_deliver_defers_work_until_step(self):
        loop = EventLoop(_echo_handler)
        cid = loop.open()
        loop.pump()
        loop.deliver(cid, _request("/later"))
        assert loop.stats.requests_served == 0  # nothing ran yet
        while loop.step():
            pass
        assert loop.stats.requests_served == 1

    def test_close_reaps_parked_task(self):
        loop = EventLoop(_echo_handler)
        cid = loop.open()
        loop.pump()  # park the driver
        busy_before = loop.scheduler.busy_count()
        loop.close(cid)
        assert loop.scheduler.cancellations == 1
        assert loop.loop_stats.reaped_tasks == 1
        assert loop.scheduler.busy_count() == busy_before - 1
        loop.close(cid)  # reaping is once per connection
        assert loop.scheduler.cancellations == 1
        assert loop.loop_stats.reaped_tasks == 1

    def test_tick_reaps_expired_connection_tasks(self):
        clock = SimClock()
        limits = ConnectionLimits(idle_timeout_s=5.0)
        loop = EventLoop(_echo_handler, limits=limits, clock=clock)
        cids = [loop.open() for _ in range(3)]
        loop.pump()
        clock.advance(10.0)
        assert sorted(loop.tick()) == sorted(cids)
        assert loop.loop_stats.reaped_tasks == 3
        assert loop.scheduler.waiting_count() == 0

    def test_abort_mid_dispatch_reaps_via_driver_exit(self):
        loop = EventLoop(_echo_handler)
        cid = loop.open()
        result = loop.feed(cid, _request(headers="Content-Length: -1\r\n"))
        assert result.aborted
        # The driver exited by itself; no task or inbox left behind.
        assert cid not in loop._tasks and cid not in loop._inboxes

    def test_audit_append_crosses_slot_runtime(self):
        runtime = AsyncCallRuntime(num_app_threads=1, num_sgx_threads=1,
                                   tasks_per_thread=4)
        loop = EventLoop(_echo_handler, async_runtime=runtime)
        cid = loop.open()
        assert loop.feed(cid, _request("/audited")).served == 1
        assert loop.loop_stats.audit_ocalls == 1
        assert runtime.stats.per_ocall[AUDIT_FLUSH_OCALL] == 1
        assert sum(runtime.stats.per_task_ocalls.values()) == 1

    def test_audit_flush_callback_fires_per_flush_ocall(self):
        # The group-sealing integration point: each completed audit-flush
        # ocall invokes the callback (wired to LibSeal.flush_pending in
        # production) so deferral windows close on request boundaries.
        runtime = AsyncCallRuntime(num_app_threads=1, num_sgx_threads=1,
                                   tasks_per_thread=4)
        flushes = []
        loop = EventLoop(_echo_handler, async_runtime=runtime,
                         audit_flush=lambda: flushes.append(1))
        cid = loop.open()
        assert loop.feed(cid, _request("/a")).served == 1
        assert loop.feed(cid, _request("/b")).served == 1
        assert len(flushes) == runtime.stats.per_ocall[AUDIT_FLUSH_OCALL] == 2

    def test_audit_flush_callback_without_runtime_is_inert(self):
        flushes = []
        loop = EventLoop(_echo_handler, audit_flush=lambda: flushes.append(1))
        cid = loop.open()
        assert loop.feed(cid, _request("/a")).served == 1
        assert flushes == []  # no async runtime -> no flush ocalls

    def test_deepcopy_serves_established_tls_connection(self):
        """A deep copy of a loop holding an established native-TLS
        connection re-spawns its driver and serves the sealed request;
        the original loop's connections and stats do not move."""
        ca, ctx = _server_ctx(native_api, "elcopy", "elcopy")
        loop = EventLoop(_echo_handler, api=native_api, ssl_ctx=ctx)
        cid, cssl, _, wb = _tls_connect(ca, loop)
        native_api.SSL_write(cssl, _request("/copied"))
        sealed = wb.read()
        stats_before = dataclasses.asdict(loop.stats)
        loop_stats_before = dataclasses.asdict(loop.loop_stats)
        conn = loop.connection(cid)

        clone = copy.deepcopy(loop, {id(native_api): native_api})
        assert cid in clone._tasks and clone.connection(cid) is not conn
        assert clone.loop_stats == EventLoopStats()
        result = clone.feed(cid, sealed)
        assert result.served == 1
        assert clone.stats.requests_served == 1
        assert clone.loop_stats.feeds == 1

        assert dataclasses.asdict(loop.stats) == stats_before
        assert dataclasses.asdict(loop.loop_stats) == loop_stats_before
        assert loop.connections == {cid: conn}
        assert conn.requests_served == 0
        # The original's TLS state did not advance with the copy's: the
        # same sealed record is still the next one it expects.
        assert loop.feed(cid, sealed).served == 1

    def test_peak_concurrent_tracks_highwater(self):
        loop = EventLoop(_echo_handler)
        cids = [loop.open() for _ in range(50)]
        for cid in cids:
            assert loop.feed(cid, _request(f"/{cid}")).served == 1
        for cid in cids[:30]:
            loop.close(cid)
        assert loop.loop_stats.peak_concurrent == 50
        assert len(loop.live_connections) == 20

    def test_worker_occupancy_saturates_at_one(self):
        loop = EventLoop(_echo_handler, num_workers=2)
        assert loop.worker_occupancy() == 0.0
        cids = [loop.open() for _ in range(8)]  # 8 READY drivers, 2 slots
        assert loop.worker_occupancy() == 1.0
        loop.pump()
        for cid in cids:
            loop.close(cid)
        assert loop.worker_occupancy() == 0.0


class TestFrontendRun:
    """ServerMachine.run_frontend at tier-1 scale."""

    def test_overload_window_backs_up_ready_queue(self):
        machine = ServerMachine()
        result = machine.run_frontend(2_000, window_s=0.02)
        assert result.completed == 2_000
        assert result.aborted == 0
        # Offered 100k rps against ~12k rps capacity: almost everything
        # is live at once and waits in the ready queue.
        assert result.peak_concurrent > 1_000
        assert result.peak_ready_depth > 0
        assert result.task_wait_events > 0
        assert result.audit_ocalls == 2_000
        assert result.p95_latency_s > result.p50_latency_s >= 0.0
        assert result.makespan_s > 0.0

    def test_run_is_deterministic(self):
        a = ServerMachine().run_frontend(500, window_s=0.05)
        b = ServerMachine().run_frontend(500, window_s=0.05)
        assert a == b

    def test_open_loop_traffic_arrivals_drive_the_run(self):
        traffic = DiurnalOpenLoopTraffic(
            ZipfPopulation(100_000, exponent=1.1, seed=3),
            DiurnalProfile(base_rate_rps=10_000.0),
            seed=42,
        )
        machine = ServerMachine()
        result = machine.run_frontend(
            600, window_s=0.06, arrivals=traffic.arrivals(limit=600)
        )
        assert result.completed == 600
        assert result.connections == 600
