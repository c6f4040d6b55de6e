"""Connection lifecycle: isolation, deadlines, bounded teardown.

One hostile connection may at worst abort itself; its neighbours and the
audit log's consistent prefix must be untouched. Every scenario runs
through the one front-end object, :class:`~repro.servers.EventLoop`,
which owns the live connections and pumps them.
"""

import pytest

from repro.errors import HTTPError, TLSError
from repro.http import HttpRequest, HttpResponse
from repro.http.parser import parse_response
from repro.servers import EventLoop
from repro.servers.connection import (
    BufferBoundViolation,
    ConnectionAborted,
    ConnectionLimits,
    DeadlineViolation,
    SimClock,
)
from repro.tls import api as native_api
from repro.tls.bio import BIO
from repro.tls.cert import CertificateAuthority, make_server_identity


def _echo_handler(request: HttpRequest) -> HttpResponse:
    return HttpResponse(200, body=b"echo:" + request.path.encode())


def _request(path: str = "/a", headers: str = "") -> bytes:
    return f"GET {path} HTTP/1.1\r\n{headers}\r\n".encode()


class TestPlainSupervisor:
    def test_serves_wellformed_request(self):
        sup = EventLoop(_echo_handler)
        cid = sup.open()
        result = sup.feed(cid, _request("/hello"))
        assert result.served == 1 and not result.aborted
        assert parse_response(result.output).body == b"echo:/hello"
        assert sup.stats.requests_served == 1

    def test_delimitable_bad_request_gets_400_and_lives(self):
        """A parse failure on a message we *could* delimit is the
        client's problem, not a framing hazard: answer 400, keep going."""
        sup = EventLoop(_echo_handler)
        cid = sup.open()
        result = sup.feed(cid, b"bogus request line\r\n\r\n")
        assert not result.aborted and result.bad_requests == 1
        assert parse_response(result.output).status == 400
        # Connection still serves.
        assert sup.feed(cid, _request()).served == 1

    def test_framing_violation_aborts_connection(self):
        sup = EventLoop(_echo_handler)
        cid = sup.open()
        result = sup.feed(cid, _request(headers="Content-Length: -1\r\n"))
        assert result.aborted
        assert isinstance(result.violation, HTTPError)
        assert cid not in sup.live_connections
        assert sup.stats.aborted == 1

    def test_abort_is_isolated_from_neighbours(self):
        sup = EventLoop(_echo_handler)
        good, bad = sup.open(), sup.open()
        sup.feed(good, _request("/one"))
        assert sup.feed(bad, b"X" * (1 << 17)).aborted  # head-buffer bound
        result = sup.feed(good, _request("/two"))
        assert result.served == 1 and not result.aborted
        assert sup.live_connections == [good]

    def test_feed_after_abort_reports_closed(self):
        sup = EventLoop(_echo_handler)
        cid = sup.open()
        sup.feed(cid, _request(headers="Content-Length: -1\r\n"))
        follow_up = sup.connection(cid) if cid in sup.connections else None
        assert follow_up is None
        with pytest.raises(ConnectionAborted):
            sup.feed(cid, _request())

    def test_pipelining_depth_bound(self):
        limits = ConnectionLimits(max_pipelined_per_feed=2)
        sup = EventLoop(_echo_handler, limits=limits)
        cid = sup.open()
        result = sup.feed(cid, _request("/1") + _request("/2") + _request("/3"))
        assert result.aborted
        assert isinstance(result.violation, BufferBoundViolation)

    def test_lifetime_request_budget(self):
        limits = ConnectionLimits(max_requests_per_connection=2)
        sup = EventLoop(_echo_handler, limits=limits)
        cid = sup.open()
        assert sup.feed(cid, _request("/1")).served == 1
        assert sup.feed(cid, _request("/2")).served == 1
        result = sup.feed(cid, _request("/3"))
        assert result.aborted
        assert isinstance(result.violation, BufferBoundViolation)


class TestDeadlines:
    def test_idle_timeout_enforced_by_tick(self):
        clock = SimClock()
        limits = ConnectionLimits(idle_timeout_s=10.0)
        sup = EventLoop(_echo_handler, limits=limits, clock=clock)
        busy, idle = sup.open(), sup.open()
        clock.advance(8.0)
        sup.feed(busy, _request())
        clock.advance(4.0)  # idle is now 12s stale, busy only 4s
        assert sup.tick() == [idle]
        assert sup.live_connections == [busy]
        conn_record = sup.stats.violations[-1]
        assert "idle" in conn_record[1]

    def test_handshake_deadline_enforced_by_tick(self):
        ca = CertificateAuthority("sup-root", seed=b"sup-ca")
        key, cert = make_server_identity(ca, "sup.example", seed=b"sup-id")
        ctx = native_api.SSL_CTX_new(native_api.TLS_server_method())
        native_api.SSL_CTX_use_certificate(ctx, cert)
        native_api.SSL_CTX_use_PrivateKey(ctx, key)
        clock = SimClock()
        limits = ConnectionLimits(handshake_timeout_s=5.0)
        sup = EventLoop(
            _echo_handler, api=native_api, ssl_ctx=ctx,
            limits=limits, clock=clock,
        )
        cid = sup.open()  # never completes its handshake
        clock.advance(6.0)
        assert sup.tick() == [cid]
        record = sup.stats.violations[-1]
        assert "handshake" in record[1]


class TestTlsSupervisor:
    @pytest.fixture
    def tls_setup(self):
        ca = CertificateAuthority("sup-tls-root", seed=b"sup-tls-ca")
        key, cert = make_server_identity(ca, "tls.example", seed=b"sup-tls-id")
        ctx = native_api.SSL_CTX_new(native_api.TLS_server_method())
        native_api.SSL_CTX_use_certificate(ctx, cert)
        native_api.SSL_CTX_use_PrivateKey(ctx, key)
        sup = EventLoop(_echo_handler, api=native_api, ssl_ctx=ctx)
        return ca, sup

    def _connect(self, ca, sup):
        cid = sup.open()
        cctx = native_api.SSL_CTX_new(native_api.TLS_client_method())
        native_api.SSL_CTX_load_verify_locations(cctx, ca)
        cssl = native_api.SSL_new(cctx)
        rb, wb = BIO("sup-c-rb"), BIO("sup-c-wb")
        native_api.SSL_set_bio(cssl, rb, wb)
        for _ in range(10):
            native_api.SSL_connect(cssl)
            out = wb.read()
            if out:
                rb.write(sup.feed(cid, out).output)
            if native_api.SSL_is_init_finished(cssl):
                break
        assert native_api.SSL_is_init_finished(cssl)
        return cid, cssl, rb, wb

    def test_end_to_end_request_over_tls(self, tls_setup):
        ca, sup = tls_setup
        cid, cssl, rb, wb = self._connect(ca, sup)
        native_api.SSL_write(cssl, _request("/tls"))
        result = sup.feed(cid, wb.read())
        assert result.served == 1
        rb.write(result.output)
        assert parse_response(native_api.SSL_read(cssl)).body == b"echo:/tls"

    def test_garbage_bytes_abort_with_typed_error_and_alert(self, tls_setup):
        ca, sup = tls_setup
        cid, _, _, _ = self._connect(ca, sup)
        result = sup.feed(cid, b"\xde\xad\xbe\xef" * 16)
        assert result.aborted
        assert isinstance(result.violation, TLSError)
        # The peer was alerted before teardown (best effort): the drained
        # output ends with the fatal alert record.
        assert result.output != b""
        assert cid not in sup.live_connections

    def test_tls_abort_leaves_neighbour_serving(self, tls_setup):
        ca, sup = tls_setup
        bad_cid, _, _, _ = self._connect(ca, sup)
        good_cid, good_ssl, good_rb, good_wb = self._connect(ca, sup)
        assert sup.feed(bad_cid, b"\x00" * 64).aborted
        native_api.SSL_write(good_ssl, _request("/still-up"))
        result = sup.feed(good_cid, good_wb.read())
        assert result.served == 1 and not result.aborted


class TestAuditHandleRelease:
    def test_teardown_releases_state_by_ssl_handle(self):
        """``on_close`` must receive the SSL handle — the key the audit
        logger files pairing state under — captured *before* ``SSL_free``
        tears the handle away. The regression this guards fell back to the
        overlapping conn_id, leaking the aborted connection's state and
        silently dropping a different live connection's."""
        from repro.enclave_tls import EnclaveTlsRuntime

        runtime = EnclaveTlsRuntime()
        api = runtime.api
        ca = CertificateAuthority("sup-h-root", seed=b"sup-h-ca")
        key, cert = make_server_identity(ca, "h.example", seed=b"sup-h-id")
        ctx = api.SSL_CTX_new(api.TLS_server_method())
        api.SSL_CTX_use_certificate(ctx, cert)
        api.SSL_CTX_use_PrivateKey(ctx, key)
        closed: list[int] = []
        sup = EventLoop(
            _echo_handler, api=api, ssl_ctx=ctx, on_close=closed.append
        )

        def connect():
            cid = sup.open()
            cctx = native_api.SSL_CTX_new(native_api.TLS_client_method())
            native_api.SSL_CTX_load_verify_locations(cctx, ca)
            cssl = native_api.SSL_new(cctx)
            rb, wb = BIO("sup-h-rb"), BIO("sup-h-wb")
            native_api.SSL_set_bio(cssl, rb, wb)
            for _ in range(10):
                native_api.SSL_connect(cssl)
                out = wb.read()
                if out:
                    rb.write(sup.feed(cid, out).output)
                if native_api.SSL_is_init_finished(cssl):
                    break
            assert sup.connection(cid).established
            return cid

        abort_cid, close_cid = connect(), connect()
        abort_handle = sup.connection(abort_cid).audit_handle
        close_handle = sup.connection(close_cid).audit_handle
        # Enclave SSL handles come from their own counter, so they overlap
        # conn ids without equalling them — the bug's dangerous regime.
        assert {abort_handle, close_handle} != {abort_cid, close_cid}
        assert sup.feed(abort_cid, b"\x00" * 64).aborted
        sup.close(close_cid)
        assert closed == [abort_handle, close_handle]


class TestSimClock:
    def test_rejects_negative_advance(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.advance(-1.0)

    def test_deadline_violation_type(self):
        assert issubclass(DeadlineViolation, Exception)
