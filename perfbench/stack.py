"""The system under test and its one closed-loop client.

:class:`ServerStack` is the deployed LibSEAL front end: a
``servers.EventLoop`` whose connections terminate TLS inside an
``EnclaveTlsRuntime`` with an attached ``LibSeal``. A request travels
enclave TLS -> HTTP parse -> service handler -> audit tap -> SSM -> audit
append/seal -> checker, exactly as in a deployment.

:class:`TlsClient` is the load generator: one native-TLS client that keeps
at most one connection open and waits for every reply (a closed loop with
one client). It times each pair from the first byte it writes (including
the connect, when the pair opens a connection) to the last byte of the
parsed response, and again from writing the request on (the time to a
verdict, for a checked request), and checks that the response it read is the one the
service handler returned.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core import LibSeal, LibSealConfig
from repro.enclave_tls import EnclaveTlsRuntime
from repro.http import (
    LIBSEAL_CHECK_HEADER,
    LIBSEAL_RESULT_HEADER,
    HttpRequest,
    HttpResponse,
    parse_response,
)
from repro.http.parser import extract_message
from repro.servers import EventLoop
from repro.tls import api as native_api
from repro.tls.bio import BIO
from repro.tls.cert import CertificateAuthority, make_server_identity

#: Handshake flights never take more than a few round trips.
_HANDSHAKE_ROUNDS = 10


class BenchFailure(Exception):
    """An operation of the benchmark failed; the run is an error."""


class ServerStack:
    """EventLoop + enclave TLS + LibSeal, around one service handler."""

    def __init__(self, ssm, config: LibSealConfig, handler):
        self.libseal = LibSeal(ssm, config=config)
        self.runtime = EnclaveTlsRuntime()
        self.libseal.attach(self.runtime)
        api = self.runtime.api
        ca = CertificateAuthority("bench-root", seed=b"bench-ca")
        key, cert = make_server_identity(ca, "bench.example", seed=b"bench-id")
        ctx = api.SSL_CTX_new(api.TLS_server_method())
        api.SSL_CTX_use_certificate(ctx, cert)
        api.SSL_CTX_use_PrivateKey(ctx, key)
        self.loop = EventLoop(
            handler,
            api=api,
            ssl_ctx=ctx,
            on_close=self.libseal.logger.close_connection,
        )


@dataclass
class PairRecord:
    """One request/response pair as the client saw it."""

    seconds: float
    #: From writing the request on, without the connect.
    request_seconds: float
    verdict: str | None


class TlsClient:
    """One closed-loop client over native TLS into the event loop.

    ``served`` is the list the service handler appends every response it
    returns to; the client compares what it read against it.
    """

    def __init__(self, stack: ServerStack, served: list, seed: int):
        self.loop = stack.loop
        self.served = served
        # Like wrk or ab, the load generator does not verify the server's
        # certificate chain (it still checks the key-exchange signature
        # against the certificate): generator time dilutes server time.
        self.ctx = native_api.SSL_CTX_new(native_api.TLS_client_method())
        self.ctx.drbg_seed = b"bench-client-%d" % seed
        self.pairs: list[PairRecord] = []
        self._conn: tuple[int, object, BIO, BIO] | None = None

    # -- connections ----------------------------------------------------

    def _connect(self) -> None:
        conn_id = self.loop.open()
        ssl = native_api.SSL_new(self.ctx)
        from_server, to_server = BIO("bench-c-rb"), BIO("bench-c-wb")
        native_api.SSL_set_bio(ssl, from_server, to_server)
        for _ in range(_HANDSHAKE_ROUNDS):
            native_api.SSL_connect(ssl)
            out = to_server.read()
            if out:
                result = self.loop.feed(conn_id, out)
                if result.aborted:
                    raise BenchFailure(f"handshake aborted: {result.violation!r}")
                from_server.write(result.output)
            if native_api.SSL_is_init_finished(ssl):
                break
        else:
            raise BenchFailure("handshake did not complete")
        self._conn = (conn_id, ssl, from_server, to_server)

    def close(self) -> None:
        if self._conn is not None:
            self.loop.close(self._conn[0])
            self._conn = None

    # -- one pair ---------------------------------------------------------

    def exchange(self, request: HttpRequest, new_connection: bool) -> HttpResponse:
        """Send ``request`` and return the response read back.

        Opens a fresh connection first when ``new_connection`` is set (or
        none is open). Raises :class:`BenchFailure` on any failure.
        """
        checked = request.wants_invariant_check
        started = time.perf_counter()
        if new_connection or self._conn is None:
            self.close()
            self._connect()
        sent = time.perf_counter()
        conn_id, ssl, from_server, to_server = self._conn
        expected = len(self.served) + 1
        native_api.SSL_write(ssl, request.encode())
        result = self.loop.feed(conn_id, to_server.read())
        if result.aborted or result.served != 1:
            raise BenchFailure(
                f"request not served (served={result.served}, "
                f"violation={result.violation!r})"
            )
        from_server.write(result.output)
        buffer = bytearray()
        message = None
        while message is None:
            chunk = native_api.SSL_read(ssl)
            if not chunk:
                raise BenchFailure("response truncated")
            buffer.extend(chunk)
            message = extract_message(buffer)
        response = parse_response(message)
        ended = time.perf_counter()
        if len(self.served) != expected:
            raise BenchFailure("handler did not run exactly once")
        verdict = response.headers.get(LIBSEAL_RESULT_HEADER)
        if checked and verdict is None:
            raise BenchFailure("checked request got no verdict header")
        if not checked and verdict is not None:
            raise BenchFailure("unchecked request got a verdict header")
        _require_same(response, self.served[-1])
        self.pairs.append(PairRecord(ended - started, ended - sent, verdict))
        return response


def _require_same(received: HttpResponse, served: HttpResponse) -> None:
    """The client must read exactly what the service returned, apart from
    the verdict header LibSEAL injects in-enclave."""
    headers = [
        (k.lower(), v)
        for k, v in received.headers.items()
        if k.lower() != LIBSEAL_RESULT_HEADER.lower()
    ]
    reference = parse_response(served.encode())
    if (
        received.status != reference.status
        or received.body != reference.body
        or headers != [(k.lower(), v) for k, v in reference.headers.items()]
    ):
        raise BenchFailure(
            f"response differs from the service's ({received.status} vs "
            f"{reference.status})"
        )


def mark_checked(request: HttpRequest) -> HttpRequest:
    request.headers.set(LIBSEAL_CHECK_HEADER, "1")
    return request
