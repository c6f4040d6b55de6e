"""The audit logger: from TLS plaintext taps to relational tuples (§5.1).

LibSEAL instruments ``SSL_read`` and ``SSL_write``. Reads accumulate into
per-connection request buffers, writes into response buffers; whenever a
complete response pairs with its request, the pair goes through the SSM
and the emitted tuples land in the audit log under one logical timestamp.

The logger also implements the in-band check protocol (§5.2): a request
carrying ``Libseal-Check`` marks its connection, and the paired response
is rewritten in-enclave with a ``Libseal-Check-Result`` header.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import HTTPError
from repro.faults import hooks as _faults
from repro.http import (
    LIBSEAL_RESULT_HEADER,
    HttpRequest,
    parse_request,
    parse_response,
)
from repro.http.parser import extract_message

# Signature: (request, response, connection_handle) -> header value or None.
PairCallback = Callable[[HttpRequest, "object", int], str | None]


#: Requests a client may pipeline ahead of their responses before the
#: logger stops buffering them (each entry is a parsed request held in
#: enclave memory until the matching response appears).
MAX_PIPELINED_REQUESTS = 64


@dataclass
class _ConnectionState:
    request_buffer: bytearray = field(default_factory=bytearray)
    response_buffer: bytearray = field(default_factory=bytearray)
    pending_requests: deque = field(default_factory=deque)
    #: Once a connection's byte stream is unframeable (bad Content-Length,
    #: over-bound buffering, pipeline abuse) its remaining traffic cannot
    #: be paired reliably; the tap drops it so the audit log stays a
    #: consistent prefix of fully-paired messages.
    poisoned: bool = False


class AuditLogger:
    """Pairs request/response plaintext per connection and logs pairs.

    The tap is *total*: malformed plaintext never raises out of the
    ``SSL_read``/``SSL_write`` hooks (that would turn an audit artefact
    into a service fault). Instead the affected connection is poisoned
    and counted; the front end makes its own — bounded — framing
    decision on the same bytes and tears the connection down there.
    """

    def __init__(
        self,
        on_pair: PairCallback,
        max_pipelined_requests: int = MAX_PIPELINED_REQUESTS,
    ):
        self._on_pair = on_pair
        self._max_pipelined = max_pipelined_requests
        self._connections: dict[int, _ConnectionState] = {}
        self.pairs_logged = 0
        self.unparsable_messages = 0
        self.poisoned_connections = 0

    def _poison(self, state: _ConnectionState) -> None:
        if not state.poisoned:
            state.poisoned = True
            self.poisoned_connections += 1
        state.request_buffer.clear()
        state.response_buffer.clear()
        state.pending_requests.clear()

    def _state(self, handle: int) -> _ConnectionState:
        return self._connections.setdefault(handle, _ConnectionState())

    # ------------------------------------------------------------------
    # TLS taps (installed as enclave audit hooks)
    # ------------------------------------------------------------------

    def on_read(self, handle: int, data: bytes) -> None:
        """Accumulate decrypted request bytes from ``SSL_read``."""
        state = self._state(handle)
        if state.poisoned:
            return
        state.request_buffer.extend(data)
        while True:
            try:
                message = extract_message(state.request_buffer)
            except HTTPError:
                self.unparsable_messages += 1
                self._poison(state)
                return
            if message is None:
                return
            try:
                request = parse_request(message)
            except HTTPError:
                self.unparsable_messages += 1
                continue
            if len(state.pending_requests) >= self._max_pipelined:
                self.unparsable_messages += 1
                self._poison(state)
                return
            state.pending_requests.append(request)

    def on_write(self, handle: int, data: bytes) -> bytes | None:
        """Process outgoing response bytes from ``SSL_write``.

        Returns replacement bytes when a response was rewritten (header
        injection); ``None`` leaves the data unchanged.
        """
        state = self._state(handle)
        if state.poisoned:
            return None
        state.response_buffer.extend(data)
        # Only chunks consisting entirely of complete responses can be
        # rewritten (bytes already returned cannot be recalled).
        rewritten: list[bytes] = []
        modified = False
        while True:
            try:
                message = extract_message(state.response_buffer)
            except HTTPError:
                self.unparsable_messages += 1
                self._poison(state)
                return None
            if message is None:
                break
            replacement = self._handle_response(handle, state, message)
            if replacement is not None:
                modified = True
                rewritten.append(replacement)
            else:
                rewritten.append(message)
        if state.response_buffer:
            # Partial tail: pass everything through untouched; the pair
            # will be logged when the rest of the response arrives.
            rewritten.append(bytes(state.response_buffer))
            state.response_buffer.clear()
            return None if not modified else b"".join(rewritten)
        return b"".join(rewritten) if modified else None

    def _handle_response(
        self, handle: int, state: _ConnectionState, message: bytes
    ) -> bytes | None:
        try:
            response = parse_response(message)
        except HTTPError:
            self.unparsable_messages += 1
            return None
        if not state.pending_requests:
            self.unparsable_messages += 1
            return None
        request = state.pending_requests.popleft()
        # Crash points: the enclave dying around pair dispatch must lose
        # at most the one in-flight, unacknowledged pair.
        events = _faults.check("logger.pair")
        _faults.crash_on(events, "crash_before_pair")
        self.pairs_logged += 1
        header_value = self._on_pair(request, response, handle)
        _faults.crash_on(events, "crash_after_pair")
        if header_value is None:
            return None
        response.headers.set(LIBSEAL_RESULT_HEADER, header_value)
        return response.encode()

    def close_connection(self, handle: int) -> None:
        self._connections.pop(handle, None)
