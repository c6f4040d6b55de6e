"""Spans around calls into each layer's public functions.

Nothing here edits the program: :class:`Patches` swaps a callable on its
class, module or API namespace for a wrapper and puts the original back
afterwards. Functions are patched where their callers look them up (for
example ``parse_request`` in the modules that imported it).

A span is ``[name, start, end, parent, pair, value]``: ``parent`` is the
index of the enclosing span (-1 for none), ``pair`` the sequence number
of the pair the client was exchanging when the span opened (-1 outside
traffic), and ``value`` whatever the span's ``measure`` function took from
the return value (bytes serialized, rows scanned). Spans stay in memory
until the run ends.

Untraced runs install :func:`count_crypto` instead: a bare call counter
on the crypto entry points, so their operation counts can be compared
with the traced run's.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable

import repro.core.logger as core_logger
import repro.servers.connection as server_connection
import repro.tls.connection as tls_connection
from repro.audit.log import AuditLog
from repro.audit.persistence import InMemoryStorage
from repro.audit.rote import RoteCluster
from repro.core.checker import InvariantChecker
from repro.core.logger import AuditLogger
from repro.crypto.ecdsa import EcdsaPrivateKey, EcdsaPublicKey
from repro.lthreads import LThreadScheduler
from repro.sealdb.engine import Database
from repro.servers import EventLoop
from repro.tls import api as native_api

NAME, START, END, PARENT, PAIR, VALUE = range(6)

#: The crypto entry points: (span name, owner, attribute).
CRYPTO = (
    ("crypto.sign", EcdsaPrivateKey, "sign"),
    ("crypto.verify", EcdsaPublicKey, "verify"),
    ("crypto.ecdh", tls_connection, "generate_keypair"),
    ("crypto.ecdh", tls_connection, "ecdh_shared_secret"),
)


def _rows(outcome) -> tuple[int, int]:
    return outcome.rows_scanned, outcome.rows_vectorized


#: Every other wrapped entry point: (span name, owner, attribute, measure).
LAYERS = (
    ("servers.feed", EventLoop, "feed", None),
    ("servers.open", EventLoop, "open", None),
    ("servers.close", EventLoop, "close", None),
    ("lthreads.step", LThreadScheduler, "step", None),
    ("client.connect", native_api, "SSL_connect", None),
    ("client.read", native_api, "SSL_read", None),
    ("client.write", native_api, "SSL_write", None),
    ("http.parse", server_connection, "parse_request", None),
    ("http.parse", core_logger, "parse_request", None),
    ("http.parse", core_logger, "parse_response", None),
    ("core.on_read", AuditLogger, "on_read", None),
    ("core.on_write", AuditLogger, "on_write", None),
    ("audit.append", AuditLog, "append", None),
    ("audit.seal", AuditLog, "seal_epoch", None),
    ("audit.serialize", AuditLog, "serialize", len),
    ("audit.load", AuditLog, "load", None),
    ("audit.verify", AuditLog, "verify_structure", None),
    ("audit.save", InMemoryStorage, "save", None),
    ("audit.save", InMemoryStorage, "save_intent", None),
    ("rote.increment", RoteCluster, "increment", None),
    ("rote.retrieve", RoteCluster, "retrieve", None),
    ("core.run_checks", InvariantChecker, "run_checks", _rows),
    ("sealdb.execute", Database, "execute", None),
    ("sealdb.execute", Database, "execute_ast", None),
)

#: The enclave TLS API is a namespace built per runtime instance.
ENCLAVE_API = (
    ("enclave_tls.accept", "SSL_accept"),
    ("enclave_tls.read", "SSL_read"),
    ("enclave_tls.write", "SSL_write"),
)


class Patches:
    """Replace callables and restore them, innermost first."""

    def __init__(self) -> None:
        self._undo: list[Callable[[], None]] = []

    def replace(
        self, owner: Any, attr: str, make: Callable[[Callable], Callable]
    ) -> None:
        if isinstance(owner, type):
            raw = owner.__dict__.get(attr)
            if raw is None:  # inherited: shadow it on this class
                setattr(owner, attr, make(getattr(owner, attr)))
                self._undo.append(lambda: delattr(owner, attr))
                return
            if isinstance(raw, classmethod):
                new: Any = classmethod(make(raw.__func__))
            elif isinstance(raw, staticmethod):
                new = staticmethod(make(raw.__func__))
            else:
                new = make(raw)
        else:
            raw = getattr(owner, attr)
            new = make(raw)
        setattr(owner, attr, new)
        self._undo.append(lambda: setattr(owner, attr, raw))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


class Tracer:
    """In-memory span recorder."""

    def __init__(self, patches: Patches):
        self.patches = patches
        self.spans: list[list] = []
        self.pair = -1
        self._stack: list[int] = []

    def wrap(
        self, name: str, fn: Callable, measure: Callable | None = None
    ) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.pair, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    record[VALUE] = measure(result)
                return result
            finally:
                record[END] = clock()
                stack.pop()

        return traced

    def install(self, ssm_class: type) -> None:
        """Wrap every layer entry point (before the stack is built: the
        audit taps are bound when ``LibSeal.attach`` runs)."""
        for name, owner, attr, measure in LAYERS + tuple(
            (n, o, a, None) for n, o, a in CRYPTO
        ) + (("ssm.log", ssm_class, "log", None),):
            self.patches.replace(
                owner, attr, lambda fn, n=name, m=measure: self.wrap(n, fn, m)
            )

    def instrument_enclave_api(self, api: Any) -> None:
        for name, attr in ENCLAVE_API:
            self.patches.replace(api, attr, lambda fn, n=name: self.wrap(n, fn))

    def write(self, path: Path) -> None:
        """One JSON line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def count_crypto(patches: Patches) -> Counter:
    """Count crypto calls by span name, with no timing."""
    counts: Counter = Counter()

    def counting(name: str, fn: Callable) -> Callable:
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    for name, owner, attr in CRYPTO:
        patches.replace(owner, attr, lambda fn, n=name: counting(n, fn))
    return counts
