"""Which end-to-end metric each layer's metrics should move, and where.

Later changes cite these rows: a change to one layer predicts a move in
the "should move" column on the named workload and no move elsewhere.
"""

from __future__ import annotations

#: (layer, modules, per-layer metric prefixes, should move)
LAYERS = (
    (
        "front end", "servers, lthreads",
        ("servers.", "lthreads.", "share.servers", "share.lthreads"),
        "pair_p50_ms on messaging-churn; ~nothing on git-sealed",
    ),
    (
        "enclave TLS", "enclave_tls, sgx",
        ("enclave_tls.", "sgx.", "share.enclave_tls", "path.server_handshake"),
        "pairs_per_s and pair_p50_ms on messaging-churn; pair_p99_ms on "
        "git-sealed (the 1-in-20 handshake pairs set its tail)",
    ),
    (
        "client TLS (load generator)", "tls",
        ("client.", "share.client_tls", "share.crypto_client", "path.client"),
        "none: the generator's own share, about half of a messaging-churn "
        "pair, which dilutes any server-side handshake gain",
    ),
    (
        "crypto", "crypto",
        ("crypto.", "share.crypto_server_handshake", "share.crypto_seal",
         "share.crypto_other"),
        "pairs_per_s on git-sealed (two signs per seal) and on "
        "messaging-churn (handshake)",
    ),
    (
        "HTTP", "http",
        ("http.", "share.http"),
        "pair_p50_ms on messaging-churn",
    ),
    (
        "logger and SSM", "core (logger), ssm",
        ("core.logger_", "ssm.", "share.core_logger", "share.ssm"),
        "pair_p50_ms on dropbox-checked",
    ),
    (
        "service handler", "services",
        ("share.service",),
        "none: the application's own work, not LibSEAL's",
    ),
    (
        "checker and SealDB", "core (checker), sealdb",
        ("core.check", "core.rows", "core.delta", "sealdb.",
         "share.core_checker", "share.sealdb", "path.check"),
        "check_p50_ms and check_p90_ms on dropbox-checked (checks in the "
        "timed phase) and on git-sealed and messaging-churn (their check "
        "epilogue); nothing else on git-sealed or messaging-churn",
    ),
    (
        "audit seal path", "audit (seal, ROTE increment)",
        ("audit.seal", "audit.serialize", "audit.save", "audit.rote_increment",
         "audit.rote_retries", "share.audit_seal", "path.seal"),
        "pairs_per_s, pair_p50_ms and write_bytes_per_pair on git-sealed; "
        "less on dropbox-checked (one seal per 16 pairs, but each rewrites "
        "the whole log)",
    ),
    (
        "audit append and recovery", "audit (append, load, verify, ROTE retrieve)",
        ("audit.append", "audit.load", "audit.verify", "audit.rote_retrieve",
         "share.audit_append"),
        "recover_s on git-sealed and dropbox-checked",
    ),
    (
        "benchmark itself", "perfbench",
        ("trace.", "calib.", "host."),
        "none: they qualify the other numbers",
    ),
)


def layer_of(metric: str) -> str | None:
    """The row whose prefix matches ``metric`` most specifically."""
    best, best_len = None, -1
    for name, _modules, prefixes, _moves in LAYERS:
        for prefix in prefixes:
            if metric.startswith(prefix) and len(prefix) > best_len:
                best, best_len = name, len(prefix)
    return best
