"""One benchmark run: rounds, count determinism and metrics."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from perfbench.host import HostSpeed
from perfbench.metrics import crypto_counts, end_to_end, end_to_end_phases, per_layer
from perfbench.stack import BenchFailure
from perfbench.trace import Patches, Tracer, count_crypto
from perfbench.workloads import (
    WORKLOADS,
    run_rounds,
    setup_seconds,
    warm_up,
)

#: Stack constructions timed before and again after the round;
#: ``setup_s`` is the median of all of them.
SETUPS = 5


def _plain_run(spec, seed: int, pairs: int, speed: HostSpeed):
    with Patches() as patches:
        crypto = count_crypto(patches)
        result = run_rounds(spec, seed, pairs, speed)
    result.counts.update(crypto)
    return result


def _require_equal(counts: dict, reference: dict, what: str) -> None:
    moved = sorted(
        key for key in set(counts) | set(reference)
        if counts.get(key) != reference.get(key)
    )
    if moved:
        detail = ", ".join(
            f"{key}: {reference.get(key)} -> {counts.get(key)}" for key in moved
        )
        raise BenchFailure(f"counts moved against {what}: {detail}")


def program_digest(root: Path) -> str:
    """Digest of the program and the benchmark, so that counts are only
    compared between runs of the same code."""
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((root / base).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(root)).encode() + b"\0")
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _check_state(state: Path, name: str, counts: dict) -> None:
    """Counts of a seed and length must repeat across runs of one version
    of the code: ``state`` is keyed by :func:`program_digest`, so a change
    that moves a count on purpose starts a fresh record."""
    path = state / f"counts-{name}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        _require_equal(counts, earlier, f"earlier run {path.name}")
    else:
        state.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts, sort_keys=True))


def run(
    workload: str, seed: int, seconds: int, trace: bool, state: Path
) -> tuple[int, dict[str, float], dict[str, float]]:
    """Returns (operations attempted, metrics as measured, the host factor
    of each end-to-end duration or rate; per-layer metrics get none);
    raises on any failure."""
    spec = WORKLOADS[workload]
    pairs = spec.pairs_for(seconds)
    run_name = f"{workload}-seed{seed}-s{seconds}"
    # Set-up is timed before and after the rounds, so its median does not
    # rest on the host's speed at a single moment.
    speed = HostSpeed()
    setups = [setup_seconds(spec, seed, speed) for _ in range(SETUPS)]
    warm_up(spec, seed)
    plain = _plain_run(spec, seed, pairs, speed)
    setups += [setup_seconds(spec, seed, speed) for _ in range(SETUPS)]
    _check_state(state, run_name, plain.counts)
    attempted = plain.counts["pairs"] + len(plain.recover_seconds)
    if not trace:
        phases = end_to_end_phases(spec.check_every is not None)
        factors = {name: speed.factor(phase) for name, phase in phases.items()}
        return attempted, end_to_end(plain, setups), factors

    with Patches() as patches:
        tracer = Tracer(patches)
        tracer.install(spec.ssm)
        traced = run_rounds(spec, seed, pairs, HostSpeed(), tracer)
    traced.counts.update(crypto_counts(tracer.spans))
    _require_equal(traced.counts, plain.counts, "the untraced run")
    metrics = per_layer(traced, plain, tracer.spans, len(spec.ssm().invariants))
    tracer.write(state / f"spans-{run_name}.jsonl")
    attempted += traced.counts["pairs"] + len(traced.recover_seconds)
    return attempted, metrics, {}
