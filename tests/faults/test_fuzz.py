"""Seeded protocol-fuzzing harness: determinism and the typed-error contract.

Marked ``fuzz`` so CI can run a fixed-seed smoke subset; scale the case
count up locally with ``REPRO_FUZZ_CASES``.
"""

import hashlib
import os

import pytest

from repro.faults.fuzz import (
    ALLOWED_ERRORS,
    FuzzReport,
    fuzz_http_layer,
    fuzz_service_layer,
    fuzz_tls_layer,
    run_fuzz,
)
from repro.lthreads import LThreadScheduler

CASES = int(os.environ.get("REPRO_FUZZ_CASES", "150"))

#: sha256 over ``repr((layer, case, op, result, error))`` lines of
#: ``run_fuzz(seed=0, cases_per_layer=600)`` (1,800 outcomes).
SEED0_600_DIGEST = (
    "5ba1aad2cb91926687988c11ac18d624360e2ae85e41409c2a794b8b4ec13cd6"
)

#: sha256 over ``repr((case, op, result, error))`` lines of the outcome
#: streams the removed directly-pumped supervisor produced for
#: ``fuzz_http_layer(seed=11, cases=60)`` and
#: ``fuzz_tls_layer(seed=11, cases=40)``; the event loop gave the same.
DIRECT_HTTP_SEED11_60_DIGEST = (
    "a9f172b76ca337c4d0496864ed65adff7c3a83413b79353023e5a5bb6ecfcce2"
)
DIRECT_TLS_SEED11_40_DIGEST = (
    "abd84ea26087f45a14e01501f37e1f9d85b565d387423178928abbdd25082e3d"
)

pytestmark = pytest.mark.fuzz


def _outcome_key(outcome):
    return (outcome.case, outcome.op, outcome.result, outcome.error)


def _stream_digest(report):
    digest = hashlib.sha256()
    for outcome in report.outcomes:
        digest.update(repr(_outcome_key(outcome)).encode() + b"\n")
    return digest.hexdigest()


class TestDeterminism:
    def test_same_seed_same_outcomes_http(self):
        a = fuzz_http_layer(seed=11, cases=60)
        b = fuzz_http_layer(seed=11, cases=60)
        assert [_outcome_key(o) for o in a.outcomes] == [
            _outcome_key(o) for o in b.outcomes
        ]

    def test_same_seed_same_outcomes_tls(self):
        a = fuzz_tls_layer(seed=11, cases=40)
        b = fuzz_tls_layer(seed=11, cases=40)
        assert [_outcome_key(o) for o in a.outcomes] == [
            _outcome_key(o) for o in b.outcomes
        ]

    def test_different_seeds_diverge(self):
        a = fuzz_http_layer(seed=1, cases=60)
        b = fuzz_http_layer(seed=2, cases=60)
        assert [_outcome_key(o) for o in a.outcomes] != [
            _outcome_key(o) for o in b.outcomes
        ]


class TestTypedErrorContract:
    def test_tls_layer_contract_holds(self):
        report = fuzz_tls_layer(seed=0, cases=CASES)
        assert report.ok, report.describe()
        assert report.cases == CASES
        # Mutations genuinely bit: most hostile streams must abort.
        counts = report.counts()
        assert counts.get("aborted", 0) > 0

    def test_http_layer_contract_holds(self):
        report = fuzz_http_layer(seed=0, cases=CASES)
        assert report.ok, report.describe()
        counts = report.counts()
        assert counts.get("aborted", 0) > 0
        assert counts.get("served", 0) > 0  # canary traffic kept flowing

    def test_service_layer_contract_and_audit_log_verifies(self):
        report = fuzz_service_layer(seed=0, cases=max(40, CASES // 4),
                                    services=["git"])
        assert report.ok, report.describe()
        assert any("pairs_logged" in note for note in report.notes)

    def test_errors_are_typed(self):
        report = fuzz_http_layer(seed=5, cases=80)
        allowed = tuple(cls.__name__ for cls in ALLOWED_ERRORS)
        for outcome in report.outcomes:
            if outcome.error:
                assert outcome.error.startswith(allowed), outcome


class TestEventLoopDriver:
    """Every byte of every layer travels through the lthreads event loop."""

    @pytest.fixture
    def slices(self, monkeypatch):
        """Count scheduler slices the harness runs."""
        counted = [0]
        step = LThreadScheduler.step

        def counting_step(scheduler):
            ran = step(scheduler)
            counted[0] += ran
            return ran

        monkeypatch.setattr(LThreadScheduler, "step", counting_step)
        return counted

    def test_http_outcomes_identical_across_drivers(self):
        """The event loop reproduces the direct pump's HTTP stream."""
        report = fuzz_http_layer(seed=11, cases=60)
        assert len(report.outcomes) == 60
        assert _stream_digest(report) == DIRECT_HTTP_SEED11_60_DIGEST

    def test_tls_outcomes_identical_across_drivers(self):
        """The event loop reproduces the direct pump's TLS stream."""
        report = fuzz_tls_layer(seed=11, cases=40)
        assert len(report.outcomes) == 40
        assert _stream_digest(report) == DIRECT_TLS_SEED11_40_DIGEST

    def test_http_contract_holds_through_eventloop(self, slices):
        report = fuzz_http_layer(seed=0, cases=CASES)
        assert report.ok, report.describe()
        counts = report.counts()
        assert counts.get("aborted", 0) > 0
        assert counts.get("served", 0) > 0
        assert slices[0] >= CASES  # at least one slice per case

    def test_service_layer_audit_verifies_through_eventloop(self, slices):
        report = fuzz_service_layer(seed=0, cases=max(40, CASES // 4),
                                    services=["git"])
        assert report.ok, report.describe()
        assert any("pairs_logged" in note for note in report.notes)
        assert slices[0] >= report.cases

    def test_run_fuzz_threads_driver_through_all_layers(self, slices):
        reports = run_fuzz(seed=3, cases_per_layer=40, layers=["tls", "http"])
        assert [r.layer for r in reports] == ["tls", "http"]
        assert all(r.ok for r in reports)
        assert slices[0] >= 80

    def test_seed0_outcome_stream_is_pinned(self):
        """The seed-0 outcome stream over all three layers, pinned. The
        digest was recorded while a second, directly-pumped supervisor
        still existed and both pumps produced this exact stream; any
        change here is a change in front-end semantics."""
        digest = hashlib.sha256()
        outcomes = 0
        for report in run_fuzz(seed=0, cases_per_layer=600):
            assert report.ok, report.describe()
            for outcome in report.outcomes:
                digest.update(repr((report.layer,) + _outcome_key(outcome))
                              .encode() + b"\n")
                outcomes += 1
        assert outcomes == 1800
        assert digest.hexdigest() == SEED0_600_DIGEST


class TestRunner:
    def test_run_fuzz_covers_requested_layers(self):
        reports = run_fuzz(seed=3, cases_per_layer=40, layers=["tls", "http"])
        assert [r.layer for r in reports] == ["tls", "http"]
        assert all(isinstance(r, FuzzReport) and r.ok for r in reports)

    def test_describe_names_layer_and_seed(self):
        report = fuzz_http_layer(seed=9, cases=30)
        text = report.describe()
        assert "[http]" in text and "seed=9" in text
