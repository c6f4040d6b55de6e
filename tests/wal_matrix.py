"""Crash-matrix helpers shared by the write-ahead procedures.

Key rotation (``rotation.step``) and shard rebalancing (``shard.step``)
follow one fault-site convention: the procedure visits its site once
after the WAL write and once after every later step, and a crash at any
visit must replay to convergence from the surviving WAL entry.
"""

import pytest

from repro.faults import hooks as _faults
from repro.faults.plan import FaultEvent, FaultPlan, InjectedCrash


def crash_matrix(checkpoints: int):
    """Parametrize a test over every checkpoint (1-based ``step``)."""
    return pytest.mark.parametrize("step", range(1, checkpoints + 1))


def crash_at(site: str, step: int, procedure) -> None:
    """Run ``procedure`` with a crash at the ``step``-th visit of ``site``."""
    plan = FaultPlan(
        [FaultEvent(site, "crash", at=step)], scenario=f"{site}-crash-test"
    )
    with _faults.inject(plan):
        with pytest.raises(InjectedCrash):
            procedure()


def site_visits(site: str, procedure) -> int:
    """How many times one uninterrupted run of ``procedure`` checks ``site``."""
    with _faults.inject(FaultPlan([], scenario=f"{site}-count")) as injector:
        procedure()
    return injector.visits.get(site, 0)
