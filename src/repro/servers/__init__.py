"""Server machine model and the client-facing front end.

:mod:`repro.servers.machine` executes :class:`~repro.sim.costs.RequestProfile`
request streams on a simulated 4-core server with closed-loop clients
(the paper's evaluation drivers build on it in :mod:`repro.bench.perf`);
:mod:`repro.servers.connection` models one client connection with a
bounded input path and isolated teardown; :mod:`repro.servers.eventloop`
is the one front-end object: it owns every live connection and runs
each as a cooperative lthread task on one scheduler (the §4.3 async
front-end core, 100k+ concurrent connections).
"""

from repro.servers.attest import AttestMonitor
from repro.servers.connection import (
    BufferBoundViolation,
    ConnectionAborted,
    ConnectionLimits,
    DeadlineViolation,
    FeedResult,
    ServerConnection,
    SimClock,
)
from repro.servers.eventloop import (
    AUDIT_FLUSH_OCALL,
    EventLoop,
    EventLoopStats,
    ReadWait,
    Reschedule,
    SupervisorStats,
)
from repro.servers.machine import (
    FrontendConfig,
    FrontendRunResult,
    MachineConfig,
    RunResult,
    ServerMachine,
)

__all__ = [
    "AUDIT_FLUSH_OCALL",
    "AttestMonitor",
    "BufferBoundViolation",
    "ConnectionAborted",
    "ConnectionLimits",
    "DeadlineViolation",
    "EventLoop",
    "EventLoopStats",
    "FeedResult",
    "FrontendConfig",
    "FrontendRunResult",
    "MachineConfig",
    "ReadWait",
    "Reschedule",
    "RunResult",
    "ServerConnection",
    "SimClock",
    "SupervisorStats",
    "ServerMachine",
]
