"""The campaign service: how every store-backed campaign executes.

* :mod:`~repro.experiments.service.leases` — the lease-based job queue
  in the result store's SQLite database (pending → leased → done/failed
  with TTL expiry and bounded attempts), plus the pure state machine it
  is checked against.
* :mod:`~repro.experiments.service.scheduler` — worker processes that
  lease jobs, heartbeat while simulating, and survive being SIGKILLed at
  any point; plus :func:`run_service_campaign`, which plans a campaign,
  supervises N local workers and assembles the artefacts.
* :mod:`~repro.experiments.service.status` — a read-only stdlib HTTP
  endpoint serving live campaign progress counters.
"""

from repro.experiments.service.leases import (
    JobState,
    Lease,
    LeaseQueue,
    LeaseStateMachine,
)
from repro.experiments.service.scheduler import (
    WorkerSettings,
    run_service_campaign,
    spawn_worker,
)
from repro.experiments.service.status import StatusServer, progress_snapshot

__all__ = [
    "JobState",
    "Lease",
    "LeaseQueue",
    "LeaseStateMachine",
    "StatusServer",
    "WorkerSettings",
    "progress_snapshot",
    "run_service_campaign",
    "spawn_worker",
]
