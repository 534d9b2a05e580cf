"""The record format of the persistent result store.

Every simulated run is identified by a :class:`RunKey` — ``(config-hash,
seed, attacked)`` — and persisted as one schema-versioned record in the
campaign's SQLite database
(:class:`~repro.experiments.sqlite_store.SqliteResultStore`,
``results/results.sqlite`` by default).  The key names what is simulated,
not which target asked for it: every target whose settings include a run
reads the one record.

The config hash is content-addressed: a SHA-256 over the canonical JSON
serialisation of the full :class:`~repro.experiments.config.ExperimentConfig`
(nested dataclasses, enums and the radio technology included), so two runs
share a record if and only if they simulate the identical scenario.  An
attack-free run leaves out every attack setting its world never reads
(:func:`run_identity`).  A whole-run target hashes its name with its
parameters instead.  Every
record carries a schema version; records written by an incompatible schema
are treated as absent and re-run rather than mis-parsed.

Three record kinds exist:

* ``run`` — a full :class:`~repro.experiments.runner.RunResult` (the A/B
  figure substrate);
* ``text`` — a rendered artefact for targets that are not A/B sweeps
  (tables, Fig 12/13, the overhead report);
* ``failure`` — a run that exhausted its attempts; kept for forensics,
  reported by the campaign, and retried by the next campaign.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.experiments.config import ExperimentConfig
from repro.experiments.metrics import BinnedRates, PacketOutcome
from repro.experiments.runner import RunResult

#: Bumped whenever the stored record layout changes incompatibly.
SCHEMA_VERSION = 2

#: Default store directory, relative to the working directory.
DEFAULT_RESULTS_DIR = "results"


class StoreError(RuntimeError):
    """Raised on malformed store operations (not on missing records)."""


# ----------------------------------------------------------------------
# canonical config serialisation / hashing
# ----------------------------------------------------------------------
def jsonable(obj: Any) -> Any:
    """Recursively convert dataclasses/enums/tuples into JSON-stable data."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, (list, tuple)):
        return [jsonable(item) for item in obj]
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise StoreError(f"cannot serialise {type(obj).__name__!r} for the store")


def canonical_json(obj: Any) -> str:
    """Deterministic JSON text for hashing (sorted keys, no whitespace)."""
    return json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":"))


def config_hash(config: Any) -> str:
    """Content hash of a config (or any jsonable parameter set)."""
    digest = hashlib.sha256(canonical_json(config).encode("utf-8"))
    return digest.hexdigest()[:16]


# ----------------------------------------------------------------------
# keys
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunKey:
    """The identity of one stored run."""

    config_hash: str
    seed: int
    attacked: bool

    @staticmethod
    def for_config(config: Any, *, seed: int, attacked: bool) -> "RunKey":
        """Build the key for one run of ``config``: the hash of its
        :func:`run_identity`."""
        return RunKey(
            config_hash(run_identity(config, attacked=attacked)), seed, attacked
        )


def run_identity(config: Any, *, attacked: bool) -> Any:
    """What one run of ``config`` simulates: the content its key hashes
    and its ``run`` record stores.

    An attack-free run of an :class:`ExperimentConfig` keeps its attack
    settings reduced to ``x`` and ``attack_range``: no attacker exists in
    its world, and those two alone shape the paired workload
    (:class:`~repro.core.vulnerability.VulnerabilityModel`).  Settings
    that differ only in the attack they deploy share their attack-free
    runs.  Any other config is its own identity.
    """
    if attacked or not isinstance(config, ExperimentConfig):
        return config
    identity = {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}
    identity["attack"] = {
        "x": config.attack.x,
        "attack_range": config.attack.attack_range,
    }
    return identity


# ----------------------------------------------------------------------
# RunResult <-> JSON
# ----------------------------------------------------------------------
def run_result_to_dict(result: RunResult) -> Dict[str, Any]:
    """Serialise a RunResult to plain JSON data (floats round-trip exactly)."""
    return {
        "seed": result.seed,
        "attacked": result.attacked,
        "overall_rate": result.overall_rate,
        "n_packets": result.n_packets,
        "binned": {
            "bin_width": result.binned.bin_width,
            "rates": result.binned.rates,
        },
        "outcomes": [
            {
                "packet_id": list(o.packet_id),
                "send_time": o.send_time,
                "source_x": o.source_x,
                "direction": o.direction,
                "success": o.success,
                "receivers": o.receivers,
                "denominator": o.denominator,
                "in_fully_covered_area": o.in_fully_covered_area,
                "delivery_latency": o.delivery_latency,
            }
            for o in result.outcomes
        ],
        "extras": dict(result.extras),
        # Packet-lifecycle outcome counts; null for runs without a ledger.
        # Additive and optional, so records without it still round-trip.
        "drop_breakdown": (
            None
            if result.drop_breakdown is None
            else {str(k): int(v) for k, v in result.drop_breakdown.items()}
        ),
    }


def run_result_from_dict(data: Dict[str, Any]) -> RunResult:
    """Rebuild a RunResult from its stored form."""
    return RunResult(
        seed=int(data["seed"]),
        attacked=bool(data["attacked"]),
        binned=BinnedRates(
            bin_width=float(data["binned"]["bin_width"]),
            rates=list(data["binned"]["rates"]),
        ),
        overall_rate=float(data["overall_rate"]),
        n_packets=int(data["n_packets"]),
        outcomes=[
            PacketOutcome(
                packet_id=tuple(o["packet_id"]),
                send_time=o["send_time"],
                source_x=o["source_x"],
                direction=o["direction"],
                success=o["success"],
                receivers=o["receivers"],
                denominator=o["denominator"],
                in_fully_covered_area=o["in_fully_covered_area"],
                delivery_latency=o["delivery_latency"],
            )
            for o in data["outcomes"]
        ],
        extras={str(k): float(v) for k, v in data["extras"].items()},
        drop_breakdown=(
            None
            if data.get("drop_breakdown") is None
            else {
                str(k): int(v) for k, v in data["drop_breakdown"].items()
            }
        ),
    )


# ----------------------------------------------------------------------
# the record format
# ----------------------------------------------------------------------
class ResultStoreBase:
    """The record kinds and their schema-versioned dict format.

    The medium (:class:`~repro.experiments.sqlite_store.SqliteResultStore`)
    supplies ``_write_record`` and ``get_record``; everything built on
    them — which fields a ``run``, ``text`` or ``failure`` record carries,
    and which kinds count as done — lives here.

    Writes are deliberately overwrite-only: campaign runs are
    deterministic, so re-executing a key overwrites it with the identical
    record and every write is idempotent.
    """

    def _base_record(self, key: RunKey, kind: str) -> Dict[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "kind": kind,
            "config_hash": key.config_hash,
            "seed": key.seed,
            "attacked": key.attacked,
        }

    def put_run(
        self, key: RunKey, result: RunResult, *, config: Any = None
    ) -> Any:
        """Store a completed RunResult (``config`` is kept for forensics)."""
        record = self._base_record(key, "run")
        record["result"] = run_result_to_dict(result)
        if config is not None:
            record["config"] = jsonable(config)
        return self._write_record(key, record)

    def get_run(self, key: RunKey) -> Optional[RunResult]:
        """The stored RunResult, or None (absent / failed / wrong kind)."""
        record = self.get_record(key)
        if record is None or record.get("kind") != "run":
            return None
        return run_result_from_dict(record["result"])

    def put_text(self, key: RunKey, text: str, *, params: Any = None) -> Any:
        """Store a rendered artefact for a non-A/B target."""
        record = self._base_record(key, "text")
        record["text"] = text
        if params is not None:
            record["params"] = jsonable(params)
        return self._write_record(key, record)

    def get_text(self, key: RunKey) -> Optional[str]:
        record = self.get_record(key)
        if record is None or record.get("kind") != "text":
            return None
        return record["text"]

    def put_failure(self, key: RunKey, error: str) -> Any:
        """Record a run that exhausted its attempts (retried next campaign)."""
        record = self._base_record(key, "failure")
        record["error"] = error
        return self._write_record(key, record)

    def get_failure(self, key: RunKey) -> Optional[str]:
        record = self.get_record(key)
        if record is None or record.get("kind") != "failure":
            return None
        return record["error"]

    def has(self, key: RunKey) -> bool:
        """Whether a *successful* (run or text) record exists for ``key``."""
        record = self.get_record(key)
        return record is not None and record.get("kind") in ("run", "text")
