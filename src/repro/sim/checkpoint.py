"""Deterministic checkpointing of a running simulation world.

A checkpoint captures the *whole* object graph of a run — simulator clock
and event heap, every named RNG stream, mobility, protocol and attacker
state, and the id allocators (the channel's address counter, the traffic's
vehicle-id counter, the CA's serials) — in a single pickle so that shared
identity (two nodes holding the same ``RandomStreams`` stream, the channel
and a node referencing the same interface) survives the round trip.  A run
keeps no state outside its world graph: keypairs are stateless, so a
signature made before the checkpoint verifies in any process.  The golden
contract, enforced by the test suite, is:

    restore-then-run is **bit-identical** to the uninterrupted run.

Two rules make this possible:

1. **No lambdas or closures in the scheduled graph.**  Event callbacks,
   periodic-process ticks and protocol hooks must be bound methods, plain
   module-level functions, or instances of callable classes — all of which
   pickle as stable ``(object, attribute-name)`` descriptors and re-bind on
   load.  :class:`RestrictedPickler` rejects anything else with an error
   naming the offender, so a regression fails fast instead of producing a
   checkpoint that cannot be restored in a fresh process.
2. **Versioned, integrity-checked checkpoints.**  A stored
   :class:`Checkpoint` is the world's pickle as is, with the format
   version and a SHA-256 digest of those bytes beside it;
   :meth:`Checkpoint.checked_payload` refuses an unknown version or a
   corrupted payload with :class:`CheckpointError`, before anything is
   unpickled, rather than resuming from garbage.
"""

from __future__ import annotations

import hashlib
import io
import pickle
import types
from typing import Any, NamedTuple

#: Bump whenever the pickled object graph changes incompatibly; readers
#: refuse versions they do not know.
CHECKPOINT_VERSION = 12


class CheckpointError(RuntimeError):
    """Raised when a world cannot be checkpointed or a blob restored."""


# ----------------------------------------------------------------------
# restricted pickling
# ----------------------------------------------------------------------
class RestrictedPickler(pickle.Pickler):
    """A pickler that refuses un-restorable callables.

    Plain pickle serializes a lambda or a function defined inside another
    function *by reference* (module + qualname) — the dump succeeds, but the
    load fails in any process where that exact code path has not run, and
    even where it "works" the closure cells are not captured.  Scheduled
    callbacks must therefore be bound methods, module-level functions or
    callable class instances; this pickler turns a violation into an
    immediate, descriptive :class:`CheckpointError` at *save* time.
    """

    def reducer_override(self, obj: Any):
        if isinstance(obj, types.FunctionType):
            qualname = getattr(obj, "__qualname__", "")
            if "<lambda>" in qualname or "<locals>" in qualname:
                raise CheckpointError(
                    f"cannot checkpoint callable {qualname!r} from module "
                    f"{obj.__module__!r}: lambdas and nested functions do "
                    "not survive a process boundary. Use a bound method, a "
                    "module-level function or a callable class instead "
                    "(see docs/simulation.md)."
                )
        return NotImplemented  # fall back to the normal reduction


def restricted_dumps(obj: Any) -> bytes:
    """``pickle.dumps`` via :class:`RestrictedPickler`."""
    buffer = io.BytesIO()
    RestrictedPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    return buffer.getvalue()


# ----------------------------------------------------------------------
# world <-> bytes
# ----------------------------------------------------------------------
def snapshot_world(world: Any) -> bytes:
    """Serialize ``world`` into one blob.

    The fast path is the stock C pickler: ``reducer_override`` hooks cost
    a per-object callback, which is measurable on multi-megabyte worlds
    checkpointed on the simulation's critical path.  Plain pickle already
    *refuses* lambdas and nested functions (their qualified name cannot be
    looked up), so :class:`RestrictedPickler` is only re-run after a
    failure — purely to turn the stock pickler's terse error into the
    descriptive one naming the offending callable.
    """
    try:
        return pickle.dumps(world, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as plain_exc:
        try:
            return restricted_dumps(world)
        except CheckpointError:
            raise
        except Exception as exc:
            raise CheckpointError(
                f"world is not checkpointable: {exc}"
            ) from plain_exc


def restore_world(blob: bytes) -> Any:
    """Rebuild a world from :func:`snapshot_world` output."""
    try:
        return pickle.loads(blob)
    except Exception as exc:
        raise CheckpointError(f"checkpoint payload does not unpickle: {exc}") from exc


# ----------------------------------------------------------------------
# the stored checkpoint
# ----------------------------------------------------------------------
class Checkpoint(NamedTuple):
    """One stored checkpoint, in the column order of the store's row."""

    sim_time: float
    version: int
    #: Hex SHA-256 of ``payload``.
    sha256: str
    #: A :func:`snapshot_world` blob.
    payload: bytes

    @classmethod
    def of(cls, payload: bytes, *, sim_time: float) -> "Checkpoint":
        """The current-version checkpoint of a snapshot taken at ``sim_time``."""
        return cls(
            float(sim_time),
            CHECKPOINT_VERSION,
            hashlib.sha256(payload).hexdigest(),
            payload,
        )

    def checked_payload(self) -> bytes:
        """The payload, once its version and digest are confirmed.

        Raises :class:`CheckpointError` for anything that is not a
        current-version, integrity-intact checkpoint — the caller
        quarantines it and falls back to a from-scratch run.
        """
        if self.version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {self.version!r} "
                f"(this build reads version {CHECKPOINT_VERSION})"
            )
        digest = hashlib.sha256(self.payload).hexdigest()
        if digest != self.sha256:
            raise CheckpointError(
                "checkpoint payload digest mismatch "
                f"(stored {self.sha256!r}, computed {digest!r})"
            )
        return self.payload


__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointError",
    "RestrictedPickler",
    "restore_world",
    "restricted_dumps",
    "snapshot_world",
]
