"""Standard-compatible mitigations (paper §V).

Both defences are implemented inside the GeoNetworking stack (see
:mod:`repro.geonet.checks`) and switched on through
:class:`~repro.geonet.config.GeoNetConfig` (``GeoNetConfig.with_mitigations``
or :func:`dataclasses.replace` for a custom threshold); this package
re-exports the predicates.

* **GF plausibility check** (§V-A) — before forwarding, the GF forwarder
  skips any candidate whose advertised position is farther than a
  threshold (default: the NLoS-median range).  Checking at *forwarding
  time* rather than on every beacon keeps the overhead proportional to
  data packets, not beacons.  The alternatives the paper rejects:
  encrypting beacons adds constant per-beacon cost for every sender and
  receiver; acknowledgements do not fix the wrong *decision* (and lose
  efficiency when ACKs drop).  The check blocks the replay poisoning *and*
  filters stale real entries — which is why the paper measures higher
  reception with it even in attack-free scenarios.
* **CBF RHL-drop check** (§V-B) — a contending node only accepts a
  duplicate whose RHL is within a small drop (default 3) of the
  first-received copy.  Signing the RHL field would change the CBF packet
  structure and break standard compatibility; instead, the source emits
  packets with a large RHL (e.g. 10), a legitimate peer's re-broadcast
  arrives with RHL one below the first copy, while the attacker must
  rewrite RHL to 1 — a steep, detectable drop.
"""

from repro.geonet.checks import duplicate_rhl_plausible, position_plausible

__all__ = ["duplicate_rhl_plausible", "position_plausible"]
