"""Access-layer frames.

A :class:`Frame` is what travels on the :class:`~repro.radio.channel.
BroadcastChannel`: a payload (a GeoNetworking packet) stamped with the sender
address, transmit position, power (range) and time.  Frames are the unit an
attacker can sniff and replay.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional

from repro.geo.position import Position


class FrameKind(enum.Enum):
    """The GeoNetworking message type carried by a frame."""

    BEACON = "beacon"
    GEO_BROADCAST = "gbc"
    GEO_UNICAST = "guc"


@dataclass(frozen=True, eq=False)
class Frame:
    """A single over-the-air transmission.

    ``dest_addr is None`` means link-layer broadcast; otherwise the frame is
    unicast and only the addressee (plus promiscuous sniffers) process it.
    Frames compare and hash by identity: each one is one transmission.
    """

    kind: FrameKind
    sender_addr: int
    payload: Any
    tx_position: Position
    tx_range: float
    tx_time: float
    dest_addr: Optional[int] = None

    @property
    def is_broadcast(self) -> bool:
        """Whether the frame is link-layer broadcast."""
        return self.dest_addr is None
