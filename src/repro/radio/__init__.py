"""Radio substrate: access technologies, frames and the broadcast channel.

The paper reduces the DSRC / C-V2X physical layers to the communication
ranges measured in the Utah DOT field test (Table II); we model the medium as
a unit-disk broadcast channel parameterised by those ranges, with
millisecond-scale delivery latency and optional link obstructions (the
road-safety curve's terrain and urban corner shadowing).
"""

from repro.radio.technology import (
    CV2X,
    DSRC,
    RadioTechnology,
    RangeClass,
)
from repro.radio.frames import Frame, FrameKind
from repro.radio.channel import BroadcastChannel, ChannelStats, RadioInterface

__all__ = [
    "BroadcastChannel",
    "CV2X",
    "ChannelStats",
    "DSRC",
    "Frame",
    "FrameKind",
    "RadioInterface",
    "RadioTechnology",
    "RangeClass",
]
