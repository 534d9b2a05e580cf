"""Fig 7 — effectiveness of the *inter-area interception attack*.

Five panels sweep one parameter each against the paper's defaults
(single-direction two-lane 4 km road, 30 m spacing, 20 s TTL, DSRC):

* (a) attack range wN/mN/mL with DSRC   — paper γ: 46.8 / ~98 / 99.9 %
* (b) attack range with C-V2X           — paper γ: 35.2 / ~98 / 100 %
* (c) LocTE TTL 20/10/5 s (wN), + mN@5s — paper γ: 46.8 / 46.2 / 37.4 / 97.9 %
* (d) inter-vehicle space 30/100/300 m  — paper γ: 46.8 / 47.8 / 44.7 %
* (e) road directions 1 vs 2            — paper γ: 46.8 / 58.3 %
"""

from __future__ import annotations

from repro.experiments.figures.panels import attack_panels, ttl, ttls, with_range
from repro.radio.technology import DSRC


def _ttls_and_mn(base):
    # The paper's extra series: a median-NLoS attacker still intercepts
    # almost everything even at the shortest TTL.
    mn_at_5s = with_range(ttl(base, 5.0), DSRC.nlos_median_m)
    return ttls(base) + [("ttl=5s,mN", mn_at_5s)]


fig7a, fig7b, fig7c, fig7d, fig7e = attack_panels(
    "Fig7", "inter-area", "wN", ttl_levels=_ttls_and_mn
)
