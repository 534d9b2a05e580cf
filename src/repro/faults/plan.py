"""Declarative fault plans.

A :class:`FaultPlan` describes *what* should go wrong in a run — lossy and
bursty links, node outages, GPS error, beacon timing jitter — as a frozen,
hashable value object that travels inside
:class:`~repro.experiments.config.ExperimentConfig` (and therefore into the
result store's config hash).  The *how* lives in
:class:`~repro.faults.injector.FaultInjector`.

Determinism contract: a plan with every dimension disabled
(:meth:`FaultPlan.is_zero`) installs no hooks and consumes **zero** RNG
draws, so a zero-plan run is bit-identical to a run without a plan at the
same seed.  Enabled dimensions draw exclusively from their own named child
streams of :class:`~repro.sim.random.RandomStreams` (``fault:link-loss``,
``fault:churn``, ``fault:gps``, ``fault:beacon-jitter``), leaving every
pre-existing stream untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError


def _require_probability(name: str, value: float, *, exclusive_top: bool = False) -> None:
    top_ok = value < 1.0 if exclusive_top else value <= 1.0
    if not (0.0 <= value and top_ok):
        interval = "[0, 1)" if exclusive_top else "[0, 1]"
        raise ConfigError(f"{name} must be in {interval}, got {value!r}")


def _require_non_negative(name: str, value: float) -> None:
    if value < 0:
        raise ConfigError(f"{name} must be non-negative, got {value!r}")


def _require_positive(name: str, value: float) -> None:
    if value <= 0:
        raise ConfigError(f"{name} must be positive, got {value!r}")


@dataclass(frozen=True)
class LinkFaultPlan:
    """Per-link frame loss: i.i.d. and/or Gilbert–Elliott bursts.

    ``loss_rate`` drops each candidate reception independently.  The burst
    model keeps a two-state Markov chain per *directed* link: a good link
    turns bad with probability ``burst_p`` per transmission, recovers with
    ``burst_r``, and while bad each frame is lost with ``burst_loss``.
    """

    loss_rate: float = 0.0
    burst_p: float = 0.0
    burst_r: float = 0.25
    burst_loss: float = 0.8

    def __post_init__(self) -> None:
        _require_probability("link.loss_rate", self.loss_rate, exclusive_top=True)
        _require_probability("link.burst_p", self.burst_p)
        _require_probability("link.burst_r", self.burst_r)
        _require_probability("link.burst_loss", self.burst_loss)
        if self.burst_p > 0.0 and self.burst_r <= 0.0:
            raise ConfigError(
                "link.burst_r must be positive when link.burst_p is set "
                "(links could never recover from the bad state)"
            )

    @property
    def enabled(self) -> bool:
        return self.loss_rate > 0.0 or self.burst_p > 0.0


@dataclass(frozen=True)
class ChurnPlan:
    """Node outages and reboots.

    Each vehicle stays up for an Exp(``mean_uptime``) interval, powers off
    (radio leaves the channel, every protocol timer dies), stays down for an
    Exp(``mean_downtime``) interval, then reboots with its volatile router
    state — LocT and CBF duplicate memory — wiped.  ``mean_uptime``
    of 0 disables churn.
    """

    mean_uptime: float = 0.0
    mean_downtime: float = 5.0

    def __post_init__(self) -> None:
        _require_non_negative("churn.mean_uptime", self.mean_uptime)
        _require_positive("churn.mean_downtime", self.mean_downtime)

    @property
    def enabled(self) -> bool:
        return self.mean_uptime > 0.0


@dataclass(frozen=True)
class GpsFaultPlan:
    """GPS error on advertised beacon positions — true mobility untouched.

    ``error_stddev`` adds i.i.d. zero-mean Gaussian noise (metres, per axis)
    to every beacon's position.  ``drift_rate`` adds a per-node random-walk
    offset whose per-beacon step has standard deviation
    ``drift_rate * sqrt(dt)`` (metres, per axis) — a slow bias that GF's
    plausibility mitigation should tolerate, unlike an attacker's teleport.
    """

    error_stddev: float = 0.0
    drift_rate: float = 0.0

    def __post_init__(self) -> None:
        _require_non_negative("gps.error_stddev", self.error_stddev)
        _require_non_negative("gps.drift_rate", self.drift_rate)

    @property
    def enabled(self) -> bool:
        return self.error_stddev > 0.0 or self.drift_rate > 0.0


@dataclass(frozen=True)
class BeaconTimingPlan:
    """Extra beacon-interval jitter on top of the protocol's own.

    Each beacon cycle is delayed by a further Uniform(0, ``extra_jitter``)
    seconds, modelling congested DCC queues that hold beacons back.
    """

    extra_jitter: float = 0.0

    def __post_init__(self) -> None:
        _require_non_negative("beacon.extra_jitter", self.extra_jitter)

    @property
    def enabled(self) -> bool:
        return self.extra_jitter > 0.0


@dataclass(frozen=True)
class FaultPlan:
    """A composable bundle of impairments for one run."""

    link: LinkFaultPlan = field(default_factory=LinkFaultPlan)
    churn: ChurnPlan = field(default_factory=ChurnPlan)
    gps: GpsFaultPlan = field(default_factory=GpsFaultPlan)
    beacon: BeaconTimingPlan = field(default_factory=BeaconTimingPlan)

    @property
    def is_zero(self) -> bool:
        """True when no fault dimension is enabled (bit-identity guaranteed)."""
        return not (
            self.link.enabled
            or self.churn.enabled
            or self.gps.enabled
            or self.beacon.enabled
        )

    # ------------------------------------------------------------------
    # convenience factories
    # ------------------------------------------------------------------
    @staticmethod
    def lossy(loss_rate: float) -> "FaultPlan":
        """I.i.d. per-link frame loss only."""
        return FaultPlan(link=LinkFaultPlan(loss_rate=loss_rate))

    @staticmethod
    def bursty(
        burst_p: float = 0.02, burst_r: float = 0.25, burst_loss: float = 0.8
    ) -> "FaultPlan":
        """Gilbert–Elliott burst loss only."""
        return FaultPlan(
            link=LinkFaultPlan(
                burst_p=burst_p, burst_r=burst_r, burst_loss=burst_loss
            )
        )

    @staticmethod
    def churning(mean_uptime: float, mean_downtime: float = 5.0) -> "FaultPlan":
        """Node outages/reboots only."""
        return FaultPlan(
            churn=ChurnPlan(mean_uptime=mean_uptime, mean_downtime=mean_downtime)
        )
