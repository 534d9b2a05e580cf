"""Declarative fault plans.

A :class:`FaultPlan` describes *what* should go wrong in a run — lossy
links, node outages, GPS error — as a frozen, hashable value object that
travels inside :class:`~repro.experiments.config.ExperimentConfig` (and
therefore into the result store's config hash).  The *how* lives in
:class:`~repro.faults.injector.FaultInjector`.

Determinism contract: a plan with every dimension disabled
(:meth:`FaultPlan.is_zero`) installs no hooks and consumes **zero** RNG
draws, so a zero-plan run is bit-identical to a run without a plan at the
same seed.  Enabled dimensions draw exclusively from their own named child
streams of :class:`~repro.sim.random.RandomStreams` (``fault:link-loss``,
``fault:churn``, ``fault:gps``), leaving every pre-existing stream
untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError


def _require_non_negative(name: str, value: float) -> None:
    if value < 0:
        raise ConfigError(f"{name} must be non-negative, got {value!r}")


def _require_positive(name: str, value: float) -> None:
    if value <= 0:
        raise ConfigError(f"{name} must be positive, got {value!r}")


@dataclass(frozen=True)
class LinkFaultPlan:
    """Per-link frame loss: ``loss_rate`` drops each candidate reception
    independently (i.i.d.)."""

    loss_rate: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate < 1.0:
            raise ConfigError(
                f"link.loss_rate must be in [0, 1), got {self.loss_rate!r}"
            )

    @property
    def enabled(self) -> bool:
        return self.loss_rate > 0.0


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
    to every beacon's position.
    """

    error_stddev: float = 0.0

    def __post_init__(self) -> None:
        _require_non_negative("gps.error_stddev", self.error_stddev)

    @property
    def enabled(self) -> bool:
        return self.error_stddev > 0.0


@dataclass(frozen=True)
class FaultPlan:
    """A composable bundle of impairments for one run."""

    link: LinkFaultPlan = field(default_factory=LinkFaultPlan)
    churn: ChurnPlan = field(default_factory=ChurnPlan)
    gps: GpsFaultPlan = field(default_factory=GpsFaultPlan)

    @property
    def is_zero(self) -> bool:
        """True when no fault dimension is enabled (bit-identity guaranteed)."""
        return not (self.link.enabled or self.churn.enabled or self.gps.enabled)

    # ------------------------------------------------------------------
    # convenience factories
    # ------------------------------------------------------------------
    @staticmethod
    def lossy(loss_rate: float) -> "FaultPlan":
        """I.i.d. per-link frame loss only."""
        return FaultPlan(link=LinkFaultPlan(loss_rate=loss_rate))

    @staticmethod
    def churning(mean_uptime: float, mean_downtime: float = 5.0) -> "FaultPlan":
        """Node outages/reboots only."""
        return FaultPlan(
            churn=ChurnPlan(mean_uptime=mean_uptime, mean_downtime=mean_downtime)
        )
