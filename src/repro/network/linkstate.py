"""Predictive link-quality estimation and the adaptive offload policy.

The fault layer (:mod:`repro.network.faults`) *reacts*: retries burn
budget and the degradation ladder steps down only after attempts have
already failed — wasting bytes and latency exactly when the channel is
worst.  This module adds the production-client move the paper's flaky
mobile uplink calls for: **predict** link quality from recent channel
history and shape the transmission *before* sending.

* :class:`LinkQualityEstimator` — one per channel, fed by the
  :meth:`FaultyChannel.add_observer <repro.network.faults.FaultyChannel>`
  attempt-outcome hook.  Maintains a loss EWMA over good-state attempts,
  a Gilbert–Elliott good/bad posterior whose ``outage_enter`` /
  ``outage_exit`` transition probabilities are inferred from observed
  run lengths (per-attempt transition-count MLE), a throughput EWMA over
  successful attempts, and an RTT estimate from fail-fast outage probes.
  Confidence decays over idle simulated time, blending every prediction
  back toward its prior / stationary value.
* :class:`AdaptiveOffloadPolicy` — consults the estimator *before* each
  transmission and decides: degradation-ladder entry rung (fingerprint
  size k), retry budget, backoff scaling, and — when multiple channel
  presets are registered via :meth:`AdaptiveOffloadPolicy.register_path`
  — LTE-vs-WiFi path selection with hysteresis (a score margin plus a
  minimum dwell) so path flapping is bounded.

Everything here is pure arithmetic over observed outcomes: no RNG is
ever consumed, so wrapping a run with the estimator cannot perturb the
block-seeded fault pattern and every decision is deterministic.

Observability: each :meth:`AdaptiveOffloadPolicy.decide` updates
``link_failure_probability`` / ``link_outage_probability`` /
``link_loss_ewma`` / ``link_throughput_bps`` / ``link_confidence``
gauges and the ``adaptive_decisions_total{action=...}`` counter, and
emits ``adaptive.preemptive_degrade`` / ``adaptive.path_switch``
structured events on action / path changes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.network.faults import RetryPolicy
from repro.obs import current_registry, emit_event
from repro.util.validation import check_in_range, check_positive

__all__ = [
    "AdaptiveConfig",
    "AdaptiveOffloadPolicy",
    "LinkQualityEstimator",
    "OffloadDecision",
    "adaptive_policy",
]

#: Decision actions, from healthiest to most defensive.
_ACTIONS = ("full", "shade", "floor", "probe")


@dataclass(frozen=True)
class AdaptiveConfig:
    """Tuning knobs shared by the estimator and the policy.

    Thresholds act on the *predicted per-attempt failure probability*
    (outage or loss).  ``shade`` enters the ladder one rung down,
    ``floor`` enters at the cheapest rung, ``probe`` additionally scales
    backoff to sit out a likely outage.  ``extra_attempts`` widens the
    retry budget whenever the policy pre-degrades — attempts at the
    cheap rungs cost few bytes, and the wider budget is what keeps
    delivery rate at or above the reactive baseline.
    """

    # ~14-attempt half-life: slow enough that a lucky run of successes
    # on a 30%-loss link does not wash the estimate out (Bernoulli EWMA
    # std is sqrt(p(1-p) a/(2-a)) ~ 0.07 at p=0.3), fast enough to
    # track a mobility-driven loss ramp within a segment.
    ewma_alpha: float = 0.05
    confidence_halflife_seconds: float = 30.0
    sample_saturation: float = 8.0  # attempts until confidence ~ 1/2
    prior_loss: float = 0.0
    prior_outage_enter: float = 0.0
    prior_outage_exit: float = 0.3  # FaultSpec's default exit rate
    shade_threshold: float = 0.2
    floor_threshold: float = 0.45
    probe_threshold: float = 0.7
    extra_attempts: int = 2
    probe_backoff_scale: float = 2.0
    hysteresis_margin: float = 0.25
    min_dwell_decisions: int = 8

    def __post_init__(self) -> None:
        check_in_range("ewma_alpha", self.ewma_alpha, 1e-9, 1.0)
        check_positive(
            "confidence_halflife_seconds", self.confidence_halflife_seconds
        )
        check_positive("sample_saturation", self.sample_saturation)
        for field in ("prior_loss", "prior_outage_enter"):
            check_in_range(field, getattr(self, field), 0.0, 1.0)
        check_in_range("prior_outage_exit", self.prior_outage_exit, 1e-9, 1.0)
        if not (
            0.0
            < self.shade_threshold
            <= self.floor_threshold
            <= self.probe_threshold
            <= 1.0
        ):
            raise ValueError(
                "thresholds must satisfy 0 < shade <= floor <= probe <= 1, got "
                f"{self.shade_threshold}/{self.floor_threshold}/"
                f"{self.probe_threshold}"
            )
        if self.extra_attempts < 0:
            raise ValueError("extra_attempts must be non-negative")
        if self.probe_backoff_scale < 1.0:
            raise ValueError("probe_backoff_scale must be >= 1")
        if self.hysteresis_margin < 0.0:
            raise ValueError("hysteresis_margin must be non-negative")
        if self.min_dwell_decisions < 0:
            raise ValueError("min_dwell_decisions must be non-negative")


class LinkQualityEstimator:
    """Online link-quality model fed by real transfer-attempt outcomes.

    Feed it with :meth:`observe_attempt` — directly, or by registering
    it on a :class:`repro.network.faults.FaultyChannel` via
    ``channel.add_observer(estimator)``.  Idle simulated time between
    queries goes through :meth:`advance`; predictions decay toward
    their priors with a half-life of
    ``config.confidence_halflife_seconds`` while nothing is observed.

    The Gilbert–Elliott inference leans on a structural fact of the
    fault model: every bad-state attempt fails fast as an ``"outage"``,
    so the hidden chain state is directly observable per attempt and the
    transition probabilities are plain run-length MLEs —
    ``enter = N(good→bad) / N(good→·)`` and
    ``exit = N(bad→good) / N(bad→·)``.
    """

    def __init__(
        self,
        channel_name: str = "channel",
        config: AdaptiveConfig | None = None,
        throughput_prior_bps: float = 0.0,
    ) -> None:
        self.channel_name = channel_name
        self.config = config or AdaptiveConfig()
        self.throughput_prior_bps = float(throughput_prior_bps)
        # Gilbert–Elliott transition counts over consecutive attempts.
        self._good_to_bad = 0
        self._good_to_good = 0
        self._bad_to_good = 0
        self._bad_to_bad = 0
        self._last_bad: bool | None = None
        # EWMAs (None until the first sample lands).
        self._loss_ewma: float | None = None
        self._throughput_ewma: float | None = None
        self._rtt_ewma: float | None = None
        # Simulated clock: observed attempt time plus explicit idle.
        self._clock = 0.0
        self._last_observed_at = 0.0
        self._attempts = 0

    # -- feeding ------------------------------------------------------

    def observe_attempt(
        self,
        kind: str,
        num_bytes: int,
        elapsed_seconds: float,
        direction: str = "up",
    ) -> None:
        """Fold one resolved transfer attempt into the model.

        ``kind`` is ``"ok"``/``"dip"`` on success or the
        :class:`~repro.network.faults.TransferError` kind on failure;
        the signature matches the ``FaultyChannel`` observer hook.
        """
        alpha = self.config.ewma_alpha
        bad = kind == "outage"
        if self._last_bad is not None:
            if self._last_bad and bad:
                self._bad_to_bad += 1
            elif self._last_bad:
                self._bad_to_good += 1
            elif bad:
                self._good_to_bad += 1
            else:
                self._good_to_good += 1
        self._last_bad = bad
        if bad:
            # Fail-fast outage probes cost exactly one RTT of simulated
            # time (zero for serialization-only legs — skip those).
            if elapsed_seconds > 0.0:
                self._rtt_ewma = _ewma(self._rtt_ewma, elapsed_seconds, alpha)
        else:
            # Loss EWMA is conditioned on the good state: outages are
            # modeled by the chain, not the loss rate.
            self._loss_ewma = _ewma(
                self._loss_ewma, 1.0 if kind == "loss" else 0.0, alpha
            )
            if kind != "loss" and num_bytes > 0 and elapsed_seconds > 0.0:
                self._throughput_ewma = _ewma(
                    self._throughput_ewma,
                    num_bytes / elapsed_seconds,
                    alpha,
                )
        self._attempts += 1
        self._clock += max(0.0, float(elapsed_seconds))
        self._last_observed_at = self._clock

    # The estimator itself is a valid FaultyChannel observer.
    __call__ = observe_attempt

    def advance(self, seconds: float) -> None:
        """Let ``seconds`` of simulated time pass with no attempts."""
        if seconds < 0:
            raise ValueError(f"seconds must be non-negative, got {seconds}")
        self._clock += float(seconds)

    # -- inferred state ------------------------------------------------

    @property
    def attempts_observed(self) -> int:
        return self._attempts

    @property
    def in_outage(self) -> bool:
        """Whether the most recent attempt saw the bad state."""
        return bool(self._last_bad)

    @property
    def confidence(self) -> float:
        """How much to trust conditional estimates over priors, in [0, 1].

        The product of a sample factor ``n / (n + saturation)`` (few
        attempts → low trust) and an idle decay
        ``0.5 ** (idle / halflife)`` (stale attempts → low trust).
        """
        if self._attempts == 0:
            return 0.0
        sample = self._attempts / (self._attempts + self.config.sample_saturation)
        idle = max(0.0, self._clock - self._last_observed_at)
        decay = 0.5 ** (idle / self.config.confidence_halflife_seconds)
        return sample * decay

    @property
    def loss_rate(self) -> float:
        """Predicted good-state loss probability (confidence-blended)."""
        if self._loss_ewma is None:
            return self.config.prior_loss
        c = self.confidence
        return c * self._loss_ewma + (1.0 - c) * self.config.prior_loss

    @property
    def outage_enter_hat(self) -> float:
        """MLE of the good→bad transition probability."""
        total = self._good_to_bad + self._good_to_good
        if total == 0:
            return self.config.prior_outage_enter
        return self._good_to_bad / total

    @property
    def outage_exit_hat(self) -> float:
        """MLE of the bad→good transition probability."""
        total = self._bad_to_good + self._bad_to_bad
        if total == 0:
            return self.config.prior_outage_exit
        return self._bad_to_good / total

    @property
    def stationary_outage_probability(self) -> float:
        """π_bad = enter / (enter + exit) under the inferred chain."""
        enter = self.outage_enter_hat
        exit_ = self.outage_exit_hat
        if enter + exit_ <= 0.0:
            return 0.0
        return enter / (enter + exit_)

    @property
    def outage_probability(self) -> float:
        """Predicted probability the *next* attempt lands in the bad state.

        Conditioned on the last observed state (``1 - exit`` while in an
        outage, ``enter`` otherwise), decayed toward the stationary
        distribution as confidence fades — exactly the chain's own
        forgetting behavior over unobserved steps.
        """
        conditional = (
            1.0 - self.outage_exit_hat if self.in_outage else self.outage_enter_hat
        )
        c = self.confidence
        return c * conditional + (1.0 - c) * self.stationary_outage_probability

    @property
    def failure_probability(self) -> float:
        """Predicted probability the next attempt fails (outage or loss)."""
        p_out = self.outage_probability
        return p_out + (1.0 - p_out) * self.loss_rate

    @property
    def throughput_bps(self) -> float:
        """Predicted uplink throughput, bytes/second (confidence-blended)."""
        if self._throughput_ewma is None:
            return self.throughput_prior_bps
        c = self.confidence
        return c * self._throughput_ewma + (1.0 - c) * self.throughput_prior_bps

    @property
    def rtt_seconds(self) -> float:
        """Observed RTT from outage fail-fast probes (0 until one lands)."""
        return self._rtt_ewma if self._rtt_ewma is not None else 0.0

    def snapshot(self) -> dict:
        """Estimator state as plain scalars (gauges, debugging, reports)."""
        return {
            "channel": self.channel_name,
            "attempts": self._attempts,
            "in_outage": self.in_outage,
            "confidence": self.confidence,
            "loss_rate": self.loss_rate,
            "outage_enter_hat": self.outage_enter_hat,
            "outage_exit_hat": self.outage_exit_hat,
            "outage_probability": self.outage_probability,
            "failure_probability": self.failure_probability,
            "throughput_bps": self.throughput_bps,
            "rtt_seconds": self.rtt_seconds,
        }


def _ewma(current: float | None, sample: float, alpha: float) -> float:
    if current is None:
        return float(sample)
    return (1.0 - alpha) * current + alpha * float(sample)


@dataclass(frozen=True)
class OffloadDecision:
    """What the policy chose for one upcoming transmission."""

    action: str  # "full" | "shade" | "floor" | "probe"
    entry_rung: int  # degradation-ladder index to start at
    extra_attempts: int  # widening of the retry budget
    backoff_scale: float  # multiplier on base backoff
    failure_probability: float  # the prediction the decision came from
    path: str | None = None  # chosen path name (multi-path mode only)
    switched_path: bool = False
    channel: object | None = dataclasses.field(
        default=None, compare=False, repr=False
    )

    def adapt_retry_policy(self, base: RetryPolicy | None = None) -> RetryPolicy:
        """The base retry policy reshaped to this decision."""
        base = base or RetryPolicy()
        if self.extra_attempts == 0 and self.backoff_scale == 1.0:
            return base
        return dataclasses.replace(
            base,
            max_attempts=base.max_attempts + self.extra_attempts,
            base_backoff_seconds=base.base_backoff_seconds * self.backoff_scale,
        )


class AdaptiveOffloadPolicy:
    """Decide fingerprint size, retry budget, and path *before* sending.

    Two modes share one decision table:

    * **single-path** — call :meth:`decide` with the channel about to be
      used; the policy lazily attaches a :class:`LinkQualityEstimator`
      to it (via the ``FaultyChannel`` observer hook when available).
    * **multi-path** — :meth:`register_path` LTE / WiFi style presets up
      front; :meth:`decide` then also picks the path, with hysteresis:
      a candidate must beat the current path's score by
      ``hysteresis_margin`` *and* the current path must have been held
      for ``min_dwell_decisions`` decisions, so flapping is bounded to
      at most one switch per dwell window.

    Path score is ``predicted_throughput × (1 − failure_probability)``
    — expected useful bytes per second of air time.
    """

    def __init__(
        self,
        config: AdaptiveConfig | None = None,
    ) -> None:
        self.config = config or AdaptiveConfig()
        self._estimators: dict[str, LinkQualityEstimator] = {}
        self._paths: dict[str, object] = {}
        self._current_path: str | None = None
        self._dwell = 0
        self._path_switches = 0
        self._last_action: str | None = None

    # -- wiring --------------------------------------------------------

    def register_path(self, name: str, channel) -> None:
        """Add (or replace) a selectable uplink path.

        Replacing keeps the existing estimator — a mobility handoff to a
        new channel segment carries the learned link history forward —
        but re-attaches its observer to the new channel.
        """
        estimator = self._estimators.get(name)
        old = self._paths.get(name)
        if estimator is None:
            estimator = LinkQualityEstimator(
                name,
                self.config,
                throughput_prior_bps=getattr(channel, "bytes_per_second", 0.0),
            )
            self._estimators[name] = estimator
        elif old is not None and hasattr(old, "remove_observer"):
            old.remove_observer(estimator)
        if hasattr(channel, "add_observer"):
            channel.add_observer(estimator)
        self._paths[name] = channel
        if self._current_path is None:
            self._current_path = name

    @property
    def paths(self) -> tuple[str, ...]:
        return tuple(self._paths)

    @property
    def current_path(self) -> str | None:
        return self._current_path

    @property
    def path_switches(self) -> int:
        return self._path_switches

    def path_channel(self, name: str):
        return self._paths[name]

    def estimator_for(self, channel) -> LinkQualityEstimator:
        """The estimator watching ``channel`` (attached on first sight)."""
        name = getattr(channel, "name", "channel")
        estimator = self._estimators.get(name)
        if estimator is None:
            estimator = LinkQualityEstimator(
                name,
                self.config,
                throughput_prior_bps=getattr(channel, "bytes_per_second", 0.0),
            )
            self._estimators[name] = estimator
            if hasattr(channel, "add_observer"):
                channel.add_observer(estimator)
        return estimator

    def advance(self, seconds: float) -> None:
        """Propagate idle simulated time to every estimator."""
        for estimator in self._estimators.values():
            estimator.advance(seconds)

    def snapshot(self) -> dict:
        """Per-path estimator snapshots plus path-selection state."""
        return {
            "current_path": self._current_path,
            "path_switches": self._path_switches,
            "estimators": {
                name: est.snapshot() for name, est in self._estimators.items()
            },
        }

    # -- the decision --------------------------------------------------

    def _score(self, name: str) -> float:
        estimator = self._estimators[name]
        return estimator.throughput_bps * (1.0 - estimator.failure_probability)

    def _choose_path(self) -> tuple[str, bool]:
        current = self._current_path
        assert current is not None
        self._dwell += 1
        if len(self._paths) == 1 or self._dwell <= self.config.min_dwell_decisions:
            return current, False
        current_score = self._score(current)
        best_name, best_score = current, current_score
        for name in self._paths:
            score = self._score(name)
            if score > best_score:
                best_name, best_score = name, score
        if best_name == current:
            return current, False
        if best_score <= current_score * (1.0 + self.config.hysteresis_margin):
            return current, False
        emit_event(
            "adaptive.path_switch",
            old_path=current,
            new_path=best_name,
            old_score=round(current_score, 3),
            new_score=round(best_score, 3),
            dwell_decisions=self._dwell,
        )
        registry = current_registry()
        if registry is not None:
            registry.counter(
                "adaptive_path_switches_total",
                help="uplink path changes made by the adaptive policy",
            ).inc()
        self._current_path = best_name
        self._path_switches += 1
        self._dwell = 0
        return best_name, True

    def decide(
        self,
        channel=None,
        ladder_rungs: int = 3,
    ) -> OffloadDecision:
        """Shape the next transmission from the current link prediction.

        With registered paths, ``channel`` is ignored and the chosen
        path's channel comes back on ``decision.channel``; otherwise the
        passed channel is consulted (and returned) directly.
        """
        switched = False
        path_name = None
        if self._paths:
            path_name, switched = self._choose_path()
            channel = self._paths[path_name]
            estimator = self._estimators[path_name]
        elif channel is None:
            raise ValueError("decide() needs a channel or registered paths")
        else:
            estimator = self.estimator_for(channel)
        p_fail = estimator.failure_probability
        cfg = self.config
        rungs = max(1, int(ladder_rungs))
        if p_fail >= cfg.probe_threshold:
            action = "probe"
            entry = rungs - 1
            extra = cfg.extra_attempts
            scale = cfg.probe_backoff_scale
        elif p_fail >= cfg.floor_threshold:
            action = "floor"
            entry = rungs - 1
            extra = cfg.extra_attempts
            scale = 1.0
        elif p_fail >= cfg.shade_threshold:
            action = "shade"
            entry = min(1, rungs - 1)
            extra = cfg.extra_attempts
            scale = 1.0
        else:
            action = "full"
            entry = 0
            extra = 0
            scale = 1.0
        self._instrument(estimator, action, p_fail, entry)
        return OffloadDecision(
            action=action,
            entry_rung=entry,
            extra_attempts=extra,
            backoff_scale=scale,
            failure_probability=p_fail,
            path=path_name,
            switched_path=switched,
            channel=channel,
        )

    def _instrument(
        self,
        estimator: LinkQualityEstimator,
        action: str,
        p_fail: float,
        entry: int,
    ) -> None:
        registry = current_registry()
        if registry is not None:
            labels = {"channel": estimator.channel_name}
            registry.counter(
                "adaptive_decisions_total",
                help="pre-transmission decisions by the adaptive policy",
                action=action,
            ).inc()
            registry.gauge(
                "link_failure_probability",
                help="predicted per-attempt failure probability",
                **labels,
            ).set(p_fail)
            registry.gauge(
                "link_outage_probability",
                help="predicted probability the next attempt hits an outage",
                **labels,
            ).set(estimator.outage_probability)
            registry.gauge(
                "link_loss_ewma",
                help="estimated good-state loss rate",
                **labels,
            ).set(estimator.loss_rate)
            registry.gauge(
                "link_throughput_bps",
                help="estimated uplink throughput, bytes per second",
                **labels,
            ).set(estimator.throughput_bps)
            registry.gauge(
                "link_confidence",
                help="estimator confidence in conditional predictions",
                **labels,
            ).set(estimator.confidence)
        if action != self._last_action:
            if action != "full":
                emit_event(
                    "adaptive.preemptive_degrade",
                    channel=estimator.channel_name,
                    action=action,
                    entry_rung=entry,
                    failure_probability=round(p_fail, 4),
                )
            self._last_action = action


def adaptive_policy(
    adaptive: AdaptiveOffloadPolicy | AdaptiveConfig | None,
) -> AdaptiveOffloadPolicy | None:
    """The policy an ``adaptive=`` argument stands for.

    ``None`` keeps the uplink reactive, a config builds a fresh policy,
    and a policy (with its learned link state) is used as is.
    """
    if adaptive is None or isinstance(adaptive, AdaptiveOffloadPolicy):
        return adaptive
    return AdaptiveOffloadPolicy(adaptive)
