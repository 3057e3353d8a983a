"""Round-by-round setpoint trackers for the four feedback regimes.

Every tracker runs the same two-phase protocol: ``begin_round`` returns
the dispatch vector actually sent to the loads, the environment answers
with a feedback observation, and ``update`` consumes that observation to
prepare the next round. A tracker only ever receives the observation
type its regime permits; anything else raises ``FeedbackMismatchError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Box,
    ConfigError,
    EnvBounds,
    LossParams,
    RunningMean,
    StepSchedule,
    full_gradient,
    gradient_estimate,
    project_shrunk_box,
    prox_step,
    running_mean_candidate,
    running_mean_update,
    sample_unit_sphere,
    smooth_loss,
    step_schedule,
)

__all__ = [
    "AggregateFeedback",
    "BanditTracker",
    "BernoulliFeedbackTracker",
    "FeedbackMismatchError",
    "FullFeedback",
    "FullInformationTracker",
    "PartialBanditTracker",
    "PartialFeedback",
    "QuadraticTrackingObjective",
]


class FeedbackMismatchError(TypeError):
    """The observation handed to a tracker does not match its regime."""


@dataclass(frozen=True)
class FullFeedback:
    """Every load's response plus the setpoint."""

    responses: np.ndarray
    setpoint: float


@dataclass(frozen=True)
class AggregateFeedback:
    """Only the aggregate effect of the played signal plus the setpoint."""

    total: float
    setpoint: float


@dataclass(frozen=True)
class PartialFeedback:
    """Responses of the monitored loads, the aggregate effect, and the setpoint.

    ``observed`` holds the response coordinates of the individually
    monitored loads, which by convention sit at the end of the signal
    vector.
    """

    observed: np.ndarray
    total: float
    setpoint: float


class QuadraticTrackingObjective:
    """Squared tracking error plus the running-mean penalty.

    Keeps the running mean of played signals so both the exact loss and
    its gradient, and the bandit loss reconstruction from an aggregate
    observation, can be evaluated round by round.
    """

    def __init__(self, dim: int, rho: float = 0.0):
        self.params = LossParams(rho=float(rho), lam=0.0)
        self.mean = RunningMean.zero(dim)

    @property
    def rho(self) -> float:
        return self.params.rho

    @property
    def round(self) -> int:
        return self.mean.rounds + 1

    def value_and_gradient(self, setpoint, responses, signal):
        value = smooth_loss(setpoint, responses, signal, self.params, self.mean)
        grad = full_gradient(setpoint, responses, signal, self.params, self.mean, self.round)
        return value, grad

    def value_from_total(self, setpoint: float, total: float, signal) -> float:
        """Reconstruct the smooth loss when only the aggregate is observed."""
        err = float(setpoint) - float(total)
        value = err * err
        if self.params.rho != 0.0:
            cand = running_mean_candidate(self.mean, signal)
            value += self.params.rho * float(cand @ cand)
        return value

    def advance(self, played, responses=None) -> None:
        self.mean = running_mean_update(self.mean, played)


def _require(obs, expected, regime: str):
    if not isinstance(obs, expected):
        raise FeedbackMismatchError(
            f"{regime} round expects {expected.__name__}, got {type(obs).__name__}"
        )


class _RoundGuard:
    """Enforces the begin_round/update alternation shared by all trackers."""

    def __init__(self):
        self._played = None

    def _mark_played(self, played: np.ndarray) -> np.ndarray:
        if self._played is not None:
            raise RuntimeError("begin_round called twice without update")
        self._played = played
        return played.copy()

    def _take_played(self) -> np.ndarray:
        if self._played is None:
            raise RuntimeError("update called before begin_round")
        played = self._played
        self._played = None
        return played


class FullInformationTracker(_RoundGuard):
    """Composite prox-gradient tracking with exact per-round gradients."""

    def __init__(self, schedule: StepSchedule, box: Box, params: LossParams, objective=None):
        super().__init__()
        if schedule.kind != "full":
            raise ConfigError(f"expected a full-information schedule, got {schedule.kind!r}")
        self.schedule = schedule
        self.box = box
        self.params = params
        self.objective = objective if objective is not None else QuadraticTrackingObjective(box.dim, params.rho)
        self.signal = np.zeros(box.dim)

    def next_feedback(self) -> str:
        return "full"

    def begin_round(self) -> np.ndarray:
        return self._mark_played(self.signal.copy())

    def update(self, obs) -> dict:
        played = self._take_played()
        _require(obs, FullFeedback, "full-information")
        value, grad = self.objective.value_and_gradient(obs.setpoint, obs.responses, played)
        self.signal = prox_step(played, grad, self.schedule.eta, self.params.lam, self.box)
        self.objective.advance(played, obs.responses)
        return {"loss": float(value)}


class BanditTracker(_RoundGuard):
    """Tracking from aggregate-only feedback via a one-point gradient estimate.

    The base signal lives in the shrunk box so the random perturbation
    played each round never leaves the decision set.
    """

    def __init__(self, schedule: StepSchedule, box: Box, params: LossParams, rng: np.random.Generator):
        super().__init__()
        if schedule.kind != "bandit" or schedule.delta is None:
            raise ConfigError(f"expected a bandit schedule with delta, got {schedule.kind!r}")
        self.schedule = schedule
        self.box = box
        self.inner_box = box.shrunk(schedule.delta)
        self.params = params
        self.rng = rng
        self.objective = QuadraticTrackingObjective(box.dim, params.rho)
        self.signal = np.zeros(box.dim)
        self._direction = None

    def next_feedback(self) -> str:
        return "aggregate"

    def begin_round(self) -> np.ndarray:
        self._direction = sample_unit_sphere(self.box.dim, self.rng)
        played = self.signal + self.schedule.delta * self._direction
        if not self.box.contains(played, tol=1e-9):
            raise RuntimeError("perturbed dispatch left the decision box")
        return self._mark_played(played)

    def update(self, obs) -> dict:
        played = self._take_played()
        _require(obs, AggregateFeedback, "bandit")
        value = self.objective.value_from_total(obs.setpoint, obs.total, played)
        grad_est = gradient_estimate(value, self._direction, self.box.dim, self.schedule.delta)
        self.signal = prox_step(self.signal, grad_est, self.schedule.eta, self.params.lam, self.inner_box)
        self.objective.advance(played)
        return {"loss": float(value)}


class PartialBanditTracker(_RoundGuard):
    """Tracking when the last ``observed`` loads report individually.

    The unobserved block follows the one-point-estimate update inside its
    shrunk box; the observed block follows the exact-gradient update. The
    joint proximal objective separates over the blocks, so the two
    closed-form steps together solve it exactly.
    """

    def __init__(
        self,
        schedule: StepSchedule,
        box: Box,
        params: LossParams,
        observed: int,
        rng: np.random.Generator,
    ):
        super().__init__()
        if schedule.kind != "partial" or schedule.eta2 is None or schedule.delta is None:
            raise ConfigError(f"expected a partial schedule with eta2 and delta, got {schedule.kind!r}")
        if not 1 <= observed <= box.dim - 1:
            raise ConfigError(f"observed must lie in [1, {box.dim - 1}], got {observed}")
        if params.rho != 0.0:
            raise ConfigError("the mean penalty is unsupported under partial feedback; set rho=0")
        self.schedule = schedule
        self.box = box
        self.params = params
        self.observed = observed
        self.blind = box.dim - observed
        self.blind_box = Box(box.lo[: self.blind], box.hi[: self.blind])
        self.blind_inner = self.blind_box.shrunk(schedule.delta)
        self.observed_box = Box(box.lo[self.blind :], box.hi[self.blind :])
        self.rng = rng
        self.blind_signal = np.zeros(self.blind)
        self.observed_signal = np.zeros(observed)
        self._direction = None

    def next_feedback(self) -> str:
        return "partial"

    @property
    def signal(self) -> np.ndarray:
        return np.concatenate([self.blind_signal, self.observed_signal])

    def begin_round(self) -> np.ndarray:
        self._direction = sample_unit_sphere(self.blind, self.rng)
        played = np.concatenate(
            [self.blind_signal + self.schedule.delta * self._direction, self.observed_signal]
        )
        if not self.box.contains(played, tol=1e-9):
            raise RuntimeError("perturbed dispatch left the decision box")
        return self._mark_played(played)

    def update(self, obs) -> dict:
        self._take_played()
        _require(obs, PartialFeedback, "partial-bandit")
        if obs.observed.shape[0] != self.observed:
            raise ValueError(
                f"observation carries {obs.observed.shape[0]} responses, expected {self.observed}"
            )
        observed_effect = float(obs.observed @ self.observed_signal)
        blind_effect = float(obs.total) - observed_effect
        s = float(obs.setpoint)
        value = (s - float(obs.total)) ** 2
        # The same loss reduced through either information channel; both
        # must agree with the direct value every round.
        observed_view = ((s - blind_effect) - observed_effect) ** 2
        blind_view = ((s - observed_effect) - blind_effect) ** 2
        grad_blind = gradient_estimate(value, self._direction, self.blind, self.schedule.delta)
        grad_observed = -2.0 * obs.observed * (s - blind_effect - observed_effect)
        self.blind_signal = prox_step(
            self.blind_signal, grad_blind, self.schedule.eta, self.params.lam, self.blind_inner
        )
        self.observed_signal = prox_step(
            self.observed_signal, grad_observed, self.schedule.eta2, self.params.lam, self.observed_box
        )
        return {
            "loss": float(value),
            "loss_observed_view": float(observed_view),
            "loss_blind_view": float(blind_view),
        }


class BernoulliFeedbackTracker(_RoundGuard):
    """Tracking when each round delivers full or aggregate feedback at random.

    The feedback type of every round is drawn up front with probability
    p = a / T^(1/3) of an aggregate round, and the two step sizes are set
    from the realized number of such rounds. Aggregate rounds project the
    signal into the shrunk box before perturbing and update back onto the
    full box, so full and aggregate rounds can follow each other freely.
    Warm-up plays one full and one aggregate round before the scored
    horizon.
    """

    def __init__(
        self,
        horizon: int,
        box: Box,
        params: LossParams,
        bounds: EnvBounds,
        rng: np.random.Generator,
        *,
        a: float = 7.6,
        chi_full: float = 1.0,
        chi_bandit: float = 1.0,
        plan=None,
        warmup: bool = True,
        include_mean_penalty: bool = False,
    ):
        super().__init__()
        if horizon < 1:
            raise ConfigError("horizon must be >= 1")
        # step_schedule below rejects a < 0 and a probability above 1.
        self.probability = a / horizon ** (1.0 / 3.0)
        if plan is None:
            plan = rng.random(horizon) < self.probability
        plan = np.asarray(plan, dtype=bool)
        if plan.shape != (horizon,):
            raise ConfigError(f"plan must have length {horizon}")
        self.plan = plan
        self.bandit_rounds = int(plan.sum())
        self.schedule = step_schedule(
            "bernoulli",
            horizon,
            box.dim,
            bounds,
            chi_full=chi_full,
            chi_bandit=chi_bandit,
            bernoulli_a=a,
            bandit_rounds=self.bandit_rounds,
        )
        self.box = box
        self.params = params
        self.rng = rng
        self.warmup_rounds = 2 if warmup else 0
        if warmup:
            self._steps = np.concatenate([[False, True], plan])
        else:
            self._steps = plan.copy()
        self._cursor = 0
        rho_eff = params.rho if include_mean_penalty else 0.0
        self.objective = QuadraticTrackingObjective(box.dim, rho_eff)
        self.signal = np.zeros(box.dim)
        self._direction = None
        self._base = None

    @property
    def total_steps(self) -> int:
        return self._steps.shape[0]

    def _current_is_bandit(self) -> bool:
        if self._cursor >= self.total_steps:
            raise RuntimeError("feedback plan exhausted")
        return bool(self._steps[self._cursor])

    def next_feedback(self) -> str:
        return "aggregate" if self._current_is_bandit() else "full"

    def begin_round(self) -> np.ndarray:
        if self._current_is_bandit():
            self._base = project_shrunk_box(self.signal, self.schedule.delta, self.box)
            self._direction = sample_unit_sphere(self.box.dim, self.rng)
            played = self._base + self.schedule.delta * self._direction
            if not self.box.contains(played, tol=1e-9):
                raise RuntimeError("perturbed dispatch left the decision box")
        else:
            played = self.signal.copy()
        return self._mark_played(played)

    def update(self, obs) -> dict:
        played = self._take_played()
        bandit = self._current_is_bandit()
        if bandit:
            _require(obs, AggregateFeedback, "aggregate-feedback")
            value = self.objective.value_from_total(obs.setpoint, obs.total, played)
            grad_est = gradient_estimate(value, self._direction, self.box.dim, self.schedule.delta)
            # Updated onto the full box; the next aggregate round re-projects.
            self.signal = prox_step(self._base, grad_est, self.schedule.eta2, self.params.lam, self.box)
        else:
            _require(obs, FullFeedback, "full-feedback")
            value, grad = self.objective.value_and_gradient(obs.setpoint, obs.responses, played)
            self.signal = prox_step(played, grad, self.schedule.eta, self.params.lam, self.box)
        self.objective.advance(played)
        self._cursor += 1
        return {"loss": float(value), "bandit_round": bandit}
