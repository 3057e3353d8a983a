"""Closed-loop experiments: setpoints, feedback mediation, trials, metrics.

``run_trial`` wires one fleet to one tracker for a full horizon;
``run_experiment`` repeats that over seeded trials and aggregates the
ledger series and summaries. The hindsight oracle solves the offline
comparator problem the empirical regret is measured against.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .algorithms import (
    BERNOULLI_WARMUP,
    AggregateFeedback,
    BanditTracker,
    BernoulliFeedbackTracker,
    FullFeedback,
    FullInformationTracker,
    PartialBanditTracker,
    PartialFeedback,
)
from .core import (
    FEEDBACK_REGIMES,
    Box,
    ConfigError,
    EnvBounds,
    UnsupportedBoxError,
    bandit_probability,
    conservative_bounds,
    slabs,
    step_schedule,
)
from .loads import (
    STEADY_DUTY_WINDOW,
    EvFleet,
    EvParams,
    NoiseSpec,
    SignalRangeError,
    TclFleet,
    TclRanges,
    running_mean_weights,
    steady_duty,
    tcl_fleet_init,
)

__all__ = [
    "FEEDBACK_REGIMES",
    "SCENARIOS",
    "SCENARIO_DEFAULTS",
    "Comparator",
    "ExperimentResult",
    "HindsightResult",
    "MetricsLedger",
    "RegretReport",
    "ScenarioConfig",
    "SetpointSpec",
    "TrialResult",
    "compute_metrics",
    "empirical_regret",
    "feedback_channel",
    "full_info_regret_bound",
    "hindsight_optimum",
    "improvement_pct",
    "make_setpoint",
    "per_round_reduction_pct",
    "run_experiment",
    "run_trial",
    "simultaneity_pct",
]

# The fewest response cells whose first-pass fill run_experiment draws on a worker thread while the
# trial before runs. A sweep over 2^12 to 2^20 cells (TCL full feedback, 600 rounds, 8 trials, 2 cores,
# worker unpinned) found the handoff slower up to 2^14, even at 2^15 and 3-8% faster from 2^16. Pinned,
# all four TCL n = 100 regimes (60k cells, 25 trials each) took a median 1.196 s drawing ahead against
# 1.222 s serial, faster in 6 of 10 alternating pairs: flat, so the threshold stays.
DRAW_AHEAD_CELLS = 1 << 16
KKT_TOL = 1e-9  # the largest relative KKT violation a hindsight solve may end with
LEDGER_SUMS = ("setpoint_eff", "aggregate", "tracking", "mean_norm", "l1")  # averaged by run_experiment
REDUCTION_FLOOR = 1e-12  # a reference loss (sum or mean) at or below this reads as no reduction

@dataclass(frozen=True)
class SetpointSpec:
    """Sinusoidal reference: offset + amplitude * sin(frequency * t)."""

    amplitude: float
    frequency: float
    offset: float


# What an unset ScenarioConfig field resolves to, per scenario: the setpoint, the
# response noise, the step length, and per feedback regime the step-size tuning
# constants. The chi values compensate the deliberately conservative loss and
# gradient bounds and were calibrated on the default fleets.
SCENARIO_DEFAULTS = {
    "tcl": {
        "setpoint": SetpointSpec(amplitude=15.0, frequency=0.1, offset=155.0),
        "noise": NoiseSpec(),
        "step_hours": 1.0 / 12.0,
        "chi": {"full": {"chi": 60.0}, "bandit": {"chi": 8000.0},
                "partial": {"chi_full": 45.0, "chi_bandit": 8000.0},
                "bernoulli": {"chi_full": 35.0, "chi_bandit": 8000.0}},
    },
    "ev": {
        "setpoint": SetpointSpec(amplitude=25.0, frequency=0.1, offset=0.0),
        "noise": NoiseSpec(mean=0.0, sd=0.1, lo=-1.5, hi=1.5),
        "step_hours": 1.0 / 60.0,
        "chi": {"full": {"chi": 35.0}},
    },
}
SCENARIOS = tuple(SCENARIO_DEFAULTS)


def make_setpoint(spec: SetpointSpec, t) -> float | np.ndarray:
    """Reference power at round t (vectorized over t)."""
    t = np.asarray(t, dtype=float)
    value = spec.offset + spec.amplitude * np.sin(spec.frequency * t)
    return float(value) if value.ndim == 0 else value


@dataclass
class ScenarioConfig:
    """Everything one experiment needs; unset fields resolve to scenario defaults."""

    scenario: str = "tcl"
    feedback: str = "full"
    n_loads: int = 100
    observed: int = 10
    rounds: int = 600
    trials: int = 1
    rho: float = 0.0
    lam: float = 0.0
    chi: float | None = None
    chi_full: float | None = None
    chi_bandit: float | None = None
    bernoulli_a: float = 7.6
    bernoulli_warmup: bool = True
    bernoulli_mean_penalty: bool = False
    seed: int = 0
    setpoint: SetpointSpec | None = None
    noise: NoiseSpec | None = None
    tcl_ranges: TclRanges = field(default_factory=TclRanges)
    ev_params: EvParams = field(default_factory=EvParams)
    ambient: float = 30.0
    step_hours: float | None = None
    compute_regret: bool = False
    hindsight_iters: int = 10_000
    track_loads: int = 5

    def resolved(self) -> "ScenarioConfig":
        cfg = dataclasses.replace(self)
        defaults = SCENARIO_DEFAULTS.get(cfg.scenario, {})  # validate rejects an unknown scenario
        for name in ("setpoint", "noise", "step_hours"):
            if getattr(cfg, name) is None:
                setattr(cfg, name, defaults.get(name))
        tuning = defaults.get("chi", {}).get(cfg.feedback, {})
        if cfg.chi is None:
            cfg.chi = tuning.get("chi", 1.0)
        if cfg.chi_full is None:
            cfg.chi_full = tuning.get("chi_full", cfg.chi)
        if cfg.chi_bandit is None:
            cfg.chi_bandit = tuning.get("chi_bandit", cfg.chi)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        for spec in (self, self.setpoint, self.noise, self.tcl_ranges, self.ev_params):
            for f in dataclasses.fields(spec) if spec is not None else ():
                value = getattr(spec, f.name)
                if isinstance(value, float) and not math.isfinite(value):
                    raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        if self.feedback not in FEEDBACK_REGIMES:
            raise ConfigError(f"feedback must be one of {FEEDBACK_REGIMES}, got {self.feedback!r}")
        if self.scenario == "ev" and self.feedback != "full":
            raise ConfigError("the EV scenario supports full feedback only")
        if self.scenario == "tcl":  # the duty is monotone in each of d, P and R, so its extremes lie at corners
            tr, (lo, hi) = self.tcl_ranges, STEADY_DUTY_WINDOW
            d, p, r = np.ix_((tr.setpoint_lo, tr.setpoint_hi), (tr.power_lo, tr.power_hi),
                             (tr.resistance_lo, tr.resistance_hi))
            duty = steady_duty(r, p, d, self.ambient)
            if not (duty.max() > lo and duty.min() < hi):
                raise ConfigError(f"TCL steady duties span [{duty.min():.4g}, {duty.max():.4g}] at ambient = "
                                  f"{self.ambient:g}, outside ({lo:g}, {hi:g})")
        if self.n_loads < 1:
            raise ConfigError("n_loads must be >= 1")
        if self.rounds < 4:
            raise ConfigError("rounds must be >= 4")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.feedback == "partial" and not 1 <= self.observed <= self.n_loads - 1:
            raise ConfigError(
                f"partial feedback needs 1 <= observed <= n_loads - 1, got {self.observed}"
            )
        if self.feedback == "partial" and self.rho != 0.0:
            raise ConfigError("partial feedback drops the mean penalty; set rho = 0")
        if self.rho < 0 or self.lam < 0:
            raise ConfigError("rho and lambda must be nonnegative")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.feedback == "bernoulli":
            bandit_probability(self.bernoulli_a, self.rounds)
        for name in ("chi", "chi_full", "chi_bandit", "step_hours"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.track_loads < 0:
            raise ConfigError("track_loads must be nonnegative")
        if self.hindsight_iters < 1:
            raise ConfigError("hindsight_iters must be >= 1")

    def effective_rho(self) -> float:
        """The mean-penalty weight the tracker actually optimizes."""
        if self.feedback == "bernoulli" and not self.bernoulli_mean_penalty:
            return 0.0
        return self.rho


@dataclass
class MetricsLedger:
    """Per-round record of one trial over the scored window.

    ``ev_params`` marks an EV ledger, whose mean penalty is of the
    battery-impact-weighted signal; the regret derives those weights from
    ``responses`` with it.
    """

    setpoint_eff: np.ndarray
    aggregate: np.ndarray
    tracking: np.ndarray
    objective: np.ndarray
    mean_norm: np.ndarray
    l1: np.ndarray
    simultaneous: np.ndarray
    baseline_tracking: np.ndarray
    responses: np.ndarray
    played: np.ndarray
    rho_eff: float
    lam: float
    ev_params: EvParams | None = None

    @property
    def rounds(self) -> int:
        return self.tracking.shape[0]


@dataclass
class TrialResult:
    ledger: MetricsLedger
    trajectories: np.ndarray
    saturation_events: int
    schedule: object
    bounds: EnvBounds
    box: Box
    baseline_power: float
    infos: list = field(default_factory=list)


def feedback_channel(kind: str, responses, setpoint_eff: float, played, observed: int | None = None):
    """Package exactly the information the regime reveals, and nothing more."""
    responses = np.asarray(responses, dtype=float)
    if kind == "full":
        return FullFeedback(responses.copy(), float(setpoint_eff))
    if kind == "aggregate":
        return AggregateFeedback(float(responses @ played), float(setpoint_eff))
    if kind == "partial":
        if observed is None or not 1 <= observed <= responses.shape[0] - 1:
            raise ConfigError("partial channel needs a valid observed count")
        return PartialFeedback(responses[-observed:].copy(), float(responses @ played), float(setpoint_eff))
    raise ConfigError(f"unknown feedback channel kind {kind!r}")


def _build_tracker(cfg: ScenarioConfig, fleet: TclFleet | EvFleet, bounds: EnvBounds, rho_eff: float,
                   rng: np.random.Generator):
    box, objective = fleet.box, fleet.objective(rho_eff)
    if cfg.feedback == "bernoulli":
        return BernoulliFeedbackTracker(
            cfg.rounds, box, objective, cfg.lam, bounds, rng,
            a=cfg.bernoulli_a, chi_full=cfg.chi_full, chi_bandit=cfg.chi_bandit,
            warmup=cfg.bernoulli_warmup,
        )
    schedule = step_schedule(
        cfg.feedback, cfg.rounds, box.dim, bounds,
        observed=cfg.observed, chi=cfg.chi, chi_full=cfg.chi_full, chi_bandit=cfg.chi_bandit,
    )
    if cfg.feedback == "full":
        return FullInformationTracker(schedule, box, objective, cfg.lam)
    if cfg.feedback == "bandit":
        return BanditTracker(schedule, box, objective, cfg.lam, rng)
    return PartialBanditTracker(schedule, box, objective, cfg.lam, cfg.observed, rng)


def _name_round(exc: Exception, round_index: int) -> None:
    """Prefix the exception's message with the round it belongs to."""
    head = f"round {round_index}: {exc.args[0]}" if exc.args else f"round {round_index}"
    exc.args = (head,) + exc.args[1:]


def _warmup_rounds(cfg: ScenarioConfig) -> int:
    """The rounds a trial plays before its scored ones: the Bernoulli warm-up, if on."""
    return len(BERNOULLI_WARMUP) if (cfg.feedback == "bernoulli" and cfg.bernoulli_warmup) else 0


def _trial_seeds(cfg: ScenarioConfig, trial_index: int) -> list:
    """Trial ``trial_index``'s fleet, response and algorithm seeds, spawned from ``SeedSequence([seed, trial])``."""
    return np.random.SeedSequence([int(cfg.seed), int(trial_index)]).spawn(3)


class _Prefilled:
    """A response generator whose first ``standard_normal`` call returns a fill drawn ahead.

    The fill is ``rng.standard_normal(cells)``, the first pass of the response
    sampler, started on ``worker`` when this is made; so ``rng`` stands where an
    inline draw would leave it and every later call goes to it: the block keeps its bits.
    """

    def __init__(self, rng: np.random.Generator, worker, cells: int):
        self._rng, self._fill, self._cells = rng, worker.submit(rng.standard_normal, cells), cells

    def standard_normal(self, size=None):
        fill, self._fill = self._fill, None
        if fill is None:
            return self._rng.standard_normal(size)
        if size != self._cells:
            raise RuntimeError(f"the first response draw asked for {size!r} cells, {self._cells} were drawn ahead")
        return fill.result()


def _split_cpus(stack: contextlib.ExitStack) -> set | None:
    """Keep the calling thread off one of its CPUs until ``stack`` closes; return that CPU as a set.

    Unpinned, the scheduler tends to wake the draw-ahead worker on the caller's
    own CPU even when another is idle (seen on 2-vCPU guests), so the fill
    time-slices the trial instead of running beside it, and trials swing
    between the two cases from run to run. None, and no pinning, where the
    platform sets no affinity or the caller may run on one CPU only.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpus = os.sched_getaffinity(0)
    if len(cpus) < 2:
        return None
    spare = {max(cpus)}
    try:
        os.sched_setaffinity(0, cpus - spare)
    except OSError:
        return None
    stack.callback(os.sched_setaffinity, 0, cpus)
    return spare


def _pin_worker(cpus: set | None) -> None:
    """Run the calling (worker) thread on ``cpus`` only; leave it where it is if None or refused."""
    if cpus is not None:
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, cpus)


def run_trial(config: ScenarioConfig, trial_index: int = 0, ahead: _Prefilled | None = None) -> TrialResult:
    """One closed-loop trial: setpoint, play, respond, feed back, record, evolve.

    The noise stream is independent of the played signals, so a paired
    no-control baseline is simply the squared effective setpoint. The
    fleet's state (temperatures, states of charge) and the running mean of
    a loss without mean penalty are output only, so the round loop holds
    just the tracker protocol; after the loop the fleet steps once through
    the played block, filling the ``mean_norm`` column on the way, and the
    ledger is scored over it, in slabs of ``core.SLAB_ROWS`` rows.

    ``ahead`` is the trial's response generator with its first fill already
    pending (see ``run_experiment``), or None to make it here; the trial
    waits for that fill when it draws its responses.
    """
    cfg = config.resolved()
    fleet_seed, response_seed, algo_seed = _trial_seeds(cfg, trial_index)
    fleet_rng, algo_rng = np.random.default_rng(fleet_seed), np.random.default_rng(algo_seed)
    response_rng = np.random.default_rng(response_seed) if ahead is None else ahead

    if cfg.scenario == "tcl":
        fleet = tcl_fleet_init(cfg.n_loads, fleet_rng, cfg.tcl_ranges, cfg.ambient, cfg.step_hours)
    else:
        fleet = EvFleet(cfg.ev_params, cfg.n_loads, cfg.step_hours)
    baseline_power = fleet.baseline_power()
    # The largest |response| over both noise tails: a long lower tail can outweigh the upper one.
    response_max = float(np.abs(fleet.response_base[:, None] + (cfg.noise.lo, cfg.noise.hi)).max())

    box = fleet.box
    warmup = _warmup_rounds(cfg)
    total_rounds = cfg.rounds + warmup
    t_values = np.arange(1 - warmup, cfg.rounds + 1)
    setpoints_eff = make_setpoint(cfg.setpoint, t_values) - baseline_power
    responses = fleet.draw_responses(cfg.noise, response_rng, total_rounds)

    rho_eff = cfg.effective_rho()
    setpoint_max = float(np.max(np.abs(setpoints_eff)))
    bounds = conservative_bounds(box, setpoint_max, response_max, rho_eff)
    tracker = _build_tracker(cfg, fleet, bounds, rho_eff, algo_rng)

    T = cfg.rounds
    mean_norm = np.empty(T)
    # Warm-up rows included: the fleet steps through every played row.
    played_all = np.empty((total_rounds, box.dim))
    infos = []
    next_feedback, begin_round, update = tracker.next_feedback, tracker.begin_round, tracker.update
    setpoint_list = setpoints_eff.tolist()
    for i in range(total_rounds):
        try:
            kind = next_feedback()
            played = begin_round()
            obs = feedback_channel(kind, responses[i], setpoint_list[i], played, observed=cfg.observed)
            info = update(obs)
        except Exception as exc:
            _name_round(exc, i - warmup + 1)
            raise
        played_all[i] = played
        if i >= warmup:
            infos.append(info)

    try:
        trajectories = fleet.trajectories(played_all, responses, cfg.track_loads, mean_norm)[warmup:].copy()
    except SignalRangeError as exc:
        _name_round(exc, exc.row - warmup + 1)
        raise

    played_hist = played_all[warmup:]
    scored = responses[warmup:]
    # The same per-row dot product as resp @ played, for every scored round at once.
    aggregate = np.matmul(scored[:, None, :], played_hist[:, :, None]).reshape(T)
    err = setpoints_eff[warmup:] - aggregate
    tracking = err * err
    l1 = np.empty(T)
    for rows in slabs(T):  # slabs, so no third (rounds, dim) block is made
        np.abs(played_hist[rows]).sum(axis=1, out=l1[rows])
    objective = tracking + rho_eff * mean_norm ** 2 + cfg.lam * l1

    ledger = MetricsLedger(
        setpoint_eff=setpoints_eff[warmup:].copy(),
        aggregate=aggregate,
        tracking=tracking,
        objective=objective,
        mean_norm=mean_norm,
        l1=l1,
        simultaneous=fleet.simultaneous(played_hist),
        baseline_tracking=setpoints_eff[warmup:] ** 2,
        responses=scored,
        played=played_hist,
        rho_eff=rho_eff,
        lam=cfg.lam,
        ev_params=None if cfg.scenario == "tcl" else cfg.ev_params,
    )
    return TrialResult(
        ledger=ledger,
        trajectories=trajectories,
        saturation_events=fleet.saturation_events,
        schedule=tracker.schedule,
        bounds=bounds,
        box=box,
        baseline_power=baseline_power,
        infos=infos,
    )


# --- Hindsight comparator and regret --------------------------------------


@dataclass
class HindsightResult:
    signal: np.ndarray
    value: float  # the sum of ``losses``
    residual: float  # the final KKT violation relative to max(1, ||2b||_inf, T*lam)
    iterations: int  # KKT checks, 1 when the origin is optimal
    losses: np.ndarray  # the signal's per-round composite losses, from Comparator.round_losses


@dataclass(frozen=True)
class Comparator:
    """The summed composite objective that scores a fixed signal mu over T rounds.

    f(mu) = sum_t (s_t - r_t.mu)^2 + rho * sum_t ||m_t(mu)||^2 + T * lam * ||mu||_1
    over the box, where m_t is the identity for the plain mean penalty or, on an
    EV ledger, m_t(mu) = w_t[:n]*mu[:n] + w_t[n:]*mu[n:] for the stacked
    (charge, discharge) signal, with ``weights`` the rows w_t of
    ``running_mean_weights(ev_params, responses)``. The inputs are checked when
    it is made; ``weights``, a (T, dim) block, and ``gram`` are formed on first read.
    """

    responses: np.ndarray
    setpoints: np.ndarray
    rho: float
    lam: float
    box: Box
    ev_params: EvParams | None = None

    def __post_init__(self):
        R, s = np.asarray(self.responses, dtype=float), np.asarray(self.setpoints, dtype=float)
        T, dim = R.shape
        if s.shape != (T,):
            raise ValueError("setpoints must match the response rows")
        if self.box.dim != dim:
            raise ValueError("box dimension must match the response columns")
        if self.ev_params is not None and dim % 2:
            raise ValueError("an EV comparator needs an even number of response columns")
        if not (0.0 <= self.rho < math.inf and 0.0 <= self.lam < math.inf):
            raise ValueError(f"need finite rho, lam >= 0, got {self.rho!r}, {self.lam!r}")
        if not self.box.contains_zero:
            raise UnsupportedBoxError("the hindsight solve starts at 0, so its box must contain 0")
        object.__setattr__(self, "responses", R)
        object.__setattr__(self, "setpoints", s)

    @functools.cached_property
    def weights(self) -> np.ndarray:
        return running_mean_weights(self.ev_params, self.responses)

    @functools.cached_property
    def gram(self) -> np.ndarray:
        """A = R^T R + rho * sum_t of m_t's Gram matrix, the quadratic form of f."""
        R, rho = self.responses, self.rho
        T, dim = R.shape
        if self.ev_params is None or not rho:  # rho = 0 leaves R^T R either way
            return R.T @ R + rho * T * np.eye(dim)
        twins = np.eye(dim) + np.eye(dim, k=dim // 2) + np.eye(dim, k=-dim // 2)  # each coordinate meets its twin
        return R.T @ R + rho * (self.weights.T @ self.weights) * twins

    def round_losses(self, signal: np.ndarray) -> np.ndarray:
        """f's terms per round at ``signal``, the weighted means formed in slabs of ``core.SLAB_ROWS`` rows."""
        errs = self.setpoints - self.responses @ signal
        losses = errs ** 2 + self.lam * float(np.abs(signal).sum())
        if self.rho and signal.any():  # at mu = 0 the penalty is 0 under any weights; adding it keeps every bit
            if self.ev_params is None:
                return losses + self.rho * float(signal @ signal)
            W, n = self.weights, len(signal) // 2
            penalty = np.empty(len(W))
            for rows in slabs(len(W)):
                mean = W[rows, :n] * signal[:n]
                mean += W[rows, n:] * signal[n:]
                mean *= mean
                mean.sum(axis=1, out=penalty[rows])
            return losses + self.rho * penalty
        return losses


def hindsight_optimum(
    responses,
    setpoints,
    rho: float,
    lam: float,
    box: Box,
    ev_params: EvParams | None = None,
    max_iters: int = 10_000,
) -> HindsightResult:
    """Best fixed signal in hindsight: the minimizer of the ``Comparator`` of these inputs.

    A primal active-set solve from the origin (BVLS, Stark & Parker 1995,
    with the l1 term): each coordinate is held at a bound or 0, or is free
    with a fixed sign, so the l1 term is linear. Each iteration checks the
    KKT conditions (at the origin from R^T s alone), frees the held coordinate
    that violates them most, and steps toward the free-set minimizer, holding
    each coordinate that meets a bound or 0. ``max_iters`` failed checks raise.
    """
    if not max_iters >= 1:
        raise ValueError(f"need max_iters >= 1, got {max_iters!r}")
    problem = Comparator(responses, setpoints, rho, lam, box, ev_params)
    T, dim = problem.responses.shape
    b = problem.responses.T @ problem.setpoints
    l1_weight = T * lam
    scale = max(1.0, float(np.abs(2.0 * b).max(initial=0.0)), l1_weight)
    tol = KKT_TOL * scale
    mu, grad = np.zeros(dim), -2.0 * b  # grad is 2 (A mu - b)
    free, sign = np.zeros(dim, dtype=bool), np.zeros(dim)
    for iterations in range(1, max_iters + 1):
        # The distance from -grad to the subdifferential of l1_weight * |mu_i| plus the box's normal cone.
        below = np.where(mu == box.lo, 0.0, np.where(mu > 0.0, l1_weight, -l1_weight) + grad)
        above = np.where(mu == box.hi, 0.0, -grad - np.where(mu < 0.0, -l1_weight, l1_weight))
        violation = np.maximum(np.maximum(below, above), 0.0)
        worst = float(violation.max(initial=0.0))
        if worst <= tol:
            break
        if iterations == max_iters:
            raise RuntimeError(f"hindsight solve: KKT violation {worst / scale:.3e} after {max_iters} checks")
        A = problem.gram  # formed at the first failed check, so an origin exit forms no A and no EV weights
        j = int(np.argmax(np.where(free, 0.0, violation)))
        if not free[j] and violation[j] > tol:
            free[j], sign[j] = True, np.sign(mu[j]) if mu[j] else -np.sign(grad[j])
        while free.any():
            F = np.flatnonzero(free)
            A_FF = A[np.ix_(F, F)]
            h = -0.5 * (grad[F] + l1_weight * sign[F])  # minus half the free-set objective's gradient
            step = None
            with contextlib.suppress(np.linalg.LinAlgError):  # solve is ten times faster than lstsq
                step = np.linalg.solve(A_FF, h)
            if step is None or np.abs(h - A_FF @ step).max() > tol / 2:
                step = np.linalg.lstsq(A_FF, h, rcond=None)[0]
            # Where A_FF step = h has no solution, the objective falls without bound along the
            # least-squares residual (A_FF ray = 0, h.ray = ray.ray > 0); the step follows it to a bound.
            ray = h - A_FF @ step
            bounded = np.abs(ray).max() <= tol / 2
            step = step if bounded else ray
            # Each free coordinate stays between 0 and its bound on its sign's side.
            end = np.where(step * sign[F] > 0.0, np.where(sign[F] > 0.0, box.hi[F], box.lo[F]), 0.0)
            ratio = np.divide(end - mu[F], step, out=np.full_like(step, math.inf), where=step != 0.0)
            alpha = max(min(float(ratio.min()), 1.0 if bounded else math.inf), 0.0)
            hit = ratio <= alpha
            mu[F] += alpha * step
            mu[F[hit]], free[F[hit]] = end[hit], False
            grad = 2.0 * (A @ mu - b)
            if not hit.any():
                break
    losses = problem.round_losses(mu)
    return HindsightResult(mu, float(losses.sum()), worst / scale, iterations, losses)


@dataclass
class RegretReport:
    series: np.ndarray
    total: float
    hindsight: HindsightResult


def empirical_regret(
    ledger: MetricsLedger,
    box: Box,
    upto: int | None = None,
    max_iters: int = 10_000,
) -> RegretReport:
    """Cumulative loss gap to mu*_T, the best fixed signal over rounds 1..T.

    Entry t sums f_k(x_k) - f_k(mu*_T) over k <= t: one comparator for every t, not the regret
    R(t) against the best signal of rounds 1..t. f_k is the tracker's own loss, on the played signals.
    """
    T = ledger.rounds if upto is None else int(upto)
    if not 1 <= T <= ledger.rounds:
        raise ValueError("upto must lie in [1, rounds]")
    opt = hindsight_optimum(ledger.responses[:T], ledger.setpoint_eff[:T], ledger.rho_eff, ledger.lam, box,
                            ledger.ev_params, max_iters)
    series = np.cumsum(ledger.objective[:T]) - np.cumsum(opt.losses)
    return RegretReport(series=series, total=float(series[-1]), hindsight=opt)


def full_info_regret_bound(chi: float, ledger: MetricsLedger, loss_bound: float) -> float:
    """Upper bound 4*chi*sqrt(T*K*B) with K = max(rho^2, max_t ||c_t||^2).

    ``loss_bound`` is the per-round bound B the step-size schedule was
    built with (see ``conservative_bounds``).
    """
    T = ledger.rounds
    K = max(ledger.rho_eff ** 2, float((ledger.responses ** 2).sum(axis=1).max()))
    return 4.0 * chi * math.sqrt(T * K * loss_bound)


# --- Metrics ----------------------------------------------------------------


def improvement_pct(ledger: MetricsLedger) -> float:
    """Total tracking-loss reduction relative to playing no signal at all.

    A no-signal loss at or below ``REDUCTION_FLOOR`` (a setpoint at zero
    throughout) leaves nothing to reduce and reads 0, as in
    ``per_round_reduction_pct``.
    """
    base = float(ledger.baseline_tracking.sum())
    if base <= REDUCTION_FLOOR:
        return 0.0
    return 100.0 * (1.0 - float(ledger.tracking.sum()) / base)


def per_round_reduction_pct(series, reference) -> float:
    """Relative reduction of the per-round average of ``series`` vs ``reference``.

    Comparing the averages (rather than averaging per-round ratios) keeps
    the metric finite when the reference series passes through zero, as
    the running mean of a sinusoid-following dispatch regularly does.
    """
    series = np.asarray(series, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if series.shape != reference.shape:
        raise ValueError(f"series length {series.shape} does not match reference {reference.shape}")
    ref_mean = float(reference.mean())
    if ref_mean <= REDUCTION_FLOOR:
        return 0.0
    return float(100.0 * (1.0 - float(series.mean()) / ref_mean))


def simultaneity_pct(ledger: MetricsLedger) -> float:
    return float(100.0 * np.mean(ledger.simultaneous))


@dataclass
class ExperimentResult:
    """A case's trial summaries, averaged round series and first-trial trajectories."""

    config: ScenarioConfig
    summaries: list  # per trial, {"improvement_pct": ..., "simultaneity_pct": ...}
    rounds: dict
    trajectories: np.ndarray

    def mean_summary(self) -> dict:
        keys = ("improvement_pct", "simultaneity_pct")
        return {k: float(np.mean([s[k] for s in self.summaries])) for k in keys}


def _add_trial(
    cfg: ScenarioConfig, trial_index: int, sums: dict, ahead: _Prefilled | None
) -> tuple[dict, np.ndarray]:
    """Run one trial, add its series into ``sums``; return its summary and trajectories.

    The trial's result goes out of scope on return, so its blocks are freed
    before the next trial starts.
    """
    trial = run_trial(cfg, trial_index, ahead)
    ledger = trial.ledger
    if cfg.compute_regret:
        sums["regret"] += empirical_regret(ledger, trial.box, max_iters=cfg.hindsight_iters).series
    for name in LEDGER_SUMS:
        sums[name] += getattr(ledger, name)
    summary = {"improvement_pct": improvement_pct(ledger), "simultaneity_pct": simultaneity_pct(ledger)}
    return summary, trial.trajectories


def run_experiment(config: ScenarioConfig) -> ExperimentResult:
    """Run all trials of one scenario/feedback case and average the series.

    Only the first trial's trajectories are kept, so every later trial runs
    with ``track_loads`` = 0 and steps no tracked TCL load; every trial is
    released once it is scored.

    A response fill of at least ``DRAW_AHEAD_CELLS`` cells is drawn ahead:
    before trial k runs, the main thread makes trial k + 1's response
    generator and one worker thread starts its first-pass ``standard_normal``
    fill, which numpy makes without the interpreter lock; trial k + 1 waits
    for it. Where the caller may run on two CPUs or more, the worker is
    pinned to one of them and the caller to the rest (see ``_split_cpus``).
    Trial 0 draws inline; the worker is shut down and the caller's CPU
    affinity restored before this returns or raises.
    """
    cfg = config.resolved()
    T = cfg.rounds
    sums = {name: np.zeros(T) for name in (*LEDGER_SUMS, "regret")}
    untracked = dataclasses.replace(cfg, track_loads=0)
    cells = (T + _warmup_rounds(cfg)) * cfg.n_loads  # NoiseSpec.sample's first pass: a TCL block, an EV half
    summaries, trajectories, ahead, worker = [], None, None, None
    with contextlib.ExitStack() as stack:
        if cfg.trials > 1 and cfg.noise.sd and cells >= DRAW_AHEAD_CELLS:  # at sd = 0 the sampler draws nothing
            from concurrent.futures import ThreadPoolExecutor

            spare = _split_cpus(stack)
            worker = stack.enter_context(ThreadPoolExecutor(1, initializer=_pin_worker, initargs=(spare,)))
        for k in range(cfg.trials):
            current, ahead = ahead, None
            if worker is not None and k + 1 < cfg.trials:
                _, response_seed, _ = _trial_seeds(cfg, k + 1)
                ahead = _Prefilled(np.random.default_rng(response_seed), worker, cells)
            summary, kept = _add_trial(untracked if k else cfg, k, sums, current)
            summaries.append(summary)
            if not k:
                trajectories = kept
    rounds = {name: series / cfg.trials for name, series in sums.items()}
    rounds["cum_tracking"] = np.cumsum(rounds["tracking"])
    return ExperimentResult(cfg, summaries, rounds, trajectories)


def compute_metrics(result: ExperimentResult, unregularized: ExperimentResult | None = None) -> dict:
    """Case summary: improvement over no control plus regularizer effects.

    The mean-norm and sparsity improvements compare the trial-averaged
    series against a paired unregularized run; without one they are zero.
    """
    cfg = result.config
    means = result.mean_summary()
    summary = {
        "scenario": cfg.scenario,
        "feedback": cfg.feedback,
        "rho": cfg.rho,
        "lambda": cfg.lam,
        "improvement_pct": means["improvement_pct"],
        "mean_improvement_pct": 0.0,
        "sparsity_improvement_pct": 0.0,
        "simultaneity_pct": means["simultaneity_pct"],
    }
    if unregularized is not None:
        for key, series in (("mean_improvement_pct", "mean_norm"), ("sparsity_improvement_pct", "l1")):
            summary[key] = per_round_reduction_pct(result.rounds[series], unregularized.rounds[series])
    return summary
