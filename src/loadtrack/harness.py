"""Closed-loop experiments: setpoints, feedback mediation, trials, metrics.

``run_trial`` wires one fleet to one tracker for a full horizon;
``run_experiment`` repeats that over seeded trials and aggregates the
ledger series and summaries. The hindsight oracle solves the offline
comparator problem the empirical regret is measured against.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .algorithms import (
    AggregateFeedback,
    BanditTracker,
    BernoulliFeedbackTracker,
    FullFeedback,
    FullInformationTracker,
    PartialBanditTracker,
    PartialFeedback,
    QuadraticTrackingObjective,
)
from .core import (
    Box,
    ConfigError,
    EnvBounds,
    conservative_bounds,
    soft_threshold,
    step_schedule,
)
from .loads import (
    EvFleet,
    EvParams,
    NoiseSpec,
    SignalRangeError,
    TclRanges,
    WeightedChargeObjective,
    ev_decision_box,
    running_mean_weights,
    signal_block,
    tcl_fleet_init,
)

__all__ = [
    "DEFAULT_CHI",
    "DEFAULT_NOISE",
    "FEEDBACK_REGIMES",
    "SCENARIOS",
    "ExperimentResult",
    "HindsightResult",
    "MetricsLedger",
    "RegretReport",
    "ScenarioConfig",
    "SetpointSpec",
    "TrialResult",
    "TrialSummary",
    "comparator_round_losses",
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

SCENARIOS = ("tcl", "ev")
FEEDBACK_REGIMES = ("full", "bandit", "partial", "bernoulli")

SIMULTANEITY_TOL = 1e-2

# Step-size tuning constants per (scenario, feedback). These compensate the
# deliberately conservative loss/gradient bounds and were calibrated on the
# default fleets; override any of them through ScenarioConfig.
DEFAULT_CHI = {
    ("tcl", "full"): {"chi": 60.0},
    ("tcl", "bandit"): {"chi": 8000.0},
    ("tcl", "partial"): {"chi_full": 45.0, "chi_bandit": 8000.0},
    ("tcl", "bernoulli"): {"chi_full": 35.0, "chi_bandit": 8000.0},
    ("ev", "full"): {"chi": 35.0},
}

# Response noise per scenario, used when ScenarioConfig.noise is unset.
DEFAULT_NOISE = {"tcl": NoiseSpec(), "ev": NoiseSpec(mean=0.0, sd=0.1, lo=-1.5, hi=1.5)}


@dataclass(frozen=True)
class SetpointSpec:
    """Sinusoidal reference: offset + amplitude * sin(frequency * t)."""

    amplitude: float
    frequency: float
    offset: float

    @classmethod
    def for_scenario(cls, scenario: str) -> "SetpointSpec":
        if scenario == "tcl":
            return cls(amplitude=15.0, frequency=0.1, offset=155.0)
        if scenario == "ev":
            return cls(amplitude=25.0, frequency=0.1, offset=0.0)
        raise ConfigError(f"unknown scenario {scenario!r}")


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
        if cfg.setpoint is None:
            cfg.setpoint = SetpointSpec.for_scenario(cfg.scenario)
        if cfg.noise is None:
            cfg.noise = DEFAULT_NOISE.get(cfg.scenario)
        if cfg.step_hours is None:
            cfg.step_hours = 1.0 / 12.0 if cfg.scenario == "tcl" else 1.0 / 60.0
        tuning = DEFAULT_CHI.get((cfg.scenario, cfg.feedback), {})
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
            p = self.bernoulli_a / self.rounds ** (1.0 / 3.0)
            if self.bernoulli_a < 0 or p > 1.0:
                raise ConfigError(f"bandit probability a/T^(1/3) = {p:.4f} must lie in [0, 1]")
        for name in ("chi", "chi_full", "chi_bandit"):
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

    def decision_box(self) -> Box:
        if self.scenario == "tcl":
            return Box.symmetric(self.n_loads)
        return ev_decision_box(self.n_loads)


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
        return PartialFeedback(
            responses[-observed:].copy(), float(responses @ played), float(setpoint_eff)
        )
    raise ConfigError(f"unknown feedback channel kind {kind!r}")


def _build_tracker(cfg: ScenarioConfig, box: Box, bounds: EnvBounds, rho_eff: float, rng: np.random.Generator):
    dim = box.dim
    if cfg.scenario == "ev":
        objective = WeightedChargeObjective(cfg.n_loads, rho_eff, cfg.ev_params)
    else:
        objective = QuadraticTrackingObjective(dim, rho_eff)
    if cfg.feedback == "full":
        schedule = step_schedule("full", cfg.rounds, dim, bounds, chi=cfg.chi)
        return FullInformationTracker(schedule, box, objective, cfg.lam)
    if cfg.feedback == "bandit":
        schedule = step_schedule("bandit", cfg.rounds, dim, bounds, chi=cfg.chi)
        return BanditTracker(schedule, box, objective, cfg.lam, rng)
    if cfg.feedback == "partial":
        schedule = step_schedule(
            "partial", cfg.rounds, dim, bounds,
            observed=cfg.observed, chi=cfg.chi, chi_full=cfg.chi_full, chi_bandit=cfg.chi_bandit,
        )
        return PartialBanditTracker(schedule, box, objective, cfg.lam, cfg.observed, rng)
    return BernoulliFeedbackTracker(
        cfg.rounds, box, objective, cfg.lam, bounds, rng,
        a=cfg.bernoulli_a, chi_full=cfg.chi_full, chi_bandit=cfg.chi_bandit,
        warmup=cfg.bernoulli_warmup,
    )


def _name_round(exc: Exception, round_index: int) -> None:
    """Prefix the exception's message with the round it belongs to."""
    head = f"round {round_index}: {exc.args[0]}" if exc.args else f"round {round_index}"
    exc.args = (head,) + exc.args[1:]


def run_trial(config: ScenarioConfig, trial_index: int = 0) -> TrialResult:
    """One closed-loop trial: setpoint, play, respond, feed back, record, evolve.

    The noise stream is independent of the played signals, so a paired
    no-control baseline is simply the squared effective setpoint. The
    fleet's state (temperatures, states of charge) is output only, so the
    round loop holds just the tracker protocol; the fleet steps once through
    the played block and the ledger is scored over it after the loop.
    """
    cfg = config.resolved()
    seed_seq = np.random.SeedSequence([int(cfg.seed), int(trial_index)])
    fleet_rng, response_rng, algo_rng = (np.random.default_rng(s) for s in seed_seq.spawn(3))
    n = cfg.n_loads
    is_tcl = cfg.scenario == "tcl"

    if is_tcl:
        fleet = tcl_fleet_init(cfg.n_loads, fleet_rng, cfg.tcl_ranges, cfg.ambient, cfg.step_hours)
        baseline_power = fleet.baseline_power()
        response_max = float(fleet.response_base.max()) + cfg.noise.hi
    else:
        fleet = EvFleet(cfg.ev_params, cfg.n_loads, cfg.step_hours)
        baseline_power = 0.0
        response_max = max(cfg.ev_params.charge_rate_kw, cfg.ev_params.discharge_rate_kw) + cfg.noise.hi

    box = cfg.decision_box()
    dim = box.dim
    warmup = 2 if (cfg.feedback == "bernoulli" and cfg.bernoulli_warmup) else 0
    total_rounds = cfg.rounds + warmup
    t_values = np.arange(1 - warmup, cfg.rounds + 1)
    setpoints_eff = make_setpoint(cfg.setpoint, t_values) - baseline_power

    if is_tcl:
        responses = fleet.response_base + cfg.noise.sample(response_rng, size=(total_rounds, dim))
    else:
        responses = np.empty((total_rounds, dim))
        responses[:, :n] = cfg.ev_params.charge_rate_kw + cfg.noise.sample(response_rng, size=(total_rounds, n))
        responses[:, n:] = cfg.ev_params.discharge_rate_kw + cfg.noise.sample(response_rng, size=(total_rounds, n))

    rho_eff = cfg.effective_rho()
    setpoint_max = float(np.max(np.abs(setpoints_eff)))
    bounds = conservative_bounds(box, setpoint_max, response_max, rho_eff)
    tracker = _build_tracker(cfg, box, bounds, rho_eff, algo_rng)

    T = cfg.rounds
    mean_norm = np.empty(T)
    # Warm-up rows included: the fleet steps through every played row.
    played_all = np.empty((total_rounds, dim))
    infos = []
    tracker_objective = tracker.objective
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
            mean_norm[i - warmup] = tracker_objective.mean_norm()

    track = min(cfg.track_loads, n)
    try:
        if is_tcl:
            # Every played row is range-checked, but only the tracked loads are stepped.
            states = fleet.head(track).step(signal_block(played_all)[:, :track])
        else:
            states = fleet.step(played_all, responses)
    except SignalRangeError as exc:
        _name_round(exc, exc.row - warmup + 1)
        raise
    trajectories = states[warmup:, :track].copy()
    del states  # the (rounds, n) block is not needed for scoring

    played_hist = played_all[warmup:]
    scored = responses[warmup:]
    # The same per-row dot product as resp @ played, for every scored round at once.
    aggregate = np.matmul(scored[:, None, :], played_hist[:, :, None]).reshape(T)
    err = setpoints_eff[warmup:] - aggregate
    tracking = err * err
    l1 = np.abs(played_hist).sum(axis=1)
    objective = tracking + rho_eff * mean_norm ** 2 + cfg.lam * l1

    if is_tcl:
        simultaneous = np.zeros(T, dtype=bool)
    else:
        simultaneous = (
            np.minimum(np.abs(played_hist[:, :n]), np.abs(played_hist[:, n:])) > SIMULTANEITY_TOL
        ).any(axis=1)
    ledger = MetricsLedger(
        setpoint_eff=setpoints_eff[warmup:].copy(),
        aggregate=aggregate,
        tracking=tracking,
        objective=objective,
        mean_norm=mean_norm,
        l1=l1,
        simultaneous=simultaneous,
        baseline_tracking=setpoints_eff[warmup:] ** 2,
        responses=scored,
        played=played_hist,
        rho_eff=rho_eff,
        lam=cfg.lam,
        ev_params=None if is_tcl else cfg.ev_params,
    )
    return TrialResult(
        ledger=ledger,
        trajectories=trajectories,
        saturation_events=0 if is_tcl else fleet.saturation_events,
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
    value: float
    converged: bool
    iterations: int


def hindsight_optimum(
    responses,
    setpoints,
    rho: float,
    lam: float,
    box: Box,
    mean_weights=None,
    max_iters: int = 10_000,
    tol: float = 1e-6,
) -> HindsightResult:
    """Best fixed signal in hindsight for the summed composite objective.

    Minimizes sum_t (s_t - r_t.mu)^2 + rho * sum_t ||m_t(mu)||^2
    + T * lam * ||mu||_1 over the box, where m_t is the identity for the
    plain mean penalty or, given the EV ``mean_weights`` rows w_t of
    ``running_mean_weights``, m_t(mu) = w_t[:n]*mu[:n] + w_t[n:]*mu[n:]
    for the stacked (charge, discharge) signal. Solved by proximal gradient descent
    with a 1/L step; the l1 kink goes through the prox, the box through
    clipping. Returns the best iterate with a convergence flag.

    When the origin satisfies the KKT conditions, |2b| <= T*lam elementwise
    for b = R^T s with the box containing 0, the first prox step from the
    origin returns to it whatever the step size, so the descent would stop
    there after one iteration. That result (the origin, its value,
    converged, one iteration) is returned at once, without the eigensolve
    that sets the step size.
    """
    R = np.asarray(responses, dtype=float)
    s = np.asarray(setpoints, dtype=float)
    T, dim = R.shape
    if s.shape != (T,):
        raise ValueError("setpoints must match the response rows")
    if box.dim != dim:
        raise ValueError("box dimension must match the response columns")
    A = R.T @ R
    if rho:
        if mean_weights is None:
            A = A + rho * T * np.eye(dim)
        else:
            W = np.asarray(mean_weights, dtype=float)
            if W.shape != (T, dim) or dim % 2:
                raise ValueError("mean_weights must be (rounds, dim) with an even dim")
            # sum_t of m_t's Gram matrix: each coordinate meets only itself and its twin.
            n = dim // 2
            gram = np.diag((W * W).sum(axis=0))
            gram[:n, n:] = gram[n:, :n] = np.diag((W[:, :n] * W[:, n:]).sum(axis=0))
            A = A + rho * gram
    b = R.T @ s
    const = float(s @ s)
    l1_weight = T * lam

    def value(mu):
        return float(mu @ A @ mu - 2.0 * b @ mu + const + l1_weight * np.abs(mu).sum())

    mu = np.zeros(dim)
    best_mu, best_val = mu.copy(), value(mu)
    # A finite value at 0 means A and l1_weight are finite, and tol >= 0 is the
    # descent's own stop test between two equal values.
    if (max_iters >= 1 and box.contains_zero and math.isfinite(best_val) and tol >= 0
            and (np.abs(2.0 * b) <= l1_weight).all()):
        return HindsightResult(best_mu, best_val, True, 1)

    eig_max = float(np.linalg.eigvalsh(A)[-1]) if dim > 1 else float(A[0, 0])
    step = 1.0 / max(2.0 * eig_max, 1e-12)
    prev_val = best_val
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        grad = 2.0 * (A @ mu - b)
        mu = box.clip(soft_threshold(mu - step * grad, step * l1_weight))
        val = value(mu)
        if val < best_val:
            best_val, best_mu = val, mu.copy()
        if abs(prev_val - val) <= tol * max(1.0, abs(val)):
            converged = True
            break
        prev_val = val
    return HindsightResult(best_mu, best_val, converged, iterations)


def comparator_round_losses(
    responses, setpoints, signal, rho: float, lam: float, mean_weights=None
) -> np.ndarray:
    """Per-round composite loss of a fixed signal, with ``hindsight_optimum``'s running mean m_t."""
    R = np.asarray(responses, dtype=float)
    s = np.asarray(setpoints, dtype=float)
    errs = s - R @ signal
    losses = errs ** 2 + lam * float(np.abs(signal).sum())
    if rho:
        if mean_weights is None:
            losses = losses + rho * float(signal @ signal)
        else:
            W, n = np.asarray(mean_weights, dtype=float), len(signal) // 2
            mean = W[:, :n] * signal[:n] + W[:, n:] * signal[n:]
            losses = losses + rho * (mean * mean).sum(axis=1)
    return losses


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
    tol: float = 1e-6,
) -> RegretReport:
    """Cumulative loss gap to mu*_T, the best fixed signal over rounds 1..T.

    Entry t sums f_k(x_k) - f_k(mu*_T) over k <= t: one comparator for every t, not the regret
    R(t) against the best signal of rounds 1..t. f_k is the tracker's own loss, on the played signals.
    """
    T = ledger.rounds if upto is None else int(upto)
    if not 1 <= T <= ledger.rounds:
        raise ValueError("upto must lie in [1, rounds]")
    weights = None if ledger.ev_params is None else running_mean_weights(ledger.ev_params, ledger.responses[:T])
    opt = hindsight_optimum(
        ledger.responses[:T], ledger.setpoint_eff[:T], ledger.rho_eff, ledger.lam,
        box, mean_weights=weights, max_iters=max_iters, tol=tol,
    )
    comp = comparator_round_losses(
        ledger.responses[:T], ledger.setpoint_eff[:T], opt.signal,
        ledger.rho_eff, ledger.lam, mean_weights=weights,
    )
    series = np.cumsum(ledger.objective[:T]) - np.cumsum(comp)
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
    """Total tracking-loss reduction relative to playing no signal at all."""
    base = float(ledger.baseline_tracking.sum())
    return 100.0 * (1.0 - float(ledger.tracking.sum()) / base)


def per_round_reduction_pct(series, reference, floor: float = 1e-12) -> float:
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
    if ref_mean <= floor:
        return 0.0
    return float(100.0 * (1.0 - float(series.mean()) / ref_mean))


def simultaneity_pct(ledger: MetricsLedger) -> float:
    return float(100.0 * np.mean(ledger.simultaneous))


@dataclass
class TrialSummary:
    improvement_pct: float
    simultaneity_pct: float


@dataclass
class ExperimentResult:
    """A case's trial summaries, averaged round series and first-trial trajectories."""

    config: ScenarioConfig
    summaries: list
    rounds: dict
    trajectories: np.ndarray

    def mean_summary(self) -> dict:
        keys = ("improvement_pct", "simultaneity_pct")
        return {k: float(np.mean([getattr(s, k) for s in self.summaries])) for k in keys}


def _add_trial(cfg: ScenarioConfig, trial_index: int, sums: dict) -> tuple[TrialSummary, np.ndarray]:
    """Run one trial, add its series into ``sums``; return its summary and trajectories.

    The trial's result goes out of scope on return, so its blocks are freed
    before the next trial starts.
    """
    trial = run_trial(cfg, trial_index)
    ledger = trial.ledger
    if cfg.compute_regret:
        sums["regret"] += empirical_regret(ledger, trial.box, max_iters=cfg.hindsight_iters).series
    sums["setpoint_eff"] += ledger.setpoint_eff
    sums["aggregate"] += ledger.aggregate
    sums["tracking"] += ledger.tracking
    sums["mean_norm"] += ledger.mean_norm
    sums["l1"] += ledger.l1
    summary = TrialSummary(
        improvement_pct=improvement_pct(ledger),
        simultaneity_pct=simultaneity_pct(ledger),
    )
    return summary, trial.trajectories


def run_experiment(config: ScenarioConfig) -> ExperimentResult:
    """Run all trials of one scenario/feedback case and average the series.

    Only the first trial's trajectories are kept; every trial is released
    once it is scored.
    """
    cfg = config.resolved()
    T = cfg.rounds
    sums = {
        name: np.zeros(T)
        for name in ("setpoint_eff", "aggregate", "tracking", "mean_norm", "l1", "regret")
    }
    first, trajectories = _add_trial(cfg, 0, sums)
    summaries = [first] + [_add_trial(cfg, k, sums)[0] for k in range(1, cfg.trials)]
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
        summary["mean_improvement_pct"] = per_round_reduction_pct(
            result.rounds["mean_norm"], unregularized.rounds["mean_norm"]
        )
        summary["sparsity_improvement_pct"] = per_round_reduction_pct(
            result.rounds["l1"], unregularized.rounds["l1"]
        )
    return summary
