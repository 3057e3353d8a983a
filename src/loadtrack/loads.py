"""Physical fleet models: TCL thermal dynamics and EV batteries.

Fleets turn adjustment signals into electrical responses and evolve
their internal state (temperature or state-of-charge). All per-load
quantities are stored as vectors over the fleet.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import RunningMean, running_mean_candidate, running_mean_update

__all__ = [
    "EvFleet",
    "EvParams",
    "InfeasibleLoadError",
    "NoiseSpec",
    "SamplingError",
    "TclFleet",
    "TclRanges",
    "WeightedChargeObjective",
    "ev_loss_and_gradient",
    "ev_soc_step",
    "sample_truncated_gaussian",
    "tcl_apply_signal",
    "tcl_fleet_init",
    "tcl_steady_control",
    "tcl_temp_step",
]

MAX_REJECTIONS = 1_000_000
FLEET_INIT_MAX_REDRAWS = 1_000


class InfeasibleLoadError(ValueError):
    """Load parameters leave no room for control adjustments."""


class SamplingError(RuntimeError):
    """Rejection sampling exhausted its draw budget."""


@dataclass(frozen=True)
class NoiseSpec:
    """Truncated Gaussian noise: N(mean, sd) conditioned on [lo, hi]."""

    mean: float = 0.0
    sd: float = 0.5
    lo: float = -1.0
    hi: float = 1.0

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("noise requires lo < hi")
        if self.sd < 0:
            raise ValueError("noise sd must be nonnegative")

    def sample(self, rng: np.random.Generator, size=None):
        return sample_truncated_gaussian(self.mean, self.sd, self.lo, self.hi, rng, size=size)


def sample_truncated_gaussian(mean, sd, lo, hi, rng: np.random.Generator, size=None):
    """Gaussian draw conditioned on [lo, hi], by rejection.

    The supports used here are at least two standard deviations wide, so
    acceptance stays high; a budget of one million rejected draws guards
    against degenerate configurations.
    """
    if not lo < hi:
        raise ValueError("requires lo < hi")
    if sd < 0:
        raise ValueError("sd must be nonnegative")
    scalar = size is None
    n = 1 if scalar else int(np.prod(size))
    if sd == 0:
        if not lo <= mean <= hi:
            raise ValueError("degenerate sd=0 with mean outside [lo, hi]")
        out = np.full(n, float(mean))
        return float(out[0]) if scalar else out.reshape(size)
    out = np.empty(n)
    pending = np.arange(n)
    rejected = 0
    while pending.size:
        draws = mean + sd * rng.standard_normal(pending.size)
        ok = (draws >= lo) & (draws <= hi)
        out[pending[ok]] = draws[ok]
        rejected += int(pending.size - ok.sum())
        if rejected > MAX_REJECTIONS:
            raise SamplingError(f"more than {MAX_REJECTIONS} rejected draws for [{lo}, {hi}]")
        pending = pending[~ok]
    return float(out[0]) if scalar else out.reshape(size)


# --- Thermostatically controlled loads -----------------------------------


@dataclass(frozen=True)
class TclRanges:
    """Uniform sampling ranges for per-load thermal parameters."""

    resistance_lo: float = 1.5   # degC/kW
    resistance_hi: float = 2.5
    capacitance_lo: float = 8.0  # kWh/degC
    capacitance_hi: float = 12.0
    power_lo: float = 10.0       # kW
    power_hi: float = 18.0
    cop_lo: float = 2.0
    cop_hi: float = 3.0
    setpoint_lo: float = 20.0    # degC desired temperature
    setpoint_hi: float = 25.0


def tcl_steady_control(resistance, rated_power, cop, desired_temp, ambient):
    """Steady-state duty, response coefficient and unit power of a TCL.

    m_bar = (theta_a - theta_d) / (P_R * R) holds the load at its desired
    temperature; c0 = (P_R / COP) * min(m_bar, 1 - m_bar) is the power
    swing available per unit adjustment signal.
    """
    resistance = np.asarray(resistance, dtype=float)
    rated_power = np.asarray(rated_power, dtype=float)
    cop = np.asarray(cop, dtype=float)
    desired_temp = np.asarray(desired_temp, dtype=float)
    m_bar = (ambient - desired_temp) / (rated_power * resistance)
    if np.any(m_bar <= 0.0) or np.any(m_bar >= 1.0):
        raise InfeasibleLoadError("steady duty must lie strictly inside (0, 1)")
    unit_power = rated_power / cop
    response_base = unit_power * np.minimum(m_bar, 1.0 - m_bar)
    return m_bar, response_base, unit_power


def tcl_temp_step(theta, resistance, capacitance, rated_power, ambient, duty, hours):
    """One step of the first-order thermal model.

    theta' = b*theta + (1-b)*(theta_a - m*R*P_R) with b = exp(-h/(R*C)).
    """
    b = _tcl_decay(resistance, capacitance, hours)
    return _tcl_relax(theta, b, 1.0 - b, resistance, rated_power, ambient, duty)


def _tcl_decay(resistance, capacitance, hours):
    """The per-load decay b = exp(-h/(R*C)) of one step."""
    if (np.asarray(hours) <= 0).any():
        raise ValueError("hours must be positive")
    resistance = np.asarray(resistance, dtype=float)
    return np.exp(-hours / (resistance * np.asarray(capacitance, dtype=float)))


def _tcl_relax(theta, b, b_rest, resistance, rated_power, ambient, duty):
    """The thermal step given b and b_rest = 1 - b."""
    duty = np.asarray(duty, dtype=float)
    if (duty < -1e-12).any() or (duty > 1 + 1e-12).any():
        raise ValueError("duty must lie in [0, 1]")
    return b * np.asarray(theta, dtype=float) + b_rest * (
        ambient - duty * np.asarray(resistance, dtype=float) * np.asarray(rated_power, dtype=float)
    )


def tcl_apply_signal(signal, m_bar):
    """Duty commanded by an adjustment signal: m_bar + mu * min(m_bar, 1 - m_bar).

    The symmetric swing keeps the result in [0, 1] and makes mu = 0 hold
    the steady state.
    """
    m_bar = np.asarray(m_bar, dtype=float)
    return _tcl_duty(signal, m_bar, np.minimum(m_bar, 1.0 - m_bar))


def _tcl_duty(signal, m_bar, swing):
    """The duty given the swing min(m_bar, 1 - m_bar)."""
    signal = np.asarray(signal, dtype=float)
    if (np.abs(signal) > 1 + 1e-9).any():
        raise ValueError("adjustment signals must lie in [-1, 1]")
    return np.minimum(np.maximum(m_bar + signal * swing, 0.0), 1.0)


@dataclass
class TclFleet:
    """A fleet of thermostatically controlled loads and their temperatures.

    The per-load constants of every step (steady duty, swing, decay b and
    1 - b) are computed once, when the fleet is built.
    """

    resistance: np.ndarray
    capacitance: np.ndarray
    rated_power: np.ndarray
    cop: np.ndarray
    desired_temp: np.ndarray
    ambient: float
    step_hours: float
    theta: np.ndarray = field(init=False)
    m_bar: np.ndarray = field(init=False)
    response_base: np.ndarray = field(init=False)
    unit_power: np.ndarray = field(init=False)
    swing: np.ndarray = field(init=False)
    decay: np.ndarray = field(init=False)
    decay_rest: np.ndarray = field(init=False)

    def __post_init__(self):
        self.m_bar, self.response_base, self.unit_power = tcl_steady_control(
            self.resistance, self.rated_power, self.cop, self.desired_temp, self.ambient
        )
        self.theta = self.desired_temp.astype(float).copy()
        self.swing = np.minimum(self.m_bar, 1.0 - self.m_bar)
        self.decay = _tcl_decay(self.resistance, self.capacitance, self.step_hours)
        self.decay_rest = 1.0 - self.decay

    @property
    def size(self) -> int:
        return self.resistance.shape[0]

    def baseline_power(self) -> float:
        """Aggregate consumption when every load holds its steady duty."""
        return float(self.unit_power @ self.m_bar)

    def step(self, signal: np.ndarray) -> None:
        duty = _tcl_duty(signal, self.m_bar, self.swing)
        self.theta = _tcl_relax(
            self.theta, self.decay, self.decay_rest, self.resistance, self.rated_power,
            self.ambient, duty,
        )

    PARAM_COLUMNS = ("resistance", "capacitance", "rated_power", "cop", "desired_temp")

    def save_params(self, path) -> None:
        """Dump per-load parameters, one row per load, columns as in PARAM_COLUMNS."""
        table = np.column_stack([getattr(self, col) for col in self.PARAM_COLUMNS])
        np.savetxt(path, table, fmt="%.17g", header=" ".join(self.PARAM_COLUMNS))

    @classmethod
    def load_params(cls, path, ambient: float, step_hours: float) -> "TclFleet":
        table = np.loadtxt(path, ndmin=2)
        if table.shape[1] != len(cls.PARAM_COLUMNS):
            raise ValueError(f"expected {len(cls.PARAM_COLUMNS)} columns")
        cols = dict(zip(cls.PARAM_COLUMNS, table.T))
        return cls(ambient=ambient, step_hours=step_hours, **cols)


def tcl_fleet_init(
    n_loads: int,
    rng: np.random.Generator,
    ranges: TclRanges = TclRanges(),
    ambient: float = 30.0,
    step_hours: float = 1.0 / 12.0,
) -> TclFleet:
    """Sample a fleet whose steady duties all land strictly inside (0.05, 0.95)."""
    if n_loads < 1:
        raise ValueError("n_loads must be positive")

    def draw(lo, hi, k):
        return rng.uniform(lo, hi, size=k)

    resistance = np.empty(n_loads)
    capacitance = np.empty(n_loads)
    rated_power = np.empty(n_loads)
    cop = np.empty(n_loads)
    desired = np.empty(n_loads)
    pending = np.arange(n_loads)
    consecutive_rejects = 0
    while pending.size:
        k = pending.size
        r = draw(ranges.resistance_lo, ranges.resistance_hi, k)
        c = draw(ranges.capacitance_lo, ranges.capacitance_hi, k)
        p = draw(ranges.power_lo, ranges.power_hi, k)
        q = draw(ranges.cop_lo, ranges.cop_hi, k)
        d = draw(ranges.setpoint_lo, ranges.setpoint_hi, k)
        m_bar = (ambient - d) / (p * r)
        ok = (m_bar > 0.05) & (m_bar < 0.95)
        idx = pending[ok]
        resistance[idx] = r[ok]
        capacitance[idx] = c[ok]
        rated_power[idx] = p[ok]
        cop[idx] = q[ok]
        desired[idx] = d[ok]
        if ok.any():
            consecutive_rejects = 0
        else:
            consecutive_rejects += k
            if consecutive_rejects > FLEET_INIT_MAX_REDRAWS:
                raise InfeasibleLoadError("parameter ranges cannot produce feasible steady duties")
        pending = pending[~ok]
    return TclFleet(resistance, capacitance, rated_power, cop, desired, ambient, step_hours)


# --- Electric vehicles ----------------------------------------------------


@dataclass(frozen=True)
class EvParams:
    """Battery and charger constants shared by every vehicle in the fleet."""

    inj_eff: float = 0.85          # injection (charging) efficiency
    ext_eff: float = 0.85          # extraction (discharging) efficiency
    capacity_kwh: float = 10.0
    charge_rate_kw: float = 3.0
    discharge_rate_kw: float = 1.5

    def __post_init__(self):
        if not (0 < self.inj_eff <= 1 and 0 < self.ext_eff <= 1):
            raise ValueError("efficiencies must lie in (0, 1]")
        if min(self.capacity_kwh, self.charge_rate_kw, self.discharge_rate_kw) <= 0:
            raise ValueError("capacity and rates must be positive")


def _check_ev_signals(charge_sig, discharge_sig):
    charge_sig = np.asarray(charge_sig, dtype=float)
    discharge_sig = np.asarray(discharge_sig, dtype=float)
    if (charge_sig < -1e-9).any() or (charge_sig > 1 + 1e-9).any():
        raise ValueError("charging signals must lie in [0, 1]")
    if (discharge_sig > 1e-9).any() or (discharge_sig < -1 - 1e-9).any():
        raise ValueError("discharging signals must lie in [-1, 0]")
    return charge_sig, discharge_sig


def weighted_signal(params: EvParams, c_charge, c_discharge, charge_sig, discharge_sig):
    """Battery-impact-weighted signal entering the state of charge."""
    return (
        params.inj_eff * np.asarray(c_charge, dtype=float) * charge_sig
        + np.asarray(c_discharge, dtype=float) * discharge_sig / params.ext_eff
    )


def ev_loss_and_gradient(
    setpoint: float,
    c_charge,
    c_discharge,
    charge_sig,
    discharge_sig,
    rho: float,
    weighted_mean_prev: RunningMean,
    params: EvParams,
):
    """Tracking loss with the weighted-mean penalty and its two block gradients.

    loss = (s - c_c.mu_c - c_d.mu_d)^2 + rho * ||weighted mean incl. round t||^2.
    The penalty gradients carry the battery-impact weights through the
    chain rule: inj_eff*c_c on the charge block, c_d/ext_eff on discharge.
    """
    loss, grad_charge, grad_discharge, _ = _ev_loss_terms(
        setpoint, c_charge, c_discharge, charge_sig, discharge_sig, rho, weighted_mean_prev, params
    )
    return loss, grad_charge, grad_discharge


def _ev_loss_terms(setpoint, c_charge, c_discharge, charge_sig, discharge_sig, rho,
                   weighted_mean_prev, params):
    """``ev_loss_and_gradient`` plus the weighted signal it used (None when rho = 0)."""
    charge_sig, discharge_sig = _check_ev_signals(charge_sig, discharge_sig)
    c_charge = np.asarray(c_charge, dtype=float)
    c_discharge = np.asarray(c_discharge, dtype=float)
    err = float(setpoint) - float(c_charge @ charge_sig) - float(c_discharge @ discharge_sig)
    grad_charge = -2.0 * c_charge * err
    grad_discharge = -2.0 * c_discharge * err
    loss = err * err
    term = None
    if rho != 0.0:
        t = weighted_mean_prev.rounds + 1
        term = weighted_signal(params, c_charge, c_discharge, charge_sig, discharge_sig)
        cand = running_mean_candidate(weighted_mean_prev, term)
        loss += rho * float(cand @ cand)
        grad_charge = grad_charge + (2.0 * rho / t) * (params.inj_eff * c_charge) * cand
        grad_discharge = grad_discharge + (2.0 * rho / t) * (c_discharge / params.ext_eff) * cand
    return loss, grad_charge, grad_discharge, term


def ev_soc_step(soc, params: EvParams, c_charge, c_discharge, charge_sig, discharge_sig, hours: float):
    """Advance the state of charge one step and clamp it to [0, 1].

    Returns the new SoC, the weighted signal of the round and the number
    of vehicles that saturated.
    """
    if hours <= 0:
        raise ValueError("hours must be positive")
    charge_sig, discharge_sig = _check_ev_signals(charge_sig, discharge_sig)
    term = weighted_signal(params, c_charge, c_discharge, charge_sig, discharge_sig)
    raw = np.asarray(soc, dtype=float) + (hours / params.capacity_kwh) * term
    clamped = raw.clip(0.0, 1.0)
    saturated = int(np.count_nonzero(raw != clamped))
    return clamped, term, saturated


@dataclass
class EvFleet:
    """A fleet of identical EV storage units: state of charge and saturation count."""

    params: EvParams
    n_vehicles: int
    step_hours: float = 1.0 / 60.0
    initial_soc: float = 0.75

    def __post_init__(self):
        if self.n_vehicles < 1:
            raise ValueError("n_vehicles must be positive")
        if not 0 <= self.initial_soc <= 1:
            raise ValueError("initial_soc must lie in [0, 1]")
        self.soc = np.full(self.n_vehicles, float(self.initial_soc))
        self.saturation_events = 0

    @property
    def size(self) -> int:
        return self.n_vehicles

    def step(self, c_charge, c_discharge, charge_sig, discharge_sig) -> None:
        self.soc, _, saturated = ev_soc_step(
            self.soc, self.params, c_charge, c_discharge, charge_sig, discharge_sig, self.step_hours
        )
        self.saturation_events += saturated


class WeightedChargeObjective:
    """Full-information EV objective: split-signal tracking with the weighted mean.

    Drop-in objective for ``FullInformationTracker`` over the stacked
    (charge, discharge) signal; response vectors stack the same way. The
    weighted signal ``value_and_gradient`` computes is kept for the
    ``advance`` of the same signal and responses.
    """

    def __init__(self, n_vehicles: int, rho: float, params: EvParams):
        self.n_vehicles = n_vehicles
        self.rho = float(rho)
        self.params = params
        self.weighted_mean = RunningMean.zero(n_vehicles)
        self._term = (None, None, None)  # (signal, responses, weighted signal)

    @property
    def round(self) -> int:
        return self.weighted_mean.rounds + 1

    def _split(self, stacked):
        stacked = np.asarray(stacked, dtype=float)
        if stacked.shape[0] != 2 * self.n_vehicles:
            raise ValueError(f"expected a stacked vector of length {2 * self.n_vehicles}")
        return stacked[: self.n_vehicles], stacked[self.n_vehicles :]

    def value_and_gradient(self, setpoint, responses, signal):
        c_charge, c_discharge = self._split(responses)
        charge_sig, discharge_sig = self._split(signal)
        loss, g_c, g_d, term = _ev_loss_terms(
            setpoint, c_charge, c_discharge, charge_sig, discharge_sig,
            self.rho, self.weighted_mean, self.params,
        )
        self._term = (signal, responses, term)
        return loss, np.concatenate([g_c, g_d])

    def advance(self, played, responses=None) -> None:
        if responses is None:
            raise ValueError("the EV objective needs the realized responses to advance")
        signal, seen, term = self._term
        self._term = (None, None, None)
        if term is None or signal is not played or seen is not responses:
            c_charge, c_discharge = self._split(responses)
            charge_sig, discharge_sig = self._split(played)
            term = weighted_signal(self.params, c_charge, c_discharge, charge_sig, discharge_sig)
        self.weighted_mean = running_mean_update(self.weighted_mean, term)
