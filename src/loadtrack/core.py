"""Numerical kernels for online setpoint tracking.

The closed-form composite proximal update, sphere sampling for gradient
estimation, box projections, and step-size schedules (the tracking
loss, its gradient and the running mean live in
``algorithms.QuadraticTrackingObjective``). Every operation is a pure
function of its inputs; random draws take an explicit generator, so
everything here is safe to call concurrently. Parameter checks are
written ``not x > 0`` so that a NaN fails them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Box",
    "ConfigError",
    "EnvBounds",
    "StepSchedule",
    "UnsupportedBoxError",
    "conservative_bounds",
    "gradient_estimate",
    "project_shrunk_box",
    "prox_step",
    "sample_unit_sphere",
    "soft_threshold",
    "step_schedule",
]

SCHEDULE_KINDS = ("full", "bandit", "partial", "bernoulli")

# Numerical tolerances; tests may monkeypatch these.
UNIT_NORM_TOL = 1e-9
BOX_MEMBERSHIP_TOL = 1e-12
DEGENERATE_NORM_FLOOR = 1e-12


class ConfigError(ValueError):
    """Invalid parameter or parameter combination."""


class UnsupportedBoxError(ValueError):
    """Box incompatible with the closed-form proximal update."""


_FLOAT64 = np.dtype(np.float64)


def _vector(x, name: str = "vector") -> np.ndarray:
    # Fast path: np.asarray would hand back this very array.
    if type(x) is np.ndarray and x.dtype is _FLOAT64 and x.ndim == 1:
        return x
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    return arr


def _same_length(a: np.ndarray, b: np.ndarray, what: str) -> None:
    if a.shape != b.shape:
        raise ValueError(f"length mismatch in {what}: {a.shape[0]} vs {b.shape[0]}")


@dataclass(frozen=True)
class Box:
    """Per-coordinate decision box [lo, hi].

    The bounds are validated once and kept as read-only copies, so the
    facts derived from them are cached for the life of the box: whether
    0 lies inside (``contains_zero``), each ``shrunk(delta)`` box and the
    bounds widened by each tolerance ``contains`` is asked with.
    """

    lo: np.ndarray
    hi: np.ndarray
    contains_zero: bool = field(init=False, repr=False, compare=False)
    _shrunk: dict = field(init=False, repr=False, compare=False)
    _widened: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lo = np.array(_vector(self.lo, "lo"))
        hi = np.array(_vector(self.hi, "hi"))
        _same_length(lo, hi, "box bounds")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("box bounds must be finite")
        if (lo > hi).any():
            raise ValueError("box requires lo <= hi coordinate-wise")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "contains_zero", not ((lo > 0.0).any() or (hi < 0.0).any()))
        object.__setattr__(self, "_shrunk", {})
        object.__setattr__(self, "_widened", {})

    @classmethod
    def symmetric(cls, dim: int, half_width: float = 1.0) -> "Box":
        if dim < 1:
            raise ValueError("dim must be positive")
        w = float(half_width)
        return cls(np.full(dim, -w), np.full(dim, w))

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def clip(self, x) -> np.ndarray:
        return np.minimum(np.maximum(np.asarray(x, dtype=float), self.lo), self.hi)

    def contains(self, x, tol: float = BOX_MEMBERSHIP_TOL) -> bool:
        widened = self._widened.get(tol)
        if widened is None:
            widened = self._widened[tol] = (self.lo - tol, self.hi + tol)
        arr = np.asarray(x, dtype=float)
        return bool((arr >= widened[0]).all() and (arr <= widened[1]).all())

    def shrunk(self, delta: float) -> "Box":
        """The set scaled by (1 - delta), so a delta-ball perturbation stays inside."""
        inner = self._shrunk.get(delta)
        if inner is None:
            if not 0.0 < delta < 1.0:
                raise ValueError("delta must lie in (0, 1)")
            inner = self._shrunk[delta] = Box((1.0 - delta) * self.lo, (1.0 - delta) * self.hi)
        return inner

    def diameter(self) -> float:
        return float(np.linalg.norm(self.hi - self.lo))


def gradient_estimate(loss_value: float, v, dim: int, delta: float) -> np.ndarray:
    """One-point gradient estimate (dim/delta) * loss * v from a perturbed play."""
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    v = _vector(v, "v")
    if v.shape[0] != dim:
        raise ValueError(f"direction has length {v.shape[0]}, expected {dim}")
    nrm = math.sqrt(v @ v)
    if abs(nrm - 1.0) > UNIT_NORM_TOL:
        raise ValueError(f"direction must be unit norm, got {nrm!r}")
    return (dim / delta) * float(loss_value) * v


def sample_unit_sphere(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the unit sphere; normalized standard Gaussians."""
    if dim < 1:
        raise ValueError("dim must be positive")
    if dim == 1:
        return np.array([1.0 if rng.random() < 0.5 else -1.0])
    while True:
        g = rng.standard_normal(dim)
        nrm = math.sqrt(g @ g)
        if nrm > DEGENERATE_NORM_FLOOR:
            return g / nrm


def soft_threshold(y, threshold: float) -> np.ndarray:
    """Shrink toward zero: sign(y) * max(|y| - threshold, 0)."""
    y = np.asarray(y, dtype=float)
    if threshold == 0.0:
        # The same bits as the general formula: y itself, with -0 mapped to +0.
        return y + 0.0
    return np.sign(y) * np.maximum(np.abs(y) - threshold, 0.0)


def prox_step(mu_t, grad, eta: float, lam: float, box: Box) -> np.ndarray:
    """Closed-form composite update: gradient step, soft threshold, clip.

    Exact minimizer of eta*g.mu + 0.5*||mu_t - mu||^2 + eta*lam*||mu||_1
    over the box. Requires lo <= 0 <= hi on every coordinate, which all
    decision boxes used here satisfy.
    """
    mu_t = _vector(mu_t, "mu_t")
    grad = _vector(grad, "grad")
    _same_length(mu_t, grad, "prox step")
    if box.dim != mu_t.shape[0]:
        raise ValueError("box dimension mismatch")
    if not eta > 0.0:
        raise ValueError("eta must be positive")
    if not lam >= 0.0:
        raise ValueError("lam must be nonnegative")
    if not box.contains_zero:
        raise UnsupportedBoxError("prox_step requires a box containing 0 coordinate-wise")
    y = mu_t - eta * grad
    return box.clip(soft_threshold(y, eta * lam))


def project_shrunk_box(mu, delta: float, box: Box) -> np.ndarray:
    """Euclidean projection onto the box scaled by (1 - delta); delta in (0, 1)."""
    return box.shrunk(delta).clip(mu)


@dataclass(frozen=True)
class EnvBounds:
    """Conservative problem constants used by the step-size schedules.

    gradient_bound caps the gradient norm of the smooth loss (and so the
    loss variation per unit signal change), loss_bound caps the smooth
    loss itself, and diameter is the decision-box diameter.
    """

    gradient_bound: float
    loss_bound: float
    diameter: float

    def __post_init__(self):
        if not (self.gradient_bound > 0 and self.loss_bound > 0 and self.diameter > 0):
            raise ValueError("bounds must be positive")


def conservative_bounds(box: Box, setpoint_max: float, response_max: float, rho: float = 0.0) -> EnvBounds:
    """Worst-case loss and gradient bounds derived from the configuration.

    Uses |s| <= setpoint_max, per-coordinate responses <= response_max and
    signals confined to the box; nothing here is estimated online.
    """
    if setpoint_max < 0 or response_max <= 0:
        raise ValueError("setpoint_max must be nonnegative, response_max positive")
    n = box.dim
    signal_norm_max = float(np.linalg.norm(np.maximum(np.abs(box.lo), np.abs(box.hi))))
    response_norm_max = response_max * math.sqrt(n)
    worst_err = setpoint_max + response_norm_max * signal_norm_max
    loss_bound = worst_err ** 2 + rho * signal_norm_max ** 2
    gradient_bound = 2.0 * response_norm_max * worst_err + 2.0 * rho * signal_norm_max
    return EnvBounds(gradient_bound, loss_bound, box.diameter())


@dataclass(frozen=True)
class StepSchedule:
    """Step sizes for one feedback regime.

    full:      eta
    bandit:    eta, delta
    partial:   eta (bandit block), eta2 (observed block), delta
    bernoulli: eta (full rounds), eta2 (bandit rounds), delta
    """

    kind: str
    eta: float
    eta2: float | None = None
    delta: float | None = None

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not self.eta > 0.0:
            raise ValueError("eta must be positive")
        if self.eta2 is not None and not self.eta2 > 0.0:
            raise ValueError("eta2 must be positive")
        if self.delta is not None and not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")


def step_schedule(
    kind: str,
    horizon: int,
    n_loads: int,
    bounds: EnvBounds,
    *,
    observed: int | None = None,
    chi: float = 1.0,
    chi_full: float | None = None,
    chi_bandit: float | None = None,
    bernoulli_a: float | None = None,
    bandit_rounds: int | None = None,
) -> StepSchedule:
    """Tuned step sizes for the given feedback regime and horizon.

    ``observed`` is the number of individually monitored loads (partial
    kind); ``bandit_rounds`` is the realized count of aggregate-feedback
    rounds (bernoulli kind). ``chi_full``/``chi_bandit`` default to ``chi``.
    """
    if kind not in SCHEDULE_KINDS:
        raise ConfigError(f"unknown schedule kind {kind!r}")
    if horizon < 1:
        raise ConfigError("horizon must be >= 1")
    if n_loads < 1:
        raise ConfigError("n_loads must be >= 1")
    if not chi > 0:
        raise ConfigError("chi must be positive")
    T = float(horizon)
    G, B, D = bounds.gradient_bound, bounds.loss_bound, bounds.diameter
    cf = chi if chi_full is None else float(chi_full)
    cb = chi if chi_bandit is None else float(chi_bandit)

    if kind == "full":
        eta = chi * math.sqrt(4.0 * n_loads / (G * G * T))
        return StepSchedule("full", eta)

    if kind == "bandit":
        eta = D * chi / (B * n_loads * T ** 0.75)
        return StepSchedule("bandit", eta, delta=T ** -0.25)

    if kind == "partial":
        if observed is None or not 1 <= observed <= n_loads - 1:
            raise ConfigError("partial kind needs 1 <= observed <= n_loads - 1")
        nb = n_loads - observed
        diam_b = D * math.sqrt(nb / n_loads)
        diam_f = D * math.sqrt(observed / n_loads)
        eta = diam_b * cb / (B * nb * T ** 0.75)
        eta2 = cf * diam_f / (G * math.sqrt(T))
        return StepSchedule("partial", eta, eta2=eta2, delta=T ** -0.25)

    # bernoulli
    if bernoulli_a is None or bandit_rounds is None:
        raise ConfigError("bernoulli kind needs bernoulli_a and the realized bandit_rounds")
    if not bernoulli_a >= 0:
        raise ConfigError("bernoulli_a must be nonnegative")
    p = bernoulli_a / T ** (1.0 / 3.0)
    if p > 1.0:
        raise ConfigError(f"bandit probability a/T^(1/3) = {p:.4f} exceeds 1")
    if not 0 <= bandit_rounds <= horizon:
        raise ConfigError("bandit_rounds must lie in [0, horizon]")
    eta = D * cf / (G * math.sqrt(T - bandit_rounds + 1))
    eta2 = D * cb / (B * n_loads * (bandit_rounds + 1) ** 0.75)
    # T_B = 0 would give delta = 1 and an empty shrunk box; cap it.
    delta = min((bandit_rounds + 1) ** -0.25, 0.5)
    return StepSchedule("bernoulli", eta, eta2=eta2, delta=delta)
