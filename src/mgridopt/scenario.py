"""Exogenous profile generation.

Synthetic generators replace the learned scenario sampler with
parametric shapes that keep the qualitative features: solar is a
raised cosine inside a daylight window (exactly zero outside) under a
day-level cloud attenuation, wind is a mean-reverting AR(1) clipped at
zero, demand is a base plus Gaussian peak bumps.  All sampling runs on
numpy's PCG64 generator seeded explicitly, so identical seeds give
identical scenario sets on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DimensionError, power_balance_rhs
from .stochastic import ScenarioSet


class ProfileError(ValueError):
    """Malformed profile model."""


@dataclass(frozen=True)
class ProfileModel:
    """One exogenous profile family; `kind` selects which fields apply.

    solar: peak_kw, window=(first, last) step indices, cloud_sigma
    wind: mean_kw, rho (autocorrelation), sigma
    demand: base_kw, peaks=((center, width, height_kw), ...), sigma
    """

    kind: str
    K: int
    peak_kw: float = 0.0
    window: tuple = (5, 20)
    cloud_sigma: float = 0.0
    mean_kw: float = 0.0
    rho: float = 0.0
    sigma: float = 0.0
    base_kw: float = 0.0
    peaks: tuple = ()

    def __post_init__(self):
        if self.kind not in ("solar", "wind", "demand"):
            raise ProfileError(f"unknown profile kind {self.kind!r}")
        if self.K < 1:
            raise ProfileError(f"profile length must be >= 1, got {self.K}")
        if self.kind == "solar":
            if self.peak_kw < 0 or self.cloud_sigma < 0:
                raise ProfileError("solar needs peak_kw >= 0, sigma >= 0")
            if not (0 <= self.window[0] <= self.window[1]):
                raise ProfileError(f"bad daylight window {self.window}")
        elif self.kind == "wind":
            if self.mean_kw < 0 or self.sigma < 0 or not -1 < self.rho < 1:
                raise ProfileError("wind needs mean >= 0, |rho| < 1, sigma >= 0")
        elif self.kind == "demand":
            if self.base_kw < 0 or self.sigma < 0:
                raise ProfileError("demand needs base >= 0, sigma >= 0")

    @classmethod
    def solar(cls, K, peak_kw, window=(5, 20), cloud_sigma=0.0):
        return cls(kind="solar", K=K, peak_kw=peak_kw, window=tuple(window),
                   cloud_sigma=cloud_sigma)

    @classmethod
    def wind(cls, K, mean_kw, rho=0.0, sigma=0.0):
        return cls(kind="wind", K=K, mean_kw=mean_kw, rho=rho, sigma=sigma)

    @classmethod
    def demand(cls, K, base_kw, peaks=(), sigma=0.0):
        return cls(kind="demand", K=K, base_kw=base_kw,
                   peaks=tuple(tuple(p) for p in peaks), sigma=sigma)


def solar_base_curve(model: ProfileModel) -> np.ndarray:
    lo, hi = model.window
    base = np.zeros(model.K)
    span = max(hi - lo, 1)
    for k in range(model.K):
        if lo <= k <= hi:
            t = (k - lo) / span
            base[k] = model.peak_kw * 0.5 * (1.0 - np.cos(2.0 * np.pi * t))
    return base


def sample_profile(model: ProfileModel, seed=None) -> np.ndarray:
    """Draw one realization; deterministic per (model, seed)."""
    rng = np.random.default_rng(seed)
    if model.kind == "solar":
        attenuation = max(0.0, 1.0 - abs(rng.normal(0.0, model.cloud_sigma))) \
            if model.cloud_sigma > 0 else 1.0
        return solar_base_curve(model) * attenuation
    if model.kind == "wind":
        out = np.empty(model.K)
        level = model.mean_kw
        for k in range(model.K):
            noise = rng.normal(0.0, model.sigma) if model.sigma > 0 else 0.0
            level = model.mean_kw + model.rho * (level - model.mean_kw) + noise
            out[k] = max(level, 0.0)
        return out
    # demand
    ks = np.arange(model.K, dtype=float)
    out = np.full(model.K, float(model.base_kw))
    for center, width, height in model.peaks:
        out += height * np.exp(-0.5 * ((ks - center) / max(width, 1e-9)) ** 2)
    if model.sigma > 0:
        out += rng.normal(0.0, model.sigma, size=model.K)
    return np.maximum(out, 0.0)


def sample_scenarioset(renewable_models, R: int, K: int,
                       controllable_demands=(), critical_demands=(),
                       seed=0) -> ScenarioSet:
    """R independent renewable realizations and their balance vectors.

    Probabilities are uniform: the sampler has no information to weigh
    draws differently.  Scenario r uses the derived seed (seed, r,
    unit), so sets with equal seeds are identical and scenario streams
    are independent.  Every profile spans the K-step horizon.
    """
    if R < 1:
        raise DimensionError(f"scenario count must be >= 1, got {R}")
    base = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    realizations = []
    b_r = []
    for r in range(R):
        bundle = [sample_profile(m, seed=base + (r, i))
                  for i, m in enumerate(renewable_models)]
        realizations.append(bundle)
        b_r.append(power_balance_rhs(bundle, controllable_demands,
                                     critical_demands, K))
    return ScenarioSet(pi=np.full(R, 1.0 / R), b_r=b_r,
                       realizations=realizations)

