"""Pairwise sensitivity at scale eps, and the sensitivity/equicontinuity dichotomy.

A pair (x, y) is eps-separated by horizon T when some iterate 1 <= n <= T
has d(T^n x, T^n y) >= eps. Since the attainable distance values are
2 > 3/2 > 1 > 1/2 > ..., the test "d >= eps" reduces to disagreement on an
explicit witness window, which keeps the finite-radius computation exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .core import DEFAULT_ENUMERATION_CAP, window_size
from .measures import Measure
from .orbit import EquicontinuityReport, mu_equicontinuity_report, _require_cantor_measure, _require_lebesgue
from .rng import derive_seed, substream
from .systems import (
    Rotation,
    System,
    check_measure_alphabet,
    pack_bits,
    pack_planes,
    step_cost,
    step_planes,
    system_sided,
    unpack_bits,
    window_slice,
)

EpsLike = Union[int, float, Fraction]


def separation_window(eps: EpsLike) -> int:
    """Smallest w such that agreement on W_w refutes d >= eps.

    Distance values by largest agreement radius L: d = 2 for L = -1 (origin
    mismatch), 3/2 for L = 0, 1/L for L >= 1. "d >= eps" says L <= L(eps);
    agreement on W_{L(eps)+1} rules it out.
    """
    e = eps if isinstance(eps, Fraction) else Fraction(eps)
    if not 0 < e <= 2:
        raise ValueError(f"eps must lie in (0, 2], got {eps}")
    if e > Fraction(3, 2):
        return 0
    if e > 1:
        return 1
    return int(1 / e) + 1


@dataclass(frozen=True)
class SensitivityEstimate:
    """Monte Carlo estimate of the mu x mu mass of eps-separated pairs."""

    eps: float
    horizon: int
    p_hat: float
    stderr: float
    n_samples: int
    seed: int


def mu_sensitivity_estimate(
    system: System,
    mu: Measure,
    eps: EpsLike,
    horizon: int,
    n_samples: int = 10_000,
    seed: int = 0,
) -> SensitivityEstimate:
    """Sample independent pairs from mu and count eps-separation by the horizon."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if isinstance(system, Rotation):
        _require_lebesgue(mu)
        ax = substream(seed, 0).random(n_samples)
        ay = substream(seed, 1).random(n_samples)
        gap = np.abs(ax - ay)
        dist = np.minimum(gap, 1.0 - gap)
        p_hat = float((dist >= float(eps)).mean())
    else:
        cantor_mu = _require_cantor_measure(mu)
        check_measure_alphabet(system, cantor_mu)
        sided = system_sided(system)
        w = separation_window(eps)
        cost = step_cost(system)
        radius = w + cost * horizon
        shape = (n_samples, window_size(sided, radius))
        px = pack_planes(system, cantor_mu.pieces(sided, radius, n_samples, [substream(seed, 0)]), shape)
        py = pack_planes(system, cantor_mu.pieces(sided, radius, n_samples, [substream(seed, 1)]), shape)
        everyone = pack_bits(np.ones(n_samples, dtype=bool))  # padding bits clear
        separated = np.zeros_like(everyone)
        cur = radius
        for _ in range(horizon):
            px = step_planes(system, px)
            py = step_planes(system, py)
            cur -= cost
            diff = window_slice(sided, cur, w, px) ^ window_slice(sided, cur, w, py)
            separated |= np.bitwise_or.reduce(diff.reshape(-1, diff.shape[-1]), axis=0)
            if (separated == everyone).all():
                break
        p_hat = float(unpack_bits(separated, n_samples).mean())
    stderr = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n_samples)
    return SensitivityEstimate(
        eps=float(eps), horizon=horizon, p_hat=p_hat, stderr=stderr,
        n_samples=n_samples, seed=seed,
    )


@dataclass(frozen=True)
class DichotomyReport:
    """Sensitivity curve, equicontinuity cross-check, and the scale verdict.

    The verdicts deliberately leave room: "inconclusive at scale" is the
    honest answer whenever neither side of the dichotomy shows up cleanly
    at the chosen resolutions and horizons.
    """

    eps_list: tuple[float, ...]
    horizon: int
    delta_s: float
    delta_e: float
    sensitivity: tuple[SensitivityEstimate, ...]
    equicontinuity: EquicontinuityReport
    verdict: str


def dichotomy_report(
    system: System,
    mu: Measure,
    eps_list: Sequence[EpsLike],
    horizon: int,
    equi_params: dict,
    n_samples: int = 10_000,
    delta_s: float = 0.05,
    delta_e: float = 0.05,
    seed: int = 0,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> DichotomyReport:
    """Run both sides of the dichotomy and pronounce a scale-level verdict.

    mu-sensitive: some eps separates a 1 - delta_s mass of pairs while the
    equicontinuity fraction stays under delta_e. mu-equicontinuous: the
    mirrored situation (fraction over 1 - delta_e, no eps anywhere near
    full separation). Anything else is inconclusive at this scale.
    """
    if not eps_list:
        raise ValueError("need at least one eps")
    estimates = tuple(
        mu_sensitivity_estimate(
            system, mu, eps, horizon,
            n_samples=n_samples, seed=derive_seed(seed, 0, idx),
        )
        for idx, eps in enumerate(eps_list)
    )
    equi = mu_equicontinuity_report(
        system, mu,
        m=equi_params["m"],
        n_list=equi_params["n_list"],
        horizon=equi_params["horizon"],
        points=equi_params.get("points", 50),
        n_samples=equi_params.get("n_samples", n_samples),
        delta=equi_params.get("delta", 0.05),
        seed=derive_seed(seed, 1),
        cap=cap,
    )
    fires = any(e.p_hat >= 1.0 - delta_s for e in estimates)
    if fires and equi.fraction <= delta_e:
        verdict = "mu-sensitive"
    elif equi.fraction >= 1.0 - delta_e and not fires:
        verdict = "mu-equicontinuous"
    else:
        verdict = "inconclusive at scale"
    return DichotomyReport(
        eps_list=tuple(float(e) for e in eps_list),
        horizon=horizon,
        delta_s=delta_s,
        delta_e=delta_e,
        sensitivity=estimates,
        equicontinuity=equi,
        verdict=verdict,
    )
