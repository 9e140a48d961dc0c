"""Pairwise sensitivity at scale eps, and the sensitivity/equicontinuity dichotomy.

A pair (x, y) is eps-separated by horizon T when some iterate 1 <= n <= T
has d(T^n x, T^n y) >= eps. Since the attainable distance values are
2 > 3/2 > 1 > 1/2 > ..., the test "d >= eps" reduces to disagreement on an
explicit witness window, which keeps the finite-radius computation exact.

A pair separated on W_w is separated on every wider window, so one draw
serves a whole eps grid: `sensitivity` draws once, from derive_seed(seed,
0); `dichotomy_report` draws once per eps, from derive_seed(seed, 0, idx).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .core import DEFAULT_ENUMERATION_CAP, window_size
from .measures import Measure
from .orbit import (_BLOCK_ROWS, EquicontinuityReport, _binomial_stderr, _require_cantor_measure,
                    _require_lebesgue, mu_equicontinuity_report)
from .rng import derive_seed, substream
from .systems import (
    Rotation,
    System,
    check_measure,
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


def mu_sensitivity_curve(
    system: System,
    mu: Measure,
    eps_list: Sequence[EpsLike],
    horizon: int,
    n_samples: int = 10_000,
    seed: int = 0,
) -> tuple[SensitivityEstimate, ...]:
    """One estimate per eps of `eps_list`, in its order, from one draw of pairs: x from substream(seed, 0),
    y from substream(seed, 1), both continued by each block of at most `_BLOCK_ROWS` pairs. A block is
    drawn on the widest witness window and stepped once; each step ORs each eps's window of the
    difference into its separated bits, until every eps has separated every pair."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if not eps_list:
        raise ValueError("need at least one eps")
    rx, ry = substream(seed, 0), substream(seed, 1)
    if isinstance(system, Rotation):
        _require_lebesgue(mu)
        cuts = np.array([float(eps) for eps in eps_list])[:, None]

        def separated(n: int) -> np.ndarray:
            gap = np.abs(rx.random(n) - ry.random(n))
            return (np.minimum(gap, 1.0 - gap) >= cuts).sum(axis=1)
    else:
        cantor_mu = _require_cantor_measure(mu)
        sided, cost, windows = system_sided(system), step_cost(system), [separation_window(e) for e in eps_list]
        wide = max(windows)
        radius = wide + cost * horizon
        check_measure(system, cantor_mu, radius)

        def separated(n: int) -> np.ndarray:
            shape = (n, window_size(sided, radius))
            px = pack_planes(system, cantor_mu.pieces(sided, radius, n, [rx]), shape)
            py = pack_planes(system, cantor_mu.pieces(sided, radius, n, [ry]), shape)
            everyone = pack_bits(np.ones(n, dtype=bool))  # padding bits clear
            bits = np.zeros((len(windows), len(everyone)), dtype=np.uint64)
            for t in range(1, horizon + 1):
                px, cur = step_planes(system, px), radius - cost * t  # x's old planes are freed before y steps
                py = step_planes(system, py)
                diff = window_slice(sided, cur, wide, px) ^ window_slice(sided, cur, wide, py)
                for k, w in enumerate(windows):
                    bits[k] |= np.bitwise_or.reduce(window_slice(sided, wide, w, diff).reshape(-1, len(everyone)))
                if (bits == everyone).all():
                    break
            return unpack_bits(bits, n).sum(axis=1)

    counts = sum(separated(min(_BLOCK_ROWS, n_samples - lo)) for lo in range(0, n_samples, _BLOCK_ROWS))
    p_hats = [int(c) / n_samples for c in counts]
    return tuple(SensitivityEstimate(float(eps), horizon, p, _binomial_stderr(p, n_samples), n_samples, seed)
                 for eps, p in zip(eps_list, p_hats))


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
        mu_sensitivity_curve(system, mu, [eps], horizon, n_samples=n_samples, seed=derive_seed(seed, 0, idx))[0]
        for idx, eps in enumerate(eps_list)
    )
    equi = mu_equicontinuity_report(system, mu, **{"n_samples": n_samples, **equi_params},
                                    seed=derive_seed(seed, 1), cap=cap)
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
