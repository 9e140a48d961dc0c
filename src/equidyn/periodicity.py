"""Local periodicity certificates for column traces, and their statistics.

A certificate (p, q) for a trace t_0..t_T says t_i = t_{i+p} for all
q <= i <= T - p, with at least two full periods of evidence after the
preperiod (T - q >= 2p). Detection returns the smallest p admitting any
valid q, then the smallest q for that p. A certificate only ever claims
periodicity at the certified (resolution, horizon) scale.

`lep_statistics` draws one set of points for a whole m grid: a trace at m
is a slice of the trace at any m' > m, and a certificate at m' holds for
that slice. It certifies the points in blocks of `_BLOCK`: block b is one
`sample_batch` from substream(seed, 0, b) on the largest m's dependence
window, one batched column trace at that m and, per m, one vectorized
period search on its slice. So memory follows the block rather than the
sample count. `mu_lep_classify` hands it derive_seed(seed, 0), the `seed`
of every `per_m` entry. The block size is part of the stream layout:
changing it changes which points are drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import DEFAULT_ENUMERATION_CAP, Configuration
from .measures import CantorMeasure
from .rng import derive_seed, substream
from .systems import (
    CantorSystem,
    check_cells,
    check_measure_alphabet,
    column_codes,
    dependence_radius,
    system_sided,
    window_slice,
    word_codes,
    _trace_row,
    _windows,
)

# Points drawn and certified per vectorized pass in lep_statistics; its
# memory follows this block, not the sample count.
_BLOCK = 1024


@dataclass(frozen=True)
class PeriodCertificate:
    """Eventual periodicity of a column trace, certified at one horizon."""

    p: int
    q: int
    horizon: int
    m: Optional[int] = None

    def __post_init__(self):
        if self.p < 1 or self.q < 0:
            raise ValueError(f"need p >= 1 and q >= 0, got ({self.p}, {self.q})")
        if self.horizon - self.q < 2 * self.p:
            raise ValueError(
                f"horizon {self.horizon} leaves under two periods of evidence "
                f"for (p={self.p}, q={self.q})"
            )


def detect_eventual_periods(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p, q, certified) for every row of a (rows x T+1) matrix of trace codes.

    Per row: the smallest p with a valid preperiod, then the smallest q for
    that p; p and q read 0 where `certified` is False.
    """
    codes = np.asarray(codes)
    horizon = codes.shape[1] - 1
    if horizon < 0:
        raise ValueError("empty trace")
    p = np.zeros(codes.shape[0], dtype=np.int64)
    q = np.zeros(codes.shape[0], dtype=np.int64)
    found = np.zeros(codes.shape[0], dtype=bool)
    for period in range(1, horizon // 2 + 1):
        if found.all():
            break
        clash = codes[:, period:] != codes[:, :-period]
        # one past the last i with t_i != t_{i+p}, or 0 if there is none
        q_min = np.where(clash.any(axis=1), clash.shape[1] - clash[:, ::-1].argmax(axis=1), 0)
        new = ~found & (horizon - q_min >= 2 * period)
        p[new] = period
        q[new] = q_min[new]
        found |= new
    return p, q, found


def lep_certificate(
    system: CantorSystem, x: Configuration, m: int, horizon: int
) -> Optional[PeriodCertificate]:
    """Certify eventual periodicity of x's column trace at resolution m."""
    codes = column_codes(system, _trace_row(system, x, m, horizon), m, horizon)
    p, q, found = detect_eventual_periods(codes)
    return PeriodCertificate(p=int(p[0]), q=int(q[0]), horizon=horizon, m=m) if found[0] else None


@dataclass(frozen=True)
class LepStatistics:
    """Sampled certificate statistics at one resolution."""

    m: int
    eps: float
    horizon: int
    n_samples: int
    seed: int
    certified_fraction: float
    lp_fraction: float  # certified with q == 0
    p_quantile: Optional[int]
    q_quantile: Optional[int]


def lep_statistics(
    system: CantorSystem,
    mu: CantorMeasure,
    m_list: Sequence[int],
    eps: float = 0.05,
    n_samples: int = 1000,
    horizon: int = 16,
    seed: int = 0,
) -> tuple[LepStatistics, ...]:
    """Sample points from mu once and certify each at every m (see the module docstring); one result per
    m, ascending. The (p, q) bounds are the empirical 1-eps quantiles over the certified subsample, each
    coordinate on its own."""
    ms = sorted(set(int(m) for m in m_list))
    if not ms or ms[0] < 0:
        raise ValueError("m_list entries must be >= 0")
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    sided, top = system_sided(system), ms[-1]
    radius = dependence_radius(system, top, horizon)
    check_measure_alphabet(system, mu)
    counts = np.zeros((len(ms), 2, horizon + 1), dtype=np.int64)  # per m: how many certified with each p, each q
    for b, start in enumerate(range(0, n_samples, _BLOCK)):
        rows = mu.sample_batch(sided, radius, min(_BLOCK, n_samples - start), substream(seed, 0, b))
        check_cells(system, rows)
        windows = _windows(system, rows, radius, top, horizon)
        flat = windows.reshape(-1, windows.shape[-1])  # one row per (point, time)
        for i, m in enumerate(ms):
            codes = word_codes(window_slice(sided, top, m, flat), system.alphabet.size).reshape(len(rows), -1)
            p, q, found = detect_eventual_periods(codes)
            counts[i] += [np.bincount(v[found], minlength=horizon + 1) for v in (p, q)]
    out = []
    for m, (p_counts, q_counts) in zip(ms, counts):
        certified = int(p_counts.sum())
        k = math.ceil((1.0 - eps) * certified)
        # the k-th smallest value is the first whose running count reaches k
        p_q, q_q = (int(np.searchsorted(np.cumsum(c), k)) for c in (p_counts, q_counts)) if certified else (None, None)
        out.append(LepStatistics(m=m, eps=eps, horizon=horizon, n_samples=n_samples, seed=seed,
                                 certified_fraction=certified / n_samples, lp_fraction=int(q_counts[0]) / n_samples,
                                 p_quantile=p_q, q_quantile=q_q))
    return tuple(out)


@dataclass(frozen=True)
class LepClassification:
    """Certificate statistics across resolutions plus the scale verdict."""

    m_list: tuple[int, ...]
    eps: float
    verdict: str
    per_m: tuple[LepStatistics, ...]
    equicontinuity: Optional[object]  # EquicontinuityReport when attached


def mu_lep_classify(
    system: CantorSystem,
    mu: CantorMeasure,
    m_list: Sequence[int],
    eps: float = 0.05,
    n_samples: int = 1000,
    horizon: int = 16,
    seed: int = 0,
    equi_params: Optional[dict] = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> LepClassification:
    """Verdict mu-LP / mu-LEP / neither from certificate fractions at every m.

    mu-LP needs a 1-eps fraction of samples certified with q = 0 at every
    resolution; mu-LEP needs a 1-eps certified fraction of any preperiod.
    Either positive verdict attaches a density-ratio cross-check report.
    """
    per_m = lep_statistics(system, mu, m_list, eps=eps, n_samples=n_samples, horizon=horizon,
                           seed=derive_seed(seed, 0))
    ms = [s.m for s in per_m]
    if all(s.lp_fraction >= 1.0 - eps for s in per_m):
        verdict = "mu-LP"
    elif all(s.certified_fraction >= 1.0 - eps for s in per_m):
        verdict = "mu-LEP"
    else:
        verdict = "neither"
    equi = None
    if verdict != "neither":
        from .orbit import mu_equicontinuity_report

        params = {"m": ms[0], "n_list": [1, 2, 3], "horizon": min(horizon, 4), "points": 20, "n_samples": 2000,
                  "delta": 0.05, **(equi_params or {})}
        equi = mu_equicontinuity_report(system, mu, **params, seed=derive_seed(seed, 1), cap=cap)
    return LepClassification(
        m_list=tuple(ms), eps=eps, verdict=verdict, per_m=per_m, equicontinuity=equi
    )
