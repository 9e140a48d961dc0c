"""Orbit balls at finite resolution and horizon, and density ratios against them.

The orbit ball B_{m,T}(x) collects the points whose column trace at
resolution m equals x's for all times 0..T. On configuration spaces it is a
finite union of cylinders on the dependence window W_rho, held as int64
rows. One pruned frontier search builds those rows for a block of cells at
once (`_ball_blocks`: `cap` bounds the nominal W_rho word count of a block
up front, see `exact_fits`, and memory follows the surviving rows). It
serves the spectral event tables (`_ball_rows`) and the exact conditional
measures mu(B_{m,T}(x) | B_n(x)), one frontier for every n;
the Monte Carlo path samples the conditioning ball and counts trace
agreement instead. Base points are int rows on one block pipeline
(`_base_block`, then `_block_ratios` or `_block_estimates`): a report's
points are one block, and `density_curve` runs its point as a block of one.
Rotations get the analytic arc formulas instead; their orbit balls equal
plain balls at every horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .core import (
    DEFAULT_ENUMERATION_CAP,
    ball_cylinder,
    count_words,
    window_cells,
    window_size,
)
from .errors import (
    EnumerationTooLarge,
    NullBall,
    UnsupportedSystem,
)
from .measures import CantorMeasure, LebesgueMeasure, Measure, _rows, _widen
from .rng import derive_seed, substream
from .systems import (
    CantorSystem,
    Rotation,
    System,
    _trace_row,
    _windows,
    cell_sizes,
    check_cells,
    check_measure_alphabet,
    dependence_radius,
    step_batch,
    step_cost,
    pack_planes,
    row_words,
    system_sided,
    trace_agreement_batch,
    window_slice,
    word_codes,
)


def _nominal_words(system: CantorSystem, m: int, horizon: int) -> int:
    """Word count of the dependence window W_rho, whatever the search keeps."""
    cells = window_cells(system_sided(system), dependence_radius(system, m, horizon))
    return count_words(cell_sizes(system, cells))


def exact_fits(system: System, m: int, horizon: int, cap: int) -> bool:
    """May the exact route run at (m, horizon) under `cap`, or must it sample?

    This is the one place that decides: the nominal W_rho word count against
    the cap. Rotations always fit; their ratios are arc formulas.
    """
    return isinstance(system, Rotation) or _nominal_words(system, m, horizon) <= cap


def _trace_frontier(system: CantorSystem, m: int, k: int, bases: np.ndarray, targets: np.ndarray):
    """Rows on W_rho that extend cell c's word bases[c] on W_k and reproduce its
    trace targets[c] (a (T + 1, |W_m|) array), with each row's cell, ascending.

    Time t widens the rows to W_{max(k, m + c t)}, c = step_cost, with every
    symbol on the new cells, and keeps those whose t-th image matches their
    own cell's trace on W_m. Widening changes no earlier trace word but forces
    fresh images.
    """
    sided, cost = system_sided(system), step_cost(system)
    rows = cur = bases
    cell = np.arange(len(bases))
    radius = k
    for t in range(1, targets.shape[1]):
        wider = max(k, m + cost * t)
        if wider > radius:
            rows, per = _widen(rows, sided, radius, wider, lambda cells: cell_sizes(system, cells))
            cell = np.repeat(cell, per)
            radius, cur = wider, rows
            for _ in range(t - 1):
                cur = step_batch(system, cur)
        cur = step_batch(system, cur)
        keep = (window_slice(sided, radius - cost * t, m, cur) == targets[cell, t]).all(axis=1)
        rows, cur, cell = rows[keep], cur[keep], cell[keep]
    return rows, cell


def _ball_blocks(system: CantorSystem, m: int, horizon: int, k: int, bases: np.ndarray, targets: np.ndarray,
                 cap: int):
    """The rows on W_rho that extend cell c's word bases[c] on W_k (k >= m) and
    reproduce its trace targets[c] (T + 1 words on W_m): one (cells, rows,
    cell) per frontier, `cell` naming each row's cell.

    This is the one place that checks `cap` and splits cells into frontiers
    of at most cap // (nominal W_rho words) cells, so a frontier's rows stay
    under the cap; the check and the frontiers run as the blocks are read.
    """
    if not exact_fits(system, m, horizon, cap):
        raise EnumerationTooLarge(_nominal_words(system, m, horizon), cap, "orbit ball enumeration")
    block = max(1, cap // _nominal_words(system, m, horizon))
    for lo in range(0, len(targets), block):
        cells = range(lo, min(len(targets), lo + block))
        rows, cell = _trace_frontier(system, m, k, bases[lo : cells.stop], targets[lo : cells.stop])
        yield cells, rows, cell + lo


def _ball_rows(system: CantorSystem, m: int, horizon: int, targets: np.ndarray, cap: int):
    """Every cell's `_ball_blocks` rows from its trace alone, in one array
    ascending by `word_codes`, with each row's cell; equal rows keep cell order."""
    _, rows, cell = zip(*_ball_blocks(system, m, horizon, m, targets[:, 0], targets, cap))
    rows, cell = np.concatenate(rows), np.concatenate(cell)
    order = np.argsort(word_codes(rows, system.alphabet.size), kind="stable")
    return rows[order], cell[order]


def _rotation_ball_mass(n: int) -> Fraction:
    """Arc length of a circle ball of metric radius 1/n."""
    if n < 1:
        raise ValueError("circle balls need n >= 1")
    return min(Fraction(1), Fraction(2, n))


def _rotation_ratio(m: int, n: int) -> float:
    if m < 1:
        raise ValueError("circle resolution needs m >= 1")
    # concentric balls nest, so the intersection is the smaller ball
    return float(_rotation_ball_mass(max(m, n)) / _rotation_ball_mass(n))


def density_curve(system: System, mu: Measure, x, m: int, ns: Sequence[int], horizon: int, exact: bool = True,
                  n_samples: int = 0, seeds: Sequence[int] = (), cap: int = DEFAULT_ENUMERATION_CAP):
    """x's density ratios at each n of `ns`: the exact ratio (None unless
    `exact`) per n, and the estimates from n_samples draws, given one seed per
    n of `seeds` (or none). On configuration spaces every n <= m reads one
    draw at m, from the seed of the largest n <= m (see `_block_estimates`).

    x is a one-point block of the report's pipeline: one `_base_block`, then
    one `_block_ratios` frontier for every n and one `_block_estimates` call.
    NullBall names the first null ball in `ns` order.
    """
    if seeds and (len(seeds) != len(ns) or n_samples < 1):
        raise ValueError(f"estimates need one seed per n and n_samples >= 1; got {len(seeds)} seeds for "
                         f"{len(ns)} n, n_samples {n_samples}")
    if isinstance(system, Rotation):
        _require_lebesgue(mu)
        return ([_rotation_ratio(m, n) if exact else None for n in ns],
                [_rotation_estimate(x, m, n, horizon, n_samples, s) for n, s in zip(ns, seeds)])
    cantor_mu = _require_cantor_measure(mu)
    for n in ns:  # each ball lies in mu's space before x is traced
        cantor_mu._check_cylinder(ball_cylinder(x, n))
    radius = max(max(ns), dependence_radius(system, m, horizon))
    row = _trace_row(system, x, m, horizon, radius)
    targets, words, masses = _base_block(system, cantor_mu, row, radius, m, ns, horizon)
    ratios = [None] * len(ns)
    if exact:
        ratios = _block_ratios(system, cantor_mu, words, masses, targets, m, ns, horizon, cap)[0]
    if not seeds:
        return ratios, []
    return ratios, _block_estimates(system, cantor_mu, words, masses, targets, m, ns, horizon, n_samples,
                                    lambda c, j: seeds[j])[0]


def _base_block(system, mu, rows, radius, m, ns, horizon):
    """Traces (points, T + 1, |W_m|) of base points held as checked int rows on W_radius, and per n
    their ball words on W_n and masses; NullBall names the first null ball in (point, n) order.
    ValueError if mu can draw a symbol that a cell of W_radius does not hold, before any draw needs it."""
    sided = system_sided(system)
    check_cells(system, np.array([[mu.cell_size(i) - 1 for i in window_cells(sided, radius)]]))
    words = [window_slice(sided, radius, n, rows) for n in ns]
    masses = np.array([mu.row_probabilities(sided, n, w) for n, w in zip(ns, words)])
    null = np.argwhere(masses.T == 0.0)
    if len(null):
        raise NullBall(f"conditioning ball of radius 1/{ns[null[0][1]]} has measure zero")
    return _windows(system, rows, radius, m, horizon), words, masses.tolist()


def _block_ratios(system, mu, words, masses, targets, m, ns, horizon, cap) -> list[list[float]]:
    """Each cell's exact ratio at every n of `ns` (its ball words and masses per n, x's trace), one list per cell.

    The orbit ball is the same set at every n, so one `_ball_blocks` frontier per block serves every n: it
    extends each cell's word on W_k, k = max(m, the least n below rho), and each n keeps the rows on the cell's
    W_n word. The rows' masses are one product per block; a ratio is the `math.fsum` of its cell's kept masses.
    """
    rho = dependence_radius(system, m, horizon)
    # n >= rho: the conditioning ball fixes the whole dependence window, and
    # x's own word reproduces x's trace, so every point of the ball is in the event
    ratios = np.ones((len(targets), len(ns)))
    below = [j for j, n in enumerate(ns) if n < rho]
    if not below:
        return ratios.tolist()
    sided = system_sided(system)
    nominal, least = _nominal_words(system, m, horizon), min(below, key=lambda j: ns[j])
    # rows extend x's word on W_max(m, n): its ball's word, or its trace's first word
    k, bases = (ns[least], words[least]) if ns[least] >= m else (m, targets[:, 0])
    for cells, rows, cell in _ball_blocks(system, m, horizon, k, bases, targets, cap):
        kept = mu.row_probabilities(sided, rho, rows)
        for j in below:
            whole = nominal // count_words(cell_sizes(system, window_cells(sided, ns[j])))  # extensions of a W_n word
            inside = slice(None) if ns[j] <= k else (window_slice(sided, rho, ns[j], rows) == words[j][cell]).all(1)
            ends = np.cumsum(np.bincount(cell[inside] - cells.start, minlength=len(cells))).tolist()
            mass = kept[inside].tolist()
            # a cell whose rows are every extension of its ball word has ratio 1 by
            # inclusion; skip its float sum, whose rounding can land a hair below
            for i, lo, hi in zip(cells, [0] + ends, ends):
                ratios[i, j] = 1.0 if hi - lo == whole else math.fsum(mass[lo:hi]) / masses[j][i]
    return ratios.tolist()


# rows of one block of sampled (point, n) cells, packed and stepped together:
# enough cells to share the per-call costs, and 0.5 MB of uniforms at most
_BLOCK_ROWS = 1 << 16


@dataclass(frozen=True)
class RatioEstimate:
    """Monte Carlo estimate of a conditional orbit-ball mass."""

    p_hat: float
    stderr: float
    n_samples: int
    seed: int
    m: int
    n: int
    horizon: int


def _binomial_stderr(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def _rotation_estimate(x, m: int, n: int, horizon: int, n_samples: int, seed: int) -> RatioEstimate:
    """The share of n_samples arc points of the ball B_n(x) within 1/m of x."""
    if m < 1 or n < 1:
        raise ValueError("circle resolutions need m, n >= 1")
    u = substream(seed, 0).random(n_samples)
    if n <= 2:
        # the conditioning ball is the whole circle
        gap = np.abs(u - float(x.angle))
        dist = np.minimum(gap, 1.0 - gap)
    else:
        dist = np.abs((2.0 * u - 1.0) / n)
    p_hat = float((dist <= 1.0 / m).mean())
    return RatioEstimate(p_hat, _binomial_stderr(p_hat, n_samples), n_samples, seed, m, n, horizon)


def _block_estimates(system, mu, words, masses, targets, m, ns, horizon, n_samples, seed_of):
    """Each cell's estimates at every n of `ns` (its ball words and masses per n, x's trace), one list per cell.

    E = B_{m,T}(x) fixes x's W_m word, so E lies in B_m(x) and, for n <= m, mu(E | B_n) = mu(B_m) / mu(B_n) *
    mu(E | B_m) exactly: a cell draws once at m, reading the seed of the largest n <= m in `ns`, and each n < m
    scales that estimate and stderr by the mass ratio (a null W_m ball reads 0, with no draw). Each n > m draws
    on its own. Cell c's draw for ns[j] reads n_samples rows from `substream(seed_of(c, j), 0)`, in blocks of at
    most `_BLOCK_ROWS` rows packed, stepped and checked against their own traces together.
    """
    sided, rho = system_sided(system), dependence_radius(system, m, horizon)
    at_m = max((j for j, n in enumerate(ns) if n <= m), key=lambda j: ns[j], default=None)
    mass_m = mu.row_probabilities(sided, m, targets[:, 0]).tolist()  # the trace's first word is x's W_m word
    draws = {j: (n, words[j], masses[j]) if n > m else (m, targets[:, 0], mass_m)
             for j, n in enumerate(ns) if n > m or j == at_m}
    block = max(1, _BLOCK_ROWS // n_samples)
    seeds, hits = {}, {}
    for j, (n, given, mass) in draws.items():
        radius, live = max(n, rho), np.flatnonzero(mass)
        seeds[j], hits[j] = [seed_of(c, j) for c in range(len(targets))], np.zeros(len(targets), dtype=np.int64)
        for lo in range(0, len(live), block):
            cells = live[lo : lo + block]
            pieces = mu.pieces(sided, radius, n_samples, [substream(seeds[j][c], 0) for c in cells], given[cells])
            planes = pack_planes(system, pieces, (len(cells), n_samples, window_size(sided, radius)))
            agree = trace_agreement_batch(system, targets[cells], planes, n_samples, m, radius)
            hits[j][cells] = agree.reshape(len(cells), n_samples).sum(axis=1)
            del planes, agree  # freed before the next block draws, so memory follows one block
    out = [[] for _ in targets]  # out[c]: cell c's estimates, in `ns` order
    for j, n in enumerate(ns):
        k = j if n > m else at_m
        for c, count in enumerate(hits[k].tolist()):
            p_hat, f = count / n_samples, 1.0 if n >= m else mass_m[c] / masses[j][c]
            out[c].append(RatioEstimate(p_hat * f, _binomial_stderr(p_hat, n_samples) * f, n_samples, seeds[k][c],
                                        m, n, horizon))
    return out


@dataclass(frozen=True)
class PointCurve:
    """Density ratio curve over the n grid for one sampled base point."""

    point: str
    ratios: tuple[float, ...]
    exact: bool
    stderrs: Optional[tuple[float, ...]]


@dataclass(frozen=True)
class EquicontinuityReport:
    """Per-point ratio curves plus the fraction that look equicontinuous."""

    m: int
    n_list: tuple[int, ...]
    horizon: int
    points: int
    n_samples: int
    delta: float
    seed: int
    curves: tuple[PointCurve, ...]
    fraction: float


def mu_equicontinuity_report(
    system: System,
    mu: Measure,
    m: int,
    n_list: Sequence[int],
    horizon: int,
    points: int = 50,
    n_samples: int = 10_000,
    delta: float = 0.05,
    seed: int = 0,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> EquicontinuityReport:
    """Sample base points from mu and chart their density ratio curves.

    A point counts as equicontinuous at this scale when its ratio at the
    largest n reaches 1 - delta. Exact enumeration is used whenever the
    dependence window fits under the cap; otherwise point i draws once at m, from
    derive_seed(seed, 1, i, j) for the largest n_list[j] <= m, for every n <= m
    (`_block_estimates`), and once at each n > m, from derive_seed(seed, 1, i, j).
    Either way the points run in blocks: one `_ball_blocks` frontier per block
    for every n (exact), or at each drawn n one packed, stepped and checked batch
    per block of at most `_BLOCK_ROWS` sampled rows, so memory follows the
    block, not the point count. One `pieces` pass draws every base point
    (point i reads what a one-row `sample_config` from substream(seed, 0, i) reads).
    """
    if points < 1:
        raise ValueError("need at least one base point")
    ns = sorted(set(int(n) for n in n_list))
    if not ns or ns[0] < 1:
        raise ValueError("n_list entries must be >= 1")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")

    if isinstance(system, Rotation):
        _require_lebesgue(mu)
        if m < 1:
            raise ValueError("circle resolution needs m >= 1")
        ratios = tuple(_rotation_ratio(m, n) for n in ns)
        angles = (mu.sample_point(substream(seed, 0, i)).angle for i in range(points))
        curves = [PointCurve(point=str(float(a)), ratios=ratios, exact=True, stderrs=None) for a in angles]
    else:
        cantor_mu, sided = _require_cantor_measure(mu), system_sided(system)
        radius = max(max(ns), dependence_radius(system, m, horizon))
        use_exact = exact_fits(system, m, horizon, cap)
        if not use_exact and n_samples < 1:
            raise ValueError("need at least one sample")
        check_measure_alphabet(system, cantor_mu)
        rngs = [substream(seed, 0, i) for i in range(points)]
        rows = _rows(cantor_mu.pieces(sided, radius, 1, rngs), points, window_size(sided, radius))
        labels = row_words(rows, system.alphabet)
        # every cell is checked before any block runs
        targets, words, masses = _base_block(system, cantor_mu, rows, radius, m, ns, horizon)
        if use_exact:
            ratios = _block_ratios(system, cantor_mu, words, masses, targets, m, ns, horizon, cap)
            curves = [PointCurve(label, tuple(row), True, None) for label, row in zip(labels, ratios)]
        else:
            estimates = _block_estimates(system, cantor_mu, words, masses, targets, m, ns, horizon, n_samples,
                                         lambda i, j: derive_seed(seed, 1, i, j))
            curves = [PointCurve(label, tuple(e.p_hat for e in row), False, tuple(e.stderr for e in row))
                      for label, row in zip(labels, estimates)]

    hits = sum(1 for c in curves if c.ratios[-1] >= 1.0 - delta)
    return EquicontinuityReport(m, tuple(ns), horizon, points, n_samples, delta, seed, tuple(curves), hits / points)


def _require_lebesgue(mu: Measure) -> LebesgueMeasure:
    if not isinstance(mu, LebesgueMeasure):
        raise UnsupportedSystem("rotation experiments use the Lebesgue measure")
    return mu


def _require_cantor_measure(mu: Measure) -> CantorMeasure:
    if isinstance(mu, LebesgueMeasure):
        raise UnsupportedSystem("configuration-space experiments need a cylinder measure")
    return mu
