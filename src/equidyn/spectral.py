"""Continuous Koopman eigenfunction candidates built from locally periodic points.

A point y whose column trace at resolution m is genuinely periodic (an LP
certificate with q = 0, period p) yields candidate eigenfunctions

    f_k = sum_{j=0..p-1} lambda^{j k} 1_{B(T^j y)},   lambda = e^{2 pi i / p},

with the orbit balls taken at a finite horizon. The composition relation
f_k(Tx) = lambda^k f_k(x) holds exactly for isometric systems and is
measured, not assumed, everywhere else: residuals and inner products are
integrated exactly over the coarsest cylinder partition that refines every
ball event, or sampled when that partition is too large.

The event table holds the p balls' words on W_rho as int64 rows, ascending
by `word_codes`, with their orbit indices; one orbit-ball frontier builds
them all, cell j tracing T^j y. Both quantities see x only through its
orbit indices j(x) and j(Tx), the balls that hold x's and Tx's words on
W_rho (-1 outside every ball). One `np.searchsorted` of the rows' word
codes among the table's codes gives j(x), and one `step_batch` gives j(Tx);
exact mode weighs the rows in a ball with `row_probabilities`.
Each integral gathers its (p+1) x (p+1) values, made by the same scalar
expressions as f_k, at the index vectors and adds them one at a time in
row (or word) order, so every result keeps its bits. `spectral_family` is
the one integrator: it builds one event table for every k, and finds the
index vectors once per radius (exact) or per distinct (radius, seed), one
draw per seed (sampled).
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import (
    DEFAULT_ENUMERATION_CAP,
    Configuration,
    count_words,
    iter_words,
    window_cells,
)
from .errors import AlphabetMismatch, EnumerationTooLarge, OverlappingBalls
from .measures import CantorMeasure
from .orbit import _ball_rows
from .periodicity import lep_certificate
from .rng import derive_seed, substream
from .systems import (
    CantorSystem,
    _trace_row,
    _windows,
    cell_sizes,
    check_cells,
    dependence_radius,
    step_batch,
    step_cost,
    system_sided,
    window_slice,
    word_codes,
)

# Words per block in exact integration; memory follows the block, not the
# partition size.
_BLOCK = 4096


def root_of_unity(p: int, j: int) -> complex:
    """exp(2 pi i j / p), with j reduced mod p before the exponential."""
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    return cmath.exp(2j * math.pi * (j % p) / p)


@dataclass(frozen=True)
class EigenfunctionSpec:
    """Candidate eigenfunction from an LP-certified base point.

    eigenvalue() gives lambda^k as the pair (k, p) turned into a root of
    unity, so the phase stays exact until the final complex conversion.
    """

    system: CantorSystem
    y: Configuration
    m: int
    k: int
    period: int
    cert_horizon: int

    def eigenvalue(self) -> complex:
        return root_of_unity(self.period, self.k)


def build_eigenfunction(
    system: CantorSystem, y: Configuration, m: int, k: int, cert_horizon: int
) -> EigenfunctionSpec:
    """Certify y as genuinely periodic at resolution m, then wrap (y, m, k)."""
    cert = lep_certificate(system, y, m, cert_horizon)
    if cert is None:
        raise ValueError(
            f"no periodicity certificate at resolution {m}, horizon {cert_horizon}"
        )
    if cert.q != 0:
        raise ValueError(
            f"base point is only eventually periodic (preperiod {cert.q}); "
            "eigenfunctions need genuine periodicity (q = 0)"
        )
    if not 0 <= k < cert.p:
        raise ValueError(f"k must lie in [0, {cert.p}), got {k}")
    return EigenfunctionSpec(
        system=system, y=y, m=m, k=k, period=cert.p, cert_horizon=cert_horizon
    )


@dataclass(frozen=True, eq=False)
class _EvalTable:
    """The p pairwise disjoint ball events on W_rho: `words` lists their words
    as int rows ascending by `word_codes`, and `js` each word's orbit index."""

    rho: int
    size: int
    words: np.ndarray
    js: np.ndarray

    def lookup(self, rows: np.ndarray) -> np.ndarray:
        """Orbit index of every int row on W_rho, -1 outside every ball."""
        codes = word_codes(np.concatenate((self.words, rows)), self.size)
        keys, codes = codes[: len(self.js)], codes[len(self.js) :]  # keys ascend, as the words do
        at = np.minimum(np.searchsorted(keys, codes), len(keys) - 1)
        return np.where(keys[at] == codes, self.js[at], -1)


def event_table(spec: EigenfunctionSpec, horizon: int, cap: int = DEFAULT_ENUMERATION_CAP) -> _EvalTable:
    """Build the p ball events at this horizon and verify pairwise disjointness."""
    system, m = spec.system, spec.m
    rho = dependence_radius(system, m, horizon)
    last = spec.period - 1
    row = _trace_row(system, spec.y, rho, last)
    points = _windows(system, row, dependence_radius(system, rho, last), rho, last)[0]  # T^j y on W_rho
    words, js = _ball_rows(system, m, horizon, _windows(system, points, rho, m, horizon), cap)
    shared = np.flatnonzero((words[1:] == words[:-1]).all(axis=1))
    if len(shared):
        at = shared[0]  # the smallest shared word, in its two smallest balls
        raise OverlappingBalls(
            f"orbit balls {js[at]} and {js[at + 1]} share the word {tuple(words[at].tolist())} "
            f"at horizon {horizon}; the horizon is too short to separate them"
        )
    return _EvalTable(rho, system.alphabet.size, words, js)


def _f_values(spec: EigenfunctionSpec) -> list[complex]:
    """f_k on the orbit balls j = 0..p-1, then 0j for orbit index -1."""
    return [root_of_unity(spec.period, j * spec.k) for j in range(spec.period)] + [0j]


def _orbit_indices(system, mu, radius, table, stepped, mode, n_samples, seed, cap):
    """The orbit indices j(x), and j(Tx) too if `stepped`, over W_radius, and
    the masses to weigh them.

    Sampled: n_samples rows from substream(seed, 0), masses None. Exact: the
    W_radius partition in `_BLOCK`-word blocks, keeping the words with an
    index in a ball (no integral here sees the rest), so memory follows the
    block plus those words.
    """
    if mu.alphabet != system.alphabet:
        raise AlphabetMismatch(f"measure over alphabet {mu.alphabet.size}, system over {system.alphabet.size}")
    sided, cost = system_sided(system), step_cost(system)

    def index(rows: np.ndarray) -> list[np.ndarray]:
        js = [table.lookup(window_slice(sided, radius, table.rho, rows))]
        if stepped:
            js.append(table.lookup(window_slice(sided, radius - cost, table.rho, step_batch(system, rows))))
        return js

    if mode == "sampled":
        rows = mu.sample_batch(sided, radius, n_samples, substream(seed, 0))
        check_cells(system, rows)
        return index(rows), None
    if mode != "exact":
        raise ValueError(f"mode must be 'exact' or 'sampled', got {mode!r}")
    sizes = cell_sizes(system, list(window_cells(sided, radius)))
    total = count_words(sizes)
    if total > cap:
        raise EnumerationTooLarge(total, cap, "cylinder partition")
    words, kept, masses = iter_words(sizes), [], []
    while block := list(itertools.islice(words, _BLOCK)):
        rows = np.array(block, dtype=np.int64)
        vectors = index(rows)
        hits = np.flatnonzero(np.max(vectors, axis=0) >= 0)
        kept.append([v[hits] for v in vectors])
        masses.append(mu.row_probabilities(sided, radius, rows[hits]))
    return [np.concatenate(v) for v in zip(*kept)], np.concatenate(masses)


def _running_sum(values: np.ndarray, masses: Optional[np.ndarray] = None) -> complex:
    """`acc = 0.0; for v in values: acc += v` (with masses: `if v != 0: acc +=
    v * mass`) bit for bit: parts summed apart from 0.0 in order, never
    pairwise, and v * mass as CPython's (vr*m - vi*0.0, vr*0.0 + vi*m)."""
    re, im = values.real, values.imag
    if masses is not None:
        keep = values != 0
        re, im, m = re[keep], im[keep], masses[keep]
        re, im = re * m - im * 0.0, re * 0.0 + im * m
    return complex(*(np.add.accumulate(np.concatenate(([0.0], part)))[-1] for part in (re, im)))


def _integral(value, f, g, i, j, masses, n_samples: int) -> complex:
    """Integral of value(f[i(x)], g[j(x)]) by `_running_sum`: `value` runs once
    per pair of indices that occurs (only (s, s) when i is j), and index -1
    picks the trailing 0j of f and g."""
    if i is j:
        values, at = [value(a, b) for a, b in zip(f, g)], i
    else:
        pairs, at = np.unique(i % len(f) * len(g) + j % len(g), return_inverse=True)
        values = [value(f[s], g[t]) for s, t in (divmod(int(c), len(g)) for c in pairs)]
    acc = _running_sum(np.array(values, dtype=complex)[at], masses)
    return acc if masses is not None else acc / n_samples


def _residual(spec: EigenfunctionSpec, jx, jtx, masses, n_samples: int) -> float:
    lam, f = spec.eigenvalue(), _f_values(spec)

    def defect_sq(ftx: complex, fx: complex) -> float:
        v = ftx - lam * fx
        return v.real * v.real + v.imag * v.imag

    # the imaginary part sums to +0.0, so dividing by n_samples leaves the real part's bits
    return math.sqrt(_integral(defect_sq, f, f, jtx, jx, masses, n_samples).real)


def _conj_product(va: complex, vb: complex) -> complex:
    return 0j if va == 0 else va * vb.conjugate()


def spectral_family(
    base: EigenfunctionSpec,
    mu: CantorMeasure,
    horizon: int,
    k_list: list[int],
    mode: str = "exact",
    n_samples: int = 10_000,
    seed: int = 0,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> tuple[list[tuple[EigenfunctionSpec, float, complex]], float]:
    """[(f_k, residual, <f_k, f_k>) for k in k_list], and max |<f_a, f_b>|
    over the pairs with a before b in k_list; f_k's residual is the L2(mu)
    norm of f_k(T x) - lambda^k f_k(x) at this horizon.

    Every f_k shares the certificate of `base` (y's spec, any k) and one
    event table. Each number equals the per-configuration oracles: sampled
    mode draws f_k's residual and norm from derive_seed(seed, k) and the
    cross products (if k_list has a pair) from `seed`, once per (radius, seed).
    """
    if not all(0 <= k < base.period for k in k_list):
        raise ValueError(f"k must lie in [0, {base.period}), got {k_list}")
    specs = [replace(base, k=k) for k in k_list]
    fs = [_f_values(spec) for spec in specs]
    table = event_table(base, horizon, cap)
    cost = step_cost(base.system)

    @functools.lru_cache(maxsize=2)  # exact: at most two radii; sampled: one k's draws at a time
    def indices(radius: int, s: Optional[int]):
        return _orbit_indices(base.system, mu, radius, table, radius >= table.rho + cost, mode, n_samples, s, cap)

    sampled, rows = mode == "sampled", []  # exact mode draws nothing: one domain per radius
    for spec, f in zip(specs, fs):
        (jx, jtx), masses = indices(table.rho + cost, derive_seed(seed, spec.k) if sampled else None)
        (j, *_), weights = indices(table.rho, derive_seed(seed, spec.k) if sampled else None)
        norm_sq = _integral(_conj_product, f, f, j, j, weights, n_samples)
        rows.append((spec, _residual(spec, jx, jtx, masses, n_samples), norm_sq))
    if len(fs) < 2:  # no pair, so no cross product to draw for
        return rows, 0.0
    (j, *_), weights = indices(table.rho, seed if sampled else None)
    pairs = [(fa, fb) for i, fa in enumerate(fs) for fb in fs[i + 1 :]]
    return rows, max([0.0] + [abs(_integral(_conj_product, fa, fb, j, j, weights, n_samples)) for fa, fb in pairs])
