"""Scalar oracles: the per-rule loops and per-configuration integrands that the
batch engines replaced.

They work on validated `Configuration` objects one at a time and never call
`step_batch`, `step_planes` or the spectral row lookup, so a test that checks
an engine against them compares two independent implementations.

The batch samplers below draw one n x |W| array from the chain of each
measure, re-derived from its public parameters, in the stream order of the
piece generator of `equidyn.measures` (one `random(n)` per cell), so equal
rows mean equal draws. The cylinder products are the three per-measure
formulas that the chain's one product replaced. The Vitali cover below is
the object refinement that the int-row cover replaced: one `Configuration`
center per ball, one `cylinder_probability` per mass, and coverage read off
word tuples by `subword`. The base points below are the per-point
preparation that the report's int-row block replaced.
"""

import functools
import math

import numpy as np

from equidyn import Configuration, InsufficientRadius, UnsupportedSystem
from equidyn.core import (
    DEFAULT_ENUMERATION_CAP,
    ONE_SIDED,
    Cylinder,
    ball_cylinder,
    count_words,
    iter_words,
    subword,
    window_cells,
    word_to_str,
)
from equidyn.measures import BernoulliMeasure, MarkovMeasure, ProductMeasure, maximal_cylinders
from equidyn.errors import EnumerationTooLarge
from equidyn.rng import substream
from equidyn.spectral import event_table, root_of_unity
from equidyn.systems import (
    CARule,
    Odometer,
    Shift,
    cell_sizes,
    column_trace,
    dependence_radius,
    step_cost,
    system_sided,
)


def _check_arg(system, x, sided):
    if not isinstance(x, Configuration):
        raise UnsupportedSystem(f"{type(system).__name__} acts on configurations")
    if x.alphabet != system.alphabet:
        raise ValueError(f"configuration over alphabet {x.alphabet.size}, system over {system.alphabet.size}")
    if x.sided != sided:
        raise ValueError(f"system needs {sided!r}-sided configurations, got {x.sided!r}")


def scalar_step(system, x):
    """One application of a CA rule, the shift or an odometer, cell by cell."""
    # a Shift is a CARule: slice it here, so the engines' shift table meets an independent oracle
    if isinstance(system, Shift):
        _check_arg(system, x, ONE_SIDED)
        if x.radius < 1:
            raise InsufficientRadius("shifting needs valid radius >= 1")
        return Configuration(x.alphabet, ONE_SIDED, x.symbols[1:])
    if isinstance(system, CARule):
        _check_arg(system, x, system.sided)
        if x.radius < system.radius:
            raise InsufficientRadius(f"radius-{system.radius} rule, configuration has {x.radius}")
        w, width = x.symbols, system.neighborhood_size
        out = tuple(system.table[w[j : j + width]] for j in range(len(w) - width + 1))
        return Configuration(x.alphabet, x.sided, out)
    if isinstance(system, Odometer):
        _check_arg(system, x, ONE_SIDED)
        digits = list(x.symbols)
        for i, d in enumerate(digits):
            if d >= system.size_at(i):
                raise ValueError(f"digit {d} at coordinate {i} exceeds factor size {system.size_at(i)}")
        for i in range(len(digits)):
            if digits[i] + 1 < system.size_at(i):
                digits[i] += 1
                break
            digits[i] = 0  # the carry rolls rightward, out of the window
        return Configuration(x.alphabet, ONE_SIDED, tuple(digits))
    raise UnsupportedSystem(f"no scalar oracle for {system!r}")


def scalar_column_trace(system, x, m, horizon):
    """Words (T^i x)_{W_m} for i = 0..horizon, through `scalar_step`."""
    need = dependence_radius(system, m, horizon)
    if x.radius < need:
        raise InsufficientRadius(f"trace needs valid radius {need}, configuration has {x.radius}")
    words, cur = [], x
    for i in range(horizon + 1):
        words.append(cur.window(m))
        if i < horizon:
            cur = scalar_step(system, cur)
    return words


def oracle_event(system, x, m, horizon):
    """The orbit ball of x as a set of W_rho words: every word whose `scalar_step`
    trace equals x's `scalar_column_trace`."""
    sided = system_sided(system)
    rho = dependence_radius(system, m, horizon)
    target = scalar_column_trace(system, x, m, horizon)
    hits = set()
    for word in iter_words(cell_sizes(system, window_cells(sided, rho))):
        cur = Configuration(system.alphabet, sided, word)
        for i, want in enumerate(target):
            if cur.window(m) != want:
                break
            if i < horizon:
                cur = scalar_step(system, cur)
        else:
            hits.add(word)
    return hits


def certificate_holds(trace, p, q):
    """Does (p, q) satisfy the periodic relation and evidence bound on `trace`?"""
    horizon = len(trace) - 1
    if p < 1 or q < 0 or horizon - q < 2 * p:
        return False
    return all(trace[i] == trace[i + p] for i in range(q, horizon - p + 1))


def _scalar_integrate(system, mu, radius, integrand, mode, n_samples, seed, cap):
    """Integral of `integrand` over one Configuration per word or per draw."""
    sided = system_sided(system)
    acc = 0.0
    if mode == "exact":
        sizes = cell_sizes(system, list(window_cells(sided, radius)))
        total = count_words(sizes)
        if total > cap:
            raise EnumerationTooLarge(total, cap, "cylinder partition")
        for word in iter_words(sizes):
            v = integrand(Configuration(system.alphabet, sided, word))
            if v != 0:
                acc += v * mu.cylinder_probability(Cylinder(system.alphabet, sided, radius, word))
        return acc
    for row in mu.sample_batch(sided, radius, n_samples, substream(seed, 0)):
        acc += integrand(Configuration(system.alphabet, sided, tuple(int(s) for s in row)))
    return acc / n_samples


@functools.lru_cache(maxsize=8)  # event tables compare and hash by identity
def _word_index(tab):
    """word on W_rho -> orbit index j, read off the table's rows once."""
    return dict(zip(map(tuple, tab.words.tolist()), tab.js.tolist()))


def _scalar_f(spec, tab, x):
    """f_k(x) from x's own word on W_rho."""
    j = _word_index(tab).get(x.window(tab.rho))
    return 0j if j is None else root_of_unity(spec.period, j * spec.k)


def scalar_koopman_residual(spec, mu, horizon, mode="exact", n_samples=10_000, seed=0,
                            cap=DEFAULT_ENUMERATION_CAP, table=None):
    """`koopman_residual` with f_k(x) and f_k(Tx) evaluated per configuration."""
    tab = table if table is not None else event_table(spec, horizon, cap)
    lam = spec.eigenvalue()

    def defect_sq(x):
        fx = _scalar_f(spec, tab, x)
        ftx = _scalar_f(spec, tab, scalar_step(spec.system, x))
        v = ftx - lam * fx
        return v.real * v.real + v.imag * v.imag

    radius = tab.rho + step_cost(spec.system)
    return math.sqrt(_scalar_integrate(spec.system, mu, radius, defect_sq, mode, n_samples, seed, cap))


def scalar_inner_product(a, b, mu, horizon, mode="exact", n_samples=10_000, seed=0,
                         cap=DEFAULT_ENUMERATION_CAP, table=None):
    """`inner_product` with f_a conj(f_b) evaluated per configuration."""
    tab_a = table if table is not None else event_table(a, horizon, cap)
    tab_b = table if table is not None else event_table(b, horizon, cap)

    def value(x):
        fa = _scalar_f(a, tab_a, x)
        if fa == 0:
            return 0j
        return fa * _scalar_f(b, tab_b, x).conjugate()

    radius = max(tab_a.rho, tab_b.rho)
    return complex(_scalar_integrate(a.system, mu, radius, value, mode, n_samples, seed, cap))


# -- cylinder products -----------------------------------------------------------

def _product(factors):
    fs = [float(f) for f in factors]
    if any(f == 0.0 for f in fs):
        return 0.0
    if len(fs) <= 64:
        out = 1.0
        for f in fs:
            out *= f
        return out
    return math.exp(math.fsum(math.log(f) for f in fs))


def oracle_cylinder_probability(mu, c):
    """Bernoulli: the weights of the word; Markov: pi, then transitions; Haar: 1/size per digit."""
    if isinstance(mu, BernoulliMeasure):
        return _product(mu.weights[s] for s in c.word)
    w = c.word
    if isinstance(mu, MarkovMeasure):
        return _product([float(mu.stationary[w[0]])] + [float(mu.transition[a, b]) for a, b in zip(w, w[1:])])
    assert isinstance(mu, ProductMeasure) and c.sided == ONE_SIDED
    factors = []
    for i, s in zip(window_cells(ONE_SIDED, c.radius), w):
        if s >= mu.size_at(i):
            return 0.0
        factors.append(1.0 / mu.size_at(i))
    return _product(factors)


# -- whole-array batch samplers ---------------------------------------------------

def chain_law(mu, cell):
    """(first-cell row, forward kernel, reversed kernel) of mu at one cell, as probabilities."""
    size = mu.alphabet.size
    if isinstance(mu, MarkovMeasure):
        pi, P = mu.stationary, mu.transition
        return pi, P, (pi[None, :] * P.T) / pi[:, None]
    if isinstance(mu, BernoulliMeasure):
        row = np.array(mu.weights)
    else:
        s = mu.size_at(cell)
        row = np.array([1.0 / s] * s + [0.0] * (size - s))
    return row, np.tile(row, (size, 1)), np.tile(row, (size, 1))


def cumulative(row):
    """Cumulative row, exactly 1.0 from the last positive entry on."""
    cum = np.cumsum(row)
    cum[np.flatnonzero(row)[-1]:] = 1.0
    return cum


def _invert(row, u):
    cum = cumulative(row)
    return np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)


def _chain_step(kernel, prev, u):
    """Next symbols: for each previous symbol a, the inverse CDF of kernel row a at `u`."""
    out = np.empty(len(u), dtype=np.int64)
    for a, row in enumerate(kernel):
        hit = prev == a
        out[hit] = _invert(row, u[hit])
    return out


def _fill(mu, cells, out, lo, hi, rng):
    """Columns hi.. by the forward kernels, then lo-1..0 by the reversed ones, one random(n) each."""
    for j in range(hi, len(cells)):
        out[:, j] = _chain_step(chain_law(mu, cells[j])[1], out[:, j - 1], rng.random(len(out)))
    for j in range(lo - 1, -1, -1):
        out[:, j] = _chain_step(chain_law(mu, cells[j])[2], out[:, j + 1], rng.random(len(out)))
    return out


def oracle_sample_batch(mu, sided, radius, n, rng):
    """n x |W_radius| rows: the first cell from its row, then rightward by the forward kernels."""
    cells = list(window_cells(sided, radius))
    out = np.zeros((n, len(cells)), dtype=np.int64)
    out[:, 0] = _invert(chain_law(mu, cells[0])[0], rng.random(n))
    return _fill(mu, cells, out, 0, 1, rng)


def oracle_conditional_batch(mu, c, radius, n, rng):
    """Rows on W_radius given the cylinder c: c's word, extended rightward, then leftward."""
    cells = list(window_cells(c.sided, radius))
    lo = 0 if c.sided == ONE_SIDED else radius - c.radius
    out = np.zeros((n, len(cells)), dtype=np.int64)
    out[:, lo : lo + len(c.word)] = c.word
    return _fill(mu, cells, out, lo, lo + len(c.word), rng)


# -- Vitali covers by objects -------------------------------------------------------

def oracle_refine(mu, c, radius):
    """c's word if its radius reaches `radius`, else the words of all its
    extensions at `radius` (on W_max(c.radius, radius) either way)."""
    if c.radius >= radius:
        yield c.word
        return
    cells = list(window_cells(c.sided, radius))
    fixed = dict(zip(window_cells(c.sided, c.radius), c.word))
    free = [i for i in cells if i not in fixed]
    for combo in iter_words([mu.cell_size(i) for i in free]):
        assign = dict(fixed)
        assign.update(zip(free, combo))
        yield tuple(assign[i] for i in cells)


def oracle_vitali_cover(mu, parts, min_radius):
    """(center, radius) per ball: every maximal piece split into its extensions at min_radius."""
    return [(Configuration(mu.alphabet, c.sided, w), max(c.radius, min_radius))
            for c in maximal_cylinders(parts) for w in oracle_refine(mu, c, min_radius)]


def oracle_ball_masses(mu, balls):
    return [mu.cylinder_probability(ball_cylinder(center, n)) for center, n in balls]


def oracle_uncovered_mass(mu, parts, balls, min_radius):
    """The mass of the extensions at min_radius of A's maximal pieces whose
    subword at some ball's radius is not that ball's word, summed in order."""
    words = {}
    for center, n in balls:
        words.setdefault(n, set()).add(center.window(n))
    total = 0.0
    for piece in maximal_cylinders(parts):
        radius = max(piece.radius, min_radius)
        for w in oracle_refine(mu, piece, min_radius):
            if not any(r <= radius and subword(w, piece.sided, radius, r) in ws for r, ws in words.items()):
                total += mu.cylinder_probability(Cylinder(mu.alphabet, piece.sided, radius, w))
    return total


# -- base points one at a time ----------------------------------------------------

def oracle_base_points(system, mu, m, ns, horizon, points, seed):
    """Per point i: a `sample_config` from substream(seed, 0, i), its label and
    `column_trace`, then per n its `ball_cylinder` word and `cylinder_probability`."""
    sided = system_sided(system)
    radius = max(max(ns), dependence_radius(system, m, horizon))
    labels, traces, words, masses = [], [], [], []
    for i in range(points):
        x = mu.sample_config(sided, radius, substream(seed, 0, i))
        balls = [ball_cylinder(x, n) for n in ns]
        labels.append(word_to_str(x.symbols, x.alphabet))
        traces.append([list(w) for w in column_trace(system, x, m, horizon)])
        words.append([list(b.word) for b in balls])
        masses.append([mu.cylinder_probability(b) for b in balls])
    return labels, traces, words, masses
