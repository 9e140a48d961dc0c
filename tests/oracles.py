"""Scalar oracles: the per-rule loops and per-configuration integrands that the
batch engines replaced.

They work on validated `Configuration` objects one at a time and never call
`step_batch`, `step_planes` or the spectral row lookup, so a test that checks
an engine against them compares two independent implementations.

The batch samplers below are the whole-array formulas that the piece
generators of `equidyn.measures` replaced: each draws one n x |W| array in
the same stream order, so equal rows mean equal draws.
"""

import math

import numpy as np

from equidyn import Configuration, InsufficientRadius, UnsupportedSystem
from equidyn.core import DEFAULT_ENUMERATION_CAP, ONE_SIDED, Cylinder, count_words, iter_words, window_cells, window_size
from equidyn.measures import BernoulliMeasure, MarkovMeasure, ProductMeasure
from equidyn.errors import EnumerationTooLarge
from equidyn.rng import substream
from equidyn.spectral import event_table, root_of_unity
from equidyn.systems import (
    CARule,
    Odometer,
    Shift,
    cell_sizes,
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


def _scalar_f(spec, tab, x):
    """f_k(x) from x's own word on W_rho."""
    j = tab.index.get(x.window(tab.rho))
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


# -- whole-array batch samplers -----------------------------------------------

def _invert(cum, u):
    return np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)


def _chain_step(cum, prev, u):
    """Next Markov symbols: the inverse CDF of the kernel row of `prev` at `u`."""
    return np.array([_invert(cum[p], v) for p, v in zip(prev, u)], dtype=np.int64)


def _paste(out, c, radius):
    lo = 0 if c.sided == ONE_SIDED else radius - c.radius
    out[:, lo : lo + len(c.word)] = c.word
    return out


def oracle_sample_batch(mu, sided, radius, n, rng):
    """n x |W_radius| rows: Bernoulli row-major, Markov and Haar one call per cell."""
    k = window_size(sided, radius)
    if isinstance(mu, BernoulliMeasure):
        return _invert(np.cumsum(mu.weights), rng.random((n, k)))
    if isinstance(mu, MarkovMeasure):
        u = rng.random((k, n))
        cols = [_invert(np.cumsum(mu.stationary), u[0])]
        for j in range(1, k):
            cols.append(_chain_step(np.cumsum(mu.transition, axis=1), cols[-1], u[j]))
        return np.stack(cols, axis=1)
    assert isinstance(mu, ProductMeasure) and sided == ONE_SIDED
    return np.stack([rng.integers(0, mu.size_at(i), size=n) for i in range(radius + 1)], axis=1)


def oracle_conditional_batch(mu, c, radius, n, rng):
    """Rows on W_radius given the cylinder c: Bernoulli and Haar draw the whole
    window and paste c's word; Markov extends the word rightward, then leftward."""
    if not isinstance(mu, MarkovMeasure):
        return _paste(oracle_sample_batch(mu, c.sided, radius, n, rng), c, radius)
    k = window_size(c.sided, radius)
    out = _paste(np.zeros((n, k), dtype=np.int64), c, radius)
    lo = 0 if c.sided == ONE_SIDED else radius - c.radius
    hi = lo + len(c.word)
    pi = mu.stationary
    forward = np.cumsum(mu.transition, axis=1)
    reverse = np.cumsum((pi[None, :] * mu.transition.T) / pi[:, None], axis=1)
    for j in range(hi, k):
        out[:, j] = _chain_step(forward, out[:, j - 1], rng.random(n))
    for j in range(lo - 1, -1, -1):
        out[:, j] = _chain_step(reverse, out[:, j + 1], rng.random(n))
    return out
