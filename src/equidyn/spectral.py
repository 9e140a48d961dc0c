"""Continuous Koopman eigenfunction candidates built from locally periodic points.

A point y whose column trace at resolution m is genuinely periodic (an LP
certificate with q = 0, period p) yields candidate eigenfunctions

    f_k = sum_{j=0..p-1} lambda^{j k} 1_{B(T^j y)},   lambda = e^{2 pi i / p},

with the orbit balls taken at a finite horizon. The composition relation
f_k(Tx) = lambda^k f_k(x) holds exactly for isometric systems and is
measured, not assumed, everywhere else: residuals and inner products are
integrated exactly over the coarsest cylinder partition that refines every
ball event, or sampled when that partition is too large. Both quantities go
through one integration path, `_integrate`, over int rows: a row's W_rho
word gives its orbit index j(x) in the event table, and one `step_batch` of
the rows gives j(Tx). The ball events depend on y, m and the horizon but
not on k, so one `event_table` serves every f_k; the `spectral` command
builds it once per run and passes it to every call.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    DEFAULT_ENUMERATION_CAP,
    Configuration,
    Cylinder,
    count_words,
    iter_words,
    window_cells,
)
from .errors import EnumerationTooLarge, InsufficientRadius, OverlappingBalls
from .measures import CantorMeasure
from .periodicity import lep_certificate
from .rng import substream
from .systems import (
    CantorSystem,
    cell_sizes,
    check_cells,
    dependence_radius,
    step,
    step_batch,
    step_cost,
    system_sided,
    window_slice,
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

    def eigenvalue_exponent(self) -> tuple[int, int]:
        return (self.k % self.period, self.period)


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


@dataclass(frozen=True)
class _EvalTable:
    """word on W_rho -> orbit index j, for the p pairwise disjoint ball events."""

    rho: int
    index: dict


def _orbit_points(spec: EigenfunctionSpec, rho: int) -> list[Configuration]:
    pts = [spec.y]
    cost = step_cost(spec.system)
    need = rho + cost * (spec.period - 1)
    if spec.y.radius < need:
        raise InsufficientRadius(
            f"base point needs valid radius {need} to trace its whole cycle, "
            f"have {spec.y.radius}"
        )
    for _ in range(spec.period - 1):
        pts.append(step(spec.system, pts[-1]))
    return pts


def event_table(
    spec: EigenfunctionSpec, horizon: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> _EvalTable:
    """Build the p ball events at this horizon and verify pairwise disjointness."""
    from .orbit import orbit_ball_event

    rho = dependence_radius(spec.system, spec.m, horizon)
    index: dict = {}
    for j, point in enumerate(_orbit_points(spec, rho)):
        event = orbit_ball_event(spec.system, point, spec.m, horizon, cap=cap)
        for word in event.words:
            if word in index:
                raise OverlappingBalls(
                    f"orbit balls {index[word]} and {j} share the word {word} "
                    f"at horizon {horizon}; the horizon is too short to separate them"
                )
            index[word] = j
    return _EvalTable(rho=rho, index=index)


def eigenfunction_eval(
    spec: EigenfunctionSpec,
    x: Configuration,
    horizon: int,
    cap: int = DEFAULT_ENUMERATION_CAP,
    table: Optional[_EvalTable] = None,
) -> complex:
    """f_k(x): lambda^{j k} on the j-th orbit ball, 0 outside all of them."""
    tab = table if table is not None else event_table(spec, horizon, cap)
    j = tab.index.get(x.window(tab.rho))  # InsufficientRadius below rho
    return 0j if j is None else root_of_unity(spec.period, j * spec.k)


def _values(spec: EigenfunctionSpec, tab: _EvalTable, sided: str, radius: int, rows: np.ndarray) -> list[complex]:
    """f_k on every int row of `rows`, which cover W_radius."""
    roots = [root_of_unity(spec.period, j * spec.k) for j in range(spec.period)]
    js = (tab.index.get(tuple(w)) for w in window_slice(sided, radius, tab.rho, rows).tolist())
    return [0j if j is None else roots[j] for j in js]


def _integrate(system, mu, radius, integrand, mode, n_samples, seed, cap):
    """Integral of `integrand`, which maps int rows on W_radius to one value each.

    Exact mode sums each nonzero value times the mass of its cylinder over
    the W_radius partition, walking the words in blocks; sampled mode
    averages over n_samples draws. Values are added one at a time in row
    order either way.
    """
    sided = system_sided(system)
    acc = 0.0
    if mode == "exact":
        sizes = cell_sizes(system, list(window_cells(sided, radius)))
        total = count_words(sizes)
        if total > cap:
            raise EnumerationTooLarge(total, cap, "cylinder partition")
        words = iter_words(sizes)
        while block := list(itertools.islice(words, _BLOCK)):
            for word, v in zip(block, integrand(np.array(block, dtype=np.int64))):
                if v != 0:
                    acc += v * mu.cylinder_probability(Cylinder(system.alphabet, sided, radius, word))
        return acc
    if mode == "sampled":
        rows = mu.sample_batch(sided, radius, n_samples, substream(seed, 0))
        check_cells(system, rows)
        for v in integrand(rows):
            acc += v
        return acc / n_samples
    raise ValueError(f"mode must be 'exact' or 'sampled', got {mode!r}")


def koopman_residual(
    spec: EigenfunctionSpec,
    mu: CantorMeasure,
    horizon: int,
    mode: str = "exact",
    n_samples: int = 10_000,
    seed: int = 0,
    cap: int = DEFAULT_ENUMERATION_CAP,
    table: Optional[_EvalTable] = None,
) -> float:
    """L2(mu) norm of f_k(T x) - lambda^k f_k(x) at this horizon.

    Exact mode integrates over the cylinder partition at the dependence
    radius of x -> (f(x), f(Tx)); sampled mode draws x from mu. A given
    `table` (for the same y and m, any k) changes no result.
    """
    tab = table if table is not None else event_table(spec, horizon, cap)
    lam = spec.eigenvalue()
    system = spec.system
    sided = system_sided(system)
    radius = tab.rho + step_cost(system)

    def defect_sq(rows: np.ndarray) -> list[float]:
        fx = _values(spec, tab, sided, radius, rows)
        ftx = _values(spec, tab, sided, tab.rho, step_batch(system, rows))
        out = []
        for a, b in zip(ftx, fx):
            v = a - lam * b
            out.append(v.real * v.real + v.imag * v.imag)
        return out

    return math.sqrt(_integrate(system, mu, radius, defect_sq, mode, n_samples, seed, cap))


def inner_product(
    a: EigenfunctionSpec,
    b: EigenfunctionSpec,
    mu: CantorMeasure,
    horizon: int,
    mode: str = "exact",
    n_samples: int = 10_000,
    seed: int = 0,
    cap: int = DEFAULT_ENUMERATION_CAP,
    table: Optional[_EvalTable] = None,
) -> complex:
    """<f_a, f_b> in L2(mu), integrating f_a conj(f_b) at this horizon.

    A given `table` serves both, so a and b must share y and m.
    """
    if a.system != b.system:
        raise ValueError("inner products need eigenfunctions over the same system")
    tab_a = table if table is not None else event_table(a, horizon, cap)
    tab_b = table if table is not None else event_table(b, horizon, cap)
    sided = system_sided(a.system)
    radius = max(tab_a.rho, tab_b.rho)

    def value(rows: np.ndarray) -> list[complex]:
        fa = _values(a, tab_a, sided, radius, rows)
        fb = _values(b, tab_b, sided, radius, rows)
        return [0j if va == 0 else va * vb.conjugate() for va, vb in zip(fa, fb)]

    return complex(_integrate(a.system, mu, radius, value, mode, n_samples, seed, cap))
