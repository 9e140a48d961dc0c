"""Scalar oracles: the per-rule loops and per-configuration integrands that the
batch engines replaced.

They work on validated `Configuration` objects one at a time and never call
`step_batch`, `step_planes` or the spectral row lookup, so a test that checks
an engine against them compares two independent implementations.

The Cantor metric, its agreement level and the cylinder relations below
work on objects, one pair at a time; every command works on words, and the
tests check the word engines against these definitions.
`oracle_maximal_cylinders` is the pairwise scan that the word-code nesting
test replaced. Six helpers are not oracles. Five are one-object calls into
the library's block paths, for the tests to compare with the oracles: `step`
is the one-row `step_batch` call (or the rotation's angle sum), `trace_rows`
one point's `_windows` trace, `ball_rows` its orbit ball by `_ball_rows`,
`cylinder_mass` the one-row `row_probabilities` and `conditional_rows` the
one-generator `pieces` draw given a cylinder. `family` packs (word, n) balls
into a row `BallFamily`.

The batch samplers below draw one n x |W| array from the chain of each
measure, re-derived from its public parameters, in the stream order of the
piece generator of `equidyn.measures` (one `random(n)` per cell), so equal
rows mean equal draws. The cylinder products are the three per-measure
formulas that the chain's one product replaced. The Vitali cover below is
the object refinement that the int-row cover replaced: one `Configuration`
center per ball, one `oracle_cylinder_probability` per mass, and coverage
read off word tuples by `subword`. The base points below are the per-point
preparation that the report's int-row block replaced.
"""

import functools
import math
from fractions import Fraction

import numpy as np

from equidyn import Configuration, IncompatibleConfigurations, InsufficientRadius, UnsupportedSystem
from equidyn.core import (
    DEFAULT_ENUMERATION_CAP,
    ONE_SIDED,
    TWO_SIDED,
    CirclePoint,
    Cylinder,
    ball_cylinder,
    count_words,
    iter_words,
    subword,
    window_cells,
    window_size,
    word_to_str,
)
from equidyn.measures import BallFamily, BernoulliMeasure, MarkovMeasure, ProductMeasure, _rows
from equidyn.errors import EnumerationTooLarge
from equidyn.orbit import _ball_rows
from equidyn.rng import substream
from equidyn.spectral import event_table, root_of_unity
from equidyn.systems import (
    CARule,
    Odometer,
    Rotation,
    Shift,
    _checked_row,
    _trace_row,
    _windows,
    cell_sizes,
    dependence_radius,
    step_batch,
    step_cost,
    system_sided,
)

# -- the metric and the cylinder relations, one object at a time -----------------

# Distance values for the two agreement levels the 1/m formula cannot express.
# Both must exceed 1 so that "d <= 1/n iff agreement on W_n" holds for all
# n >= 1; only origin disagreement may reach 2, so that "d >= 2" means exactly
# "the origin symbols differ".
DISTANCE_ORIGIN_MISMATCH = Fraction(2)
DISTANCE_WINDOW_ONE_MISMATCH = Fraction(3, 2)


def check_compatible(x, y):
    if x.alphabet != y.alphabet or x.sided != y.sided:
        raise IncompatibleConfigurations(
            f"operands disagree: alphabet {x.alphabet.size} vs {y.alphabet.size}, "
            f"indexing {x.sided!r} vs {y.sided!r}"
        )


def agreement_level(x, y):
    """Largest m <= min(valid radii) with x and y equal on W_m; -1 if none.

    Raises InsufficientRadius when no disagreement occurs within the shared
    window and the truncations are not identical (the true level is then
    unknowable from the data at hand).
    """
    check_compatible(x, y)
    rmin = min(x.radius, y.radius)
    for i in range(rmin + 1):
        if x.at(i) != y.at(i) or (x.sided == TWO_SIDED and x.at(-i) != y.at(-i)):
            return i - 1
    if x.radius == y.radius:
        return rmin  # identical truncations
    raise InsufficientRadius(
        f"no disagreement within shared radius {rmin}; "
        "valid radii too small to witness the first mismatch"
    )


def cantor_distance(x, y):
    """Cantor metric: 1/m with m the largest window radius of agreement.

    Returns 0 only for identical truncations of equal valid radius. Points
    that differ at the origin get distance 2; points agreeing exactly on W_0
    get 3/2 (any value strictly between 1 and 2 keeps the ball/cylinder
    identities for n >= 1 while reserving 2 for origin disagreement).
    """
    level = agreement_level(x, y)
    if level == -1:
        return DISTANCE_ORIGIN_MISMATCH
    if level == min(x.radius, y.radius):
        # agreement_level only reaches the full shared window for identical
        # truncations of equal radius; it raises otherwise.
        return Fraction(0)
    if level == 0:
        return DISTANCE_WINDOW_ONE_MISMATCH
    return Fraction(1, level)


def circle_distance(a, b):
    gap = abs(a.angle - b.angle)
    return min(gap, 1 - gap)


def contains(c, x):
    """Does the cylinder c hold the configuration x?"""
    if x.alphabet != c.alphabet or x.sided != c.sided:
        raise IncompatibleConfigurations("configuration lives over a different space")
    return x.window(c.radius) == c.word


def as_configuration(c):
    """The cylinder's word read as a configuration of valid radius c.radius."""
    return Configuration(c.alphabet, c.sided, c.word)


def compare_cylinders(a, b):
    """One of 'equal', 'a_in_b', 'b_in_a', 'disjoint'.

    Cylinders over the same space either nest or are disjoint, so these four
    cases are exhaustive.
    """
    if a.alphabet != b.alphabet or a.sided != b.sided:
        raise IncompatibleConfigurations("cylinders live over different spaces")
    n = min(a.radius, b.radius)
    if subword(a.word, a.sided, a.radius, n) != subword(b.word, b.sided, b.radius, n):
        return "disjoint"
    if a.radius == b.radius:
        return "equal"
    return "a_in_b" if a.radius > b.radius else "b_in_a"


def oracle_maximal_cylinders(parts):
    """Drop cylinders nested in others; survivors are pairwise disjoint."""
    keep = []
    for c in parts:
        absorbed = False
        survivors = []
        for k in keep:
            rel = compare_cylinders(c, k)
            if rel in ("equal", "a_in_b"):
                absorbed = True  # c adds nothing; keep cannot contain pieces of c
                break
            if rel != "b_in_a":
                survivors.append(k)  # disjoint survives; nested-in-c drops
        if not absorbed:
            survivors.append(c)
            keep = survivors
    return keep


def step(system, x):
    """One application of the map to one configuration, by a one-row `step_batch`
    (a rotation adds its angle); CA output loses r of valid radius."""
    if isinstance(system, Rotation):
        if not isinstance(x, CirclePoint):
            raise UnsupportedSystem("rotations act on circle points")
        return CirclePoint(x.angle + system.alpha)
    if not isinstance(system, (CARule, Odometer)):
        raise UnsupportedSystem(f"unknown system {system!r}")
    out = step_batch(system, _checked_row(system, x))
    return Configuration(x.alphabet, x.sided, out[0].tolist())


def trace_rows(system, x, m, horizon):
    """x's column trace: `_windows` of x's `_trace_row`, as (horizon + 1, |W_m|) int rows."""
    rho = dependence_radius(system, m, horizon)
    return _windows(system, _trace_row(system, x, m, horizon), rho, m, horizon)[0]


def ball_rows(system, x, m, horizon, cap=DEFAULT_ENUMERATION_CAP):
    """x's orbit ball: the W_rho rows that `_ball_rows` finds from x's trace, ascending by word code."""
    return _ball_rows(system, m, horizon, trace_rows(system, x, m, horizon)[None], cap)[0]


def cylinder_mass(mu, c):
    """The mass of the cylinder c: the one-row `row_probabilities` of its word."""
    return float(mu.row_probabilities(c.sided, c.radius, np.array([c.word], dtype=np.int64))[0])


def conditional_rows(mu, c, radius, n, rng):
    """n int rows on W_radius drawn from `rng` given the cylinder c: a one-generator `pieces` draw."""
    return _rows(mu.pieces(c.sided, radius, n, [rng], np.array([c.word])), n, window_size(c.sided, radius))


def family(alphabet, sided, balls):
    """The `BallFamily` of (word on W_n, n) balls: per radius, their places and words as int rows."""
    radii = [n for _, n in balls]
    return BallFamily(alphabet, sided, {
        n: (np.array([i for i, r in enumerate(radii) if r == n], dtype=np.int64),
            np.array([w for w, r in balls if r == n], dtype=np.int64))
        for n in sorted(set(radii))
    })


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
                acc += v * oracle_cylinder_probability(mu, Cylinder(system.alphabet, sided, radius, word))
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


def scalar_koopman_residual(spec, mu, horizon, mode="exact", n_samples=10_000, seed=0, cap=DEFAULT_ENUMERATION_CAP):
    """The residual of `spectral_family`, the L2(mu) norm of f_k(T x) - lambda^k
    f_k(x), with f_k(x) and f_k(Tx) evaluated per configuration."""
    tab = event_table(spec, horizon, cap)
    lam = spec.eigenvalue()

    def defect_sq(x):
        fx = _scalar_f(spec, tab, x)
        ftx = _scalar_f(spec, tab, scalar_step(spec.system, x))
        v = ftx - lam * fx
        return v.real * v.real + v.imag * v.imag

    radius = tab.rho + step_cost(spec.system)
    return math.sqrt(_scalar_integrate(spec.system, mu, radius, defect_sq, mode, n_samples, seed, cap))


def scalar_inner_product(a, b, mu, horizon, mode="exact", n_samples=10_000, seed=0, cap=DEFAULT_ENUMERATION_CAP):
    """<f_a, f_b> in L2(mu), the norms and cross products of `spectral_family`,
    with f_a conj(f_b) evaluated per configuration."""
    tab_a, tab_b = event_table(a, horizon, cap), event_table(b, horizon, cap)

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
            for c in oracle_maximal_cylinders(parts) for w in oracle_refine(mu, c, min_radius)]


def oracle_ball_masses(mu, balls):
    return [oracle_cylinder_probability(mu, ball_cylinder(center, n)) for center, n in balls]


def oracle_uncovered_mass(mu, parts, balls, min_radius):
    """The mass of the extensions at min_radius of A's maximal pieces whose
    subword at some ball's radius is not that ball's word, summed in order."""
    words = {}
    for center, n in balls:
        words.setdefault(n, set()).add(center.window(n))
    total = 0.0
    for piece in oracle_maximal_cylinders(parts):
        radius = max(piece.radius, min_radius)
        for w in oracle_refine(mu, piece, min_radius):
            if not any(r <= radius and subword(w, piece.sided, radius, r) in ws for r, ws in words.items()):
                total += oracle_cylinder_probability(mu, Cylinder(mu.alphabet, piece.sided, radius, w))
    return total


# -- base points one at a time ----------------------------------------------------

def oracle_base_points(system, mu, m, ns, horizon, points, seed):
    """Per point i: a `sample_config` from substream(seed, 0, i), its label and
    `scalar_column_trace`, then per n its `ball_cylinder` word and `oracle_cylinder_probability`."""
    sided = system_sided(system)
    radius = max(max(ns), dependence_radius(system, m, horizon))
    labels, traces, words, masses = [], [], [], []
    for i in range(points):
        x = mu.sample_config(sided, radius, substream(seed, 0, i))
        balls = [ball_cylinder(x, n) for n in ns]
        labels.append(word_to_str(x.symbols, x.alphabet))
        traces.append([list(w) for w in scalar_column_trace(system, x, m, horizon)])
        words.append([list(b.word) for b in balls])
        masses.append([oracle_cylinder_probability(mu, b) for b in balls])
    return labels, traces, words, masses
