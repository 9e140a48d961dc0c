"""Product-type measures on configuration spaces, with exact cylinder algebra.

Bernoulli, stationary Markov, and per-coordinate uniform (Haar on a product
of cyclic groups) measures give exact cylinder probabilities; sampling and
conditional sampling are deterministic given a generator or seed. Finite
unions of cylinders support exact density ratios and exact Vitali covers by
clopen refinement, because two cylinders over the same space either nest or
are disjoint.

Batch draws come as pieces (first_row, first_cell, block) in the order the
generator makes them: `block` holds rows first_row.. on cells first_cell..
of W_radius. Markov (one `random(n)` per cell) and Haar (one `integers` call
per cell) give one column of all n rows per piece; Bernoulli (row-major
`random((n, k))`) gives blocks of `ROW_BLOCK` rows. `sample_batch` and
`conditional_batch` write the pieces into int rows; `systems.pack_planes`
packs them into bit planes as they arrive, without an n x |W| array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .core import (
    ONE_SIDED,
    DEFAULT_ENUMERATION_CAP,
    Alphabet,
    CirclePoint,
    Configuration,
    Cylinder,
    ball_cylinder,
    check_sided,
    compare_cylinders,
    count_words,
    iter_words,
    subword,
    window_cells,
    window_size,
)
from .errors import AlphabetMismatch, EnumerationTooLarge, NullBall, NullCylinder
from .rng import substream

RandomState = Union[int, np.random.Generator]
Piece = tuple[int, int, np.ndarray]

ROW_BLOCK = 2048  # rows per Bernoulli piece: a multiple of 64, so pieces fill whole plane words


def as_generator(random_state: RandomState) -> np.random.Generator:
    if isinstance(random_state, np.random.Generator):
        return random_state
    return substream(int(random_state))


def _prob_product(factors: Iterable[float]) -> float:
    """Product of probabilities; log-space once the factor count passes 64."""
    fs = [float(f) for f in factors]
    if any(f == 0.0 for f in fs):
        return 0.0
    if len(fs) <= 64:
        out = 1.0
        for f in fs:
            out *= f
        return out
    return math.exp(math.fsum(math.log(f) for f in fs))


def _uniform_rows(rngs: Sequence[np.random.Generator], k: int) -> np.ndarray:
    """Row i holds k uniforms from rngs[i], drawn in one call."""
    return np.array([rng.random(k) for rng in rngs]).reshape(len(rngs), k)


def _inverse_cdf(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Symbols drawn by inverting the cumulative row `cum` at uniforms `u`."""
    out = np.searchsorted(cum, u, side="right")
    return np.minimum(out, len(cum) - 1)


class _CylinderMeasure:
    """What the cylinder measures share.

    Subclasses supply `_pieces(sided, radius, n, rng, given)`, the one
    generator of batch draws (conditioned on the cylinder `given` unless it
    is None), and `sample_rows(sided, radius, rngs)`, whose row i is the word
    on W_radius drawn from rngs[i] alone; `sample_config` is its one-row call.
    """

    def cell_size(self, i: int) -> int:
        return self.alphabet.size

    def _check_cylinder(self, c: Cylinder) -> None:
        if c.alphabet != self.alphabet:
            raise AlphabetMismatch(
                f"cylinder over alphabet {c.alphabet.size}, measure over {self.alphabet.size}"
            )

    def sample_config(self, sided: str, radius: int, random_state: RandomState) -> Configuration:
        row = self.sample_rows(sided, radius, [as_generator(random_state)])[0]
        return Configuration(self.alphabet, sided, row)

    def conditional_sample(self, c: Cylinder, radius: int, random_state: RandomState) -> Configuration:
        word = self.conditional_batch(c, radius, 1, as_generator(random_state))[0]
        return Configuration(self.alphabet, c.sided, tuple(int(s) for s in word))

    def pieces(self, sided: str, radius: int, n: int, rng: np.random.Generator, given: Cylinder | None = None):
        """n words on W_radius from `rng`, given the cylinder `given` if any, as pieces in draw order."""
        if given is not None:
            _require_extendable(self, given, radius)
            if given.sided != sided:
                raise ValueError(f"{given.sided!r}-sided cylinder, {sided!r}-sided draws")
        return self._pieces(check_sided(sided), radius, n, rng, given)

    def sample_batch(self, sided: str, radius: int, n: int, rng: np.random.Generator) -> np.ndarray:
        return _rows(self.pieces(sided, radius, n, rng), n, window_size(sided, radius))

    def conditional_batch(self, c: Cylinder, radius: int, n: int, rng: np.random.Generator) -> np.ndarray:
        return _rows(self.pieces(c.sided, radius, n, rng, c), n, window_size(c.sided, radius))


class BernoulliMeasure(_CylinderMeasure):
    """i.i.d. symbols with the given weights."""

    def __init__(self, weights: Sequence[float]):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or len(w) < 2:
            raise ValueError("need a weight per symbol, at least two symbols")
        if (w < 0).any():
            raise ValueError("weights must be non-negative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1 within 1e-12, got {w.sum()!r}")
        self.alphabet = Alphabet(len(w))
        self.weights = tuple(float(p) for p in w)
        self._cum = np.cumsum(w)

    def __repr__(self):
        return f"BernoulliMeasure({list(self.weights)})"

    def cylinder_probability(self, c: Cylinder) -> float:
        self._check_cylinder(c)
        return _prob_product(self.weights[s] for s in c.word)

    def sample_rows(self, sided: str, radius: int, rngs: Sequence[np.random.Generator]) -> np.ndarray:
        return _inverse_cdf(self._cum, _uniform_rows(rngs, window_size(check_sided(sided), radius)))

    def _pieces(self, sided, radius, n, rng, given) -> Iterator[Piece]:
        k = window_size(sided, radius)
        blocks = (
            (r0, 0, _inverse_cdf(self._cum, rng.random((min(ROW_BLOCK, n - r0), k))))
            for r0 in range(0, n, ROW_BLOCK)
        )
        return blocks if given is None else _pasted(blocks, given, radius)


class MarkovMeasure(_CylinderMeasure):
    """Stationary Markov chain; two-sided words are anchored by stationarity."""

    def __init__(self, transition: Sequence[Sequence[float]], stationary: Sequence[float] | None = None):
        P = np.asarray(transition, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1] or P.shape[0] < 2:
            raise ValueError(f"transition matrix must be square (size >= 2), got shape {P.shape}")
        if (P < 0).any():
            raise ValueError("transition probabilities must be non-negative")
        rowsums = P.sum(axis=1)
        if np.abs(rowsums - 1.0).max() > 1e-12:
            raise ValueError("each transition row must sum to 1 within 1e-12")
        if stationary is None:
            pi = self._solve_stationary(P)
        else:
            pi = np.asarray(stationary, dtype=float)
            if pi.shape != (P.shape[0],):
                raise ValueError("stationary vector has the wrong length")
        if (pi <= 0).any():
            raise ValueError("stationary vector must be strictly positive")
        if abs(pi.sum() - 1.0) > 1e-10:
            raise ValueError("stationary vector must sum to 1 within 1e-10")
        if np.abs(pi @ P - pi).max() > 1e-10:
            raise ValueError("stationary vector fails pi P = pi within 1e-10")
        self.alphabet = Alphabet(P.shape[0])
        self.transition = P
        self.stationary = pi
        # time reversal: probability of seeing b one step to the left of a
        self._reverse = (pi[None, :] * P.T) / pi[:, None]
        self._cum_pi = np.cumsum(pi)
        self._cum_rows = np.cumsum(P, axis=1)
        self._cum_rev = np.cumsum(self._reverse, axis=1)
        for M in (self.transition, self.stationary, self._reverse):
            M.setflags(write=False)

    @staticmethod
    def _solve_stationary(P: np.ndarray) -> np.ndarray:
        k = P.shape[0]
        lhs = np.vstack([P.T - np.eye(k), np.ones((1, k))])
        rhs = np.zeros(k + 1)
        rhs[-1] = 1.0
        pi, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
        return pi

    def __repr__(self):
        return f"MarkovMeasure(P={self.transition.tolist()})"

    def cylinder_probability(self, c: Cylinder) -> float:
        self._check_cylinder(c)
        w = c.word
        factors = [float(self.stationary[w[0]])]
        factors.extend(float(self.transition[a, b]) for a, b in zip(w, w[1:]))
        return _prob_product(factors)

    def sample_rows(self, sided: str, radius: int, rngs: Sequence[np.random.Generator]) -> np.ndarray:
        return self._chain_words(_uniform_rows(rngs, window_size(check_sided(sided), radius)))

    def _chain_words(self, u: np.ndarray) -> np.ndarray:
        """Chains read left to right off the uniforms `u`, one row per chain."""
        out = np.empty(u.shape[::-1], dtype=np.int64).T  # column-major: each step writes one column
        out[:, 0] = _inverse_cdf(self._cum_pi, u[:, 0])
        for j in range(1, u.shape[1]):
            out[:, j] = self._kernel_column(self._cum_rows, out[:, j - 1], u[:, j])
        return out

    def _kernel_column(self, cum: np.ndarray, prev: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Next symbols after `prev`, inverting the cumulative kernel rows `cum` at `u`.

        Rows of `cum` are nondecreasing, so counting u >= cum[prev, j] over
        j < |A| - 1 is the inverse CDF capped at the last symbol.
        """
        out = (u >= cum[:, 0].take(prev)).astype(np.int64)
        for j in range(1, self.alphabet.size - 1):
            out += u >= cum[:, j].take(prev)
        return out

    def _pieces(self, sided, radius, n, rng, given) -> Iterator[Piece]:
        """Columns: the given word (or a stationary first cell), then the
        forward kernel rightward and the reversed kernel leftward."""
        lo, hi = (0, 1) if given is None else _fixed_span(given, radius)
        for j in range(lo, hi):
            right = _inverse_cdf(self._cum_pi, rng.random(n)) if given is None else np.full(n, given.word[j - lo])
            yield 0, j, right[:, None]
        for j in range(hi, window_size(sided, radius)):
            right = self._kernel_column(self._cum_rows, right, rng.random(n))
            yield 0, j, right[:, None]
        left = np.full(n, given.word[0]) if lo else None
        for j in range(lo - 1, -1, -1):
            left = self._kernel_column(self._cum_rev, left, rng.random(n))
            yield 0, j, left[:, None]


class ProductMeasure(_CylinderMeasure):
    """Independent uniform digits: coordinate i uniform on {0..sizes_at(i)-1}.

    One-sided only; the factor list repeats its last entry for coordinates
    past its end. This is Haar measure on the matching product of cyclic
    groups, the natural invariant measure of the matching odometer.
    """

    def __init__(self, sizes: Sequence[int]):
        sz = tuple(int(s) for s in sizes)
        if not sz or any(s < 2 for s in sz):
            raise ValueError("need at least one factor, every factor size >= 2")
        self.sizes = sz
        self.alphabet = Alphabet(max(sz))

    def __repr__(self):
        return f"ProductMeasure(sizes={list(self.sizes)})"

    def size_at(self, i: int) -> int:
        if i < 0:
            raise ValueError("product measures are one-sided; no negative coordinates")
        return self.sizes[min(i, len(self.sizes) - 1)]

    def cell_size(self, i: int) -> int:
        return self.size_at(i)

    def _check_cylinder(self, c: Cylinder) -> None:
        super()._check_cylinder(c)
        if c.sided != ONE_SIDED:
            raise AlphabetMismatch("product measures live on one-sided configurations")

    def cylinder_probability(self, c: Cylinder) -> float:
        self._check_cylinder(c)
        factors = []
        for i, s in zip(window_cells(ONE_SIDED, c.radius), c.word):
            if s >= self.size_at(i):
                return 0.0  # outside the digit carrier
            factors.append(1.0 / self.size_at(i))
        return _prob_product(factors)

    def sample_rows(self, sided: str, radius: int, rngs: Sequence[np.random.Generator]) -> np.ndarray:
        if check_sided(sided) != ONE_SIDED:
            raise AlphabetMismatch("product measures live on one-sided configurations")
        sizes = [self.size_at(i) for i in window_cells(ONE_SIDED, radius)]
        rows = [rng.integers(0, sizes) for rng in rngs]
        return np.array(rows, dtype=np.int64).reshape(len(rngs), len(sizes))

    def _pieces(self, sided, radius, n, rng, given) -> Iterator[Piece]:
        if sided != ONE_SIDED:
            raise AlphabetMismatch("product measures live on one-sided configurations")
        cols = ((0, i, rng.integers(0, self.size_at(i), size=n)[:, None]) for i in range(radius + 1))
        return cols if given is None else _pasted(cols, given, radius)


class LebesgueMeasure:
    """Arc length on the circle; rotations use it analytically, never via cylinders."""

    def __repr__(self):
        return "LebesgueMeasure()"

    def sample_point(self, random_state: RandomState) -> CirclePoint:
        rng = as_generator(random_state)
        return CirclePoint(Fraction(float(rng.random())))


CantorMeasure = Union[BernoulliMeasure, MarkovMeasure, ProductMeasure]
Measure = Union[CantorMeasure, LebesgueMeasure]


def _require_extendable(mu: CantorMeasure, c: Cylinder, radius: int) -> None:
    mu._check_cylinder(c)
    if radius < c.radius:
        raise ValueError(
            f"target radius {radius} smaller than the conditioning radius {c.radius}"
        )
    if mu.cylinder_probability(c) == 0.0:
        raise NullCylinder(f"cylinder {c.word} has measure zero; cannot condition on it")


def _fixed_span(c: Cylinder, radius: int) -> tuple[int, int]:
    """Columns [lo, hi) that c's word occupies in rows covering W_radius."""
    lo = 0 if c.sided == ONE_SIDED else radius - c.radius
    return lo, lo + len(c.word)


def _pasted(pieces: Iterator[Piece], c: Cylinder, radius: int) -> Iterator[Piece]:
    """The pieces with c's word written over the conditioned window."""
    lo, hi = _fixed_span(c, radius)
    word = np.asarray(c.word)
    for r0, c0, block in pieces:
        a, b = max(lo, c0), min(hi, c0 + block.shape[1])
        if a < b:
            block[:, a - c0 : b - c0] = word[a - lo : b - lo]
        yield r0, c0, block


def _rows(pieces: Iterator[Piece], n: int, k: int) -> np.ndarray:
    """The n x k int rows that the pieces tile."""
    out = np.empty((n, k), dtype=np.int64)
    for r0, c0, block in pieces:
        out[r0 : r0 + block.shape[0], c0 : c0 + block.shape[1]] = block
    return out


# -- cylinder-set algebra ------------------------------------------------------

def maximal_cylinders(parts: Sequence[Cylinder]) -> list[Cylinder]:
    """Drop cylinders nested in others; survivors are pairwise disjoint."""
    keep: list[Cylinder] = []
    for c in parts:
        absorbed = False
        survivors: list[Cylinder] = []
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


def union_probability(mu: CantorMeasure, parts: Sequence[Cylinder]) -> float:
    """Exact measure of a finite union of cylinders."""
    return float(sum(mu.cylinder_probability(c) for c in maximal_cylinders(parts)))


def lebesgue_density_ratio(
    mu: CantorMeasure, parts: Sequence[Cylinder], x: Configuration, n: int
) -> float:
    """mu(A intersect B_n(x)) / mu(B_n(x)) for A a finite union of cylinders."""
    ball = ball_cylinder(x, n)
    mball = mu.cylinder_probability(ball)
    if mball == 0.0:
        raise NullBall(f"ball of radius 1/{n} around the point has measure zero")
    num = 0.0
    for c in maximal_cylinders(parts):
        rel = compare_cylinders(c, ball)
        if rel in ("equal", "b_in_a"):
            return 1.0  # the ball sits inside one piece of A
        if rel == "a_in_b":
            num += mu.cylinder_probability(c)
    return num / mball


def _words_by_radius(cyls: Sequence[Cylinder]) -> dict[int, set]:
    words: dict[int, set] = {}
    for c in cyls:
        words.setdefault(c.radius, set()).add(c.word)
    return words


@dataclass(frozen=True)
class BallFamily:
    """Pairwise disjoint balls, each given as (center configuration, radius)."""

    balls: tuple[tuple[Configuration, int], ...]

    def __post_init__(self):
        cyls = self.cylinders()
        # Two balls meet iff the coarser word is the finer ball's subword at
        # that radius; one word set per radius finds whether any pair meets,
        # and the pairwise scan below runs only then, to name the first pair.
        words = _words_by_radius(cyls)
        if (
            len({(c.alphabet, c.sided) for c in cyls}) < 2
            and sum(len(ws) for ws in words.values()) == len(cyls)
            and not any(c.subword(r) in words[r] for c in cyls for r in words if r < c.radius)
        ):
            return
        for i in range(len(cyls)):
            for j in range(i + 1, len(cyls)):
                if compare_cylinders(cyls[i], cyls[j]) != "disjoint":
                    raise ValueError(
                        f"balls {i} and {j} are not disjoint (words clash on the shorter radius)"
                    )

    @cached_property
    def _cylinders(self) -> tuple[Cylinder, ...]:
        return tuple(ball_cylinder(center, n) for center, n in self.balls)

    def cylinders(self) -> list[Cylinder]:
        return list(self._cylinders)

    def total_mass(self, mu: CantorMeasure) -> float:
        return float(sum(mu.cylinder_probability(c) for c in self.cylinders()))


def _refine(mu: CantorMeasure, c: Cylinder, radius: int) -> Iterator[tuple[int, ...]]:
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


def vitali_cover(
    mu: CantorMeasure,
    parts: Sequence[Cylinder],
    min_radius: int,
    eps: float = 0.0,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> BallFamily:
    """Disjoint balls of radius >= min_radius covering a cylinder union exactly.

    Clopen refinement: every maximal piece either already is a ball of large
    enough radius, or splits into all of its extensions at min_radius. The
    leftover mu(A minus union of balls), see uncovered_mass, is exactly zero,
    so any eps >= 0 is met.
    """
    if min_radius < 1:
        raise ValueError("balls need radius >= 1")
    if eps < 0:
        raise ValueError("eps must be >= 0")
    pieces = maximal_cylinders(parts)
    total = 0
    for c in pieces:
        inner = set(window_cells(c.sided, c.radius))
        total += count_words([mu.cell_size(i) for i in window_cells(c.sided, min_radius) if i not in inner])
    if total > cap:
        raise EnumerationTooLarge(total, cap, "clopen refinement")
    balls = [(Configuration(mu.alphabet, c.sided, w), max(c.radius, min_radius))
             for c in pieces for w in _refine(mu, c, min_radius)]
    return BallFamily(tuple(balls))


def uncovered_mass(
    mu: CantorMeasure, parts: Sequence[Cylinder], family: BallFamily, min_radius: int
) -> float:
    """mu(A minus the family's balls) for A a finite union of cylinders.

    Sums the mass of each extension at min_radius of a maximal piece of A
    (a piece that fine is its own extension) that no ball contains, so a
    cover reads exactly 0.0. Exact when no ball is finer than these
    extensions, as in the families vitali_cover builds.
    """
    words = _words_by_radius(family.cylinders())
    total = 0.0
    for piece in maximal_cylinders(parts):
        radius = max(piece.radius, min_radius)
        for w in _refine(mu, piece, min_radius):
            if not any(r <= radius and subword(w, piece.sided, radius, r) in ws for r, ws in words.items()):
                total += mu.cylinder_probability(Cylinder(mu.alphabet, piece.sided, radius, w))
    return total


# -- external interface --------------------------------------------------------

def measure_from_dict(d: dict) -> Measure:
    kind = d.get("type")
    if kind == "bernoulli":
        return BernoulliMeasure(d["weights"])
    if kind == "markov":
        return MarkovMeasure(d["P"], d.get("pi"))
    if kind == "haar":
        return ProductMeasure(d["sizes"])
    if kind == "lebesgue":
        return LebesgueMeasure()
    raise ValueError(f"unknown measure type {kind!r}")


def measure_to_dict(mu: Measure) -> dict:
    if isinstance(mu, BernoulliMeasure):
        return {"type": "bernoulli", "weights": list(mu.weights)}
    if isinstance(mu, MarkovMeasure):
        return {
            "type": "markov",
            "P": [[float(v) for v in row] for row in mu.transition],
            "pi": [float(v) for v in mu.stationary],
        }
    if isinstance(mu, ProductMeasure):
        return {"type": "haar", "sizes": list(mu.sizes)}
    if isinstance(mu, LebesgueMeasure):
        return {"type": "lebesgue"}
    raise ValueError(f"not a known measure: {mu!r}")
