"""Cantor measures as chains over the cells of a window, with exact cylinder algebra.

Bernoulli, stationary Markov and per-coordinate uniform (Haar on a product
of cyclic groups) measures are one chain whose law may vary from cell to
cell: a first-cell row, a forward kernel (a cell given its left neighbour)
and a reversed kernel (a cell given its right neighbour). Bernoulli's rows
all equal its weights, Markov's are (pi, P, its time reversal), and Haar's
row at cell i is uniform on its size_at(i) digits. A cylinder's probability
is the first-cell factor times the forward steps, left to right. Finite
unions of cylinders support exact density ratios and exact Vitali covers by
clopen refinement, because two cylinders over the same space either nest or
are disjoint.

Batch draws come as pieces (cell, column of all n rows) in the order the
generator makes them, one `random(n)` per cell: unconditioned draws run
rightward from the first cell; draws given a cylinder keep its word, each
cell a constant column (one symbol, stride zero, no draw), then run
rightward and leftward from it. So a one-row draw reads its uniforms in the
order of `random(k)`. `sample_batch` and `conditional_batch` write the
pieces into int rows; `systems.pack_planes` packs them into bit planes as
they arrive, without an n x |W| array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Sequence, Union

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

Piece = tuple[int, np.ndarray]  # (window column, that column's symbols in every row)


def _prob_product(fs: list[float]) -> float:
    """Product of probabilities; log-space once the factor count passes 64."""
    if 0.0 in fs:
        return 0.0
    if len(fs) <= 64:
        out = 1.0
        for f in fs:
            out *= f
        return out
    return math.exp(math.fsum(math.log(f) for f in fs))


def _cumulative(probs: np.ndarray) -> np.ndarray:
    """Cumulative rows of `probs`, exactly 1.0 from each row's last positive entry
    on: six sixths sum to 0.9999999999999999, and a uniform above that must not
    draw a symbol of probability zero."""
    k = probs.shape[-1]
    last = k - 1 - np.argmax(probs[..., ::-1] > 0, axis=-1)
    return np.where(np.arange(k) >= np.expand_dims(last, -1), 1.0, np.cumsum(probs, axis=-1))


def _inverse_cdf(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Symbols drawn by inverting the cumulative row `cum` at uniforms `u`."""
    out = np.searchsorted(cum, u, side="right")
    return np.minimum(out, len(cum) - 1)


def _constant(symbol: int, n: int) -> np.ndarray:
    """The column of n rows that all hold `symbol`, as one int64 of stride zero."""
    return np.ndarray((n,), np.int64, buffer=np.int64(symbol), strides=(0,))


def _kernel_column(cum: np.ndarray, prev: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Next symbols after `prev`, inverting the cumulative kernel rows `cum` at `u`.

    Rows of `cum` are nondecreasing, so counting u >= cum[prev, j] over
    j < |A| - 1 is the inverse CDF capped at the last symbol. A constant
    `prev` gathers its thresholds once.
    """
    prev = prev[:1] if prev.strides == (0,) else prev
    out = (u >= cum[:, 0].take(prev)).astype(np.int64)
    for j in range(1, cum.shape[1] - 1):
        out += u >= cum[:, j].take(prev)
    return out


@dataclass(frozen=True)
class _CellLaw:
    """One cell of the chain: the first-cell row and forward kernel as Python
    floats for exact products, and the cumulative rows of all three for draws."""

    first: list
    forward: list
    cum_first: np.ndarray
    cum_forward: np.ndarray
    cum_reverse: np.ndarray

    @classmethod
    def of(cls, first, forward, reverse) -> "_CellLaw":
        first, forward, reverse = (np.asarray(a, dtype=float) for a in (first, forward, reverse))
        return cls(first.tolist(), forward.tolist(), _cumulative(first), _cumulative(forward), _cumulative(reverse))


class _CylinderMeasure:
    """A chain over the cells of a window. Subclasses set `alphabet` and
    `_law`, the law of every cell, or give `_laws`, the law of each cell."""

    def cell_size(self, i: int) -> int:
        return self.alphabet.size

    def _check_sided(self, sided: str) -> str:
        return check_sided(sided)

    def _check_cylinder(self, c: Cylinder) -> None:
        if c.alphabet != self.alphabet:
            raise AlphabetMismatch(
                f"cylinder over alphabet {c.alphabet.size}, measure over {self.alphabet.size}"
            )
        self._check_sided(c.sided)

    def _laws(self, sided: str, radius: int) -> list[_CellLaw]:
        return [self._law] * window_size(sided, radius)

    def cylinder_probability(self, c: Cylinder) -> float:
        """The first cell's probability times the forward steps, left to right."""
        self._check_cylinder(c)
        laws, w = self._laws(c.sided, c.radius), c.word
        factors = [laws[0].first[w[0]]]
        factors.extend(law.forward[a][b] for law, a, b in zip(laws[1:], w, w[1:]))
        return _prob_product(factors)

    def sample_config(self, sided: str, radius: int, rng: np.random.Generator) -> Configuration:
        """A one-row `sample_batch`."""
        return Configuration(self.alphabet, sided, self.sample_batch(sided, radius, 1, rng)[0])

    def pieces(self, sided: str, radius: int, n: int, rng: np.random.Generator, given: Cylinder | None = None):
        """n words on W_radius from `rng`, given the cylinder `given` if any, as pieces in draw order."""
        if given is not None:
            self._check_cylinder(given)
            if radius < given.radius:
                raise ValueError(f"target radius {radius} smaller than the conditioning radius {given.radius}")
            if self.cylinder_probability(given) == 0.0:
                raise NullCylinder(f"cylinder {given.word} has measure zero; cannot condition on it")
            if given.sided != sided:
                raise ValueError(f"{given.sided!r}-sided cylinder, {sided!r}-sided draws")
        return self._pieces(self._check_sided(sided), radius, n, rng, given)

    def _pieces(self, sided, radius, n, rng, given) -> Iterator[Piece]:
        """Columns: the given word (or the first cell's row), then the
        forward kernels rightward and the reversed kernels leftward."""
        laws = self._laws(sided, radius)
        lo = 0 if given is None or sided == ONE_SIDED else radius - given.radius  # given's first column
        hi = lo + (1 if given is None else len(given.word))
        for j in range(lo, hi):
            right = _inverse_cdf(laws[0].cum_first, rng.random(n)) if given is None else _constant(given.word[j - lo], n)
            yield j, right
        for j in range(hi, len(laws)):
            right = _kernel_column(laws[j].cum_forward, right, rng.random(n))
            yield j, right
        left = _constant(given.word[0], n) if lo else None
        for j in range(lo - 1, -1, -1):
            left = _kernel_column(laws[j].cum_reverse, left, rng.random(n))
            yield j, left

    def sample_batch(self, sided: str, radius: int, n: int, rng: np.random.Generator) -> np.ndarray:
        return _rows(self.pieces(sided, radius, n, rng), n, window_size(sided, radius))

    def conditional_batch(self, c: Cylinder, radius: int, n: int, rng: np.random.Generator) -> np.ndarray:
        return _rows(self.pieces(c.sided, radius, n, rng, c), n, window_size(c.sided, radius))


class BernoulliMeasure(_CylinderMeasure):
    """i.i.d. symbols with the given weights: every row of the chain is `weights`."""

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
        rows = np.tile(w, (len(w), 1))
        self._law = _CellLaw.of(w, rows, rows)

    def __repr__(self):
        return f"BernoulliMeasure({list(self.weights)})"


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
        for M in (self.transition, self.stationary):
            M.setflags(write=False)
        # time reversal: probability of seeing b one step to the left of a
        self._law = _CellLaw.of(pi, P, (pi[None, :] * P.T) / pi[:, None])

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


class ProductMeasure(_CylinderMeasure):
    """Independent uniform digits: coordinate i uniform on {0..sizes_at(i)-1}.

    One-sided only; the factor list repeats its last entry for coordinates
    past its end. This is Haar measure on the matching product of cyclic
    groups, the natural invariant measure of the matching odometer. As a
    chain, every row at cell i is uniform on its size_at(i) digits.
    """

    def __init__(self, sizes: Sequence[int]):
        sz = tuple(int(s) for s in sizes)
        if not sz or any(s < 2 for s in sz):
            raise ValueError("need at least one factor, every factor size >= 2")
        self.sizes = sz
        self.alphabet = Alphabet(max(sz))
        self._laws_by_size = {}
        for s in set(sz):
            row = [1.0 / s] * s + [0.0] * (self.alphabet.size - s)
            self._laws_by_size[s] = _CellLaw.of(row, [row] * self.alphabet.size, [row] * self.alphabet.size)

    def __repr__(self):
        return f"ProductMeasure(sizes={list(self.sizes)})"

    def size_at(self, i: int) -> int:
        if i < 0:
            raise ValueError("product measures are one-sided; no negative coordinates")
        return self.sizes[min(i, len(self.sizes) - 1)]

    def cell_size(self, i: int) -> int:
        return self.size_at(i)

    def _laws(self, sided: str, radius: int) -> list[_CellLaw]:
        return [self._laws_by_size[self.size_at(i)] for i in window_cells(sided, radius)]

    def _check_sided(self, sided: str) -> str:
        if check_sided(sided) != ONE_SIDED:
            raise AlphabetMismatch("product measures live on one-sided configurations")
        return sided


class LebesgueMeasure:
    """Arc length on the circle; rotations use it analytically, never via cylinders."""

    def __repr__(self):
        return "LebesgueMeasure()"

    def sample_point(self, rng: np.random.Generator) -> CirclePoint:
        return CirclePoint(Fraction(float(rng.random())))


CantorMeasure = Union[BernoulliMeasure, MarkovMeasure, ProductMeasure]
Measure = Union[CantorMeasure, LebesgueMeasure]


def _rows(pieces: Iterator[Piece], n: int, k: int) -> np.ndarray:
    """The n x k int rows whose columns the pieces give."""
    out = np.empty((n, k), dtype=np.int64)
    for j, column in pieces:
        out[:, j] = column
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
