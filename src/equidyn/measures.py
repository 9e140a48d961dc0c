"""Cantor measures as chains over the cells of a window, with exact cylinder algebra.

Bernoulli, stationary Markov and per-coordinate uniform (Haar on a product
of cyclic groups) measures are one chain whose law may vary from cell to
cell: a first-cell row, a forward kernel (a cell given its left neighbour)
and a reversed kernel (a cell given its right neighbour). Bernoulli's rows
all equal its weights, Markov's are (pi, P, its time reversal), and Haar's
row at cell i is uniform on its size_at(i) digits. A cylinder's probability
is the first-cell factor times the forward steps, left to right, for many
int rows at once (`row_probabilities`).
Finite unions of cylinders get exact Vitali covers by clopen refinement, as
cylinders over one space nest or are disjoint. One test over per-radius int
rows (`_nested`) finds which cylinders nest, for the maximal pieces of a
union, a family's disjointness and the uncovered mass; `_widen` lists the
extensions of int rows, and a cover holds them as they come.

Batch draws come as pieces (cell, column of all n rows) in the order the
generator makes them, one `random(n)` per cell: unconditioned draws run
rightward from the first cell; draws given a cylinder keep its word, each
cell a constant column (one symbol, stride zero, no draw), then run
rightward and leftward from it. So a one-row draw reads its uniforms in the
order of `random(k)`. `pieces` draws for a list of generators at once, each
from its own stream in that order, in (group, n) columns, member g given row
g of one int array of words, if any. Symbols are uint8 (an alphabet has at
most 256). `sample_batch` writes the pieces into int rows;
`systems.pack_planes` packs them into bit planes as they arrive, without an
n x |W| array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain
from typing import Iterator, Sequence, Union

import numpy as np

from .core import (
    ONE_SIDED,
    TWO_SIDED,
    DEFAULT_ENUMERATION_CAP,
    Alphabet,
    CirclePoint,
    Configuration,
    Cylinder,
    check_sided,
    count_words,
    subword,
    window_cells,
    window_size,
)
from .errors import AlphabetMismatch, EnumerationTooLarge, IncompatibleConfigurations, NullCylinder
from .systems import window_slice, word_codes

Piece = tuple[int, np.ndarray]  # (window column, that column's symbols in every row, as uint8)


def _prob_product(fs: list[float]) -> float:
    """Product of more than 64 probabilities, in log space."""
    return 0.0 if 0.0 in fs else math.exp(math.fsum(math.log(f) for f in fs))


def _cumulative(probs: np.ndarray) -> np.ndarray:
    """Cumulative rows of `probs`, exactly 1.0 from each row's last positive entry
    on: six sixths sum to 0.9999999999999999, and a uniform above that must not
    draw a symbol of probability zero."""
    k = probs.shape[-1]
    last = k - 1 - np.argmax(probs[..., ::-1] > 0, axis=-1)
    return np.where(np.arange(k) >= np.expand_dims(last, -1), 1.0, np.cumsum(probs, axis=-1))


def _constant(symbols: np.ndarray, n: int) -> np.ndarray:
    """The (group, n) column whose row g holds symbols[g] n times, at stride zero
    along the rows; `symbols` is a contiguous uint8 array."""
    return np.ndarray((len(symbols), n), np.uint8, buffer=symbols, strides=(1, 0))


def _kernel_column(cum: np.ndarray, prev: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Next symbols after `prev` (in its dtype), inverting the cumulative kernel rows `cum` at `u`.

    Rows of `cum` are nondecreasing, so counting u >= cum[prev, j] over
    j < |A| - 1 is the inverse CDF capped at the last symbol. A `prev`
    constant along its last axis gathers its thresholds once per group.
    """
    prev = prev[..., :1] if prev.strides[-1] == 0 else prev
    out = (u >= cum[:, 0].take(prev)).astype(prev.dtype)
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

    def row_probabilities(self, sided: str, radius: int, rows: np.ndarray) -> np.ndarray:
        """The probability of the cylinder of each int row on W_radius: the first
        cell's factor times the forward steps, left to right.

        Up to 64 cells, one float64 product per row; past that, each row's
        factors go to the log-space `_prob_product`.
        """
        laws = self._laws(self._check_sided(sided), radius)
        factors = chain([np.asarray(laws[0].first)[rows[:, 0]]], (
            np.asarray(laws[j].forward)[rows[:, j - 1], rows[:, j]] for j in range(1, len(laws))))
        if len(laws) > 64:
            return np.array([_prob_product(fs) for fs in np.array(list(factors)).T.tolist()])
        return reduce(np.multiply, factors)

    def sample_config(self, sided: str, radius: int, rng: np.random.Generator) -> Configuration:
        """A one-row `sample_batch`."""
        return Configuration(self.alphabet, sided, self.sample_batch(sided, radius, 1, rng)[0])

    def pieces(self, sided: str, radius: int, n: int, rngs, given=None):
        """n words on W_radius from each generator of `rngs`, as pieces in draw order whose columns are
        (len(rngs), n); with `given`, int rows on one window W_r, member g's words extend given[g]."""
        sided = self._check_sided(sided)
        if given is not None:
            r = (given.shape[1] - 1) // (1 if sided == ONE_SIDED else 2)
            if r < 0 or window_size(sided, r) != given.shape[1]:
                raise ValueError(f"{given.shape[1]} cells make no {sided!r}-sided window")
            if radius < r:
                raise ValueError(f"target radius {radius} smaller than the conditioning radius {r}")
            if ((given < 0) | (given >= self.alphabet.size)).any():  # a negative symbol would wrap in the kernels
                raise AlphabetMismatch(f"given words hold a symbol outside the alphabet of size {self.alphabet.size}")
            null = given[self.row_probabilities(sided, r, given) == 0.0]
            if len(null):
                raise NullCylinder(f"cylinder {tuple(null[0].tolist())} has measure zero; cannot condition on it")
        return self._pieces(sided, radius, n, rngs, given)

    def _pieces(self, sided, radius, n, rngs, given) -> Iterator[Piece]:
        """Columns: the given words (or the first cell's row), then the
        forward kernels rightward and the reversed kernels leftward. Every
        member reads one `random(n)` per drawn column from its own generator."""
        laws = self._laws(sided, radius)
        u = np.empty((len(rngs), n))

        def uniforms():  # each member's random(n), written in place
            for rng, row in zip(rngs, u):
                rng.random(out=row)
            return u

        # the given words column by column, each column contiguous for _constant
        words = None if given is None else np.ascontiguousarray(given.T, dtype=np.uint8)
        lo = 0 if given is None or sided == ONE_SIDED else radius - (len(words) - 1) // 2  # given's first column
        hi = lo + (1 if given is None else len(words))
        for j in range(lo, hi):
            right = (_kernel_column(laws[0].cum_first[None], _constant(np.zeros(len(rngs), np.uint8), n), uniforms())
                     if given is None else _constant(words[j - lo], n))
            yield j, right
        for j in range(hi, len(laws)):
            right = _kernel_column(laws[j].cum_forward, right, uniforms())
            yield j, right
        left = _constant(words[0], n) if lo else None
        for j in range(lo - 1, -1, -1):
            left = _kernel_column(laws[j].cum_reverse, left, uniforms())
            yield j, left

    def sample_batch(self, sided: str, radius: int, n: int, rng: np.random.Generator) -> np.ndarray:
        return _rows(self.pieces(sided, radius, n, [rng]), n, window_size(sided, radius))


class BernoulliMeasure(_CylinderMeasure):
    """i.i.d. symbols with the given weights: every row of the chain is `weights`."""

    def __init__(self, weights: Sequence[float]):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or len(w) < 2:
            raise ValueError("need a weight per symbol, at least two symbols")
        if not (w >= 0).all():  # NaN fails every comparison
            raise ValueError(f"weights must be finite and non-negative, got {w.tolist()}")
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
        if not (P >= 0).all():  # NaN fails every comparison
            raise ValueError("transition probabilities must be finite and non-negative")
        rowsums = P.sum(axis=1)
        if np.abs(rowsums - 1.0).max() > 1e-12:
            raise ValueError("each transition row must sum to 1 within 1e-12")
        if stationary is None:
            pi = self._solve_stationary(P)
        else:
            pi = np.asarray(stationary, dtype=float)
            if pi.shape != (P.shape[0],):
                raise ValueError("stationary vector has the wrong length")
        if not (pi > 0).all():
            raise ValueError("stationary vector must be finite and strictly positive")
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
    """The n x k int rows the pieces give: the n rows of one member, or one row of each of n members."""
    out = np.empty((n, k), dtype=np.int64)
    for j, column in pieces:
        out[:, j] = column.reshape(-1)
    return out


# -- cylinder-set algebra ------------------------------------------------------

def _found(words: np.ndarray, among: np.ndarray, size: int) -> np.ndarray:
    """Which int rows of `words` equal a row of `among` (one width), by one `word_codes` call over both."""
    codes = word_codes(np.concatenate([among, words]), size)
    return np.isin(codes[len(among) :], codes[: len(among)])


def _nested(sided: str, size: int, groups) -> list[np.ndarray]:
    """Per (n, int rows on W_n) of `groups`: which rows lie in the cylinder of a
    coarser row, or repeat a row of radius n met earlier (groups in order, then rows).

    Cylinders over one space nest or are disjoint, and nest exactly when the
    coarser word is the finer one's subword at its radius: one `_found` per
    pair of radii, and one `word_codes` pass for the repeats of each radius.
    """
    radii = sorted({n for n, _ in groups})
    rows = {n: np.concatenate([r for k, r in groups if k == n]) for n in radii}
    hit = {}
    for i, n in enumerate(radii):
        hit[n] = np.ones(len(rows[n]), dtype=bool)
        hit[n][np.unique(word_codes(rows[n], size), return_index=True)[1]] = False  # first of each word
        for r in radii[:i]:
            hit[n] |= _found(window_slice(sided, n, r, rows[n]), rows[r], size)
    out, at = [], dict.fromkeys(radii, 0)
    for n, r in groups:
        out.append(hit[n][at[n] : at[n] + len(r)])
        at[n] += len(r)
    return out


def maximal_cylinders(parts: Sequence[Cylinder]) -> list[Cylinder]:
    """The parts nested in no other part and repeating no earlier one, in their
    order in `parts`: pairwise disjoint, with the union of `parts`."""
    if not parts:
        return []
    if len({(c.alphabet, c.sided) for c in parts}) > 1:
        raise IncompatibleConfigurations("cylinders live over different spaces")
    rows = [(c.radius, np.array([c.word], dtype=np.int64)) for c in parts]
    return [c for c, hit in zip(parts, _nested(parts[0].sided, parts[0].alphabet.size, rows)) if not hit[0]]


def _widen(rows: np.ndarray, sided: str, radius: int, wider: int, sizes) -> tuple[np.ndarray, int]:
    """Every extension of each int row on W_radius to W_wider, with sizes(cells)
    symbols on the new cells, and the count k of extensions per row. A row's
    extensions are consecutive, in `iter_words` order over the new cells
    (left ones first), which is their order among the words of W_wider."""
    left = list(range(-wider, -radius)) if sided == TWO_SIDED else []
    new = sizes(left + list(range(radius + 1, wider + 1)))
    combos = np.indices(new, dtype=np.int64).reshape(len(new), count_words(new)).T  # last cell fastest
    fresh = np.tile(combos, (len(rows), 1))
    return np.hstack([fresh[:, : len(left)], np.repeat(rows, len(combos), axis=0), fresh[:, len(left) :]]), len(combos)


def _extensions(mu: CantorMeasure, pieces: Sequence[Cylinder], radius: int) -> dict:
    """n -> (places, int rows on W_n) of every extension of each piece to
    W_max(its radius, `radius`), by `_widen`: the pieces in order, each checked
    against mu's space and its extensions consecutive in `iter_words` order."""
    sizes = lambda cells: [mu.cell_size(i) for i in cells]
    places, rows, at = {}, {}, 0
    for c in pieces:
        mu._check_cylinder(c)
        n = max(c.radius, radius)
        ext, k = _widen(np.array([c.word], dtype=np.int64), c.sided, c.radius, n, sizes)
        places.setdefault(n, []).append(np.arange(at, at + k))
        rows.setdefault(n, []).append(ext)
        at += k
    return {n: (np.concatenate(places[n]), np.concatenate(rows[n])) for n in sorted(rows)}


def _masses(mu: CantorMeasure, sided: str, groups) -> np.ndarray:
    """The `row_probabilities` of the rows of `groups` (n -> (places, int rows on W_n)), each at its place."""
    out = np.zeros(sum(len(at) for at, _ in groups.values()))
    for n, (at, rows) in groups.items():
        out[at] = mu.row_probabilities(sided, n, rows)
    return out


def union_probability(mu: CantorMeasure, pieces: Sequence[Cylinder]) -> float:
    """Exact measure of the union of pairwise disjoint cylinders, such as the
    maximal pieces of a union: their `row_probabilities`, added in piece order."""
    if not pieces:
        return 0.0
    return float(sum(_masses(mu, pieces[0].sided, _extensions(mu, pieces, 0)).tolist()))


def _first_clash(sided: str, balls) -> tuple[int, int]:
    """The first pair i < j of (word on W_n, n) balls that meet: the coarser word is the finer one's subword."""
    return next((i, j) for i, (a, r) in enumerate(balls) for j, (b, s) in enumerate(balls[i + 1 :], i + 1)
                if subword(a, sided, r, min(r, s)) == subword(b, sided, s, min(r, s)))


@dataclass(frozen=True, eq=False)
class BallFamily:
    """Pairwise disjoint balls over one space, held per radius: `groups` maps
    each radius n to (the places of its balls in ball order, their words on W_n
    as int64 rows). Masses come from `row_probabilities` and disjointness from
    `_nested`, with no object per ball; `balls` reads them as (word, n) pairs."""

    alphabet: Alphabet
    sided: str
    groups: dict[int, tuple[np.ndarray, np.ndarray]]

    def __post_init__(self):
        check_sided(self.sided)
        size = self.alphabet.size
        for n, (at, rows) in self.groups.items():
            if n < 1:
                raise ValueError(f"balls of radius {n}; balls need radius >= 1")
            if rows.shape != (len(at), window_size(self.sided, n)):
                raise IncompatibleConfigurations(f"the radius-{n} rows are no words on {self.sided!r}-sided W_{n}")
            if len(rows) and (rows.min() < 0 or rows.max() >= size):
                raise ValueError(f"a ball's word has a symbol outside alphabet of size {size}")
        places = sorted(i for at, _ in self.groups.values() for i in at.tolist())
        if places != list(range(len(places))):
            raise ValueError("ball places must be 0, 1, .. once each")
        # a scan over pairs runs only when the family is not disjoint, to name the first pair that meets
        if any(hit.any() for hit in _nested(self.sided, size, [(n, rows) for n, (_, rows) in self.groups.items()])):
            i, j = _first_clash(self.sided, self.balls)
            raise ValueError(f"balls {i} and {j} are not disjoint (words clash on the shorter radius)")

    @cached_property
    def balls(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """(word on W_n, n) per ball, in place order."""
        out = {}
        for n, (at, rows) in self.groups.items():
            out.update(zip(at.tolist(), ((word, n) for word in map(tuple, rows.tolist()))))
        return tuple(out[i] for i in range(len(out)))

    def _check_measure(self, mu: CantorMeasure) -> None:
        if mu.alphabet != self.alphabet:
            raise AlphabetMismatch(f"balls over alphabet {self.alphabet.size}, measure over {mu.alphabet.size}")

    def masses(self, mu: CantorMeasure) -> list[float]:
        """Each ball's mass, its one-row `row_probabilities` to the bit, in ball order."""
        self._check_measure(mu)
        return _masses(mu, self.sided, self.groups).tolist()


def vitali_cover(
    mu: CantorMeasure,
    pieces: Sequence[Cylinder],
    min_radius: int,
    eps: float = 0.0,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> BallFamily:
    """Disjoint balls of radius >= min_radius covering exactly the union A of
    pairwise disjoint `pieces`, such as the `maximal_cylinders` of a union.

    Clopen refinement: every piece either already is a ball of large enough
    radius, or splits into all of its extensions at min_radius, in
    `iter_words` order; the family holds `_widen`'s rows as they come, and
    rejects pieces that meet. mu(A minus the balls) is exactly zero, so any eps >= 0 is met.
    """
    if min_radius < 1:
        raise ValueError("balls need radius >= 1")
    if eps < 0:
        raise ValueError("eps must be >= 0")
    total = sum(count_words([mu.cell_size(i) for i in window_cells(c.sided, min_radius)
                             if i not in window_cells(c.sided, c.radius)]) for c in pieces)
    if total > cap:
        raise EnumerationTooLarge(total, cap, "clopen refinement")
    return BallFamily(mu.alphabet, pieces[0].sided if pieces else ONE_SIDED, _extensions(mu, pieces, min_radius))


def uncovered_mass(mu: CantorMeasure, cover: BallFamily, family: BallFamily) -> float:
    """mu(A minus the family's balls) for A the union of the balls of `cover`.

    Adds, in ball order, the masses of the cover's balls that `_nested` finds
    in no family ball of radius at most theirs: a family reads exactly 0.0
    against the cover `vitali_cover` makes at its min_radius, or against
    itself. Exact when no family ball is finer than the cover's balls.
    """
    for balls in (cover, family):
        balls._check_measure(mu)
    if cover.sided != family.sided:
        raise IncompatibleConfigurations(f"a {cover.sided!r}-sided cover and a {family.sided!r}-sided family")
    groups = [(n, words) for n, (_, words) in chain(family.groups.items(), cover.groups.items())]
    hits = _nested(cover.sided, mu.alphabet.size, groups)[len(family.groups) :]
    mass = np.zeros(sum(len(at) for at, _ in cover.groups.values()))  # a covered ball adds 0.0, which moves no bit
    for (n, (at, r)), hit in zip(cover.groups.items(), hits):
        mass[at[~hit]] = mu.row_probabilities(cover.sided, n, r[~hit])
    return reduce(float.__add__, mass.tolist(), 0.0)


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
