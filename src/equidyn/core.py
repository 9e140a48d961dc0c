"""Finite-alphabet configurations, windows, cylinders and circle points.

A configuration is a finite truncation of a point of A^{Z+} (one-sided) or
A^Z (two-sided): the symbols it carries cover exactly the window of its
valid radius. Operations that would need symbols outside that window raise
InsufficientRadius instead of silently padding.

Windows: W_n = {0..n} one-sided, {-n..n} two-sided. Under the Cantor metric
(1/m, m the largest radius of agreement) the ball of radius 1/n around x is
the cylinder of x's word on W_n, for every n >= 1; so every command works on
words and cylinders, and the metric itself lives in the tests as an oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import InsufficientRadius

ONE_SIDED = "one"
TWO_SIDED = "two"

#: Default bound on how many words any exhaustive enumeration may visit.
DEFAULT_ENUMERATION_CAP = 2 ** 24


@dataclass(frozen=True)
class Alphabet:
    """Finite alphabet; symbols are the integers 0 .. size-1."""

    size: int

    def __post_init__(self):
        if not isinstance(self.size, int) or not 2 <= self.size <= 256:
            raise ValueError(f"alphabet size must be an integer in [2, 256], got {self.size!r}")

    def symbols(self) -> range:
        return range(self.size)


def check_sided(sided: str) -> str:
    if sided not in (ONE_SIDED, TWO_SIDED):
        raise ValueError(f"indexing must be '{ONE_SIDED}' or '{TWO_SIDED}', got {sided!r}")
    return sided


def window_size(sided: str, n: int) -> int:
    """Number of cells in the window of radius n."""
    if n < 0:
        raise ValueError(f"window radius must be >= 0, got {n}")
    return n + 1 if sided == ONE_SIDED else 2 * n + 1


def window_cells(sided: str, n: int) -> range:
    """Absolute cell indices of W_n in ascending order."""
    if n < 0:
        raise ValueError(f"window radius must be >= 0, got {n}")
    return range(0, n + 1) if sided == ONE_SIDED else range(-n, n + 1)


def subword(word: Sequence[int], sided: str, radius: int, n: int) -> tuple[int, ...]:
    """Restrict a word covering W_radius to W_n (n <= radius)."""
    if n > radius:
        raise InsufficientRadius(f"cannot restrict a radius-{radius} word to W_{n}")
    if sided == ONE_SIDED:
        return tuple(word[: n + 1])
    mid = radius
    return tuple(word[mid - n : mid + n + 1])


@dataclass(frozen=True)
class Configuration:
    """Truncation of a point of A^{Z+} or A^Z to the window of its valid radius.

    `symbols` lists the window cells in ascending index order; for two-sided
    indexing the origin sits in the middle.
    """

    alphabet: Alphabet
    sided: str
    symbols: tuple[int, ...]

    def __post_init__(self):
        check_sided(self.sided)
        object.__setattr__(self, "symbols", tuple(int(s) for s in self.symbols))
        k = len(self.symbols)
        if k == 0:
            raise ValueError("a configuration needs at least the origin symbol")
        if self.sided == TWO_SIDED and k % 2 == 0:
            raise ValueError(f"two-sided configurations need an odd symbol count, got {k}")
        for s in self.symbols:
            if not 0 <= s < self.alphabet.size:
                raise ValueError(f"symbol {s} outside alphabet of size {self.alphabet.size}")

    @property
    def radius(self) -> int:
        k = len(self.symbols)
        return k - 1 if self.sided == ONE_SIDED else (k - 1) // 2

    def at(self, i: int) -> int:
        """Symbol at absolute index i."""
        if self.sided == ONE_SIDED:
            if not 0 <= i <= self.radius:
                raise InsufficientRadius(f"index {i} outside valid window W_{self.radius}")
            return self.symbols[i]
        if abs(i) > self.radius:
            raise InsufficientRadius(f"index {i} outside valid window W_{self.radius}")
        return self.symbols[i + self.radius]

    def window(self, n: int) -> tuple[int, ...]:
        """Word on W_n; requires n <= valid radius."""
        if n > self.radius:
            raise InsufficientRadius(
                f"window W_{n} requested but valid radius is {self.radius}"
            )
        return subword(self.symbols, self.sided, self.radius, n)


@dataclass(frozen=True)
class Cylinder:
    """Set of points whose word on W_radius equals `word`."""

    alphabet: Alphabet
    sided: str
    radius: int
    word: tuple[int, ...]

    def __post_init__(self):
        check_sided(self.sided)
        object.__setattr__(self, "word", tuple(int(s) for s in self.word))
        if self.radius < 0:
            raise ValueError(f"cylinder radius must be >= 0, got {self.radius}")
        need = window_size(self.sided, self.radius)
        if len(self.word) != need:
            raise ValueError(
                f"cylinder word has {len(self.word)} symbols, W_{self.radius} needs {need}"
            )
        for s in self.word:
            if not 0 <= s < self.alphabet.size:
                raise ValueError(f"symbol {s} outside alphabet of size {self.alphabet.size}")


def ball_cylinder(x: Configuration, n: int) -> Cylinder:
    """The ball {z : d(x, z) <= 1/n} as the cylinder of x's word on W_n."""
    if n < 1:
        raise ValueError(f"balls are defined for radius n >= 1, got {n}")
    return Cylinder(x.alphabet, x.sided, n, x.window(n))


def iter_words(cell_sizes: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All words with per-cell symbol counts `cell_sizes`, lexicographically."""
    return itertools.product(*(range(k) for k in cell_sizes))


def count_words(cell_sizes: Sequence[int]) -> int:
    return math.prod(cell_sizes)


# -- word serialization -------------------------------------------------------

def word_to_str(word: Sequence[int], alphabet: Alphabet) -> str:
    """Digits for small alphabets, comma-separated integers otherwise."""
    return ("" if alphabet.size <= 10 else ",").join(str(s) for s in word)


def word_from_str(text: str, alphabet: Alphabet) -> tuple[int, ...]:
    word = tuple(int(part) for part in (text.strip() if alphabet.size <= 10 else text.strip().split(",")))
    for s in word:
        if not 0 <= s < alphabet.size:
            raise ValueError(f"symbol {s} outside alphabet of size {alphabet.size}")
    return word


# -- the circle ---------------------------------------------------------------

@dataclass(frozen=True)
class CirclePoint:
    """Point of R/Z, held as an exact rational so isometries stay exact."""

    angle: Fraction

    def __post_init__(self):
        object.__setattr__(self, "angle", Fraction(self.angle) % 1)

