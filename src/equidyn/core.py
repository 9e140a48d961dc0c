"""Finite-alphabet configurations, windows, cylinders, and the Cantor metric.

A configuration is a finite truncation of a point of A^{Z+} (one-sided) or
A^Z (two-sided): the symbols it carries cover exactly the window of its
valid radius. Operations that would need symbols outside that window raise
InsufficientRadius instead of silently padding.

Windows: W_n = {0..n} one-sided, {-n..n} two-sided. The ball of radius 1/n
around x is the cylinder of x's word on W_n, for every n >= 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence, Union

from .errors import IncompatibleConfigurations, InsufficientRadius

ONE_SIDED = "one"
TWO_SIDED = "two"

#: Default bound on how many words any exhaustive enumeration may visit.
DEFAULT_ENUMERATION_CAP = 2 ** 24

# Distance values for the two agreement levels the 1/m formula cannot express.
# Both must exceed 1 so that "d <= 1/n iff agreement on W_n" holds for all
# n >= 1; only origin disagreement may reach 2, so that "d >= 2" means exactly
# "the origin symbols differ".
DISTANCE_ORIGIN_MISMATCH = Fraction(2)
DISTANCE_WINDOW_ONE_MISMATCH = Fraction(3, 2)


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


def check_compatible(x: Configuration, y: Configuration) -> None:
    if x.alphabet != y.alphabet or x.sided != y.sided:
        raise IncompatibleConfigurations(
            f"operands disagree: alphabet {x.alphabet.size} vs {y.alphabet.size}, "
            f"indexing {x.sided!r} vs {y.sided!r}"
        )


def agreement_level(x: Configuration, y: Configuration) -> int:
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


def cantor_distance(x: Configuration, y: Configuration) -> Fraction:
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

    def subword(self, n: int) -> tuple[int, ...]:
        return subword(self.word, self.sided, self.radius, n)

    def contains(self, x: Configuration) -> bool:
        if x.alphabet != self.alphabet or x.sided != self.sided:
            raise IncompatibleConfigurations("configuration lives over a different space")
        return x.window(self.radius) == self.word

    def as_configuration(self) -> Configuration:
        """The word itself read as a configuration of valid radius `radius`."""
        return Configuration(self.alphabet, self.sided, self.word)


def ball_cylinder(x: Configuration, n: int) -> Cylinder:
    """The ball {z : d(x, z) <= 1/n} as the cylinder of x's word on W_n."""
    if n < 1:
        raise ValueError(f"balls are defined for radius n >= 1, got {n}")
    return Cylinder(x.alphabet, x.sided, n, x.window(n))


def compare_cylinders(a: Cylinder, b: Cylinder) -> str:
    """One of 'equal', 'a_in_b', 'b_in_a', 'disjoint'.

    Cylinders over the same space either nest or are disjoint, so these four
    cases are exhaustive.
    """
    if a.alphabet != b.alphabet or a.sided != b.sided:
        raise IncompatibleConfigurations("cylinders live over different spaces")
    n = min(a.radius, b.radius)
    if a.subword(n) != b.subword(n):
        return "disjoint"
    if a.radius == b.radius:
        return "equal"
    return "a_in_b" if a.radius > b.radius else "b_in_a"


def iter_words(cell_sizes: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All words with per-cell symbol counts `cell_sizes`, lexicographically."""
    return itertools.product(*(range(k) for k in cell_sizes))


def count_words(cell_sizes: Sequence[int]) -> int:
    total = 1
    for k in cell_sizes:
        total *= k
    return total


# -- word serialization -------------------------------------------------------

def word_to_str(word: Sequence[int], alphabet: Alphabet) -> str:
    """Digits for small alphabets, comma-separated integers otherwise."""
    if alphabet.size <= 10:
        return "".join(str(s) for s in word)
    return ",".join(str(s) for s in word)


def word_from_str(text: str, alphabet: Alphabet) -> tuple[int, ...]:
    if alphabet.size <= 10:
        word = tuple(int(ch) for ch in text.strip())
    else:
        word = tuple(int(part) for part in text.strip().split(","))
    for s in word:
        if not 0 <= s < alphabet.size:
            raise ValueError(f"symbol {s} outside alphabet of size {alphabet.size}")
    return word


# -- the circle ---------------------------------------------------------------

RealLike = Union[int, float, str, Fraction]


def _as_fraction(value: RealLike) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


@dataclass(frozen=True)
class CirclePoint:
    """Point of R/Z, held as an exact rational so isometries stay exact."""

    angle: Fraction

    def __post_init__(self):
        object.__setattr__(self, "angle", _as_fraction(self.angle) % 1)


def circle_distance(a: CirclePoint, b: CirclePoint) -> Fraction:
    gap = abs(a.angle - b.angle)
    return min(gap, 1 - gap)
