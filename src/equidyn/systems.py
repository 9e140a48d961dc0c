"""Dynamical systems: cellular automata, the shift, odometers, rotations.

A radius-r cellular automaton maps a configuration of valid radius R to one
of valid radius R - r: only cells whose full neighborhood is known get an
image, and nothing is ever padded. The shift is the radius-1 one-sided rule
(a, b) -> b: a `Shift` is a `CARule` built from that table (so, like every
rule, it is unhashable) and steps through the rule paths. Odometers act on
one-sided digit strings (add one, carry to the right) and keep the valid
radius, since the first R + 1 digits of the successor depend only on the
first R + 1 digits of the argument. Rotations act on exact circle points.

Two steppers implement the same rules. `step_batch` steps int64 rows; it
serves the exact route (the orbit-ball frontier search), `column_codes`
(`lep` and the one-row `lep_certificate`), spectral integration, and
`_windows` (the traces of a block of base points, or of one point's row from
`_trace_row`, in one pass).
`step_planes` steps one-hot bit planes, 64 rows to a uint64 word; it serves
the Monte Carlo route: `trace_agreement_batch` (sampled density ratios) and
the separation test of `sensitivity`. So the exact and the sampled routes
share no stepper; the scalar per-rule loops live in the tests as oracles.

`pack_planes` packs the pieces a measure draws (see `measures`) as they
arrive, checking each against its cell: every piece is one column of all
rows, whatever the measure, and a constant column (one symbol at stride
zero) is checked once and set as one full plane. So the Monte Carlo route
holds the planes (|A| * cells * n / 8 bytes) and one column, never an int
batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Union

import numpy as np

from .core import (
    ONE_SIDED,
    TWO_SIDED,
    Alphabet,
    Configuration,
    check_sided,
    count_words,
    iter_words,
    window_cells,
    window_size,
    word_from_str,
    word_to_str,
)
from .errors import InsufficientRadius, UnsupportedSystem


@dataclass(frozen=True)
class CARule:
    """Total rule table over neighborhoods of radius r.

    One-sided neighborhoods look rightward: cell i maps under the word at
    {i, .., i+r}. Two-sided neighborhoods are centered: {i-r, .., i+r}.
    """

    alphabet: Alphabet
    sided: str
    radius: int
    table: dict[tuple[int, ...], int]

    def __post_init__(self):
        check_sided(self.sided)
        if self.radius < 0:
            raise ValueError(f"rule radius must be >= 0, got {self.radius}")
        width = self.neighborhood_size
        expected = self.alphabet.size ** width
        if len(self.table) != expected:
            raise ValueError(
                f"rule table must be total: need {expected} neighborhoods, got {len(self.table)}"
            )
        for nb, out in self.table.items():
            if len(nb) != width or any(not 0 <= s < self.alphabet.size for s in nb):
                raise ValueError(f"bad neighborhood {nb!r}")
            if not 0 <= out < self.alphabet.size:
                raise ValueError(f"bad output symbol {out!r} for {nb!r}")

    @property
    def neighborhood_size(self) -> int:
        return self.radius + 1 if self.sided == ONE_SIDED else 2 * self.radius + 1

    @cached_property
    def flat_table(self) -> np.ndarray:
        """Outputs indexed by the neighborhood word read as a base-|A| number (cached, read-only)."""
        flat = np.zeros(self.alphabet.size ** self.neighborhood_size, dtype=np.int64)
        flat[word_codes(np.array(list(self.table), dtype=np.int64), self.alphabet.size)] = list(self.table.values())
        flat.flags.writeable = False
        return flat


@dataclass(frozen=True)
class Shift(CARule):
    """The one-sided shift (Tx)_i = x_{i+1}: the radius-1 one-sided table of
    `shift_as_ca`. Only the alphabet is a constructor field, so
    `dataclasses.replace` works."""

    alphabet: Alphabet = Alphabet(2)
    sided: str = field(default=ONE_SIDED, init=False)
    radius: int = field(default=1, init=False)
    table: dict[tuple[int, ...], int] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "table", shift_as_ca(self.alphabet).table)
        super().__post_init__()


@dataclass(frozen=True)
class Odometer:
    """Adding machine on a product of cyclic groups; the last factor repeats."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        if not self.sizes or any(s < 2 for s in self.sizes):
            raise ValueError("need at least one factor, every factor size >= 2")

    @cached_property
    def alphabet(self) -> Alphabet:
        return Alphabet(max(self.sizes))

    def size_at(self, i: int) -> int:
        if i < 0:
            raise ValueError("odometer digits are one-sided")
        return self.sizes[min(i, len(self.sizes) - 1)]

    def window_period(self, m: int) -> int:
        """Cycle length of the digits in W_m: the product of their sizes."""
        return count_words([self.size_at(i) for i in range(m + 1)])


@dataclass(frozen=True)
class Rotation:
    """Rigid rotation of the circle by alpha, held exactly as a rational."""

    alpha: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must lie strictly between 0 and 1, got {self.alpha}")


System = Union[CARule, Odometer, Rotation]
CantorSystem = Union[CARule, Odometer]


# -- rule constructors ---------------------------------------------------------

def identity_rule(alphabet: Alphabet, sided: str = ONE_SIDED, radius: int = 0) -> CARule:
    """Rule mapping every neighborhood to the symbol at its own cell."""
    check_sided(sided)
    width = radius + 1 if sided == ONE_SIDED else 2 * radius + 1
    center = 0 if sided == ONE_SIDED else radius
    return CARule(alphabet, sided, radius, {nb: nb[center] for nb in iter_words([alphabet.size] * width)})


def shift_as_ca(alphabet: Alphabet = Alphabet(2)) -> CARule:
    """The one-sided shift written as a radius-1 one-sided rule table."""
    table = {(a, b): b for a in alphabet.symbols() for b in alphabet.symbols()}
    return CARule(alphabet, ONE_SIDED, 1, table)


def eca_rule(number: int) -> CARule:
    """Elementary CA: binary, two-sided, radius 1, Wolfram numbering."""
    if not 0 <= number <= 255:
        raise ValueError(f"Wolfram numbers run 0..255, got {number}")
    table = {(l, c, r): (number >> (4 * l + 2 * c + r)) & 1 for l, c, r in iter_words([2, 2, 2])}
    return CARule(Alphabet(2), TWO_SIDED, 1, table)


def wolfram_number(rule: CARule) -> int:
    """Inverse of eca_rule; defined only for binary two-sided radius-1 rules."""
    if rule.alphabet.size != 2 or rule.sided != TWO_SIDED or rule.radius != 1:
        raise ValueError("Wolfram numbering needs a binary two-sided radius-1 rule")
    return sum(out << (4 * l + 2 * c + r) for (l, c, r), out in rule.table.items())


# -- one-row dynamics ----------------------------------------------------------

def _checked_row(system: CantorSystem, x: Configuration) -> np.ndarray:
    """x's symbols as one int64 row, once x fits the system's space and cells."""
    if not isinstance(x, Configuration):
        raise UnsupportedSystem(f"{type(system).__name__} acts on configurations")
    if x.alphabet != system.alphabet:
        raise ValueError(
            f"configuration over alphabet {x.alphabet.size}, system over {system.alphabet.size}"
        )
    sided = system_sided(system)
    if x.sided != sided:
        raise ValueError(f"system needs {sided!r}-sided configurations, got {x.sided!r}")
    row = np.array([x.symbols], dtype=np.int64)
    check_cells(system, row)
    return row


def system_sided(system: CantorSystem) -> str:
    if isinstance(system, CARule):
        return system.sided
    return ONE_SIDED


def step_cost(system: CantorSystem) -> int:
    """Valid radius lost per application of the map."""
    return system.radius if isinstance(system, CARule) else 0


def dependence_radius(system: CantorSystem, m: int, horizon: int) -> int:
    """Input radius that determines the column trace at resolution m to `horizon`."""
    if isinstance(system, Rotation):
        raise UnsupportedSystem("rotations have no window dependence radius")
    if m < 0 or horizon < 0:
        raise ValueError("resolution and horizon must be >= 0")
    return m + step_cost(system) * horizon


def cell_sizes(system: CantorSystem, cells) -> list[int]:
    """Symbol count available at each cell (odometer digits vary by coordinate)."""
    if isinstance(system, Odometer):
        return [system.size_at(i) for i in cells]
    return [system.alphabet.size for _ in cells]


def check_measure_alphabet(system: CantorSystem, mu) -> None:
    """ValueError unless the measure `mu` draws symbols of the system's alphabet."""
    if mu.alphabet != system.alphabet:
        raise ValueError(
            f"measure over alphabet {mu.alphabet.size}, system over {system.alphabet.size}"
        )


def check_cells(system: CantorSystem, arr: np.ndarray, first: int = 0) -> None:
    """ValueError unless every symbol of the int rows `arr` fits its cell.

    Rows list window cells ascending; column j is column first + j of the
    window. Only odometer cell sizes vary, and its cells run 0, 1, .., so
    window column j is cell j wherever the size matters.
    """
    cells = range(first, first + arr.shape[1])
    if not arr.size or (arr.min() >= 0 and arr.max() < min(cell_sizes(system, cells))):
        return
    sizes = np.asarray(cell_sizes(system, cells))
    bad = (arr < 0) | (arr >= sizes)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise ValueError(
            f"symbol {arr[row, col]} in column {first + col} outside the {sizes[col]} symbols "
            f"of that cell of the {type(system).__name__}"
        )


def _trace_row(system: CantorSystem, x: Configuration, m: int, horizon: int, radius: int = 0) -> np.ndarray:
    """x on W_max(radius, rho), rho the dependence radius for (m, horizon), as one checked int64 row."""
    need = max(radius, dependence_radius(system, m, horizon))
    if x.radius < need:
        raise InsufficientRadius(
            f"trace to horizon {horizon} at resolution {m} needs valid radius {need}, "
            f"configuration has {x.radius}"
        )
    return window_slice(system_sided(system), x.radius, need, _checked_row(system, x))


# -- vectorized dynamics -------------------------------------------------------

def step_batch(system: CantorSystem, arr: np.ndarray) -> np.ndarray:
    """Apply the map to every row of `arr` (rows list window cells ascending).

    Output rows cover a window narrower by step_cost(system) cells per side
    that the dynamics consumes. Symbols are not checked (see `check_cells`).
    """
    if isinstance(system, CARule):
        size = system.alphabet.size
        width = system.neighborhood_size
        if arr.shape[1] < width:
            raise InsufficientRadius("batch window narrower than one neighborhood")
        flat = system.flat_table
        code = np.zeros((arr.shape[0], arr.shape[1] - width + 1), dtype=np.int64)
        for k in range(width):
            code = code * size + arr[:, k : arr.shape[1] - width + 1 + k]
        return flat[code]
    if isinstance(system, Odometer):
        out = arr.copy()
        carry = np.ones(arr.shape[0], dtype=bool)
        for i in range(arr.shape[1]):
            if not carry.any():
                break
            bumped = out[:, i] + carry
            wrap = carry & (bumped >= system.size_at(i))
            out[:, i] = np.where(wrap, 0, bumped)
            carry = wrap
        return out
    raise UnsupportedSystem(f"no batch stepper for {system!r}")


def window_slice(sided: str, covered_radius: int, m: int, arr: np.ndarray) -> np.ndarray:
    """Columns of `arr` (covering W_covered_radius) that form W_m."""
    if m > covered_radius:
        raise InsufficientRadius(f"window W_{m} not covered at radius {covered_radius}")
    if sided == ONE_SIDED:
        return arr[:, : m + 1]
    mid = covered_radius
    return arr[:, mid - m : mid + m + 1]


def column_codes(system: CantorSystem, arr: np.ndarray, m: int, horizon: int) -> np.ndarray:
    """Column traces as codes: entry (i, t) is one integer naming (T^t x_i)_{W_m}.

    Row i of `arr` is x_i on W_rho, rho the dependence radius for (m,
    horizon). Equal integers mean equal words (see `word_codes`).
    """
    radius = dependence_radius(system, m, horizon)
    cells = window_cells(system_sided(system), radius)
    if arr.shape[1] != len(cells):
        raise InsufficientRadius(f"rows have {arr.shape[1]} cells, W_{radius} has {len(cells)}")
    check_cells(system, arr)
    return word_codes(_windows(system, arr, radius, m, horizon), system.alphabet.size)


def _windows(system: CantorSystem, arr: np.ndarray, radius: int, m: int, horizon: int) -> np.ndarray:
    """(rows, horizon + 1, |W_m|) array: entry (i, t) is (T^t x_i)_{W_m}, row i of
    `arr` being x_i on W_radius, radius at least the dependence radius."""
    sided = system_sided(system)
    wins = np.empty((arr.shape[0], horizon + 1, window_size(sided, m)), dtype=np.int64)
    for t in range(horizon + 1):
        wins[:, t] = window_slice(sided, radius - step_cost(system) * t, m, arr)
        if t < horizon:
            arr = step_batch(system, arr)
    return wins


def word_codes(words: np.ndarray, size: int) -> np.ndarray:
    """One integer per word (last axis of the int array `words`), ascending as
    the words are lexicographically, equal exactly when the words are.

    A base-`size` number, first cell most significant, while the words fit
    in int64; the word's rank among the distinct words of `words` otherwise.
    """
    width = words.shape[-1]
    if size ** width <= 2 ** 63:
        return words @ size ** np.arange(width - 1, -1, -1, dtype=np.int64)
    _, codes = np.unique(words.reshape(-1, width), axis=0, return_inverse=True)
    return codes.reshape(words.shape[:-1])


def row_words(rows: np.ndarray, alphabet: Alphabet) -> list[str]:
    """`word_to_str` of each int row: up to 10 symbols, one pass reads a row's digit bytes as one string."""
    if alphabet.size > 10:
        return [word_to_str(word, alphabet) for word in rows.tolist()]
    return [w.decode() for w in (rows + ord("0")).astype(np.uint8).view(f"S{rows.shape[1]}").ravel().tolist()]


# -- bit-sliced dynamics -------------------------------------------------------
#
# A batch of n rows over C cells becomes planes[a, c]: a packed uint64 vector
# whose bit i is set when row i holds symbol a at cell c. Bits past n (the
# padding of the last word) are clear in every plane, and every step keeps
# them clear.

def pack_bits(flags: np.ndarray) -> np.ndarray:
    """Pack booleans along the last axis into uint64 words; bit i is flag i."""
    n = flags.shape[-1]
    buf = np.zeros(flags.shape[:-1] + (-(-n // 64) * 8,), dtype=np.uint8)
    buf[..., : -(-n // 8)] = np.packbits(flags, axis=-1, bitorder="little")
    return buf.view(np.uint64)


def unpack_bits(words: np.ndarray, n: int) -> np.ndarray:
    """The first n flags of each packed vector (last axis), as booleans."""
    return np.unpackbits(words.view(np.uint8), axis=-1, count=n, bitorder="little").astype(bool)


def pack_planes(system: CantorSystem, rows, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """One-hot bit planes (|A| x cells x words) of int rows, or of the
    column pieces (cell, symbols of every row) of rows of `shape`.

    With `shape` (groups, n, cells) the columns are (groups, n) and each
    group's rows start on a word boundary: group g holds words g w .. g w +
    w - 1, w = ceil(n / 64), and the padding bits of each group stay clear.
    """
    if isinstance(rows, np.ndarray):
        rows, shape = enumerate(rows.T), rows.shape
    *groups, n, cells = shape
    g = groups[0] if groups else 1
    symbols = np.arange(system.alphabet.size, dtype=np.uint8)[:, None, None]
    planes = np.zeros((len(symbols), cells, g, -(-n // 64)), dtype=np.uint64)
    octets = planes.view(np.uint8)  # bit i of a word is bit i % 8 of its octet i // 8, as in pack_bits
    mask = pack_bits(np.ones(n, dtype=bool))
    for j, column in rows:
        column = column.reshape(g, n)
        if n and column.strides[-1] == 0:  # one symbol per group: check it once, set its plane
            check_cells(system, column[:, :1], j)
            planes[column[:, 0], j, np.arange(g)] = mask
        else:
            check_cells(system, column.reshape(-1, 1), j)
            octets[:, j, :, : -(-n // 8)] = np.packbits(column == symbols, axis=-1, bitorder="little")
    return planes.reshape(len(symbols), cells, -1)


def step_planes(system: CantorSystem, planes: np.ndarray) -> np.ndarray:
    """`step_batch` on bit planes: the same rows, 64 to a word."""
    if isinstance(system, CARule):
        width = system.neighborhood_size
        cells = planes.shape[1] - width + 1
        if cells < 1:
            raise InsufficientRadius("batch window narrower than one neighborhood")
        out = np.zeros_like(planes[:, :cells])
        # output plane b: OR over neighborhoods w with f(w) = b of AND_k (plane w_k at offset k)
        for nb, b in system.table.items():
            term = planes[nb[0], :cells].copy()
            for k in range(1, width):
                term &= planes[nb[k], k : k + cells]
            out[b] |= term
        return out
    if isinstance(system, Odometer):
        out = planes.copy()
        carry = np.full(planes.shape[2:], ~np.uint64(0))
        for i in range(planes.shape[1]):
            if not carry.any():
                break
            s, col = system.size_at(i), planes[:, i]
            for a in range(s):
                out[a, i] = (col[a] & ~carry) | (col[(a - 1) % s] & carry)
            carry &= col[s - 1]
        return out
    raise UnsupportedSystem(f"no batch stepper for {system!r}")


def trace_agreement_batch(
    system: CantorSystem,
    trace_words,
    planes: np.ndarray,
    n: int,
    m: int,
    covered_radius: int,
) -> np.ndarray:
    """Boolean mask over the rows of `planes`: does the row's column trace equal its group's trace?

    The planes (`pack_planes`) are packed in groups of n rows, and
    `trace_words` holds one trace per group. They must cover
    W_covered_radius with covered_radius at least the dependence radius for
    (m, horizon). The mask lists the n rows of group 0, then those of
    group 1, and so on.
    """
    targets = np.asarray(trace_words, dtype=np.int64)
    groups, horizon = len(targets), targets.shape[1] - 1
    sided = system_sided(system)
    need = dependence_radius(system, m, horizon)
    if covered_radius < need:
        raise InsufficientRadius(
            f"batch covers radius {covered_radius}, trace needs {need}"
        )
    bad = ((targets < 0) | (targets >= len(planes))).any(axis=(1, 2))  # a symbol no row can hold
    alive = np.where(bad[:, None], np.uint64(0), pack_bits(np.ones(n, dtype=bool)))  # padding bits stay clear
    targets = targets.clip(0, len(planes) - 1)
    cells, members = np.arange(targets.shape[2]), np.arange(groups)[:, None]
    radius = covered_radius
    for i in range(horizon + 1):
        win = window_slice(sided, radius, m, planes).reshape(len(planes), len(cells), groups, -1)
        alive &= np.bitwise_and.reduce(win[targets[:, i], cells, members], axis=1)
        if not alive.any() or i == horizon:
            break
        planes = step_planes(system, planes)
        radius -= step_cost(system)
    return unpack_bits(alive, n).reshape(-1)


# -- external interface --------------------------------------------------------

def system_from_dict(d: dict) -> System:
    kind = d.get("type")
    if kind == "eca":
        return eca_rule(int(d["rule"]))
    if kind == "ca":
        alphabet = Alphabet(int(d.get("alphabet", 2)))
        sided = d.get("sided", TWO_SIDED)
        radius = int(d["radius"])
        table = {
            word_from_str(key, alphabet): int(val) for key, val in d["table"].items()
        }
        return CARule(alphabet, sided, radius, table)
    if kind == "shift":
        return Shift(Alphabet(int(d.get("alphabet", 2))))
    if kind == "odometer":
        return Odometer(tuple(d["sizes"]))
    if kind == "rotation":
        return Rotation(Fraction(str(d["alpha"])))
    raise ValueError(f"unknown system type {kind!r}")


def system_to_dict(system: System) -> dict:
    if isinstance(system, Shift):  # a Shift is a CARule too
        return {"type": "shift", "alphabet": system.alphabet.size}
    if isinstance(system, CARule):
        w = wolfram_number(system) if (
            system.alphabet.size == 2 and system.sided == TWO_SIDED and system.radius == 1
        ) else None
        if w is not None:
            return {"type": "eca", "rule": w}
        return {
            "type": "ca",
            "alphabet": system.alphabet.size,
            "sided": system.sided,
            "radius": system.radius,
            "table": {
                word_to_str(nb, system.alphabet): out for nb, out in sorted(system.table.items())
            },
        }
    if isinstance(system, Odometer):
        return {"type": "odometer", "sizes": list(system.sizes)}
    if isinstance(system, Rotation):
        return {"type": "rotation", "alpha": str(system.alpha)}
    raise ValueError(f"not a known system: {system!r}")
