"""Dynamics: CA rules, shift, odometer, rotation, traces, batch stepping."""

import itertools
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from equidyn import (
    Alphabet,
    CARule,
    CirclePoint,
    Configuration,
    InsufficientRadius,
    Odometer,
    Rotation,
    Shift,
    UnsupportedSystem,
    dependence_radius,
    eca_rule,
    identity_rule,
    shift_as_ca,
    step_cost,
    system_from_dict,
    system_to_dict,
    wolfram_number,
)
from equidyn.rng import substream
from equidyn.systems import (_windows, cell_sizes, check_cells, pack_planes, step_batch, trace_agreement_batch,
                             word_codes)
from oracles import circle_distance, scalar_column_trace, scalar_step, step, trace_rows

A2 = Alphabet(2)


def test_all_eca_rules_roundtrip():
    for number in range(256):
        assert wolfram_number(eca_rule(number)) == number


def test_eca_rule_110_neighborhoods():
    rule = eca_rule(110)
    # 111 -> 0, 110 -> 1, 010 -> 1, 000 -> 0
    assert rule.table[(1, 1, 1)] == 0
    assert rule.table[(1, 1, 0)] == 1
    assert rule.table[(0, 1, 0)] == 1
    assert rule.table[(0, 0, 0)] == 0


def test_rule_table_must_be_total():
    with pytest.raises(ValueError):
        CARule(A2, "two", 1, {(0, 0, 0): 0})


def test_identity_rule_fixes_everything():
    ident = identity_rule(A2)
    x = Configuration(A2, "one", (0, 1, 1, 0))
    assert step(ident, x).symbols == x.symbols
    assert step_cost(ident) == 0


def test_step_shrinks_by_radius():
    rule = eca_rule(90)
    x = Configuration(A2, "two", (1, 0, 1, 1, 0))
    y = step(rule, x)
    assert y.radius == x.radius - 1
    # rule 90 XORs the two neighbors
    assert y.symbols == (1 ^ 1, 0 ^ 1, 1 ^ 0)


def test_step_requires_radius():
    rule = eca_rule(90)
    x = Configuration(A2, "two", (1,))
    with pytest.raises(InsufficientRadius):
        step(rule, x)
    with pytest.raises(InsufficientRadius):
        step(Shift(A2), Configuration(A2, "one", (1,)))


def test_shift_primitive_matches_shift_as_ca():
    """The shift and its CA presentation produce identical symbols."""
    sh = Shift(A2)
    ca = shift_as_ca(A2)
    for word in itertools.product(range(2), repeat=6):
        x = Configuration(A2, "one", word)
        a, b = x, x
        for _ in range(3):
            a, b = step(sh, a), step(ca, b)
            assert a.symbols == b.symbols and a.radius == b.radius


class TestOdometer:
    def test_increment_with_carry(self):
        od = Odometer((2, 2, 2))
        x = Configuration(od.alphabet, "one", (1, 1, 0))
        assert step(od, x).symbols == (0, 0, 1)

    def test_carry_leaves_window(self):
        od = Odometer((2, 2, 2))
        x = Configuration(od.alphabet, "one", (1, 1, 1))
        assert step(od, x).symbols == (0, 0, 0)

    def test_mixed_radices(self):
        od = Odometer((2, 3))
        x = Configuration(od.alphabet, "one", (1, 2, 2))
        assert step(od, x).symbols == (0, 0, 0)
        y = Configuration(od.alphabet, "one", (0, 2, 1))
        assert step(od, y).symbols == (1, 2, 1)

    def test_rejects_bad_digit(self):
        od = Odometer((2, 3))
        x = Configuration(od.alphabet, "one", (2, 0))
        with pytest.raises(ValueError):
            step(od, x)

    def test_radius_preserved_and_free(self):
        od = Odometer((2, 2))
        x = Configuration(od.alphabet, "one", (1, 0, 1, 1))
        assert step(od, x).radius == x.radius
        assert step_cost(od) == 0

    def test_window_period(self):
        od = Odometer((2, 3, 3))
        assert od.window_period(0) == 2
        assert od.window_period(1) == 6
        assert od.window_period(2) == 18
        assert od.window_period(4) == 18 * 3 * 3

    def test_sizes_validated(self):
        with pytest.raises(ValueError):
            Odometer((2, 1))


def test_dependence_radius_by_kind():
    assert dependence_radius(eca_rule(90), 2, 3) == 2 + 3
    assert dependence_radius(Shift(A2), 2, 3) == 5
    assert dependence_radius(Odometer((2, 2)), 2, 3) == 2
    assert dependence_radius(identity_rule(A2), 1, 7) == 1
    with pytest.raises(UnsupportedSystem):
        dependence_radius(Rotation(Fraction(1, 3)), 1, 1)


def test_cell_sizes_for_odometer():
    od = Odometer((2, 3))
    assert cell_sizes(od, range(0, 4)) == [2, 3, 3, 3]
    assert cell_sizes(Shift(A2), range(0, 3)) == [2, 2, 2]


class TestColumnTrace:
    def test_shift_trace_reads_the_word(self):
        sh = Shift(A2)
        x = Configuration(A2, "one", (0, 1, 1, 0, 1))
        trace = trace_rows(sh, x, 1, 3)
        assert trace.tolist() == [[0, 1], [1, 1], [1, 0], [0, 1]]

    def test_requires_dependence_radius(self):
        sh = Shift(A2)
        x = Configuration(A2, "one", (0, 1, 1))
        with pytest.raises(InsufficientRadius):
            trace_rows(sh, x, 1, 3)

    def test_odometer_counter(self):
        od = Odometer((2, 2))
        x = Configuration(od.alphabet, "one", (0, 0))
        trace = trace_rows(od, x, 1, 4)
        assert trace.tolist() == [[0, 0], [1, 0], [0, 1], [1, 1], [0, 0]]

    @pytest.mark.parametrize("number", [90, 110, 184])
    @pytest.mark.parametrize("m,horizon", [(0, 1), (0, 3), (1, 2)])
    def test_locality_exhaustive(self, number, m, horizon):
        """The trace depends on exactly the window W_{m+rT}."""
        rule = eca_rule(number)
        rho = m + horizon  # radius 1
        width = 2 * rho + 1
        for word in itertools.product(range(2), repeat=width):
            x = Configuration(A2, "two", word)
            base = trace_rows(rule, x, m, horizon).tolist()
            # padding with arbitrary outer symbols must not change the trace
            padded = Configuration(A2, "two", (1,) + word + (0,))
            assert trace_rows(rule, padded, m, horizon).tolist() == base


class TestBatch:
    @pytest.mark.parametrize("make_sys,sided,radius", [
        (lambda: eca_rule(110), "two", 4),
        (lambda: eca_rule(90), "two", 4),
        (lambda: Shift(A2), "one", 5),
        (lambda: Odometer((2, 3)), "one", 4),
    ])
    def test_step_batch_matches_scalar(self, make_sys, sided, radius):
        system = make_sys()
        alpha = system.alphabet
        rng = substream(5, 0)
        width = radius + 1 if sided == "one" else 2 * radius + 1
        sizes = cell_sizes(system, range(width)) if isinstance(system, Odometer) \
            else [alpha.size] * width
        arr = np.stack([
            np.array([rng.integers(0, s) for s in sizes]) for _ in range(40)
        ]).astype(np.int64)
        out = step_batch(system, arr)
        for row_in, row_out in zip(arr, out):
            x = Configuration(alpha, sided, tuple(int(v) for v in row_in))
            assert tuple(int(v) for v in row_out) == scalar_step(system, x).symbols

    def test_trace_agreement_batch_matches_scalar(self):
        rule = eca_rule(110)
        m, horizon = 1, 2
        rho = dependence_radius(rule, m, horizon)
        x = Configuration(A2, "two", (0, 1, 1, 0, 1, 0, 0))
        assert x.radius == rho
        trace = trace_rows(rule, x, m, horizon)
        words = list(itertools.product(range(2), repeat=2 * rho + 1))
        arr = np.array(words, dtype=np.int64)
        agree = trace_agreement_batch(rule, [trace], pack_planes(rule, arr), len(arr), m, rho)
        want = scalar_column_trace(rule, x, m, horizon)
        for word, flag in zip(words, agree):
            y = Configuration(A2, "two", word)
            assert bool(flag) == (scalar_column_trace(rule, y, m, horizon) == want)


class TestColumnCodes:
    """Word codes of the column traces (`lep`'s and `lep_certificate`'s): codes at times s and t
    of one row agree exactly when the W_m words do."""

    def assert_codes_name_words(self, system, rows, m, horizon):
        sided = "one" if not isinstance(system, CARule) else system.sided
        rho = dependence_radius(system, m, horizon)
        codes = word_codes(_windows(system, np.array(rows, dtype=np.int64), rho, m, horizon), system.alphabet.size)
        assert codes.shape == (len(rows), horizon + 1)
        for row, code in zip(rows, codes):
            trace = scalar_column_trace(system, Configuration(system.alphabet, sided, row), m, horizon)
            for s, t in itertools.combinations(range(horizon + 1), 2):
                assert (code[s] == code[t]) == (trace[s] == trace[t])

    @pytest.mark.parametrize("system,m", [
        (eca_rule(110), 1), (eca_rule(90), 2), (Shift(A2), 3), (Odometer((2, 3)), 2),
    ])
    def test_random_rows(self, system, m):
        horizon = 6
        rho = dependence_radius(system, m, horizon)
        cells = range(rho + 1) if isinstance(system, (Shift, Odometer)) else range(-rho, rho + 1)
        rng = substream(6, m)
        rows = [[int(rng.integers(0, s)) for s in cell_sizes(system, cells)] for _ in range(30)]
        self.assert_codes_name_words(system, rows, m, horizon)

    def test_words_past_63_bits(self):
        # W_70 has 71 cells; these rows differ between times only in the top cells
        rows = [[0] * 70 + [1] + [0] * 4, [0] * 74 + [1], [1, 0] * 37 + [1]]
        self.assert_codes_name_words(Shift(A2), rows, 70, 4)


# -- the one-row step and trace against the scalar oracles -------------------------

def seeded_three_symbol_rule():
    rng = np.random.default_rng(33)
    table = {nb: int(rng.integers(3)) for nb in itertools.product(range(3), repeat=3)}
    return CARule(Alphabet(3), "two", 1, table)


def random_configs(system, radius, count, seed):
    sided = system.sided if isinstance(system, CARule) else "one"
    width = radius + 1 if sided == "one" else 2 * radius + 1
    rng = np.random.default_rng(seed)
    sizes = cell_sizes(system, range(width))  # only odometer sizes vary, and it is one-sided
    return [Configuration(system.alphabet, sided, [int(rng.integers(s)) for s in sizes]) for _ in range(count)]


def assert_one_row_matches_oracle(system, seed):
    for horizon, m in itertools.product(range(4), (0, 1)):
        radius = dependence_radius(system, m, horizon) + 1
        for x in random_configs(system, radius, 4, seed=(seed, horizon, m)):
            want = [list(w) for w in scalar_column_trace(system, x, m, horizon)]
            assert trace_rows(system, x, m, horizon).tolist() == want
            got = want = x
            for _ in range(horizon):
                got, want = step(system, got), scalar_step(system, want)
                assert got == want


class TestOneRowMatchesOracle:
    def test_every_eca(self):
        for number in range(256):
            assert_one_row_matches_oracle(eca_rule(number), seed=number)

    @pytest.mark.parametrize("system", [
        seeded_three_symbol_rule(), Shift(A2), Odometer((2, 3)),
    ], ids=["three-symbol two-sided", "shift", "odometer"])
    def test_other_systems(self, system):
        assert_one_row_matches_oracle(system, seed=5)

    def test_odometer_carry_leaves_the_window_like_the_oracle(self):
        od = Odometer((2, 3))
        x = Configuration(od.alphabet, "one", (1, 2, 2, 2))
        assert step(od, x) == scalar_step(od, x) == Configuration(od.alphabet, "one", (0, 0, 0, 0))


class TestCellRangeCheck:
    """Digit 2 at cell 0 of Odometer((2, 3)) fits the alphabet but not the cell."""

    OD = Odometer((2, 3))
    BAD = Configuration(Alphabet(3), "one", (2, 0, 0))

    def test_column_trace(self):
        for horizon in (0, 2):
            with pytest.raises(ValueError, match="column 0"):
                trace_rows(self.OD, self.BAD, 1, horizon)

    @pytest.mark.parametrize("system,bad", [
        (eca_rule(110), [[0, -1, 1]]),
        (eca_rule(110), [[0, 2, 1]]),
        (OD, [[1, 1, 3]]),
    ])
    def test_rows_outside_their_cells(self, system, bad):
        with pytest.raises(ValueError, match="outside"):
            check_cells(system, np.array(bad))

    def test_rows_inside_their_cells_pass(self):
        check_cells(self.OD, np.array([[1, 2, 2], [0, 0, 1]]))
        check_cells(eca_rule(110), np.zeros((0, 3), dtype=np.int64))


def test_rotation_is_an_exact_isometry():
    rot = Rotation(Fraction(2, 7))
    pts = [CirclePoint(Fraction(k, 11)) for k in range(11)]
    for a, b in itertools.combinations(pts, 2):
        before = circle_distance(a, b)
        assert circle_distance(step(rot, a), step(rot, b)) == before


def test_rotation_orbit_returns():
    rot = Rotation(Fraction(1, 4))
    p = CirclePoint(Fraction(0))
    for _ in range(4):
        p = step(rot, p)
    assert p.angle == Fraction(0)


@pytest.mark.parametrize("d", [
    {"type": "eca", "rule": 30},
    {"type": "shift", "alphabet": 2},
    {"type": "shift", "alphabet": 3},
    {"type": "odometer", "sizes": [2, 3]},
    {"type": "rotation", "alpha": "1/3"},
])
def test_system_dict_roundtrip(d):
    system = system_from_dict(d)
    assert system_from_dict(system_to_dict(system)) == system


def test_replace_keeps_a_shift():
    sh = Shift(Alphabet(3))
    copy = replace(sh)
    assert type(copy) is Shift and copy == sh
    assert system_from_dict(system_to_dict(copy)) == sh


def test_system_from_dict_unknown():
    with pytest.raises(ValueError):
        system_from_dict({"type": "horocycle"})
