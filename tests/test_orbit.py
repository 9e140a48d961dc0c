"""Orbit balls, density ratios, and the equicontinuity report."""

import itertools
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from equidyn import (
    Alphabet,
    BernoulliMeasure,
    CARule,
    CirclePoint,
    Configuration,
    Cylinder,
    EnumerationTooLarge,
    InsufficientRadius,
    LebesgueMeasure,
    MarkovMeasure,
    NullBall,
    Odometer,
    ProductMeasure,
    Rotation,
    Shift,
    ball_cylinder,
    density_curve,
    eca_rule,
    identity_rule,
    mu_equicontinuity_report,
)
import equidyn.orbit
from equidyn.core import DEFAULT_ENUMERATION_CAP, count_words, subword, window_cells, window_size, word_to_str
from equidyn.rng import derive_seed, substream
from equidyn.systems import cell_sizes, dependence_radius, system_sided
from oracles import (
    ball_rows,
    oracle_base_points,
    oracle_cylinder_probability,
    oracle_event,
    scalar_column_trace,
    trace_rows,
)

A2 = Alphabet(2)
A3 = Alphabet(3)
HALF = BernoulliMeasure([0.5, 0.5])
MARKOV = MarkovMeasure([[0.7, 0.3], [0.4, 0.6]])


def ones_sided(word):
    return Configuration(A2, "one", word)


class TestOrbitBallEvent:
    def test_identity_event_is_the_ball(self):
        ident = identity_rule(A2)
        x = ones_sided((0, 1, 1))
        assert dependence_radius(ident, 1, 5) == 1
        assert ball_rows(ident, x, 1, 5).tolist() == [[0, 1]]

    def test_shift_event_is_a_single_long_word(self):
        sh = Shift(A2)
        x = ones_sided((0, 1, 1, 0))
        assert dependence_radius(sh, 1, 2) == 3
        assert ball_rows(sh, x, 1, 2).tolist() == [[0, 1, 1, 0]]

    def test_odometer_event_is_the_counter_window(self):
        od = Odometer((2, 3))
        x = Configuration(od.alphabet, "one", (1, 2))
        assert dependence_radius(od, 1, 7) == 1 and ball_rows(od, x, 1, 7).tolist() == [[1, 2]]

    def test_eca_event_contains_base(self):
        rule = eca_rule(90)
        x = Configuration(A2, "two", (0, 1, 1, 0, 1, 0, 0))
        words = ball_rows(rule, x, 1, 2).tolist()
        assert list(x.window(dependence_radius(rule, 1, 2))) in words
        for w in words:
            y = Configuration(A2, "two", tuple(w))
            assert scalar_column_trace(rule, y, 1, 2) == scalar_column_trace(rule, x, 1, 2)

    def test_member_needs_y_traced_to_the_horizon(self):
        # y's W_1 word already differs from x's, but y is too short to trace: no verdict
        rule = eca_rule(90)
        x = Configuration(A2, "two", (0, 1, 1, 0, 1, 0, 0))
        y = Configuration(A2, "two", (1, 1, 1))
        assert x.window(1) != y.window(1)
        trace_rows(rule, x, 1, 2)
        with pytest.raises(InsufficientRadius):
            trace_rows(rule, y, 1, 2)

    def test_horizon_zero_is_the_plain_ball(self):
        rule = eca_rule(110)
        x = Configuration(A2, "two", (0, 1, 1))
        ball = ball_cylinder(x, 1)
        assert ball_rows(rule, x, 1, 0).tolist() == [list(ball.word)]

    def test_nesting_in_horizon(self):
        rule = eca_rule(184)
        rho = 1 + 3
        word = tuple(int(b) for b in "011010001")
        x = Configuration(A2, "two", word)
        assert x.radius == rho
        prev = None
        for horizon in range(4):
            padded = set()
            for w in map(tuple, ball_rows(rule, x, 1, horizon).tolist()):
                pad = rho - dependence_radius(rule, 1, horizon)
                for left in itertools.product(range(2), repeat=pad):
                    for right in itertools.product(range(2), repeat=pad):
                        padded.add(left + w + right)
            if prev is not None:
                assert padded <= prev
            prev = padded

    @pytest.mark.parametrize("number", [90, 110, 30, 184])
    def test_nesting_in_resolution(self, number):
        """Agreement on W_1 up to time 1 fixes cell 0 at time 2 (radius 1), so B_{1,1}(x) lies in B_{0,2}(x).

        Both balls live on W_2 (rho = 1 + 1 = 0 + 2): the rows of `ball_rows(rule, x, 1, 1)` need no widening.
        """
        rule = eca_rule(number)
        strict = 0
        for w in itertools.product(range(2), repeat=5):
            x = Configuration(A2, "two", w)
            fine, coarse = ball_rows(rule, x, 1, 1), ball_rows(rule, x, 0, 2)
            assert fine.shape[1] == coarse.shape[1] == window_size("two", 2)
            fine, coarse = set(map(tuple, fine.tolist())), set(map(tuple, coarse.tolist()))
            assert w in fine and fine <= coarse
            strict += fine < coarse
        assert strict > 0

    def test_cap_respected(self):
        sh = Shift(A2)
        x = ones_sided((0,) * 40)
        with pytest.raises(EnumerationTooLarge):
            ball_rows(sh, x, 1, 38, cap=1000)


class TestExactRatio:
    def test_shift_pinned_value(self):
        x = ones_sided((0, 1, 0, 0, 1, 1, 0, 1))
        assert density_curve(Shift(A2), HALF, x, 1, [1], 2)[0][0] == pytest.approx(
            0.25, abs=1e-15
        )

    @pytest.mark.parametrize("m,horizon", [(0, 1), (1, 2), (2, 3)])
    def test_shift_closed_form(self, m, horizon):
        """ratio = product of per-cell masses over W_{m+T} minus W_n."""
        mu = BernoulliMeasure([0.25, 0.75])
        word = (0, 1, 1, 0, 1, 0, 1, 1, 0, 1)
        x = ones_sided(word)
        for n in range(1, m + horizon + 1):
            got = density_curve(Shift(A2), mu, x, m, [n], horizon)[0][0]
            want = 1.0
            for i in range(n + 1, m + horizon + 1):
                want *= (0.25, 0.75)[word[i]]
            assert got == pytest.approx(want, rel=1e-12)

    def test_deep_ball_gives_one(self):
        x = ones_sided((0, 1, 0, 0, 1, 1))
        assert density_curve(Shift(A2), HALF, x, 1, [4], 2)[0][0] == 1.0

    def test_identity_ratio_one_for_coarser_balls(self):
        ident = identity_rule(A2)
        x = ones_sided((0, 1, 1, 0))
        for n in (1, 2, 3):
            assert density_curve(ident, HALF, x, 1, [n], 6)[0][0] == (
                1.0 if n >= 1 else None
            )

    def test_odometer_ratio_one(self):
        od = Odometer((2, 3))
        mu = ProductMeasure((2, 3))
        x = Configuration(od.alphabet, "one", (1, 2, 0, 1))
        for n in (1, 2, 3):
            assert density_curve(od, mu, x, 1, [n], 9)[0][0] == 1.0

    def test_null_ball_rejected(self):
        mu = ProductMeasure((2, 3))
        od = Odometer((2, 3))
        x = Configuration(od.alphabet, "one", (0, 0, 2, 0))
        # digit 2 invalid at cell 0 when the window is W_2... build a real null ball
        bad = Configuration(od.alphabet, "one", (2, 0, 0, 0))
        with pytest.raises((NullBall, ValueError)):
            density_curve(od, mu, bad, 1, [2], 1)

    def test_rotation_analytic(self):
        rot = Rotation(Fraction(1, 3))
        leb = LebesgueMeasure()
        x = CirclePoint(Fraction(1, 7))
        assert density_curve(rot, leb, x, 4, [2], 5)[0][0] == pytest.approx(0.5)
        assert density_curve(rot, leb, x, 2, [4], 5)[0][0] == 1.0


class TestEstimate:
    def test_tracks_exact(self):
        rule = eca_rule(90)
        mu = HALF
        x = Configuration(A2, "two", (0, 1, 1, 0, 1, 0, 0))
        exact = density_curve(rule, mu, x, 1, [1], 2)[0][0]
        est = density_curve(rule, mu, x, 1, [1], 2, exact=False, n_samples=8000, seeds=[13])[1][0]
        assert est.n_samples == 8000
        assert abs(est.p_hat - exact) <= 4 * max(est.stderr, 1e-3)

    def test_seed_determinism(self):
        x = ones_sided((0, 1, 0, 0, 1, 1, 0, 1))
        a = density_curve(Shift(A2), HALF, x, 1, [1], 3, exact=False, n_samples=500, seeds=[4])[1][0]
        b = density_curve(Shift(A2), HALF, x, 1, [1], 3, exact=False, n_samples=500, seeds=[4])[1][0]
        c = density_curve(Shift(A2), HALF, x, 1, [1], 3, exact=False, n_samples=500, seeds=[5])[1][0]
        assert a.p_hat == b.p_hat
        assert a == b
        assert a.p_hat != c.p_hat or a.seed != c.seed

    def test_certain_agreement_gives_zero_stderr(self):
        x = ones_sided((0, 1, 0, 0))
        est = density_curve(Shift(A2), HALF, x, 1, [3], 2, exact=False, n_samples=200, seeds=[1])[1][0]
        assert est.p_hat == 1.0 and est.stderr == 0.0

    def test_rotation_arc_sampling(self):
        rot = Rotation(Fraction(1, 3))
        est = density_curve(
            rot, LebesgueMeasure(), CirclePoint(Fraction(0)), 4, [2], 3,
            exact=False, n_samples=20_000, seeds=[2],
        )[1][0]
        assert abs(est.p_hat - 0.5) <= 4 * est.stderr


def ball_mass(mu, x, n):
    """mu(B_n(x)), the mass `_base_block` weighs x's W_n word with."""
    return mu.row_probabilities(x.sided, n, np.array([x.window(n)]))[0]


class TestDensityCurve:
    """One point at every n: one trace and one base block, and each n's numbers
    those of its own one-n call, or at n < m (configuration spaces) the one-n
    call at m times the exact mass ratio mu(B_m(x)) / mu(B_n(x))."""

    CASES = [
        (eca_rule(90), HALF, Configuration(A2, "two", (0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1, 1, 0, 1, 0)), 2, 5),
        (Shift(A2), MARKOV, ones_sided((0, 1, 0, 0, 1, 1, 0, 1, 1, 0)), 1, 3),
        (Rotation(Fraction(1, 3)), LebesgueMeasure(), CirclePoint(Fraction(1, 7)), 4, 3),
    ]

    @pytest.mark.parametrize("system, mu, x, m, horizon", CASES, ids=["eca", "shift", "rotation"])
    def test_each_n_is_its_one_n_call(self, monkeypatch, system, mu, x, m, horizon):
        ns, seeds = [1, 2, 3, 4, 5, 6, 7], [derive_seed(9, j) for j in range(7)]
        blocks, rows = [], []
        base_block, trace_row = equidyn.orbit._base_block, equidyn.orbit._trace_row
        monkeypatch.setattr(equidyn.orbit, "_base_block", lambda *a: blocks.append(1) or base_block(*a))
        monkeypatch.setattr(equidyn.orbit, "_trace_row", lambda *a: rows.append(1) or trace_row(*a))
        ratios, ests = equidyn.orbit.density_curve(system, mu, x, m, ns, horizon, True, 300, seeds)
        assert (blocks, rows) == (([], []) if isinstance(system, Rotation) else ([1], [1]))
        assert ratios == [density_curve(system, mu, x, m, [n], horizon)[0][0] for n in ns]
        one_n = lambda n, s: density_curve(system, mu, x, m, [n], horizon, exact=False, n_samples=300, seeds=[s])[1][0]
        want = [one_n(n, s) for n, s in zip(ns, seeds)]
        if not isinstance(system, Rotation):  # n < m reads the draw at m, from m's seed
            at_m = want[ns.index(m)]
            for j in range(ns.index(m)):
                f = ball_mass(mu, x, m) / ball_mass(mu, x, ns[j])
                want[j] = replace(at_m, p_hat=at_m.p_hat * f, stderr=at_m.stderr * f, n=ns[j])
        assert ests == want
        assert equidyn.orbit.density_curve(system, mu, x, m, ns, horizon, False) == ([None] * 7, [])

    @pytest.mark.parametrize("system, mu, x, m, horizon", CASES, ids=["eca", "shift", "rotation"])
    def test_seeds_need_samples_and_one_seed_per_n(self, system, mu, x, m, horizon):
        """No division by zero samples, and no curve cut short to the seeds."""
        with pytest.raises(ValueError, match="one seed per n and n_samples >= 1"):
            equidyn.orbit.density_curve(system, mu, x, m, [1, 2], horizon, True, 0, [1, 2])
        with pytest.raises(ValueError, match="one seed per n and n_samples >= 1"):
            equidyn.orbit.density_curve(system, mu, x, m, [1, 2], horizon, True, 300, [1])
        with pytest.raises(ValueError, match="n_samples -1"):
            density_curve(system, mu, x, m, [1], horizon, exact=False, n_samples=-1, seeds=[0])

    def test_null_ball_names_the_first_null_n(self):
        mu = ProductMeasure((3, 3, 2))  # cells from 2 on hold two digits, so a 2 at cell 2 is null
        x = Configuration(A3, "one", (0, 1, 2, 0, 0, 0))
        with pytest.raises(NullBall, match="radius 1/2 has measure zero"):
            equidyn.orbit.density_curve(identity_rule(A3), mu, x, 1, [1, 2, 3, 4], 2, True, 10, [1, 2, 3, 4])
        with pytest.raises(NullBall, match="radius 1/3 has measure zero"):  # first in the order given
            equidyn.orbit.density_curve(identity_rule(A3), mu, x, 1, [1, 3, 2], 2, False, 10, [1, 2, 3])


def ball_inside_orbit_ball(system, mu, x, m, n, horizon):
    """Is B_n(x) inside B_{m,horizon}(x)? For a full-support mu, exactly when the exact ratio is 1."""
    return density_curve(system, mu, x, m, [n], horizon)[0][0] == 1.0


class TestPointTest:
    def test_identity_point_is_equicontinuous(self):
        ident = identity_rule(A2)
        x = ones_sided((0, 1, 1, 0))
        assert ball_inside_orbit_ball(ident, HALF, x, 1, 1, 8)
        assert ball_inside_orbit_ball(ident, HALF, x, 1, 2, 8)

    def test_shift_needs_depth(self):
        sh = Shift(A2)
        x = ones_sided((0, 1, 1, 0, 1, 0))
        assert not ball_inside_orbit_ball(sh, HALF, x, 1, 2, 2)
        assert ball_inside_orbit_ball(sh, HALF, x, 1, 3, 2)

    def test_rotation_rule(self):
        rot = Rotation(Fraction(1, 5))
        leb = LebesgueMeasure()
        assert ball_inside_orbit_ball(rot, leb, CirclePoint(Fraction(0)), 2, 3, 9)
        assert not ball_inside_orbit_ball(rot, leb, CirclePoint(Fraction(0)), 3, 2, 9)


class TestReport:
    def test_shift_curve_closed_form(self):
        rep = mu_equicontinuity_report(
            Shift(A2), HALF, m=1, n_list=[1, 2, 3, 4], horizon=2,
            points=6, n_samples=300, seed=11,
        )
        assert all(c.exact for c in rep.curves)
        for curve in rep.curves:
            assert curve.ratios == (0.25, 0.5, 1.0, 1.0)
        assert rep.fraction == 1.0  # terminal ratio hits 1 at n = 3

    def test_odometer_fraction_one(self):
        od = Odometer((3, 3))
        rep = mu_equicontinuity_report(
            od, ProductMeasure((3, 3)), m=2, n_list=[2, 3], horizon=10,
            points=5, n_samples=100, seed=3,
        )
        assert rep.fraction == 1.0
        for curve in rep.curves:
            assert curve.ratios == (1.0, 1.0)

    def test_rotation_fraction_one(self):
        rot = Rotation(Fraction(1, 6))
        rep = mu_equicontinuity_report(
            rot, LebesgueMeasure(), m=3, n_list=[3, 5], horizon=4,
            points=8, n_samples=100, seed=5,
        )
        assert rep.fraction == 1.0

    def test_n_list_sorted_and_deduped(self):
        rep = mu_equicontinuity_report(
            Shift(A2), HALF, m=0, n_list=[3, 1, 1, 2], horizon=1,
            points=2, n_samples=50, seed=0,
        )
        assert rep.n_list == (1, 2, 3)

    def test_monte_carlo_route_when_enumeration_too_big(self):
        """A large dependence window forces the sampled path; stderr shows it."""
        rep = mu_equicontinuity_report(
            Shift(A2), HALF, m=1, n_list=[1], horizon=30,
            points=2, n_samples=200, seed=1,
        )
        assert not rep.curves[0].exact
        assert rep.curves[0].stderrs is not None


# -- scalar oracle -------------------------------------------------------------
#
# Brute force over every W_rho word (`oracles.oracle_event`): build a
# validated Configuration and apply the scalar oracle stepper from `oracles`.
# It never touches `step_batch`, which the exact engine steps with, so the
# engine is checked against an independent implementation.

def oracle_ratio(system, mu, x, m, n, horizon, words):
    """The density ratio of B_n(x), read off the event words."""
    sided = system_sided(system)
    rho = dependence_radius(system, m, horizon)
    if n >= rho:
        return 1.0
    inside = [w for w in words if subword(w, sided, rho, n) == x.window(n)]
    free = [i for i in window_cells(sided, rho) if abs(i) > n]
    if len(inside) == count_words(cell_sizes(system, free)):
        return 1.0
    masses = [oracle_cylinder_probability(mu, Cylinder(system.alphabet, sided, rho, w)) for w in inside]
    return math.fsum(masses) / oracle_cylinder_probability(mu, ball_cylinder(x, n))


def assert_engine_matches_oracle(system, mu, ms, seed):
    sided = system_sided(system)
    for m, horizon in itertools.product(ms, range(4)):
        rho = dependence_radius(system, m, horizon)
        x = mu.sample_config(sided, max(rho, 1), substream(seed, m, horizon))
        words = oracle_event(system, x, m, horizon)
        assert ball_rows(system, x, m, horizon).tolist() == sorted(map(list, words)), (m, horizon)
        for n in range(1, rho + 1):
            ratio = oracle_ratio(system, mu, x, m, n, horizon, words)
            assert density_curve(system, mu, x, m, [n], horizon)[0][0] == ratio, (m, n, horizon)


def seeded_one_sided_ca3():
    rng = substream(2024, 0)
    table = {nb: int(rng.integers(3)) for nb in itertools.product(range(3), repeat=2)}
    return CARule(A3, "one", 1, table)


class TestScalarOracle:
    @pytest.mark.parametrize("number", range(256))
    def test_every_eca(self, number):
        assert_engine_matches_oracle(eca_rule(number), MARKOV, (0, 1), seed=number)

    @pytest.mark.parametrize(
        "system,mu",
        [
            (Shift(A2), BernoulliMeasure([0.3, 0.7])),
            (Odometer((2, 3)), ProductMeasure((2, 3))),
            (identity_rule(A2, "two", 1), MARKOV),
            (seeded_one_sided_ca3(), BernoulliMeasure([0.2, 0.3, 0.5])),
        ],
        ids=["shift", "odometer", "identity", "ca3"],
    )
    def test_other_systems(self, system, mu):
        assert_engine_matches_oracle(system, mu, (0, 1, 2), seed=7)

    def test_memory_follows_surviving_rows(self):
        """2^23 nominal words under the default cap, one survivor, well under 1 MB."""
        x = ones_sided((0,) * 23)
        tracemalloc.start()
        try:
            rows = ball_rows(Shift(A2), x, 0, 22)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows.tolist() == [[0] * 23]
        assert peak < 1 << 20


# -- exact cells in blocks ---------------------------------------------------------
#
# The exact report runs one frontier for a block of cells that serves every n,
# at most cap // (nominal W_rho words) cells to a block; every curve must read
# what the brute-force oracle reads for its own point.

def nominal_words(system, m, horizon):
    return count_words(cell_sizes(system, window_cells(system_sided(system), dependence_radius(system, m, horizon))))


def assert_report_matches_oracle(monkeypatch, system, mu, m, ns, horizon, points, seed, cap):
    blocks = []  # the cell count of every frontier
    trace_frontier = equidyn.orbit._trace_frontier
    monkeypatch.setattr(equidyn.orbit, "_trace_frontier", lambda *a: blocks.append(len(a[3])) or trace_frontier(*a))
    report = mu_equicontinuity_report(system, mu, m, ns, horizon, points=points, seed=seed, cap=cap)
    per_block, rho = cap // nominal_words(system, m, horizon), dependence_radius(system, m, horizon)
    # one frontier per block serves every n; with every n >= rho none runs: each ratio is 1
    assert blocks == ([min(per_block, points - lo) for lo in range(0, points, per_block)] if min(ns) < rho else [])
    radius = max(max(ns), rho)
    for i, curve in enumerate(report.curves):
        x = mu.sample_config(system_sided(system), radius, substream(seed, 0, i))
        assert curve.exact and curve.point == word_to_str(x.symbols, x.alphabet)
        words = oracle_event(system, x, m, horizon)
        assert curve.ratios == tuple(oracle_ratio(system, mu, x, m, n, horizon, words) for n in ns), i


REPORT_ECAS = (0, 15, 30, 45, 60, 90, 105, 110, 150, 184, 204, 232)
REPORT_CASES = [(eca_rule(number), MARKOV) for number in REPORT_ECAS] + [
    (Shift(A2), BernoulliMeasure([0.3, 0.7])),
    (Odometer((2, 3)), ProductMeasure((2, 3))),
    (identity_rule(A2, "two", 1), MARKOV),
    (seeded_one_sided_ca3(), BernoulliMeasure([0.2, 0.3, 0.5])),
]


@pytest.mark.parametrize("system,mu", REPORT_CASES,
                         ids=[f"eca{number}" for number in REPORT_ECAS] + ["shift", "odometer", "identity", "ca3"])
@pytest.mark.parametrize("cells_per_block", [None, 2])  # the default cap, or two cells to a block
def test_exact_report_matches_the_oracle(monkeypatch, system, mu, cells_per_block):
    m, horizon = 2, 2  # n = 1 < m, n = m, m < n < rho, n >= rho
    cap = DEFAULT_ENUMERATION_CAP if cells_per_block is None else cells_per_block * nominal_words(system, m, horizon)
    ns = sorted({1, 2, 3, dependence_radius(system, m, horizon) + 1})
    assert_report_matches_oracle(monkeypatch, system, mu, m, ns, horizon, points=5, seed=17, cap=cap)


def test_exact_report_memory_follows_the_block():
    """Under a cap of two cells' words, 4x the points leave the peak within 1.5x."""
    system, m, horizon = identity_rule(A2, "two", 1), 1, 6  # every extension survives: 2^12 rows a cell
    cap = 2 * nominal_words(system, m, horizon)

    def peak(points):
        run = lambda: mu_equicontinuity_report(system, MARKOV, m, [1], horizon, points=points, seed=4, cap=cap)
        run()  # warm caches
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(24) <= 1.5 * peak(6)


def count_frontiers(monkeypatch):
    """The radius k each `_trace_frontier` call starts its rows from, in call order."""
    starts, trace_frontier = [], equidyn.orbit._trace_frontier
    monkeypatch.setattr(equidyn.orbit, "_trace_frontier", lambda *a: starts.append(a[2]) or trace_frontier(*a))
    return starts


CURVE_ECAS = (30, 90, 110, 184)
CURVE_CASES = [(eca_rule(number), MARKOV) for number in CURVE_ECAS] + [
    (Shift(A2), BernoulliMeasure([0.3, 0.7])),
    (identity_rule(A2, "two", 1), MARKOV),
    (seeded_one_sided_ca3(), BernoulliMeasure([0.2, 0.3, 0.5])),
]


@pytest.mark.parametrize("system,mu", CURVE_CASES,
                         ids=[f"eca{number}" for number in CURVE_ECAS] + ["shift", "identity", "ca3"])
@pytest.mark.parametrize("ns", [[3, 1, 2], [2, 3, 2, 1], [3, 2], [5, 2, 4, 1, 6], [4, 6]],
                         ids=["unsorted", "repeated", "all-above-m", "both-sides-of-rho", "all-at-or-above-rho"])
def test_density_curve_runs_one_frontier_for_every_n(monkeypatch, system, mu, ns):
    m, horizon = 1, 3  # rho = 4 on every case
    rho = dependence_radius(system, m, horizon)
    x = mu.sample_config(system_sided(system), max(max(ns), rho), substream(29, len(ns)))
    words = oracle_event(system, x, m, horizon)
    starts = count_frontiers(monkeypatch)
    ratios, _ = density_curve(system, mu, x, m, ns, horizon)
    assert ratios == [oracle_ratio(system, mu, x, m, n, horizon, words) for n in ns]
    # the one frontier starts from W_max(m, the least n below rho)
    below = [n for n in ns if n < rho]
    assert starts == ([max(m, min(below))] if below else [])


def test_a_report_runs_one_frontier_for_every_n(monkeypatch):
    """ECA 184 at m 2, T 6 has rho = 8: six n below it and twenty points in
    one block make one frontier, not one per n."""
    starts = count_frontiers(monkeypatch)
    report = mu_equicontinuity_report(eca_rule(184), MARKOV, 2, range(1, 7), 6, points=20, seed=3)
    assert starts == [2] and all(curve.exact for curve in report.curves)


# -- sampled cells in blocks ---------------------------------------------------------
#
# The sampled report packs, steps and checks a block of cells at one n
# together; every cell must read exactly what its own one-point estimate reads.

def assert_report_matches_cells(system, mu, m, ns, horizon, points, n_samples, seed):
    report = mu_equicontinuity_report(system, mu, m, ns, horizon, points=points,
                                      n_samples=n_samples, seed=seed, cap=1)
    radius = max(max(ns), dependence_radius(system, m, horizon))
    for i, curve in enumerate(report.curves):
        x = mu.sample_config(system_sided(system), radius, substream(seed, 0, i))
        assert not curve.exact and curve.point == word_to_str(x.symbols, x.alphabet)
        for j, n in enumerate(ns):
            est = density_curve(system, mu, x, m, [n], horizon, exact=False, n_samples=n_samples,
                                seeds=[derive_seed(seed, 1, i, j)])[1][0]
            assert (curve.ratios[j], curve.stderrs[j]) == (est.p_hat, est.stderr), (i, n)


BLOCK_CASES = [
    (eca_rule(110), MARKOV),
    (eca_rule(30), BernoulliMeasure([0.3, 0.7])),
    (seeded_one_sided_ca3(), BernoulliMeasure([0.2, 0.3, 0.5])),
    (Shift(A2), MARKOV),
    (Odometer((2, 3)), ProductMeasure((2, 3))),
]


@pytest.mark.parametrize("system,mu", BLOCK_CASES, ids=["eca110-markov", "eca30-bernoulli", "ca3", "shift", "odometer"])
@pytest.mark.parametrize("n_samples", (1, 63, 64, 65))  # padding words, or none
def test_blocks_read_what_each_cell_reads(monkeypatch, system, mu, n_samples):
    # three cells to a block: five points make one full block and one partial
    monkeypatch.setattr(equidyn.orbit, "_BLOCK_ROWS", 3 * n_samples + n_samples // 2)
    assert_report_matches_cells(system, mu, 1, [1, 2, 4], 2, points=5, n_samples=n_samples, seed=n_samples)


def test_blocks_at_the_real_block_size():
    n_samples = equidyn.orbit._BLOCK_ROWS // 2 - 1  # two cells to a block
    assert_report_matches_cells(eca_rule(110), MARKOV, 1, [1, 3], 2, points=3, n_samples=n_samples, seed=5)


def test_sampled_report_memory_follows_the_block():
    n_samples = equidyn.orbit._BLOCK_ROWS // 4  # four cells to a block
    system, m, horizon, ns = eca_rule(110), 1, 2, [1]

    def peak(points):
        run = lambda: mu_equicontinuity_report(system, MARKOV, m, ns, horizon, points=points,
                                               n_samples=n_samples, seed=2, cap=1)
        run()  # warm caches
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    cells = window_size("two", max(max(ns), dependence_radius(system, m, horizon)))
    planes = 2 * cells * 4 * (n_samples // 64) * 8
    uniforms = 4 * n_samples * 8
    assert peak(64) <= peak(8) + planes + uniforms
    # a block's planes are freed before the next block draws: two blocks peak as one does
    assert peak(8) <= peak(4) + planes // 2


def test_sampled_curve_memory_follows_one_n():
    """Each n's block is freed before the next n draws: six n peak as one n does."""
    system, x = eca_rule(30), MARKOV.sample_config("two", 11, substream(3, 0))

    def peak(ns):
        run = lambda: density_curve(system, MARKOV, x, 3, ns, 8, exact=False, n_samples=1 << 16,
                                    seeds=list(range(len(ns))))
        run()  # warm caches
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak([1, 2, 3, 4, 5, 6]) <= 1.1 * peak([6])


# -- the exact centre factor at n <= m --------------------------------------------------
#
# E = B_{m,T}(x) fixes x's W_m word, so E lies in B_m(x) and, for n <= m,
# mu(E | B_n) = mu(B_m) / mu(B_n) * mu(E | B_m). A sampled curve draws once at m,
# from the seed of the largest n <= m in the grid, and scales that estimate.

HAAR23 = ProductMeasure((2, 3))
FACTOR_CASES = {
    "eca110-bernoulli": (eca_rule(110), HALF),
    "eca110-markov": (eca_rule(110), MARKOV),
    "eca184-bernoulli": (eca_rule(184), HALF),
    "eca184-markov": (eca_rule(184), MARKOV),
    "odometer-haar": (Odometer((2, 3)), HAAR23),
    "odometer-bernoulli": (Odometer((2,)), HALF),
    "odometer-markov": (Odometer((2,)), MARKOV),
}


def count_draws(monkeypatch, mu):
    """The `pieces` calls on mu from here on, one list of generators each."""
    calls, pieces = [], mu.pieces
    monkeypatch.setattr(mu, "pieces", lambda *a: calls.append(a[3]) or pieces(*a))
    return calls


@pytest.mark.parametrize("case", FACTOR_CASES)
@pytest.mark.parametrize("m, ns", [(2, [1, 2, 3]), (2, [1, 3]), (3, [1, 2, 3, 4]), (3, [1, 2, 5]), (3, [1, 2])],
                         ids=["m2-in", "m2-out", "m3-in", "m3-out", "m3-out-none-above"])
def test_n_below_m_is_the_draw_at_m_times_the_mass_ratio(monkeypatch, case, m, ns):
    system, mu = FACTOR_CASES[case]
    horizon, n_samples = 2, 500
    x = mu.sample_config(system_sided(system), max(max(ns), dependence_radius(system, m, horizon)),
                         substream(31, m, len(ns)))
    seeds = [derive_seed(17, m, j) for j in range(len(ns))]
    one_n = lambda n, s: density_curve(system, mu, x, m, [n], horizon, exact=False, n_samples=n_samples,
                                       seeds=[s])[1][0]
    draws = count_draws(monkeypatch, mu)
    ests = density_curve(system, mu, x, m, ns, horizon, exact=False, n_samples=n_samples, seeds=seeds)[1]
    above = [n for n in ns if n > m]
    assert len(draws) == len(above) + 1 and all(len(rngs) == 1 for rngs in draws)  # one draw per n > m, one at m
    at = max(j for j, n in enumerate(ns) if n <= m)  # the largest n <= m lends its seed to the draw at m
    at_m = one_n(m, seeds[at])
    for j, (n, est) in enumerate(zip(ns, ests)):
        if n >= m:
            assert est == one_n(n, seeds[j]), n
        else:
            f = ball_mass(mu, x, m) / ball_mass(mu, x, n)
            assert (est.p_hat, est.stderr) == (at_m.p_hat * f, at_m.stderr * f), n  # bit for bit
            assert (est.seed, est.n, est.n_samples) == (seeds[at], n, n_samples)


@pytest.mark.parametrize("case", ["eca110-markov", "eca184-bernoulli", "odometer-haar"])
def test_report_cells_are_their_points_curves(monkeypatch, case):
    """A sampled report's point i is its own `density_curve` on the whole grid, read
    from derive_seed(seed, 1, i, j) at ns[j]; its draws are one per n > m and one at m,
    three cells to a block."""
    system, mu = FACTOR_CASES[case]
    m, ns, horizon, points, n_samples, seed = 2, [1, 3], 2, 5, 64, 8
    monkeypatch.setattr(equidyn.orbit, "_BLOCK_ROWS", 3 * n_samples)
    draws = count_draws(monkeypatch, mu)
    report = mu_equicontinuity_report(system, mu, m, ns, horizon, points=points, n_samples=n_samples, seed=seed,
                                      cap=1)
    assert [len(rngs) for rngs in draws] == [points] + [3, 2] * 2  # base points, then at m and at n 3
    monkeypatch.undo()
    radius = max(max(ns), dependence_radius(system, m, horizon))
    for i, curve in enumerate(report.curves):
        x = mu.sample_config(system_sided(system), radius, substream(seed, 0, i))
        ests = density_curve(system, mu, x, m, ns, horizon, exact=False, n_samples=n_samples,
                             seeds=[derive_seed(seed, 1, i, j) for j in range(len(ns))])[1]
        assert (curve.ratios, curve.stderrs) == (tuple(e.p_hat for e in ests), tuple(e.stderr for e in ests)), i


C1_MARKOV = MarkovMeasure([[0.9, 0.1], [0.2, 0.8]])


@pytest.mark.parametrize("rule", [204, 170, 90, 184])
@pytest.mark.parametrize("mu", [HALF, C1_MARKOV], ids=["bernoulli", "markov"])
def test_factored_estimates_are_within_4_sigma_of_the_exact_ratio(rule, mu):
    """m 2, n 1-2, T 1-3: the estimate at n 1 is the draw at m scaled by the mass
    ratio f, whose standard deviation is f sqrt(q (1 - q) / N), q the exact ratio at m."""
    system, m, ns, n_samples = eca_rule(rule), 2, [1, 2], 10_000
    for horizon in (1, 2, 3):
        x = mu.sample_config("two", dependence_radius(system, m, horizon), substream(41, rule, horizon))
        seeds = [derive_seed(43, rule, horizon, j) for j in range(len(ns))]
        exact, ests = density_curve(system, mu, x, m, ns, horizon, True, n_samples, seeds)
        q = exact[1]
        for n, ratio, est in zip(ns, exact, ests):
            f = ball_mass(mu, x, m) / ball_mass(mu, x, n)
            assert ratio == pytest.approx(f * q, rel=1e-12), (rule, horizon, n)  # the identity, on the exact route
            sigma = f * math.sqrt(q * (1.0 - q) / n_samples)
            assert abs(est.p_hat - ratio) <= 4 * sigma + 1e-12, (rule, horizon, n, est, ratio)


def test_a_null_ball_at_m_reads_zero_with_no_draw(monkeypatch):
    """x's W_1 word is charged, its W_2 word holds symbol 1, which mu never draws:
    E lies in a null ball, so n 1 reads 0, as a draw at n 1 would (no drawn row
    matches x's W_2 word), with no draw and no NullCylinder."""
    mu = BernoulliMeasure([0.5, 0.0, 0.5])
    for system, x in [(identity_rule(A3, "two", 1), Configuration(A3, "two", (0, 2, 0, 1, 2, 0, 2, 0, 2, 0, 0))),
                      (seeded_one_sided_ca3(), Configuration(A3, "one", (0, 2, 1, 0, 2, 0, 0, 2)))]:
        draws = count_draws(monkeypatch, mu)
        (exact,), (est,) = density_curve(system, mu, x, 2, [1], 3, True, 200, [5])
        assert (exact, est.p_hat, est.stderr, draws) == (0.0, 0.0, 0.0, [])
        with pytest.raises(NullBall, match="radius 1/2 has measure zero"):
            density_curve(system, mu, x, 2, [1, 2], 3, True, 200, [5, 6])
        monkeypatch.undo()


# -- base points as one block ---------------------------------------------------------
#
# A report draws, traces and weighs all of its base points as one int-row block;
# that block must hold, bit for bit, what the per-point preparation it replaced
# (`oracles.oracle_base_points`) makes.

MARKOV3 = MarkovMeasure([[0.1, 0.6, 0.3], [0.5, 0.2, 0.3], [0.3, 0.3, 0.4]])
BASE_POINT_CASES = {
    "bernoulli": (eca_rule(110), BernoulliMeasure([0.5, 0.5]), [1, 2, 3]),
    "markov-two": (eca_rule(110), MARKOV, [1, 2, 3]),
    "markov-one": (Shift(A2), MARKOV, [1, 3]),
    "markov3-one": (seeded_one_sided_ca3(), MARKOV3, [1, 2, 4]),
    "markov3-two": (identity_rule(A3, "two", 1), MARKOV3, [2, 1]),
    "haar-odometer": (Odometer((2, 3)), ProductMeasure((2, 3)), [1, 2, 3]),
    "ball-of-81-cells": (eca_rule(30), MARKOV, [1, 40]),
    "ball-of-71-cells": (Shift(A2), BernoulliMeasure([0.3, 0.7]), [70, 2]),
}


@pytest.mark.parametrize("case", BASE_POINT_CASES)
@pytest.mark.parametrize("cap", [DEFAULT_ENUMERATION_CAP, 1], ids=["exact", "sampled"])
def test_base_points_are_one_block_that_matches_the_oracle(monkeypatch, case, cap):
    system, mu, ns = BASE_POINT_CASES[case]
    m, horizon, points, seed = 2, 3, 7, 23
    blocks = []
    base_block = equidyn.orbit._base_block
    monkeypatch.setattr(equidyn.orbit, "_base_block", lambda *a: blocks.append(base_block(*a)) or blocks[-1])
    report = mu_equicontinuity_report(system, mu, m, ns, horizon, points=points, n_samples=5, seed=seed, cap=cap)
    labels, traces, words, masses = oracle_base_points(system, mu, m, sorted(ns), horizon, points, seed)
    (got_traces, got_words, got_masses), = blocks  # one block for the whole report
    assert report.curves[0].exact == (cap > 1)
    assert [c.point for c in report.curves] == labels
    assert got_traces.tolist() == traces
    assert [[w[i].tolist() for w in got_words] for i in range(points)] == words
    assert [list(row) for row in zip(*got_masses)] == masses  # bit for bit
