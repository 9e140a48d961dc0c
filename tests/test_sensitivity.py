"""Pairwise sensitivity estimates and the dichotomy verdict."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from equidyn import (
    Alphabet,
    BernoulliMeasure,
    Configuration,
    LebesgueMeasure,
    MarkovMeasure,
    Odometer,
    ProductMeasure,
    Rotation,
    Shift,
    dichotomy_report,
    eca_rule,
    identity_rule,
    mu_sensitivity_curve,
    separation_window,
    window_size,
)
from equidyn.cli import _plain
from equidyn.orbit import _BLOCK_ROWS
from equidyn.rng import substream
from oracles import agreement_level, cantor_distance

A2 = Alphabet(2)
HALF = BernoulliMeasure([0.5, 0.5])


@pytest.mark.parametrize("eps,window", [
    (2, 0),
    (Fraction(7, 4), 0),
    (Fraction(3, 2), 1),
    (Fraction(5, 4), 1),
    (1, 2),
    (Fraction(1, 2), 3),
    (Fraction(1, 3), 4),
    (0.25, 5),
])
def test_separation_window_values(eps, window):
    assert separation_window(eps) == window


@pytest.mark.parametrize("sided, radius", [("one", 4), ("two", 2)])
def test_separation_window_against_the_metric(sided, radius):
    """Over every pair of words on W_radius: agreement on W_w, w =
    separation_window(eps), puts the pair closer than eps, and agreement on
    W_{w-1} alone (no agreement at all for w = 0) does not."""
    words = [Configuration(A2, sided, w) for w in itertools.product(range(2), repeat=window_size(sided, radius))]
    pairs = [(agreement_level(x, y), cantor_distance(x, y)) for x in words for y in words]
    for eps in (2, Fraction(7, 4), Fraction(3, 2), Fraction(5, 4), 1, Fraction(3, 4), Fraction(1, 2), Fraction(2, 5),
                Fraction(1, 3), Fraction(1, 4)):
        w = separation_window(eps)
        if w > radius:
            continue
        assert all(d < eps for level, d in pairs if level >= w)
        assert any(d >= eps for level, d in pairs if level >= w - 1)


def test_separation_window_domain():
    with pytest.raises(ValueError):
        separation_window(0)
    with pytest.raises(ValueError):
        separation_window(3)


class TestEstimate:
    def test_shift_closed_form(self):
        """P(separated at eps=2 by T) = 1 - 2^{-T} for fair-coin pairs."""
        est = mu_sensitivity_curve(Shift(A2), HALF, [2], 10, n_samples=20_000, seed=3)[0]
        target = 1 - 2.0 ** -10
        assert abs(est.p_hat - target) <= 3 * max(est.stderr, 1e-4)

    def test_identity_half(self):
        """Identity pairs separate at eps=2 iff origin symbols differ."""
        est = mu_sensitivity_curve(
            identity_rule(A2), HALF, [2], 6, n_samples=20_000, seed=4
        )[0]
        sigma = math.sqrt(0.25 / 20_000)
        assert abs(est.p_hat - 0.5) <= 4 * sigma

    def test_point_mass_never_separates(self):
        mu = BernoulliMeasure([1.0, 0.0])
        est = mu_sensitivity_curve(Shift(A2), mu, [2], 8, n_samples=500, seed=1)[0]
        assert est.p_hat == 0.0

    def test_monotone_in_horizon(self):
        seeds_fixed = [
            mu_sensitivity_curve(Shift(A2), HALF, [2], T, n_samples=2000, seed=12)[0].p_hat
            for T in (1, 3, 6, 12)
        ]
        assert seeds_fixed == sorted(seeds_fixed)

    def test_antitone_in_eps(self):
        rule = eca_rule(90)
        big = mu_sensitivity_curve(rule, HALF, [2], 6, n_samples=3000, seed=5)[0].p_hat
        small = mu_sensitivity_curve(
            rule, HALF, [Fraction(1, 2)], 6, n_samples=3000, seed=5
        )[0].p_hat
        assert big <= small

    def test_determinism(self):
        a = mu_sensitivity_curve(Shift(A2), HALF, [2], 5, n_samples=1000, seed=9)[0]
        b = mu_sensitivity_curve(Shift(A2), HALF, [2], 5, n_samples=1000, seed=9)[0]
        assert a == b

    def test_rotation_uniform_pairs(self):
        """d(x, y) is uniform on [0, 1/2]; P(d >= 1/4) = 1/2."""
        est = mu_sensitivity_curve(
            Rotation(Fraction(1, 6)), LebesgueMeasure(), [Fraction(1, 4)], 3,
            n_samples=20_000, seed=7,
        )[0]
        sigma = math.sqrt(0.25 / 20_000)
        assert abs(est.p_hat - 0.5) <= 4 * sigma

    def test_odometer_never_separates_at_two(self):
        od = Odometer((2, 2))
        est = mu_sensitivity_curve(
            od, ProductMeasure((2, 2)), [2], 6, n_samples=2000, seed=2
        )[0]
        # the odometer is an isometry: distances never grow, and pairs
        # differing at the origin already sit at distance 2 at time 0;
        # they stay there, so separation at positive time still occurs
        assert est.p_hat == pytest.approx(0.5, abs=0.05)


class TestCurve:
    """One draw of pairs serves the whole eps grid."""

    GRID = [2, 1, 0.5, Fraction(1, 3), 0.125]  # falling eps, widening witness windows
    MARKOV = MarkovMeasure([[0.7, 0.3], [0.4, 0.6]])

    @pytest.mark.parametrize("rule", [110, 184])
    def test_p_hat_is_nondecreasing_as_eps_falls(self, rule):
        for seed in range(20):
            curve = mu_sensitivity_curve(eca_rule(rule), self.MARKOV, self.GRID, 3, n_samples=400, seed=seed)
            assert [e.eps for e in curve] == [float(eps) for eps in self.GRID]
            p_hats = [e.p_hat for e in curve]
            assert p_hats == sorted(p_hats)

    @pytest.mark.parametrize("rule", [110, 184])
    def test_one_eps_curve_is_the_grid_entry_at_the_same_radius(self, rule):
        # the smallest eps sets the draw's radius; a grid with it draws the same pairs
        widest = self.GRID[-1]
        for seed in range(20):
            grid = mu_sensitivity_curve(eca_rule(rule), self.MARKOV, self.GRID, 3, n_samples=400, seed=seed)
            assert mu_sensitivity_curve(eca_rule(rule), self.MARKOV, [widest], 3, n_samples=400, seed=seed) == grid[-1:]
            for eps, entry in zip(self.GRID, grid):
                pair = mu_sensitivity_curve(eca_rule(rule), self.MARKOV, [eps, widest], 3, n_samples=400, seed=seed)
                assert pair[0] == entry

    def test_rotation_entries_are_shares_of_one_draw(self):
        n = _BLOCK_ROWS + 5  # two blocks, each continuing both generators
        grid = [Fraction(1, 2), 0.4, Fraction(1, 4), 0.1, 0.01]
        for seed in range(20):
            gap = np.abs(substream(seed, 0).random(n) - substream(seed, 1).random(n))
            dist = np.minimum(gap, 1.0 - gap)
            curve = mu_sensitivity_curve(Rotation(Fraction(1, 6)), LebesgueMeasure(), grid, 3, n_samples=n, seed=seed)
            assert [e.p_hat for e in curve] == [float((dist >= float(eps)).mean()) for eps in grid]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="eps"):
            mu_sensitivity_curve(Shift(A2), HALF, [], 4, n_samples=10)


EQUI = {"m": 1, "n_list": [1, 2, 3], "horizon": 3, "points": 12, "n_samples": 400}


class TestDichotomy:
    def test_shift_is_mu_sensitive(self):
        rep = dichotomy_report(
            Shift(A2), HALF, eps_list=[2, 1], horizon=12,
            equi_params=EQUI, n_samples=4000, seed=9,
        )
        assert rep.verdict == "mu-sensitive"
        assert rep.equicontinuity.fraction <= 0.05
        assert max(e.p_hat for e in rep.sensitivity) >= 0.95

    def test_identity_is_mu_equicontinuous(self):
        rep = dichotomy_report(
            identity_rule(A2), HALF, eps_list=[2, 1], horizon=12,
            equi_params={"m": 1, "n_list": [1, 2], "horizon": 3, "points": 12,
                         "n_samples": 400},
            n_samples=4000, seed=9,
        )
        assert rep.verdict == "mu-equicontinuous"
        assert rep.equicontinuity.fraction == 1.0

    def test_odometer_is_mu_equicontinuous(self):
        rep = dichotomy_report(
            Odometer((2, 2)), ProductMeasure((2, 2)), eps_list=[2], horizon=8,
            equi_params={"m": 2, "n_list": [2, 3], "horizon": 6, "points": 8,
                         "n_samples": 200},
            n_samples=2000, seed=4,
        )
        assert rep.verdict == "mu-equicontinuous"

    def test_verdicts_never_co_fire(self):
        """The two branch conditions are mutually exclusive by construction."""
        cases = [
            (Shift(A2), HALF, EQUI),
            (identity_rule(A2), HALF, {"m": 1, "n_list": [1, 2], "horizon": 3,
                                       "points": 8, "n_samples": 200}),
            (eca_rule(90), HALF, {"m": 1, "n_list": [1, 2], "horizon": 2,
                                  "points": 8, "n_samples": 200}),
        ]
        for system, mu, equi in cases:
            rep = dichotomy_report(
                system, mu, eps_list=[2, 1], horizon=8,
                equi_params=equi, n_samples=1500, seed=3,
            )
            fires = max(e.p_hat for e in rep.sensitivity) >= 1 - rep.delta_s
            equi_holds = rep.equicontinuity.fraction >= 1 - rep.delta_e
            assert not (
                rep.verdict == "mu-sensitive" and rep.verdict == "mu-equicontinuous"
            )
            if fires and not equi_holds:
                assert rep.verdict == "mu-sensitive"
            if equi_holds and not fires:
                assert rep.verdict == "mu-equicontinuous"

    def test_report_dict_shape(self):
        rep = dichotomy_report(
            Shift(A2), HALF, eps_list=[2], horizon=4,
            equi_params=EQUI, n_samples=500, seed=1,
        )
        d = _plain(rep)
        assert d["T"] == 4
        assert d["verdict"] in ("mu-sensitive", "mu-equicontinuous",
                                "inconclusive at scale")
        assert d["sensitivity"][0]["T"] == 4
        assert "fraction" in d["equicontinuity"]

    def test_missing_equi_keys_rejected(self):
        with pytest.raises((KeyError, TypeError)):
            dichotomy_report(
                Shift(A2), HALF, eps_list=[2], horizon=4,
                equi_params={"n_list": [1]}, n_samples=100, seed=0,
            )
