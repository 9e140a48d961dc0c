"""Cylinder measures: probabilities, consistency, sampling, Vitali covers."""

import itertools
import math

import numpy as np
import pytest

from equidyn import (
    Alphabet,
    AlphabetMismatch,
    BallFamily,
    BernoulliMeasure,
    Configuration,
    Cylinder,
    MarkovMeasure,
    NullBall,
    NullCylinder,
    ProductMeasure,
    Shift,
    ball_cylinder,
    density_curve,
    identity_rule,
    maximal_cylinders,
    measure_from_dict,
    measure_to_dict,
    union_probability,
    vitali_cover,
    window_size,
)
from equidyn.core import subword
from equidyn.measures import _kernel_column, uncovered_mass
from equidyn.rng import substream
from equidyn.systems import Odometer, check_cells
from oracles import (
    ball_rows,
    compare_cylinders,
    conditional_rows,
    cumulative,
    cylinder_mass,
    family,
    oracle_ball_masses,
    oracle_cylinder_probability,
    oracle_maximal_cylinders,
    oracle_sample_batch,
    oracle_uncovered_mass,
    oracle_vitali_cover,
)

A2 = Alphabet(2)

P_LOPSIDED = [[0.9, 0.1], [0.2, 0.8]]


def cyl(word, sided="one", alphabet=A2):
    radius = len(word) - 1 if sided == "one" else (len(word) - 1) // 2
    return Cylinder(alphabet, sided, radius, word)


def ball_cylinders(fam):
    return [Cylinder(fam.alphabet, fam.sided, n, word) for word, n in fam.balls]


class TestBernoulli:
    def test_cylinder_probability(self):
        mu = BernoulliMeasure([0.5, 0.5])
        assert cylinder_mass(mu, cyl((0, 1, 0))) == pytest.approx(0.125, abs=1e-15)

    def test_biased(self):
        mu = BernoulliMeasure([0.25, 0.75])
        assert cylinder_mass(mu, cyl((1, 1, 0))) == pytest.approx(
            0.75 * 0.75 * 0.25, abs=1e-15
        )

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            BernoulliMeasure([0.5, 0.4])

    def test_long_word_stays_finite(self):
        mu = BernoulliMeasure([0.5, 0.5])
        c = cyl((0,) * 200)
        assert cylinder_mass(mu, c) == pytest.approx(2.0 ** -200, rel=1e-12)


class TestMarkov:
    def test_stationary_vector(self):
        mu = MarkovMeasure(P_LOPSIDED)
        assert mu.stationary[0] == pytest.approx(2 / 3, abs=1e-12)
        assert mu.stationary[1] == pytest.approx(1 / 3, abs=1e-12)

    def test_cylinder_chain_law(self):
        mu = MarkovMeasure(P_LOPSIDED)
        # pi_0 * P[0,0]
        assert cylinder_mass(mu, cyl((0, 0))) == pytest.approx(0.6, abs=1e-12)
        # pi_0 * P[0,1] * P[1,1]
        assert cylinder_mass(mu, cyl((0, 1, 1))) == pytest.approx(
            (2 / 3) * 0.1 * 0.8, abs=1e-12
        )

    def test_rows_must_be_stochastic(self):
        with pytest.raises(ValueError):
            MarkovMeasure([[0.9, 0.2], [0.2, 0.8]])

    def test_two_sided_uses_reversed_chain(self):
        """mu of a two-sided cylinder equals the sum over its one-sided
        decompositions: stationarity makes the window position irrelevant."""
        mu = MarkovMeasure(P_LOPSIDED)
        w = (1, 0, 0)
        two = cylinder_mass(mu, cyl(w, sided="two"))
        one = cylinder_mass(mu, cyl(w, sided="one"))
        assert two == pytest.approx(one, abs=1e-12)


class TestProduct:
    def test_last_size_repeats(self):
        mu = ProductMeasure((2, 3))
        assert mu.cell_size(0) == 2
        assert mu.cell_size(1) == 3
        assert mu.cell_size(7) == 3

    def test_cylinder_probability(self):
        mu = ProductMeasure((2, 3))
        c = Cylinder(mu.alphabet, "one", 2, (1, 2, 0))
        assert cylinder_mass(mu, c) == pytest.approx(1 / 18, abs=1e-15)

    def test_invalid_digit_gets_zero_mass(self):
        mu = ProductMeasure((2, 3))
        c = Cylinder(mu.alphabet, "one", 1, (2, 1))  # 2 is not a valid first digit
        assert cylinder_mass(mu, c) == 0.0

    def test_rejects_two_sided(self):
        mu = ProductMeasure((2, 3))
        with pytest.raises(AlphabetMismatch):
            cylinder_mass(mu, Cylinder(mu.alphabet, "two", 1, (0, 0, 0)))


@pytest.mark.parametrize("make_mu", [
    lambda: BernoulliMeasure([0.3, 0.7]),
    lambda: MarkovMeasure(P_LOPSIDED),
])
@pytest.mark.parametrize("sided", ["one", "two"])
def test_kolmogorov_consistency(make_mu, sided):
    """mu(C) equals the sum of mu over all one-radius extensions of C."""
    mu = make_mu()
    for word in itertools.product(range(2), repeat=window_size(sided, 1)):
        c = cyl(tuple(word), sided=sided)
        if sided == "one":
            exts = [tuple(word) + (s,) for s in range(2)]
        else:
            exts = [(a,) + tuple(word) + (b,) for a in range(2) for b in range(2)]
        total = sum(cylinder_mass(mu, cyl(e, sided=sided)) for e in exts)
        assert total == pytest.approx(cylinder_mass(mu, c), abs=1e-10)


@pytest.mark.parametrize("make_mu,sizes", [
    (lambda: BernoulliMeasure([0.5, 0.5]), [2, 2, 2]),
    (lambda: MarkovMeasure(P_LOPSIDED), [2, 2, 2]),
    (lambda: ProductMeasure((2, 3)), [2, 3, 3]),
])
def test_partition_sums_to_one(make_mu, sizes):
    mu = make_mu()
    total = sum(
        cylinder_mass(mu, Cylinder(mu.alphabet, "one", 2, w))
        for w in itertools.product(*[range(s) for s in sizes])
    )
    assert total == pytest.approx(1.0, abs=1e-10)


class TestSampling:
    def test_sample_config_radius(self):
        mu = BernoulliMeasure([0.5, 0.5])
        x = mu.sample_config("two", 3, substream(1, 0))
        assert isinstance(x, Configuration) and x.radius == 3

    def test_fixed_seed_frequency(self):
        """Empirical symbol frequency within 3 sigma of the weight."""
        mu = BernoulliMeasure([0.25, 0.75])
        batch = mu.sample_batch("one", 0, 20_000, substream(7, 0))
        freq = float((batch == 1).mean())
        sigma = math.sqrt(0.75 * 0.25 / 20_000)
        assert abs(freq - 0.75) <= 3 * sigma

    def test_markov_pair_frequency(self):
        mu = MarkovMeasure(P_LOPSIDED)
        batch = mu.sample_batch("one", 1, 20_000, substream(7, 1))
        p00 = float(((batch[:, 0] == 0) & (batch[:, 1] == 0)).mean())
        sigma = math.sqrt(0.6 * 0.4 / 20_000)
        assert abs(p00 - 0.6) <= 4 * sigma

    def test_conditional_sample_pins_window(self):
        mu = MarkovMeasure(P_LOPSIDED)
        c = cyl((0, 1), sided="one")
        for i in range(20):
            x = Configuration(mu.alphabet, "one", conditional_rows(mu, c, 4, 1, substream(3, i))[0])
            assert x.radius == 4 and x.window(1) == (0, 1)

    def test_conditional_matches_chain_law(self):
        """Conditional next-symbol frequency tracks P[1, .] after seeing ..1."""
        mu = MarkovMeasure(P_LOPSIDED)
        c = cyl((0, 1), sided="one")
        batch = conditional_rows(mu, c, 2, 20_000, substream(9, 0))
        assert set(np.unique(batch[:, 0])) == {0} and set(np.unique(batch[:, 1])) == {1}
        p11 = float((batch[:, 2] == 1).mean())
        sigma = math.sqrt(0.8 * 0.2 / 20_000)
        assert abs(p11 - 0.8) <= 4 * sigma

    def test_conditioning_on_null_cylinder(self):
        mu = ProductMeasure((2, 3))
        bad = Cylinder(mu.alphabet, "one", 0, (2,))
        with pytest.raises(NullCylinder):
            conditional_rows(mu, bad, 2, 1, substream(0, 0))

    def test_determinism(self):
        mu = BernoulliMeasure([0.5, 0.5])
        a = mu.sample_batch("one", 3, 50, substream(11, 4))
        b = mu.sample_batch("one", 3, 50, substream(11, 4))
        assert np.array_equal(a, b)


class TestMaximalCylinders:
    def test_nested_collapse(self):
        parts = [cyl((0,)), cyl((0, 1)), cyl((0, 1, 1))]
        kept = maximal_cylinders(parts)
        assert kept == [cyl((0,))]

    def test_disjoint_survive(self):
        parts = [cyl((0, 0)), cyl((1,)), cyl((0, 1, 1))]
        kept = maximal_cylinders(parts)
        assert sorted(k.word for k in kept) == [(0, 0), (0, 1, 1), (1,)]

    @pytest.mark.parametrize("size", [2, 3])
    @pytest.mark.parametrize("sided", ["one", "two"])
    def test_rows_keep_the_scalar_scans_survivors(self, sided, size):
        """Random unions with repeats, nesting and no parts at all: the same
        survivors as the pairwise scan, in the same order."""
        alphabet, rng = Alphabet(size), substream(71, size, sided == "two")
        dropped = 0
        for trial in range(750):
            x = rng.integers(0, size, window_size(sided, 3))
            parts = []
            for _ in range(int(rng.integers(0, 8))):
                r = int(rng.integers(0, 4))  # half the parts are balls around x, so they repeat and nest
                word = subword(x, sided, 3, r) if rng.random() < 0.5 else rng.integers(0, size, window_size(sided, r))
                parts.append(Cylinder(alphabet, sided, r, word))
            kept = maximal_cylinders(parts)
            assert kept == oracle_maximal_cylinders(parts)
            dropped += len(kept) < len(parts)
        assert maximal_cylinders([]) == oracle_maximal_cylinders([]) == []
        assert dropped > 100

    def test_union_probability(self):
        mu = BernoulliMeasure([0.5, 0.5])
        parts = [cyl((0,)), cyl((0, 1)), cyl((1, 1, 0))]
        assert union_probability(mu, maximal_cylinders(parts)) == pytest.approx(0.5 + 0.125, abs=1e-12)


class TestDensityRatio:
    """mu(B_m(x) intersect B_n(x)) / mu(B_n(x)), read off the identity's orbit ball, which is B_m(x)."""

    def test_ball_inside_set(self):
        mu = BernoulliMeasure([0.5, 0.5])
        x = Configuration(A2, "one", (0, 1, 1, 0))
        # A = B_0(x) = [0] holds the ball B_2(x)
        ratio = density_curve(identity_rule(A2), mu, x, 0, [2], 1)[0][0]
        assert ratio == 1.0

    def test_partial_overlap(self):
        mu = BernoulliMeasure([0.5, 0.5])
        x = Configuration(A2, "one", (0, 1, 1))
        # A = B_2(x) = [01 1] has mass 1/8; B_1(x) = [01] has mass 1/4
        ratio = density_curve(identity_rule(A2), mu, x, 2, [1], 1)[0][0]
        assert ratio == pytest.approx(0.5, abs=1e-12)

    def test_null_ball(self):
        mu = ProductMeasure((2, 3))
        x = Configuration(mu.alphabet, "one", (2, 0))
        with pytest.raises(NullBall):
            density_curve(identity_rule(mu.alphabet), mu, x, 0, [1], 1)


class TestVitali:
    def test_exact_cover_small(self):
        mu = BernoulliMeasure([0.5, 0.5])
        parts = [cyl((0, 0)), cyl((0, 1, 1)), cyl((1,))]
        fam = vitali_cover(mu, parts, 2)
        leftover = union_probability(mu, parts) - sum(fam.masses(mu))
        assert leftover == 0.0
        for _, n in fam.balls:
            assert n >= 2

    def test_family_rejects_overlap(self):
        with pytest.raises(ValueError):
            family(A2, "one", (((0, 1), 1), ((0, 1, 1), 2)))

    def test_random_unions_disjoint_and_tight(self):
        """Leftover exactly zero and pairwise disjoint on random unions."""
        mu = BernoulliMeasure([0.5, 0.5])
        rng = substream(21, 0)
        for trial in range(25):
            parts = []
            for _ in range(int(rng.integers(1, 6))):
                r = int(rng.integers(0, 4))
                word = tuple(int(s) for s in rng.integers(0, 2, size=r + 1))
                parts.append(cyl(word))
            pieces = maximal_cylinders(parts)
            fam = vitali_cover(mu, pieces, min_radius=4)
            cs = ball_cylinders(fam)
            for i in range(len(cs)):
                for j in range(i + 1, len(cs)):
                    assert compare_cylinders(cs[i], cs[j]) == "disjoint"
            assert union_probability(mu, pieces) - sum(fam.masses(mu)) == 0.0


# the five-cylinder Markov union that refines to 1856 balls at min_radius 10
MARKOV_UNION = [cyl(w) for w in ((0, 0), (0, 1, 1), (1, 0, 1, 1), (1,), (0, 1, 0, 1, 0))]
MARKOV_PIECES = maximal_cylinders(MARKOV_UNION)


@pytest.fixture(scope="module")
def markov_cover():
    mu = MarkovMeasure([[0.7, 0.3], [0.4, 0.6]])
    return mu, vitali_cover(mu, MARKOV_PIECES, 10)


class TestUncoveredMass:
    def test_markov_union_leftover_is_exactly_zero(self, markov_cover):
        mu, fam = markov_cover
        assert len(MARKOV_PIECES) == 4 and len(fam.balls) == 1856
        assert union_probability(mu, MARKOV_PIECES) - sum(fam.masses(mu)) != 0.0
        assert uncovered_mass(mu, fam, fam) == 0.0

    def test_one_ball_removed_leaves_its_mass(self, markov_cover):
        mu, fam = markov_cover
        drop = 700
        rest = family(fam.alphabet, fam.sided, fam.balls[:drop] + fam.balls[drop + 1:])
        want = cylinder_mass(mu, ball_cylinders(fam)[drop])
        assert uncovered_mass(mu, fam, rest) == want

    def test_piece_that_is_a_ball(self):
        mu = BernoulliMeasure([0.25, 0.75])
        parts = [cyl((0, 1, 1)), cyl((1, 0))]
        fam = vitali_cover(mu, parts, 2)
        assert uncovered_mass(mu, fam, fam) == 0.0
        rest = family(fam.alphabet, fam.sided, tuple(b for b in fam.balls if b[0] != (0, 1, 1)))
        assert len(rest.balls) == 2
        assert uncovered_mass(mu, fam, rest) == cylinder_mass(mu, cyl((0, 1, 1)))

    def test_cover_and_family_over_other_spaces(self):
        from equidyn import IncompatibleConfigurations

        mu = BernoulliMeasure([0.5, 0.5])
        one = vitali_cover(mu, [cyl((0, 1))], 1)
        two = vitali_cover(mu, [Cylinder(A2, "two", 1, (0, 1, 1))], 1)
        for cover, fam in ((one, two), (two, one)):
            with pytest.raises(IncompatibleConfigurations, match="-sided cover and a"):
                uncovered_mass(mu, cover, fam)

    def test_cover_rejects_pieces_that_meet(self):
        """`vitali_cover` takes the maximal pieces; nested or repeated parts are no pieces."""
        mu = BernoulliMeasure([0.5, 0.5])
        for parts, mass in (([cyl((0,)), cyl((0, 1))], 0.5), ([cyl((1, 0)), cyl((1, 0))], 0.25)):
            with pytest.raises(ValueError, match="are not disjoint"):
                vitali_cover(mu, parts, 2)
            assert sum(vitali_cover(mu, maximal_cylinders(parts), 2).masses(mu)) == mass

    def test_cover_and_masses_build_no_object_per_ball(self, monkeypatch):
        import equidyn.core as core

        made = []
        for cls in (core.Configuration, core.Cylinder):
            real = cls.__post_init__
            monkeypatch.setattr(cls, "__post_init__", lambda self, real=real: made.append(type(self)) or real(self))
        mu = MarkovMeasure([[0.7, 0.3], [0.4, 0.6]])
        fam = vitali_cover(mu, MARKOV_PIECES, 10)
        assert len(fam.balls) == 1856
        assert made == []
        fam.masses(mu)
        assert uncovered_mass(mu, fam, fam) == 0.0
        assert made == []


class TestAlphabetMismatch:
    """Parts, and a family, over another alphabet than the measure's."""

    HALF = BernoulliMeasure([0.5, 0.5])

    @pytest.mark.parametrize("word", [(2, 1), (0, 1)], ids=["symbol-outside", "symbols-inside"])
    def test_three_symbol_parts_under_a_two_symbol_measure(self, word):
        parts = [cyl(word, alphabet=Alphabet(3))]
        for call in (lambda: union_probability(self.HALF, parts), lambda: vitali_cover(self.HALF, parts, 2)):
            with pytest.raises(AlphabetMismatch, match="cylinder over alphabet 3, measure over 2"):
                call()
        fam = vitali_cover(self.HALF, [cyl((0,)), cyl((1,))], 2)
        cover = vitali_cover(BernoulliMeasure([0.2, 0.3, 0.5]), parts, 2)
        with pytest.raises(AlphabetMismatch, match="balls over alphabet 3, measure over 2"):
            uncovered_mass(self.HALF, cover, fam)

    def test_two_symbol_family_under_a_three_symbol_measure(self):
        mu = BernoulliMeasure([0.2, 0.3, 0.5])
        fam = vitali_cover(self.HALF, [cyl((0,))], 2)
        with pytest.raises(AlphabetMismatch, match="balls over alphabet 2, measure over 3"):
            uncovered_mass(mu, vitali_cover(mu, [cyl((0, 1), alphabet=Alphabet(3))], 2), fam)
        with pytest.raises(AlphabetMismatch, match="balls over alphabet 2, measure over 3"):
            fam.masses(mu)


# one-sided and two-sided, zero transitions and Haar's zero-mass digits, and
# pieces that keep their own radius next to pieces that split
ORACLE_CASES = [
    (BernoulliMeasure([0.3, 0.7]), "one", (0, 4), (1, 5)),
    (MarkovMeasure(P_LOPSIDED), "one", (0, 4), (1, 5)),
    (MarkovMeasure([[0.1, 0.6, 0.3], [0.5, 0.0, 0.5], [0.3, 0.3, 0.4]]), "one", (0, 3), (1, 4)),
    (MarkovMeasure(P_LOPSIDED), "two", (0, 3), (1, 4)),
    (MarkovMeasure([[0.1, 0.6, 0.3], [0.5, 0.0, 0.5], [0.3, 0.3, 0.4]]), "two", (0, 2), (1, 3)),
    (ProductMeasure((2, 3, 5)), "one", (0, 3), (1, 4)),
]


def assert_cover_matches_oracle(mu, parts, min_radius, rng):
    """The row cover equals the object refinement in ball order, radii, words
    and masses to the bit; so do the uncovered masses of the cover and of a
    random subfamily."""
    fam = vitali_cover(mu, maximal_cylinders(parts), min_radius)
    balls = oracle_vitali_cover(mu, parts, min_radius)
    assert fam.balls == tuple((center.symbols, n) for center, n in balls)
    masses = oracle_ball_masses(mu, balls)
    assert fam.masses(mu) == masses
    assert uncovered_mass(mu, fam, fam) == oracle_uncovered_mass(mu, parts, balls, min_radius) == 0.0
    keep = (rng.random(len(balls)) < 0.6).tolist()
    rest = family(fam.alphabet, fam.sided, tuple(b for b, k in zip(fam.balls, keep) if k))
    want = oracle_uncovered_mass(mu, parts, [b for b, k in zip(balls, keep) if k], min_radius)
    assert uncovered_mass(mu, fam, rest) == want
    return want


class TestRowCoverOracle:
    @pytest.mark.parametrize("mu, sided, radii, min_radii", ORACLE_CASES, ids=lambda v: repr(v))
    def test_random_unions(self, mu, sided, radii, min_radii):
        rng = substream(61, ORACLE_CASES.index((mu, sided, radii, min_radii)))
        leftovers = []
        for trial in range(12):
            parts = []
            for _ in range(int(rng.integers(1, 6))):
                r = int(rng.integers(*radii))
                parts.append(Cylinder(mu.alphabet, sided, r, rng.integers(0, mu.alphabet.size, window_size(sided, r))))
            leftovers.append(assert_cover_matches_oracle(mu, parts, int(rng.integers(*min_radii)), rng))
        assert any(v > 0 for v in leftovers)

    @pytest.mark.parametrize("mu", [BernoulliMeasure([0.3, 0.7]), MarkovMeasure(P_LOPSIDED)], ids=repr)
    def test_pieces_past_64_cells_take_the_scalar_branch(self, mu):
        """Words of 65 cells and more: scalar log-space masses and rank word codes."""
        rng = substream(62, 0)
        word = tuple(int(s) for s in rng.integers(0, 2, 63))
        parts = [cyl(word), cyl(word + (1, 0)), cyl((1 - word[0],) + word[1:62]),
                 cyl(tuple(int(s) for s in rng.integers(0, 2, 70)))]
        assert max(len(c.word) for c in maximal_cylinders(parts)) >= 64
        assert assert_cover_matches_oracle(mu, parts, 64, rng) > 0


def test_measure_dict_roundtrip():
    for mu in (
        BernoulliMeasure([0.25, 0.75]),
        MarkovMeasure(P_LOPSIDED),
        ProductMeasure((2, 3)),
    ):
        again = measure_from_dict(measure_to_dict(mu))
        c = Cylinder(mu.alphabet, "one", 1, (0, 1))
        assert cylinder_mass(again, c) == pytest.approx(
            cylinder_mass(mu, c), abs=1e-12
        )


def test_measure_from_dict_unknown_type():
    with pytest.raises(ValueError):
        measure_from_dict({"type": "gibbs"})


# -- row sampler and its bits ---------------------------------------------------

def invert(cum, u):
    """Scalar inverse CDF: the count of cumulative entries <= u, capped at the last symbol."""
    return min(int((cum <= u).sum()), len(cum) - 1)


def chain_oracle(mu, us):
    """Scalar Markov chain read off the uniforms `us`, one per cell."""
    cum_rows = np.cumsum(mu.transition, axis=1)
    out = [invert(np.cumsum(mu.stationary), us[0])]
    for u in us[1:]:
        out.append(invert(cum_rows[out[-1]], u))
    return out


SAMPLERS = [
    BernoulliMeasure([0.3, 0.7]),
    BernoulliMeasure([0.2, 0.5, 0.3]),
    MarkovMeasure(P_LOPSIDED),
    MarkovMeasure([[0.1, 0.6, 0.3], [0.5, 0.0, 0.5], [0.3, 0.3, 0.4]]),
    ProductMeasure((2, 3)),
    ProductMeasure((3, 2, 5)),
]


class TestSampleRows:
    @pytest.mark.parametrize("mu", SAMPLERS, ids=repr)
    @pytest.mark.parametrize("sided", ["one", "two"])
    @pytest.mark.parametrize("radius", [0, 1, 4, 9])
    def test_rows_equal_sample_config(self, mu, sided, radius):
        if isinstance(mu, ProductMeasure) and sided == "two":
            with pytest.raises(AlphabetMismatch):
                mu.sample_batch(sided, radius, 1, substream(41, radius, 0))
            with pytest.raises(AlphabetMismatch):
                mu.sample_config(sided, radius, substream(41, radius, 0))
            return
        for i in range(7):
            row = mu.sample_batch(sided, radius, 1, substream(41, radius, i))
            assert row.shape == (1, window_size(sided, radius)) and row.dtype == np.int64
            assert np.array_equal(row, oracle_sample_batch(mu, sided, radius, 1, substream(41, radius, i)))
            x = mu.sample_config(sided, radius, substream(41, radius, i))
            assert x.symbols == tuple(int(s) for s in row[0])

    def test_zero_rows_requested_gives_no_rows(self):
        for mu in SAMPLERS:
            assert mu.sample_batch("one", 3, 0, substream(41, 0)).shape == (0, 4)

    @pytest.mark.parametrize("sided", ["one", "two"])
    def test_bernoulli_config_matches_per_cell_draws(self, sided):
        mu = BernoulliMeasure([0.2, 0.5, 0.3])
        k = window_size(sided, 6)
        for i in range(20):
            rng = substream(8, i)
            us = [float(rng.random(1)[0]) for _ in range(k)]
            want = tuple(invert(np.cumsum(mu.weights), u) for u in us)
            assert mu.sample_config(sided, 6, substream(8, i)).symbols == want

    @pytest.mark.parametrize("sided", ["one", "two"])
    def test_markov_config_matches_per_cell_draws(self, sided):
        mu = MarkovMeasure([[0.1, 0.6, 0.3], [0.5, 0.0, 0.5], [0.3, 0.3, 0.4]])
        k = window_size(sided, 6)
        for i in range(20):
            rng = substream(9, i)
            want = tuple(chain_oracle(mu, [float(rng.random(1)[0]) for _ in range(k)]))
            assert mu.sample_config(sided, 6, substream(9, i)).symbols == want

    def test_haar_config_matches_per_digit_draws(self):
        mu = ProductMeasure((3, 2, 5))
        for i in range(20):
            rng = substream(10, i)
            want = []
            for j in range(8):  # one uniform per digit, inverted on the uniform row of its cell
                s = mu.size_at(j)
                want.append(invert(cumulative([1.0 / s] * s + [0.0] * (5 - s)), float(rng.random(1)[0])))
            assert mu.sample_config("one", 7, substream(10, i)).symbols == tuple(want)

    def test_markov_batch_matches_column_draws(self):
        mu = MarkovMeasure([[0.1, 0.6, 0.3], [0.5, 0.0, 0.5], [0.3, 0.3, 0.4]])
        n, k = 50, 9
        rng = substream(12, 0)
        columns = [rng.random(n) for _ in range(k)]  # column j is the j-th call of random(n)
        want = [chain_oracle(mu, [col[i] for col in columns]) for i in range(n)]
        got = mu.sample_batch("two", 4, n, substream(12, 0))
        assert got.tolist() == want

    def test_markov_conditional_matches_column_draws(self):
        mu = MarkovMeasure(P_LOPSIDED)
        c = cyl((1, 0, 1), sided="two")
        n, radius = 40, 4
        rng = substream(13, 0)
        forward = np.cumsum(mu.transition, axis=1)
        pi = mu.stationary
        reverse = np.cumsum((pi[None, :] * mu.transition.T) / pi[:, None], axis=1)
        rows = [[None] * 3 + [1, 0, 1] + [None] * 3 for _ in range(n)]
        for j in range(6, 9):  # rightward first, then leftward, one random(n) per column
            u = rng.random(n)
            for i in range(n):
                rows[i][j] = invert(forward[rows[i][j - 1]], u[i])
        for j in range(2, -1, -1):
            u = rng.random(n)
            for i in range(n):
                rows[i][j] = invert(reverse[rows[i][j + 1]], u[i])
        assert conditional_rows(mu, c, radius, n, substream(13, 0)).tolist() == rows


# -- disjointness check -----------------------------------------------------------

def first_clash(family):
    """Oracle: the first pair (i, j), i < j, that compare_cylinders says meets."""
    cs = [Cylinder(A2, "one", n, word) for word, n in family]
    for i in range(len(cs)):
        for j in range(i + 1, len(cs)):
            if compare_cylinders(cs[i], cs[j]) != "disjoint":
                return i, j
    return None


class TestBallFamilyDisjointness:
    def test_random_families_name_the_first_clash(self):
        rng = substream(51, 0)
        clashes = 0
        for trial in range(300):
            balls = []
            for _ in range(int(rng.integers(1, 9))):
                n = int(rng.integers(1, 4))
                word = tuple(int(s) for s in rng.integers(0, 2, size=n + 2))
                balls.append((word[: n + 1], n))  # the ball of radius n around `word`
            want = first_clash(balls)
            if want is None:
                family(A2, "one", tuple(balls))
                continue
            clashes += 1
            with pytest.raises(ValueError, match=rf"^balls {want[0]} and {want[1]} are not disjoint"):
                family(A2, "one", tuple(balls))
        assert 0 < clashes < 300

    def test_duplicate_ball_at_equal_radius(self):
        a = Configuration(A2, "two", (0, 1, 1, 0, 1))
        b = Configuration(A2, "two", (1, 1, 1, 0, 0))  # same W_1 word as a
        c = Configuration(A2, "two", (0, 0, 0, 0, 0))
        with pytest.raises(ValueError, match="^balls 0 and 2 are not disjoint"):
            family(A2, "two", ((a.window(1), 1), (c.window(2), 2), (b.window(1), 1)))

    def test_mixed_spaces_still_raise_incompatible(self):
        from equidyn import IncompatibleConfigurations

        one = Configuration(A2, "one", (0, 1))
        two = Configuration(A2, "two", (1, 0, 1))
        # the radius-1 rows are words on W_1 of the other space
        for sided, x in (("one", two), ("two", one)):
            with pytest.raises(IncompatibleConfigurations):
                BallFamily(A2, sided, {1: (np.array([0]), np.array([x.symbols]))})
        with pytest.raises(IncompatibleConfigurations):
            maximal_cylinders([ball_cylinder(one, 1), ball_cylinder(two, 1)])

    def test_symbols_outside_the_alphabet(self):
        with pytest.raises(ValueError, match="outside alphabet of size 2"):
            family(A2, "one", (((0, 1), 1), ((1, 2), 1)))

    def test_valid_family_makes_no_pairwise_comparisons(self, markov_cover, monkeypatch):
        import equidyn.measures as measures

        calls = []
        real = measures._first_clash
        monkeypatch.setattr(measures, "_first_clash", lambda *a: calls.append(1) or real(*a))
        _, fam = markov_cover
        BallFamily(fam.alphabet, fam.sided, fam.groups)
        assert calls == []
        with pytest.raises(ValueError, match="^balls 0 and 1 are not disjoint"):
            family(fam.alphabet, fam.sided, fam.balls[:1] * 2)
        assert calls == [1]  # the scan runs once the family is found to clash


def kernel_2d(cum, prev, u, size):
    """The (n x |A|) comparison the 1-D kernel replaced, kept as its oracle."""
    return np.minimum((u[:, None] >= cum[prev]).sum(axis=1), size - 1)


def _markov_kernel(size, seed):
    """A random `size`-symbol chain's forward kernel, a third of its entries zero (so its
    cumulative rows repeat entries) and every row with some mass."""
    P = np.random.default_rng(seed).random((size, size)) * (np.random.default_rng(seed + 1).random((size, size)) > 0.33)
    P[:, 0] += 0.01
    return MarkovMeasure(P / P.sum(axis=1, keepdims=True))._law.cum_forward


# (name, cumulative kernel rows): identical rows (Bernoulli, Haar, the first
# cell), Markov chains on both sides of the select/gather switch at 5 symbols
KERNEL_LAWS = [
    ("bernoulli [0.5, 0, 0.5]", BernoulliMeasure([0.5, 0.0, 0.5])._law.cum_forward),
    ("bernoulli first cell", BernoulliMeasure([0.5, 0.0, 0.5])._law.cum_first[None]),
    *((f"haar (6, 7, 10) at size {s}", ProductMeasure((6, 7, 10))._laws_by_size[s].cum_forward) for s in (6, 7, 10)),
    ("markov lopsided", MarkovMeasure(P_LOPSIDED)._law.cum_reverse),
    *((f"markov {k} symbols", _markov_kernel(k, k)) for k in (3, 5, 6, 16)),
]


class TestKernelColumn:
    @pytest.mark.parametrize("P", [
        P_LOPSIDED,
        [[0.5, 0.25, 0.25], [0.1, 0.6, 0.3], [0.3, 0.3, 0.4]],
        [[0.5, 0.0, 0.5], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]],  # repeated cumulative entries
    ])
    def test_matches_the_two_dimensional_sum(self, P):
        mu = MarkovMeasure(P)
        size = mu.alphabet.size
        rng = np.random.default_rng(size)
        prev = rng.integers(0, size, 5000)
        u = rng.random(5000)
        for cum in (mu._law.cum_forward, mu._law.cum_reverse):
            # ties: uniforms landing exactly on a cumulative entry, and on 0
            u[:size * size] = cum[np.repeat(np.arange(size), size), np.tile(np.arange(size), size)]
            u[size * size] = 0.0
            prev[:size * size] = np.repeat(np.arange(size), size)
            got = _kernel_column(cum, prev, u)
            assert got.dtype == np.int64
            assert np.array_equal(got, kernel_2d(cum, prev, u, size))

    def test_tie_goes_to_the_next_symbol(self):
        mu = MarkovMeasure([[0.5, 0.25, 0.25], [0.1, 0.6, 0.3], [0.3, 0.3, 0.4]])
        prev = np.array([0, 0, 1, 2])
        u = np.array([0.5, 0.75, 0.1, 0.6])
        assert _kernel_column(mu._law.cum_forward, prev, u).tolist() == [1, 2, 1, 2]

    @pytest.mark.parametrize("law", KERNEL_LAWS, ids=lambda law: law[0])
    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    @pytest.mark.parametrize("layout", ["row", "groups", "constant"])
    def test_every_law_and_layout_matches_the_two_dimensional_sum(self, law, dtype, layout):
        """Compare-and-select and gather alike, on one row, on (group, n) columns, and on a
        `prev` constant along each group's rows at stride zero. Every symbol meets a uniform
        on each cumulative entry, one just below it, and 0.0, then random ones."""
        _, cum = law
        size, symbols = cum.shape[1], np.arange(len(cum), dtype=dtype)
        rng = np.random.default_rng(size)
        ties = np.unique(cum)
        hits = np.concatenate([ties, np.nextafter(ties, 0.0), [0.0]])
        u = np.concatenate([np.tile(hits, len(cum)), rng.random(600)])
        prev = np.concatenate([np.repeat(symbols, len(hits)), rng.integers(0, len(cum), 600)]).astype(dtype)
        if layout == "groups":
            u, prev = np.stack([u, u[::-1]]), np.stack([prev, prev[::-1]])
        if layout == "constant":  # group g holds symbol g in every row, and meets every uniform
            u = np.tile(u, (len(cum), 1))
            prev = np.ndarray(u.shape, dtype, buffer=symbols, strides=(symbols.itemsize, 0))
        got = _kernel_column(cum, prev, u)
        assert got.dtype == dtype
        want = kernel_2d(cum, np.broadcast_to(prev, u.shape).ravel(), u.ravel(), size).reshape(u.shape)
        assert np.array_equal(got, want)

    def test_uniform_past_a_short_last_entry_takes_the_last_symbol(self):
        cum = np.array([[0.4, 0.9], [0.2, 0.9]])  # rounding can leave the total below 1
        prev = np.array([0, 1, 0])
        u = np.array([0.95, 0.9, 0.1])
        assert _kernel_column(cum, prev, u).tolist() == [1, 1, 0]
        assert np.array_equal(_kernel_column(cum, prev, u), kernel_2d(cum, prev, u, 2))


# -- one chain for every measure ---------------------------------------------------

CHAINS = SAMPLERS + [ProductMeasure((6, 7, 10)), BernoulliMeasure([0.5, 0.0, 0.5])]
CHAIN_SPACES = [(mu, sided) for mu in CHAINS for sided in ("one", "two")
                if sided == "one" or not isinstance(mu, ProductMeasure)]


@pytest.mark.parametrize("mu,sided", CHAIN_SPACES, ids=repr)
def test_cylinder_probability_equals_the_per_measure_formulas(mu, sided):
    sizes = [mu.alphabet.size] * 5
    for radius in range(3 if sided == "one" else 2):
        for word in itertools.product(*[range(s) for s in sizes[: window_size(sided, radius)]]):
            c = Cylinder(mu.alphabet, sided, radius, word)
            assert cylinder_mass(mu, c) == oracle_cylinder_probability(mu, c)  # bit for bit
    for i in range(5):  # W_70 words: past 64 factors the product runs in log space
        x = mu.sample_config(sided, 70, substream(61, i))
        c = Cylinder(mu.alphabet, sided, 70, x.symbols)
        got = cylinder_mass(mu, c)
        assert got > 0.0 and got == oracle_cylinder_probability(mu, c)


def oracle_masses(mu, sided, radius, rows):
    """The per-measure formula of each row's cylinder, independent of the chain's one product."""
    return [oracle_cylinder_probability(mu, Cylinder(mu.alphabet, sided, radius, tuple(w))) for w in rows.tolist()]


def assert_masses_match_the_oracle(mu, sided, radius, rows):
    """`row_probabilities` reads the oracle's masses bit for bit, over all rows at once and one row at a time."""
    want = oracle_masses(mu, sided, radius, rows)
    assert mu.row_probabilities(sided, radius, rows).tolist() == want
    assert [cylinder_mass(mu, Cylinder(mu.alphabet, sided, radius, tuple(w))) for w in rows.tolist()] == want
    return want


ZERO_STEPS = MarkovMeasure([[0.5, 0, 0.5], [0.5, 0.5, 0], [0, 0.5, 0.5]])


@pytest.mark.parametrize(
    "mu,sided", [(ZERO_STEPS, "one"), (ZERO_STEPS, "two"), (ProductMeasure((2, 3)), "one")], ids=repr,
)
def test_row_probabilities_are_the_cylinder_probabilities(mu, sided):
    for radius in range(3):
        rows = np.array(list(itertools.product(range(mu.alphabet.size), repeat=window_size(sided, radius))))
        want = assert_masses_match_the_oracle(mu, sided, radius, rows)
    assert 0.0 in want and max(want) > 0.0  # zero steps (or digits) among the rows


def test_row_probabilities_past_64_cells():
    mu = MarkovMeasure(P_LOPSIDED)
    for radius in (62, 63, 64, 70):  # 63 and 64 cells in one product; 65 and 71 in log space
        assert_masses_match_the_oracle(mu, "one", radius, mu.sample_batch("one", radius, 20, substream(64, radius)))
    # the shift's orbit ball at m = 1 and horizon 70 is x's one word on W_71, 72 cells
    x = mu.sample_config("one", 71, substream(64, 0))
    rows = ball_rows(Shift(A2), x, 1, 70, cap=2**80)
    assert rows.tolist() == [list(x.window(71))]
    assert_masses_match_the_oracle(mu, "one", 71, rows)
    for n in (3, 70):
        want = oracle_masses(mu, "one", 71, rows)[0] / oracle_cylinder_probability(mu, ball_cylinder(x, n))
        assert density_curve(Shift(A2), mu, x, 1, [n], 70, cap=2**80)[0][0] == want


@pytest.mark.parametrize("mu,sided", [(ZERO_STEPS, "one"), (ZERO_STEPS, "two"), (ProductMeasure((2, 3)), "one")],
                         ids=repr)
def test_row_probabilities_with_a_zero_factor_past_64_cells(mu, sided):
    rows = mu.sample_batch(sided, 70, 6, substream(65, 0))  # 71 or 141 cells, every factor positive
    bad = rows.copy()
    if isinstance(mu, ProductMeasure):
        bad[:, 0] = 2  # cell 0 holds two digits
    else:
        at, cols = np.arange(6), np.arange(60, 66)
        bad[at, cols] = (bad[at, cols - 1] + 1) % 3  # a -> a + 1 never happens
    want = assert_masses_match_the_oracle(mu, sided, 70, np.concatenate([rows, bad]))
    assert min(want[:6]) > 0.0 and want[6:] == [0.0] * 6


@pytest.mark.parametrize("w", [[0.3, 0.7], [0.2, 0.5, 0.3]])
@pytest.mark.parametrize("sided", ["one", "two"])
def test_bernoulli_is_the_markov_chain_with_equal_rows(w, sided):
    bern, chain = BernoulliMeasure(w), MarkovMeasure([w] * len(w), w)
    c = Cylinder(bern.alphabet, sided, 1, bern.sample_config(sided, 1, substream(62, 0)).symbols)
    for given in (None, np.array([c.word])):
        a = list(bern.pieces(sided, 4, 500, [substream(62, 1)], given))
        b = list(chain.pieces(sided, 4, 500, [substream(62, 1)], given))
        assert [j for j, _ in a] == [j for j, _ in b]
        assert all(np.array_equal(x, y) for (_, x), (_, y) in zip(a, b))
    for word in itertools.product(range(len(w)), repeat=window_size(sided, 1)):
        d = Cylinder(bern.alphabet, sided, 1, word)
        assert cylinder_mass(bern, d) == cylinder_mass(chain, d)


class _NearOne:
    """A generator stand-in whose every uniform is the largest double below 1."""

    def random(self, size=None, out=None):
        out = np.empty(size) if out is None else out
        out[...] = np.nextafter(1.0, 0.0)
        return out


def test_haar_never_draws_outside_a_cell():
    mu, od = ProductMeasure((6, 7, 10)), Odometer((6, 7, 10))
    assert np.cumsum([1 / 6] * 6)[-1] < 1.0  # why the cumulative rows end on an exact 1.0
    rows = mu.sample_batch("one", 5, 50_000, substream(63, 0))
    check_cells(od, rows)
    assert all(set(np.unique(rows[:, i])) == set(range(mu.size_at(i))) for i in range(6))
    top = mu.sample_batch("one", 5, 3, _NearOne())
    check_cells(od, top)
    assert top.tolist() == [[5, 6, 9, 9, 9, 9]] * 3
    c = Cylinder(mu.alphabet, "one", 0, (5,))
    assert conditional_rows(mu, c, 5, 3, _NearOne()).tolist() == [[5, 6, 9, 9, 9, 9]] * 3
