"""Batch draws as column pieces: the same draws as whole-array sampling, packed straight into bit planes."""

import tracemalloc

import numpy as np
import pytest

from equidyn import (
    Alphabet,
    BernoulliMeasure,
    Configuration,
    Cylinder,
    MarkovMeasure,
    Odometer,
    ProductMeasure,
    density_ratio_estimate,
    dependence_radius,
    eca_rule,
    mu_equicontinuity_report,
    mu_sensitivity_estimate,
    separation_window,
    shift_as_ca,
    step_cost,
    system_sided,
)
from equidyn.core import ONE_SIDED, ball_cylinder, window_size
from equidyn.rng import substream
from equidyn.systems import check_cells, pack_planes, step_batch, window_slice
import equidyn.orbit

from oracles import oracle_conditional_batch, oracle_sample_batch

ROW_COUNTS = (1, 63, 64, 65, 1000, 2051)
RADIUS = 4
MARKOV = MarkovMeasure([[0.7, 0.3], [0.4, 0.6]])

MEASURES = {
    "bernoulli": BernoulliMeasure([0.3, 0.7]),
    "bernoulli-3": BernoulliMeasure([0.2, 0.5, 0.3]),
    "markov": MARKOV,
    "markov-3": MarkovMeasure([[0.1, 0.6, 0.3], [0.5, 0.0, 0.5], [0.3, 0.3, 0.4]]),
    "haar": ProductMeasure((2, 3)),
    "haar-3-2-5": ProductMeasure((3, 2, 5)),
}
CASES = [(name, sided) for name in MEASURES for sided in ("one", "two") if not name.startswith("haar") or sided == "one"]


def packer(mu):
    """A system whose cells hold exactly the measure's symbols."""
    return Odometer(mu.sizes) if isinstance(mu, ProductMeasure) else shift_as_ca(mu.alphabet)


def given(mu, sided, radius, seed):
    """The cylinder on W_radius around a point drawn from mu."""
    x = mu.sample_config(sided, RADIUS, substream(seed, 7))
    return Cylinder(mu.alphabet, sided, radius, x.window(radius))


@pytest.mark.parametrize("name,sided", CASES)
@pytest.mark.parametrize("n", ROW_COUNTS)
class TestPiecesMatchWholeArrays:
    def test_sample_batch(self, name, sided, n):
        mu = MEASURES[name]
        want = oracle_sample_batch(mu, sided, RADIUS, n, substream(n, 1))
        got = mu.sample_batch(sided, RADIUS, n, substream(n, 1))
        assert got.dtype == np.int64 and got.shape == (n, window_size(sided, RADIUS))
        assert np.array_equal(got, want)
        planes = pack_planes(packer(mu), mu.pieces(sided, RADIUS, n, substream(n, 1)), want.shape)
        assert np.array_equal(planes, pack_planes(packer(mu), want))  # padding bits included

    @pytest.mark.parametrize("inner", (0, 2))
    def test_conditional_batch(self, name, sided, n, inner):
        mu = MEASURES[name]
        c = given(mu, sided, inner, seed=n + inner)
        want = oracle_conditional_batch(mu, c, RADIUS, n, substream(n, 2))
        got = mu.conditional_batch(c, RADIUS, n, substream(n, 2))
        assert got.dtype == np.int64 and np.array_equal(got, want)
        planes = pack_planes(packer(mu), mu.pieces(sided, RADIUS, n, substream(n, 2), c), want.shape)
        assert np.array_equal(planes, pack_planes(packer(mu), want))


@pytest.mark.parametrize("name,sided", CASES)
@pytest.mark.parametrize("n", (63, 64, 65, 4101))
@pytest.mark.parametrize("inner", (0, 2))
def test_conditioned_pieces_pack_like_conditional_batch(name, sided, n, inner):
    mu = MEASURES[name]
    c = given(mu, sided, inner, seed=n + inner)
    pieces = list(mu.pieces(sided, RADIUS, n, substream(n, 3), c))
    assert all(column.strides == (0,) for _, column in pieces[: len(c.word)])  # the given cells are constant columns
    rows = mu.conditional_batch(c, RADIUS, n, substream(n, 3))
    assert np.array_equal(pack_planes(packer(mu), pieces, rows.shape), pack_planes(packer(mu), rows))


@pytest.mark.parametrize("name,sided", CASES)
def test_piece_shapes_follow_the_draw_order(name, sided):
    mu, n = MEASURES[name], 4101
    k = window_size(sided, RADIUS)
    for pieces in (
        list(mu.pieces(sided, RADIUS, n, substream(3, 0))),
        list(mu.pieces(sided, RADIUS, n, substream(3, 0), given(mu, sided, 1, seed=3))),
    ):
        # one call per cell, whatever the measure: one column of all rows
        assert sorted(j for j, _ in pieces) == list(range(k))
        assert all(column.shape == (n,) for _, column in pieces)


def test_given_cylinder_must_match_the_side():
    c = Cylinder(Alphabet(2), "two", 1, (1, 0, 1))
    with pytest.raises(ValueError, match="sided"):
        MARKOV.pieces("one", 3, 10, substream(0, 0), c)


def test_markov_pieces_come_in_draw_order():
    # the given word, then rightward, then leftward: the order of the random(n) calls
    c = Cylinder(Alphabet(2), "two", 1, (1, 0, 1))
    cells = [j for j, _ in MARKOV.pieces("two", 3, 10, substream(0, 0), c)]
    assert cells == [2, 3, 4, 5, 6, 1, 0]


# -- the estimators against the int-row route -----------------------------------

def int_row_agreement(system, target, rows, m, radius):
    """Trace agreement by stepping int rows with step_batch."""
    alive = np.ones(len(rows), dtype=bool)
    for t, word in enumerate(target):
        alive &= (window_slice(system_sided(system), radius - step_cost(system) * t, m, rows) == word).all(axis=1)
        if t < len(target) - 1:
            rows = step_batch(system, rows)
    return alive


def int_row_density(system, mu, x, m, n, horizon, n_samples, seed):
    radius = max(n, dependence_radius(system, m, horizon))
    rows = oracle_conditional_batch(mu, ball_cylinder(x, n), radius, n_samples, substream(seed, 0))
    target = equidyn.orbit.column_trace(system, x, m, horizon)
    return float(int_row_agreement(system, target, rows, m, radius).mean())


def int_row_sensitivity(system, mu, eps, horizon, n_samples, seed):
    sided, w = system_sided(system), separation_window(eps)
    radius = w + step_cost(system) * horizon
    x = oracle_sample_batch(mu, sided, radius, n_samples, substream(seed, 0))
    y = oracle_sample_batch(mu, sided, radius, n_samples, substream(seed, 1))
    separated = np.zeros(n_samples, dtype=bool)
    for t in range(1, horizon + 1):
        x, y = step_batch(system, x), step_batch(system, y)
        cur = radius - step_cost(system) * t
        separated |= (window_slice(sided, cur, w, x) != window_slice(sided, cur, w, y)).any(axis=1)
    return float(separated.mean())


ESTIMATOR_CASES = [
    (eca_rule(110), MARKOV),
    (eca_rule(110), BernoulliMeasure([0.3, 0.7])),
    (eca_rule(184), MARKOV),
    (eca_rule(184), BernoulliMeasure([0.5, 0.5])),
    (Odometer((2, 3)), ProductMeasure((2, 3))),
]


@pytest.mark.parametrize("system,mu", ESTIMATOR_CASES, ids=repr)
@pytest.mark.parametrize("n_samples", (65, 2051))
@pytest.mark.parametrize("n", (1, 3))
def test_density_estimate_matches_int_rows(system, mu, n_samples, n):
    m, horizon = 1, 3
    radius = max(n, dependence_radius(system, m, horizon))
    x = mu.sample_config(system_sided(system), radius, substream(n_samples, n))
    est = density_ratio_estimate(system, mu, x, m, n, horizon, n_samples=n_samples, seed=n_samples + n)
    assert est.p_hat == int_row_density(system, mu, x, m, n, horizon, n_samples, seed=n_samples + n)


@pytest.mark.parametrize("system,mu", ESTIMATOR_CASES, ids=repr)
@pytest.mark.parametrize("n_samples", (65, 2051))
@pytest.mark.parametrize("eps,horizon", [(1, 6), (0.25, 9)])
def test_sensitivity_estimate_matches_int_rows(system, mu, n_samples, eps, horizon):
    est = mu_sensitivity_estimate(system, mu, eps, horizon, n_samples=n_samples, seed=n_samples)
    assert est.p_hat == int_row_sensitivity(system, mu, eps, horizon, n_samples, seed=n_samples)


def test_estimators_draw_no_int_batch(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an n x |W| int batch was drawn")

    # base points are one-row batches, so they are drawn before the batches are refused
    points = [mu.sample_config(system_sided(system), 6, substream(1, 0)) for system, mu in ESTIMATOR_CASES]
    for cls in (BernoulliMeasure, MarkovMeasure, ProductMeasure):
        monkeypatch.setattr(cls, "sample_batch", refuse)
        monkeypatch.setattr(cls, "conditional_batch", refuse)
    for (system, mu), x in zip(ESTIMATOR_CASES, points):
        density_ratio_estimate(system, mu, x, 1, 2, 3, n_samples=100)
        mu_sensitivity_estimate(system, mu, 0.5, 4, n_samples=100)


# -- cell checks on pieces ------------------------------------------------------

def test_packer_checks_each_piece_against_its_cells():
    system = Odometer((2, 3))
    good = np.zeros(70, dtype=np.int64)
    bad = good.copy()
    bad[66] = 2  # cell 0 holds two digits
    pack_planes(system, [(1, good + 2), (0, good)], (70, 2))
    with pytest.raises(ValueError, match="column 0"):
        pack_planes(system, [(1, good + 2), (0, bad)], (70, 2))
    with pytest.raises(ValueError, match="symbol 3 in column 3"):
        check_cells(system, np.array([[0, 3]]), first=2)


def test_sampled_density_rejects_digits_outside_the_odometer():
    # both spaces have 3 symbols, but past cell 0 the measure draws digit 2
    # where the odometer has two digits
    system, mu = Odometer((3, 2)), ProductMeasure((2, 3))
    x = Configuration(Alphabet(3), ONE_SIDED, (0,) * 6)
    with pytest.raises(ValueError, match="outside the 2 symbols"):
        density_ratio_estimate(system, mu, x, 3, 1, 3, n_samples=500)


# -- one trace per point ----------------------------------------------------------

@pytest.mark.parametrize("cap", (10**6, 1))  # exact route, then sampled route
def test_report_traces_each_point_once(monkeypatch, cap):
    real = equidyn.orbit.column_trace
    calls = []
    monkeypatch.setattr(equidyn.orbit, "column_trace", lambda *a: calls.append(a) or real(*a))
    report = mu_equicontinuity_report(eca_rule(110), MARKOV, m=1, n_list=[1, 2, 3], horizon=3,
                                      points=5, n_samples=200, seed=4, cap=cap)
    assert report.curves[0].exact == (cap > 1)
    assert len(calls) == 5


# -- memory follows the planes ----------------------------------------------------

def traced_peak(fn):
    fn()  # warm caches
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_density_estimate_memory():
    # planes: 2 symbols x 23 cells x 100,000 bits = 0.6 MB; the int64 batch alone was 18.4 MB
    system = eca_rule(30)
    x = MARKOV.sample_config("two", 11, substream(3, 0))
    peak = traced_peak(lambda: density_ratio_estimate(system, MARKOV, x, 3, 1, 8, n_samples=100_000, seed=3))
    assert peak <= 6e6


def test_sensitivity_estimate_memory():
    # two batches of 20,000 pairs on 83 cells: 0.8 MB of planes, 26.6 MB of int64 rows
    peak = traced_peak(lambda: mu_sensitivity_estimate(eca_rule(184), MARKOV, 0.125, 32, n_samples=20_000, seed=3))
    assert peak <= 4e6
