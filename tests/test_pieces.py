"""Batch draws as column pieces: the same draws as whole-array sampling, packed straight into bit planes."""

import tracemalloc

import numpy as np
import pytest

from equidyn import (
    Alphabet,
    AlphabetMismatch,
    BernoulliMeasure,
    Configuration,
    Cylinder,
    MarkovMeasure,
    NullCylinder,
    Odometer,
    ProductMeasure,
    density_curve,
    dependence_radius,
    eca_rule,
    mu_equicontinuity_report,
    mu_sensitivity_curve,
    separation_window,
    shift_as_ca,
    step_cost,
    system_sided,
)
from equidyn.core import ONE_SIDED, ball_cylinder, window_size
from equidyn.rng import substream
from equidyn.systems import check_cells, pack_planes, step_batch, window_slice
import equidyn.orbit

from oracles import conditional_rows, oracle_conditional_batch, oracle_sample_batch, scalar_column_trace

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


def row(c):
    """The cylinder's word as the one int row that `pieces` takes."""
    return np.array([c.word], dtype=np.int64)


@pytest.mark.parametrize("name,sided", CASES)
@pytest.mark.parametrize("n", ROW_COUNTS)
class TestPiecesMatchWholeArrays:
    def test_sample_batch(self, name, sided, n):
        mu = MEASURES[name]
        want = oracle_sample_batch(mu, sided, RADIUS, n, substream(n, 1))
        got = mu.sample_batch(sided, RADIUS, n, substream(n, 1))
        assert got.dtype == np.int64 and got.shape == (n, window_size(sided, RADIUS))
        assert np.array_equal(got, want)
        planes = pack_planes(packer(mu), mu.pieces(sided, RADIUS, n, [substream(n, 1)]), want.shape)
        assert np.array_equal(planes, pack_planes(packer(mu), want))  # padding bits included

    @pytest.mark.parametrize("inner", (0, 2))
    def test_conditional_batch(self, name, sided, n, inner):
        mu = MEASURES[name]
        c = given(mu, sided, inner, seed=n + inner)
        want = oracle_conditional_batch(mu, c, RADIUS, n, substream(n, 2))
        got = conditional_rows(mu, c, RADIUS, n, substream(n, 2))
        assert got.dtype == np.int64 and np.array_equal(got, want)
        planes = pack_planes(packer(mu), mu.pieces(sided, RADIUS, n, [substream(n, 2)], row(c)), want.shape)
        assert np.array_equal(planes, pack_planes(packer(mu), want))


@pytest.mark.parametrize("name,sided", CASES)
@pytest.mark.parametrize("n", (63, 64, 65, 4101))
@pytest.mark.parametrize("inner", (0, 2))
def test_conditioned_pieces_pack_like_conditional_batch(name, sided, n, inner):
    mu = MEASURES[name]
    c = given(mu, sided, inner, seed=n + inner)
    pieces = list(mu.pieces(sided, RADIUS, n, [substream(n, 3)], row(c)))
    assert all(column.strides[-1] == 0 for _, column in pieces[: len(c.word)])  # the given cells are constant columns
    rows = conditional_rows(mu, c, RADIUS, n, substream(n, 3))
    assert np.array_equal(pack_planes(packer(mu), pieces, rows.shape), pack_planes(packer(mu), rows))


@pytest.mark.parametrize("name,sided", CASES)
def test_piece_shapes_follow_the_draw_order(name, sided):
    mu, n = MEASURES[name], 4101
    k = window_size(sided, RADIUS)
    for pieces in (
        list(mu.pieces(sided, RADIUS, n, [substream(3, 0)])),
        list(mu.pieces(sided, RADIUS, n, [substream(3, 0)], row(given(mu, sided, 1, seed=3)))),
    ):
        # one call per cell, whatever the measure: one column of the generator's rows
        assert sorted(j for j, _ in pieces) == list(range(k))
        assert all(column.shape == (1, n) for _, column in pieces)


def test_given_cylinder_must_match_the_side():
    # two cells are a one-sided W_1 but no two-sided window
    MARKOV.pieces("one", 3, 10, [substream(0, 0)], np.array([[1, 0]]))
    with pytest.raises(ValueError, match="sided"):
        MARKOV.pieces("two", 3, 10, [substream(0, 0)], np.array([[1, 0]]))


def test_given_words_are_checked_before_any_draw():
    draw = lambda sided, radius, given: MARKOV.pieces(sided, radius, 10, [substream(0, 0)] * len(given), given)
    with pytest.raises(ValueError, match="smaller than the conditioning radius 2"):
        draw("two", 1, np.array([[0, 1, 0, 1, 0]]))
    for bad in (-1, 2):  # a negative symbol would index the kernels from their end
        with pytest.raises(AlphabetMismatch, match="alphabet of size 2"):
            draw("one", 3, np.array([[0, 1], [1, bad]]))
    zero = MarkovMeasure([[0.0, 1.0], [0.5, 0.5]])  # 0 -> 0 never happens
    with pytest.raises(NullCylinder, match=r"\(1, 0, 0\)"):  # the first null word, in member order
        zero.pieces("two", 2, 10, [substream(0, 0)] * 3, np.array([[1, 1, 1], [1, 0, 0], [0, 0, 1]]))


def test_markov_pieces_come_in_draw_order():
    # the given word, then rightward, then leftward: the order of the random(n) calls
    cells = [j for j, _ in MARKOV.pieces("two", 3, 10, [substream(0, 0)], np.array([[1, 0, 1]]))]
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
    target = scalar_column_trace(system, x, m, horizon)
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
    est = density_curve(system, mu, x, m, [n], horizon, exact=False, n_samples=n_samples, seeds=[n_samples + n])[1][0]
    assert est.p_hat == int_row_density(system, mu, x, m, n, horizon, n_samples, seed=n_samples + n)


@pytest.mark.parametrize("system,mu", ESTIMATOR_CASES, ids=repr)
@pytest.mark.parametrize("n_samples", (65, 2051))
@pytest.mark.parametrize("eps,horizon", [(1, 6), (0.25, 9)])
def test_sensitivity_estimate_matches_int_rows(system, mu, n_samples, eps, horizon):
    est = mu_sensitivity_curve(system, mu, [eps], horizon, n_samples=n_samples, seed=n_samples)[0]
    assert est.p_hat == int_row_sensitivity(system, mu, eps, horizon, n_samples, seed=n_samples)


def test_estimators_draw_no_int_batch(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an n x |W| int batch was drawn")

    # base points are one-row batches, so they are drawn before the batches are refused
    points = [mu.sample_config(system_sided(system), 6, substream(1, 0)) for system, mu in ESTIMATOR_CASES]
    for cls in (BernoulliMeasure, MarkovMeasure, ProductMeasure):
        monkeypatch.setattr(cls, "sample_batch", refuse)
    for (system, mu), x in zip(ESTIMATOR_CASES, points):
        density_curve(system, mu, x, 1, [2], 3, exact=False, n_samples=100, seeds=[0])
        mu_sensitivity_curve(system, mu, [0.5], 4, n_samples=100)


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
        density_curve(system, mu, x, 3, [1], 3, exact=False, n_samples=500, seeds=[0])


# -- one trace pass per report ------------------------------------------------------

@pytest.mark.parametrize("cap", (10**6, 1))  # exact route, then sampled route
def test_report_traces_each_point_once(monkeypatch, cap):
    windows, traces = equidyn.orbit._windows, []
    calls = []
    monkeypatch.setattr(equidyn.orbit, "_windows", lambda *a: calls.append(len(a[1])) or windows(*a))
    monkeypatch.setattr(equidyn.orbit, "_trace_row", lambda *a: traces.append(a))  # the one-point trace
    report = mu_equicontinuity_report(eca_rule(110), MARKOV, m=1, n_list=[1, 2, 3], horizon=3,
                                      points=5, n_samples=200, seed=4, cap=cap)
    assert report.curves[0].exact == (cap > 1)
    assert calls == [5] and traces == []  # one pass over all five points


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
    peak = traced_peak(lambda: density_curve(system, MARKOV, x, 3, [1], 8, exact=False, n_samples=100_000, seeds=[3]))
    assert peak <= 6e6


def test_sensitivity_estimate_memory():
    # two batches of 20,000 pairs on 83 cells: 0.8 MB of planes, 26.6 MB of int64 rows
    peak = traced_peak(lambda: mu_sensitivity_curve(eca_rule(184), MARKOV, [0.125], 32, n_samples=20_000, seed=3))
    assert peak <= 4e6


def test_sensitivity_memory_follows_the_block_not_the_pair_count():
    # 80,000 and 320,000 pairs both run full blocks of _BLOCK_ROWS pairs, so the two peaks agree
    def peak(n_samples):
        tracemalloc.start()
        try:
            mu_sensitivity_curve(eca_rule(184), MARKOV, [1, 0.125], 16, n_samples=n_samples, seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert 80_000 > equidyn.orbit._BLOCK_ROWS
    mu_sensitivity_curve(eca_rule(184), MARKOV, [1, 0.125], 16, n_samples=1000, seed=3)  # warm caches
    assert peak(320_000) <= 1.2 * peak(80_000)
