"""The bit-sliced engine against the int64 `step_batch` and the scalar traces."""

import itertools

import numpy as np
import pytest

from equidyn import (
    Alphabet,
    BernoulliMeasure,
    CARule,
    Configuration,
    MarkovMeasure,
    Odometer,
    ProductMeasure,
    Shift,
    dependence_radius,
    eca_rule,
    mu_sensitivity_estimate,
    separation_window,
    shift_as_ca,
    step_cost,
    system_sided,
)
from equidyn.core import ONE_SIDED, TWO_SIDED, window_cells
from equidyn.rng import substream
from equidyn.systems import (
    cell_sizes,
    check_cells,
    pack_bits,
    pack_planes,
    step_batch,
    step_planes,
    trace_agreement_batch,
    unpack_bits,
)
import equidyn.sensitivity
import equidyn.systems
from oracles import scalar_column_trace

ROW_COUNTS = (1, 63, 64, 65, 1000)
A3 = Alphabet(3)


def planes_to_rows(planes, n):
    """Inverse of pack_planes, written from the documented layout."""
    bits = np.unpackbits(planes.view(np.uint8), axis=-1, bitorder="little")
    assert not bits[..., n:].any(), "padding bits must stay clear"
    bits = bits[..., :n]
    assert (bits.sum(axis=0) == 1).all(), "planes must be one-hot"
    return bits.argmax(axis=0).T.astype(np.int64)


def random_rule(alphabet, sided, radius, seed):
    rng = np.random.default_rng(seed)
    width = radius + 1 if sided == ONE_SIDED else 2 * radius + 1
    words = itertools.product(range(alphabet.size), repeat=width)
    table = {nb: int(rng.integers(alphabet.size)) for nb in words}
    return CARule(alphabet, sided, radius, table)


def random_rows(system, n, cells, seed):
    sizes = cell_sizes(system, range(cells))
    return np.random.default_rng(seed).integers(0, sizes, size=(n, cells))


def assert_steps_like_step_batch(system, rows, steps):
    planes = pack_planes(system, rows)
    assert planes.dtype == np.uint64
    assert np.array_equal(planes_to_rows(planes, len(rows)), rows)
    for _ in range(steps):
        rows, planes = step_batch(system, rows), step_planes(system, planes)
        assert np.array_equal(planes_to_rows(planes, len(rows)), rows)


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_every_eca_steps_like_step_batch(n):
    rows = random_rows(eca_rule(0), n, 9, seed=n)
    for number in range(256):
        assert_steps_like_step_batch(eca_rule(number), rows, steps=3)


SYSTEMS = {
    "three-symbol two-sided": random_rule(A3, TWO_SIDED, 1, seed=7),
    "three-symbol one-sided": random_rule(A3, ONE_SIDED, 1, seed=8),
    "binary one-sided radius 2": random_rule(Alphabet(2), ONE_SIDED, 2, seed=9),
    "shift_as_ca": shift_as_ca(A3),
    "Shift": Shift(Alphabet(2)),
    "Odometer((2,3))": Odometer((2, 3)),
    "Odometer((3,))": Odometer((3,)),
}


@pytest.mark.parametrize("name", SYSTEMS)
@pytest.mark.parametrize("n", ROW_COUNTS)
def test_other_systems_step_like_step_batch(name, n):
    system = SYSTEMS[name]
    assert_steps_like_step_batch(system, random_rows(system, n, 11, seed=n), steps=4)


def test_odometer_carries_through_every_digit():
    system = Odometer((2, 3))
    rows = np.array([[1, 2, 2, 2], [0, 2, 2, 2], [1, 2, 0, 1], [1, 1, 2, 2]])
    assert_steps_like_step_batch(system, rows, steps=7)


@pytest.mark.parametrize("system,bad", [
    (eca_rule(110), [[0, 2, 1]]),
    (eca_rule(110), [[0, -1, 1]]),
    (random_rule(A3, TWO_SIDED, 1, seed=7), [[0, 3, 1]]),
    (Odometer((2, 3)), [[2, 0, 0]]),  # digit 0 has two values
])
def test_packer_rejects_symbols_outside_the_cells(system, bad):
    with pytest.raises(ValueError):
        pack_planes(system, np.array(bad))


BAD_SYMBOLS = {
    "negative": (eca_rule(110), 1, -1),
    "past the alphabet": (random_rule(A3, TWO_SIDED, 1, seed=7), 2, 3),
    "odometer column 0": (Odometer((2, 3)), 0, 2),  # digit 0 has two values
    "odometer later column": (Odometer((2, 3)), 2, 3),
    "odometer later column inside the alphabet": (Odometer((2, 3, 2)), 3, 2),
}


def raised(fn, *args):
    """The message of the ValueError that fn(*args) raises."""
    with pytest.raises(ValueError) as err:
        fn(*args)
    return str(err.value)


@pytest.mark.parametrize("case", BAD_SYMBOLS)
@pytest.mark.parametrize("n", (1, 63, 64, 65))
@pytest.mark.parametrize("row", ("first", "last"))
def test_packer_rejects_what_check_cells_rejects(case, n, row):
    system, col, bad = BAD_SYMBOLS[case]
    rows = np.zeros((n, 5), dtype=np.int64)
    rows[0 if row == "first" else n - 1, col] = bad
    want = raised(check_cells, system, rows)
    assert raised(pack_planes, system, rows) == want
    # a constant column of the bad symbol is refused the same way
    assert raised(pack_planes, system, [(col, np.broadcast_to(np.int64(bad), (n,)))], (n, 5)) == want


@pytest.mark.parametrize("system", [eca_rule(110), random_rule(A3, ONE_SIDED, 1, seed=8), Odometer((2, 3))], ids=repr)
@pytest.mark.parametrize("n", ROW_COUNTS)
def test_constant_column_packs_like_its_full_column(system, n):
    pieces = [(0, 1), (1, 2 % system.alphabet.size), (2, 0)]
    full = pack_planes(system, [(j, np.full(n, s, dtype=np.int64)) for j, s in pieces], (n, 3))
    constant = pack_planes(system, [(j, np.broadcast_to(np.int64(s), (n,))) for j, s in pieces], (n, 3))
    assert np.array_equal(constant, full)  # padding bits included
    assert np.array_equal(planes_to_rows(constant, n), np.tile([s for _, s in pieces], (n, 1)))


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_pack_bits_roundtrip_and_padding(n):
    flags = np.random.default_rng(n).random(n) < 0.5
    words = pack_bits(flags)
    assert words.shape == (-(-n // 64),)
    assert np.array_equal(unpack_bits(words, n), flags)
    assert int(sum(bin(int(w)).count("1") for w in words)) == int(flags.sum())


# -- trace agreement ------------------------------------------------------------

def scalar_agreement(system, rows, target, m):
    sided = system_sided(system)
    return np.array([
        scalar_column_trace(system, Configuration(system.alphabet, sided, tuple(int(s) for s in row)),
                            m, len(target) - 1) == target
        for row in rows
    ], dtype=bool)


TRACE_CASES = [
    (eca_rule(110), 1, 3),
    (eca_rule(184), 2, 4),
    (eca_rule(90), 0, 5),
    (random_rule(A3, TWO_SIDED, 1, seed=7), 1, 2),
    (random_rule(A3, ONE_SIDED, 1, seed=8), 1, 3),
    (shift_as_ca(), 1, 4),
    (Shift(Alphabet(2)), 1, 4),
    (Odometer((2, 3)), 1, 6),
    (Odometer((3,)), 0, 5),
]


@pytest.mark.parametrize("system,m,horizon", TRACE_CASES)
@pytest.mark.parametrize("n", (65, 1000))
@pytest.mark.parametrize("extra", (0, 2))
def test_trace_agreement_matches_scalar_traces(system, m, horizon, n, extra):
    sided = system_sided(system)
    radius = dependence_radius(system, m, horizon) + extra
    rows = random_rows(system, n, len(window_cells(sided, radius)), seed=n + extra)
    # a low-entropy column makes agreement common enough to matter
    rows[: n // 2, : len(rows[0]) // 2] = rows[0, : len(rows[0]) // 2]
    for base in (0, n // 3, n - 1):
        x = Configuration(system.alphabet, sided, tuple(rows[base].tolist()))
        target = scalar_column_trace(system, x, m, horizon)
        got = trace_agreement_batch(system, [target], pack_planes(system, rows), n, m, radius)
        assert got.dtype == bool and got.shape == (n,)
        assert got[base]
        assert np.array_equal(got, scalar_agreement(system, rows, target, m))


@pytest.mark.parametrize("n", (1, 63, 65))
def test_every_row_dies_at_time_zero(n, monkeypatch):
    system = eca_rule(110)
    rows = np.zeros((n, 7), dtype=np.int64)
    target = [(1, 0, 0)] + [(0, 0, 0)] * 2
    calls = []
    monkeypatch.setattr(equidyn.systems, "step_planes", lambda *a: calls.append(1) or step_planes(*a))
    got = trace_agreement_batch(system, [target], pack_planes(system, rows), n, 1, 3)
    assert not got.any() and got.shape == (n,)
    assert calls == []  # the empty alive vector, padding included, stops the loop


def test_target_symbol_outside_the_alphabet_matches_no_row():
    rows = np.zeros((70, 3), dtype=np.int64)
    assert not trace_agreement_batch(eca_rule(204), [[(0, 2, 0)]], pack_planes(eca_rule(204), rows), 70, 1, 1).any()


# -- sensitivity ----------------------------------------------------------------

MARKOV = MarkovMeasure([[0.7, 0.3], [0.4, 0.6]])

SENSITIVITY_CASES = [
    (eca_rule(184), MARKOV, 1, 12),
    (eca_rule(184), BernoulliMeasure([0.5, 0.5]), 0.25, 8),
    (eca_rule(110), MARKOV, 0.5, 10),
    (eca_rule(110), BernoulliMeasure([0.3, 0.7]), 2, 6),
    (Odometer((2, 3)), ProductMeasure((2, 3)), 0.5, 9),
    (Odometer((2, 3)), ProductMeasure((2, 3)), 2, 3),
]


def scalar_sensitivity(system, mu, eps, horizon, n, seed):
    sided = system_sided(system)
    radius = separation_window(eps) + step_cost(system) * horizon
    bx = mu.sample_batch(sided, radius, n, substream(seed, 0))
    by = mu.sample_batch(sided, radius, n, substream(seed, 1))

    def trace(row):
        """The row's W_w words at times 1..horizon: a pair is separated when they differ."""
        x = Configuration(system.alphabet, sided, tuple(int(s) for s in row))
        return scalar_column_trace(system, x, separation_window(eps), horizon)[1:]

    hits = [trace(x) != trace(y) for x, y in zip(bx, by)]
    return float(np.mean(hits))


@pytest.mark.parametrize("system,mu,eps,horizon", SENSITIVITY_CASES)
@pytest.mark.parametrize("n", (65, 1000))
def test_sensitivity_matches_pairwise_tests(system, mu, eps, horizon, n):
    est = mu_sensitivity_estimate(system, mu, eps, horizon, n_samples=n, seed=n + horizon)
    assert est.p_hat == scalar_sensitivity(system, mu, eps, horizon, n, seed=n + horizon)


@pytest.mark.parametrize("n", (65, 1000))
def test_every_pair_separating_stops_the_loop(n, monkeypatch):
    # at eps 1/8 the witness window has 19 cells, so with this seed every
    # pair differs there after one step; the padding of the last word must
    # not keep the loop running
    system, eps, horizon = eca_rule(184), 0.125, 12
    calls = []
    monkeypatch.setattr(equidyn.sensitivity, "step_planes", lambda *a: calls.append(1) or step_planes(*a))
    est = mu_sensitivity_estimate(system, BernoulliMeasure([0.5, 0.5]), eps, horizon, n_samples=n, seed=5)
    assert est.p_hat == 1.0
    assert est.p_hat == scalar_sensitivity(system, BernoulliMeasure([0.5, 0.5]), eps, horizon, n, seed=5)
    assert len(calls) == 2  # x and y stepped once


@pytest.mark.parametrize("system,mu", [
    (eca_rule(110), BernoulliMeasure([0.2, 0.3, 0.5])),
    (random_rule(A3, TWO_SIDED, 1, seed=7), BernoulliMeasure([0.5, 0.5])),  # symbols fit, space differs
])
def test_sensitivity_rejects_an_alphabet_mismatch(system, mu):
    with pytest.raises(ValueError, match="alphabet"):
        mu_sensitivity_estimate(system, mu, 1, 4, n_samples=10)
