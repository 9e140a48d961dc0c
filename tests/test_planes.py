"""The bit-sliced engine against the int64 `step_batch` and the scalar traces."""

import itertools
import tracemalloc

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
    mu_sensitivity_curve,
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


def rule_from(alphabet, sided, radius, f):
    """The rule whose table maps each neighbourhood nb to f(nb)."""
    width = radius + 1 if sided == ONE_SIDED else 2 * radius + 1
    return CARule(alphabet, sided, radius, {nb: f(nb) for nb in itertools.product(range(alphabet.size), repeat=width)})


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
    # the prefix-factored stepper: a many-symbol table, one output symbol,
    # and outer cells that no output reads
    "four-symbol two-sided": random_rule(Alphabet(4), TWO_SIDED, 1, seed=11),
    "constant 0": rule_from(A3, TWO_SIDED, 1, lambda nb: 0),
    "constant 2": rule_from(A3, TWO_SIDED, 1, lambda nb: 2),
    "binary constant 1": rule_from(Alphabet(2), ONE_SIDED, 2, lambda nb: 1),
    "ignores its left cell": rule_from(A3, TWO_SIDED, 1, lambda nb: (nb[1] * nb[2] + 1) % 3),
    "ignores its right cell": rule_from(A3, TWO_SIDED, 1, lambda nb: (nb[0] + 2 * nb[1]) % 3),
    "Odometer((2,3))": Odometer((2, 3)),
    "Odometer((3,))": Odometer((3,)),
}


@pytest.mark.parametrize("name", SYSTEMS)
@pytest.mark.parametrize("n", ROW_COUNTS)
def test_other_systems_step_like_step_batch(name, n):
    system = SYSTEMS[name]
    assert_steps_like_step_batch(system, random_rows(system, n, 11, seed=n), steps=4)


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_two_sided_radius_2_steps_like_step_batch(n):
    """A five-cell neighbourhood: the prefix tree is five levels deep."""
    rule = random_rule(Alphabet(2), TWO_SIDED, 2, seed=10)
    assert_steps_like_step_batch(rule, random_rows(rule, n, 19, seed=n), steps=4)


def test_step_planes_peaks_below_twice_its_output():
    """One sensitivity-shaped step (20,000 rows, 83 cells) holds at most one
    plane of temporaries beside its output."""
    for number in (184, 110, 30):
        rule = eca_rule(number)
        planes = pack_planes(rule, random_rows(rule, 20_000, 83, seed=number))
        tracemalloc.start()
        try:
            out = step_planes(rule, planes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * out.nbytes, (number, peak, out.nbytes)


def test_odometer_carries_through_every_digit():
    system = Odometer((2, 3))
    rows = np.array([[1, 2, 2, 2], [0, 2, 2, 2], [1, 2, 0, 1], [1, 1, 2, 2]])
    assert_steps_like_step_batch(system, rows, steps=7)


# the packer trusts its rows: a (system, measure) pair is checked before the first draw,
# and check_cells is the one check of rows, whichever row or column holds the bad symbol
BAD_SYMBOLS = {
    "negative": (eca_rule(110), 1, -1),
    "past the alphabet": (random_rule(A3, TWO_SIDED, 1, seed=7), 2, 3),
    "odometer column 0": (Odometer((2, 3)), 0, 2),  # digit 0 has two values
    "odometer later column": (Odometer((2, 3)), 2, 3),
    "odometer later column inside the alphabet": (Odometer((2, 3, 2)), 3, 2),
}


@pytest.mark.parametrize("case", BAD_SYMBOLS)
@pytest.mark.parametrize("n", (1, 63, 64, 65))
@pytest.mark.parametrize("row", ("first", "last"))
def test_check_cells_names_a_bad_symbol_in_any_row(case, n, row):
    system, col, bad = BAD_SYMBOLS[case]
    want = (f"symbol {bad} in column {col} outside the {cell_sizes(system, [col])[0]} symbols "
            f"of that cell of the {type(system).__name__}")
    rows = np.zeros((n, 5), dtype=np.int64)
    rows[0 if row == "first" else n - 1, col] = bad
    with pytest.raises(ValueError) as err:
        check_cells(system, rows)
    assert str(err.value) == want
    # the bad column alone, placed at its window column, is refused the same way
    with pytest.raises(ValueError) as err:
        check_cells(system, rows[:, col:col + 1], first=col)
    assert str(err.value) == want


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


def scalar_sensitivity_curve(system, mu, eps_list, horizon, n, seed, block):
    """Pair i's x and y are row i of the blocks of `block` rows drawn from the continued substream(seed, 0)
    and substream(seed, 1) on the widest witness window; it is eps-separated when its W_w words at times
    1..horizon differ, w = separation_window(eps)."""
    sided = system_sided(system)
    windows = [separation_window(eps) for eps in eps_list]
    radius = max(windows) + step_cost(system) * horizon
    rx, ry = substream(seed, 0), substream(seed, 1)
    sizes = [min(block, n - lo) for lo in range(0, n, block)]
    bx = np.concatenate([mu.sample_batch(sided, radius, k, rx) for k in sizes])
    by = np.concatenate([mu.sample_batch(sided, radius, k, ry) for k in sizes])

    def trace(row, w):
        x = Configuration(system.alphabet, sided, tuple(int(s) for s in row))
        return scalar_column_trace(system, x, w, horizon)[1:]

    return [float(np.mean([trace(x, w) != trace(y, w) for x, y in zip(bx, by)])) for w in windows]


def scalar_sensitivity(system, mu, eps, horizon, n, seed):
    return scalar_sensitivity_curve(system, mu, [eps], horizon, n, seed, block=n)[0]


@pytest.mark.parametrize("system,mu,eps,horizon", SENSITIVITY_CASES)
@pytest.mark.parametrize("n", (65, 1000))
def test_sensitivity_matches_pairwise_tests(system, mu, eps, horizon, n):
    est = mu_sensitivity_curve(system, mu, [eps], horizon, n_samples=n, seed=n + horizon)[0]
    assert est.p_hat == scalar_sensitivity(system, mu, eps, horizon, n, seed=n + horizon)


@pytest.mark.parametrize("system,mu", [(eca_rule(184), MARKOV), (eca_rule(110), BernoulliMeasure([0.3, 0.7])),
                                       (Odometer((2, 3)), ProductMeasure((2, 3)))])
@pytest.mark.parametrize("block", (64, 100, 1 << 16))
def test_eps_grid_matches_pairwise_tests_block_by_block(system, mu, block, monkeypatch):
    monkeypatch.setattr(equidyn.sensitivity, "_BLOCK_ROWS", block)
    eps_list = [0.5, 2, 0.25, 1]
    curve = mu_sensitivity_curve(system, mu, eps_list, 7, n_samples=230, seed=block)
    assert [e.eps for e in curve] == eps_list
    assert [e.p_hat for e in curve] == scalar_sensitivity_curve(system, mu, eps_list, 7, 230, block, block)


@pytest.mark.parametrize("n", (65, 1000))
def test_every_pair_separating_stops_the_loop(n, monkeypatch):
    # at eps 1/8 the witness window has 19 cells, so with this seed every
    # pair differs there after one step; the padding of the last word must
    # not keep the loop running
    system, eps, horizon = eca_rule(184), 0.125, 12
    calls = []
    monkeypatch.setattr(equidyn.sensitivity, "step_planes", lambda *a: calls.append(1) or step_planes(*a))
    est = mu_sensitivity_curve(system, BernoulliMeasure([0.5, 0.5]), [eps], horizon, n_samples=n, seed=5)[0]
    assert est.p_hat == 1.0
    assert est.p_hat == scalar_sensitivity(system, BernoulliMeasure([0.5, 0.5]), eps, horizon, n, seed=5)
    assert len(calls) == 2  # x and y stepped once


@pytest.mark.parametrize("system,mu", [
    (eca_rule(110), BernoulliMeasure([0.2, 0.3, 0.5])),
    (random_rule(A3, TWO_SIDED, 1, seed=7), BernoulliMeasure([0.5, 0.5])),  # symbols fit, space differs
])
def test_sensitivity_rejects_an_alphabet_mismatch(system, mu):
    with pytest.raises(ValueError, match="alphabet"):
        mu_sensitivity_curve(system, mu, [1], 4, n_samples=10)
