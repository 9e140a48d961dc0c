"""Koopman eigenfunctions built from certified periodic base points."""

import cmath
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from equidyn import (
    Alphabet,
    AlphabetMismatch,
    BernoulliMeasure,
    Configuration,
    InsufficientRadius,
    MarkovMeasure,
    Odometer,
    OverlappingBalls,
    ProductMeasure,
    Shift,
    build_eigenfunction,
    eca_rule,
    root_of_unity,
    spectral_family,
)
from equidyn.rng import derive_seed, substream
from equidyn.spectral import _running_sum, event_table
from equidyn.systems import step_cost, system_sided
from oracles import _scalar_f, oracle_event, scalar_inner_product, scalar_koopman_residual, scalar_step

A2 = Alphabet(2)


@pytest.mark.parametrize("p", list(range(1, 65)))
def test_root_of_unity_sum_identity(p):
    """sum_j lambda^{jk} is p for k = 0 mod p and 0 otherwise."""
    for k in (0, 1, p - 1, p):
        total = sum(root_of_unity(p, j * k) for j in range(p))
        want = p if k % p == 0 else 0
        assert abs(total - want) <= 1e-12


def test_root_of_unity_basics():
    assert root_of_unity(1, 0) == 1
    assert abs(root_of_unity(4, 1) - 1j) <= 1e-15
    assert abs(root_of_unity(2, 1) + 1) <= 1e-15


def dyadic_point(word):
    return Configuration(Alphabet(2), "one", word)


class TestBuild:
    def test_requires_certificate(self):
        sh = Shift(A2)
        y = dyadic_point((0, 1, 1, 0, 1, 0, 0, 1, 1))
        with pytest.raises(ValueError, match="certificate"):
            build_eigenfunction(sh, y, 0, 0, 8)

    def test_rejects_eventually_periodic_base(self):
        sh = Shift(A2)
        y = dyadic_point((1, 1, 0, 1, 0, 1, 0, 1, 0))
        with pytest.raises(ValueError, match="preperiod"):
            build_eigenfunction(sh, y, 0, 0, 8)

    def test_rejects_index_out_of_range(self):
        od = Odometer((2,))
        y = Configuration(od.alphabet, "one", (0, 0, 0))
        with pytest.raises(ValueError):
            build_eigenfunction(od, y, 0, 2, 4)

    def test_eigenvalue(self):
        od = Odometer((2, 2))
        y = Configuration(od.alphabet, "one", (0, 0, 0))
        spec = build_eigenfunction(od, y, 1, 3, 8)
        assert spec.period == 4
        assert abs(spec.eigenvalue() - cmath.exp(2j * cmath.pi * 3 / 4)) <= 1e-15


def test_dyadic_odometer_sign_function():
    """m = 0, k = 1 on the 2-adic odometer is the sign of the first digit."""
    od = Odometer((2,))
    y = Configuration(od.alphabet, "one", (0, 0, 0))
    spec = build_eigenfunction(od, y, 0, 1, 4)
    assert spec.period == 2
    tab = event_table(spec, 3)
    assert _scalar_f(spec, tab, dyadic_point((0, 1, 1))) == 1
    val = _scalar_f(spec, tab, dyadic_point((1, 1, 0)))
    assert abs(val + 1) <= 1e-15


def test_eval_outside_support_is_zero():
    sh = Shift(A2)
    y = dyadic_point(tuple([0, 1] * 6))
    spec = build_eigenfunction(sh, y, 1, 1, 4)
    stray = dyadic_point((1, 1, 1, 1, 1, 1, 1, 1))
    assert _scalar_f(spec, event_table(spec, 3), stray) == 0j


def test_eval_requires_radius():
    od = Odometer((2,))
    y = Configuration(od.alphabet, "one", (0, 0, 0))
    spec = build_eigenfunction(od, y, 2, 1, 16)
    tab = event_table(spec, 2)
    with pytest.raises(InsufficientRadius):
        _scalar_f(spec, tab, dyadic_point((0,)))


@pytest.mark.parametrize("sizes,m", [
    ((2,), 0), ((2,), 1), ((2,), 2), ((2,), 3),
    ((2, 3), 0), ((2, 3), 1), ((2, 3), 2),
    ((3, 3), 0), ((3, 3), 1),
])
def test_odometer_residual_and_norm(sizes, m):
    """Residual vanishes and <f_k, f_k> = 1 for odometer eigenfunctions."""
    od = Odometer(sizes)
    mu = ProductMeasure(sizes)
    p = od.window_period(m)
    y = Configuration(od.alphabet, "one", (0,) * (m + 1))
    spec = build_eigenfunction(od, y, m, 1 % p, 2 * p)
    [(_, residual, norm_sq)], _ = spectral_family(spec, mu, 3, [spec.k], mode="exact")
    assert residual <= 1e-12
    assert abs(norm_sq - 1) <= 1e-12


def test_distinct_indices_are_orthogonal():
    od = Odometer((2, 3))
    mu = ProductMeasure((2, 3))
    y = Configuration(od.alphabet, "one", (0, 0))
    base = build_eigenfunction(od, y, 1, 0, 12)
    _, max_cross = spectral_family(base, mu, 2, list(range(6)), mode="exact")
    assert max_cross <= 1e-12


def test_partition_of_unity():
    """k = 0 gives the constant 1: the orbit balls tile the window exactly."""
    od = Odometer((2, 2))
    y = Configuration(od.alphabet, "one", (0, 0, 0, 0))
    spec = build_eigenfunction(od, y, 1, 0, 8)
    tab = event_table(spec, 4)
    words = list(itertools.product(range(2), repeat=tab.rho + 1))
    assert set(words) <= set(map(tuple, tab.words.tolist()))
    for word in words:
        x = Configuration(od.alphabet, "one", word)
        assert _scalar_f(spec, tab, x) == 1


def test_shift_residual_matches_independent_enumeration():
    """Nonzero residual for the shift, checked against a from-scratch sum."""
    sh = Shift(A2)
    y = dyadic_point(tuple([0, 1] * 8))
    m, horizon, k = 1, 4, 1
    spec = build_eigenfunction(sh, y, m, k, 4)
    [(_, got, _)], _ = spectral_family(spec, BernoulliMeasure([0.5, 0.5]), horizon, [k], mode="exact")

    # oracle: for the shift, membership in the j-th orbit ball is prefix
    # agreement with y shifted by j, through index m + horizon
    lam = cmath.exp(2j * cmath.pi * k / spec.period)
    prefix = {0: (0, 1, 0, 1, 0, 1), 1: (1, 0, 1, 0, 1, 0)}

    def f(bits):
        for j, pre in prefix.items():
            if bits[: len(pre)] == pre:
                return lam ** (j * k)
        return 0j

    total = 0.0
    width = m + horizon + 2  # evaluation needs one step of slack
    for bits in itertools.product(range(2), repeat=width):
        defect = f(bits[1:]) - lam * f(bits)
        total += abs(defect) ** 2 * 2.0 ** -width
    want = math.sqrt(total)
    assert want == pytest.approx(math.sqrt(1 / 32), abs=1e-15)
    assert got == pytest.approx(want, abs=1e-12)


def test_overlapping_balls_detected():
    """A horizon too short to separate the orbit raises instead of lying."""
    sh = Shift(A2)
    y = dyadic_point(tuple(int(b) for b in "001000100010"))
    spec = build_eigenfunction(sh, y, 0, 1, 8)
    assert spec.period == 4
    # the message names the smallest shared word and the first two balls holding it
    with pytest.raises(OverlappingBalls, match=r"orbit balls 0 and 1 share the word \(0,\) at horizon 0"):
        event_table(spec, 0)
    # one more step of trace is still not enough: (0,0) occurs twice
    with pytest.raises(OverlappingBalls, match=r"orbit balls 0 and 3 share the word \(0, 0\) at horizon 1"):
        event_table(spec, 1)
    tab = event_table(spec, 3)
    # at horizon 3 each orbit ball pins the full prefix: one word per phase, ascending
    assert tab.words.tolist() == [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]
    assert tab.js.tolist() == [3, 0, 1, 2]


def test_sampled_mode_tracks_exact():
    od = Odometer((2, 3))
    mu = ProductMeasure((2, 3))
    y = Configuration(od.alphabet, "one", (0, 0))
    spec = build_eigenfunction(od, y, 1, 2, 12)
    [(_, _, exact)], _ = spectral_family(spec, mu, 2, [2], mode="exact")
    [(_, residual, sampled)], _ = spectral_family(spec, mu, 2, [2], mode="sampled", n_samples=4000, seed=3)
    assert abs(sampled - exact) <= 0.05
    assert residual <= 1e-12


# -- row integration against the per-configuration oracle ------------------------

ORACLE_CASES = {
    # system, measure, base word, m, certificate horizon, horizon
    "Odometer((2,))/Haar": (Odometer((2,)), ProductMeasure((2,)), (0, 0, 0), 2, 16, 2),
    "Odometer((2,3))/Haar": (Odometer((2, 3)), ProductMeasure((2, 3)), (0, 0), 1, 12, 2),
    "shift period 3/Bernoulli(0.3,0.7)": (Shift(A2), BernoulliMeasure([0.3, 0.7]), (0, 0, 1) * 6, 1, 6, 4),
    # two-sided: the ball words sit in the middle of the rows
    "ECA 170 period 2/Bernoulli(0.3,0.7)": (
        eca_rule(170), BernoulliMeasure([0.3, 0.7]), (0, 1) * 8 + (0,), 1, 4, 3,
    ),
}


def oracle_specs(name):
    system, mu, word, m, cert_horizon, horizon = ORACLE_CASES[name]
    y = Configuration(system.alphabet, system_sided(system), word)
    base = build_eigenfunction(system, y, m, 0, cert_horizon)
    specs = [build_eigenfunction(system, y, m, k, cert_horizon) for k in range(base.period)]
    return specs, mu, horizon


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_event_table_rows_are_the_scalar_balls(name):
    """Rows with index j are T^j y's brute-force orbit ball, in ascending word order."""
    (spec, *_), _, horizon = oracle_specs(name)
    tab = event_table(spec, horizon)
    rows = list(map(tuple, tab.words.tolist()))
    assert rows == sorted(set(rows))
    x = spec.y
    for j in range(spec.period):
        ball = oracle_event(spec.system, Configuration(x.alphabet, x.sided, x.window(tab.rho)), spec.m, horizon)
        assert [w for w, i in zip(rows, tab.js.tolist()) if i == j] == sorted(ball), j
        x = scalar_step(spec.system, x)


@pytest.mark.parametrize("mode", ["exact", "sampled"])
@pytest.mark.parametrize("name", ORACLE_CASES)
def test_row_integration_equals_the_per_configuration_oracle(name, mode):
    """Same values, same summation order: every residual and inner product keeps its bits."""
    specs, mu, horizon = oracle_specs(name)
    assert_family_equals_the_oracles(specs, mu, horizon, dict(mode=mode, n_samples=500), 3)


def assert_family_equals_the_oracles(specs, mu, horizon, opts, seed):
    """Residual and norm of k at derive_seed(seed, k), the cross maximum at seed."""
    rows, max_cross = spectral_family(specs[0], mu, horizon, [spec.k for spec in specs], seed=seed, **opts)
    for spec, residual, norm_sq in rows:
        k_opts = dict(opts, seed=derive_seed(seed, spec.k))
        assert residual == scalar_koopman_residual(spec, mu, horizon, **k_opts)
        assert norm_sq == scalar_inner_product(spec, spec, mu, horizon, **k_opts)
    pairs = itertools.combinations(specs, 2)
    assert max_cross == max([0.0] + [abs(scalar_inner_product(a, b, mu, horizon, seed=seed, **opts)) for a, b in pairs])
    return rows


def test_exact_memory_follows_the_block_not_the_partition():
    """2^13 against 2^16 words on the residual's window: the same peak."""
    spec = build_eigenfunction(Shift(A2), dyadic_point((0, 1) * 10), 1, 1, 4)
    mu = BernoulliMeasure([0.3, 0.7])
    peaks = []
    for horizon in (10, 13):
        tracemalloc.start()
        try:
            [(_, residual, _)], _ = spectral_family(spec, mu, horizon, [spec.k], mode="exact")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert residual > 0
        peaks.append(peak)
    assert peaks[1] <= 1.5 * peaks[0]


@pytest.mark.parametrize("mode", ["exact", "sampled"])
@pytest.mark.parametrize("system,mu", [
    (eca_rule(170), BernoulliMeasure([0.2, 0.3, 0.5])),
    (Shift(Alphabet(3)), BernoulliMeasure([0.5, 0.5])),
], ids=["3-symbol-law-on-eca", "2-symbol-law-on-3-shift"])
def test_integrals_reject_a_measure_on_another_alphabet(system, mu, mode):
    y = Configuration(system.alphabet, system_sided(system), (0,) * 41)
    spec = build_eigenfunction(system, y, 0, 0, 8)
    with pytest.raises(AlphabetMismatch, match="alphabet"):
        spectral_family(spec, mu, 1, [0], mode=mode, n_samples=50)


def count_draws(monkeypatch, measure_class):
    """The radius of every `sample_batch` draw of `measure_class`, in call order."""
    radii, sample_batch = [], measure_class.sample_batch
    monkeypatch.setattr(measure_class, "sample_batch", lambda mu, *a: radii.append(a[1]) or sample_batch(mu, *a))
    return radii


@pytest.mark.parametrize("integral", ["residual", "inner product"])
def test_sampled_rows_outside_the_odometer_cells_raise(monkeypatch, integral):
    """Haar on (3, 3) draws digit 2 at cell 0, which Odometer((2, 3)) does not have;
    with no k there is neither a residual nor a pair, so the family draws nothing."""
    od = Odometer((2, 3))
    spec = build_eigenfunction(od, Configuration(od.alphabet, "one", (0, 0)), 1, 1, 12)
    mu = ProductMeasure((3, 3))
    if integral == "residual":
        with pytest.raises(ValueError, match="column 0"):
            spectral_family(spec, mu, 2, [1], mode="sampled", n_samples=200)
        return
    draws = count_draws(monkeypatch, ProductMeasure)
    assert spectral_family(spec, mu, 2, [], mode="sampled", n_samples=200) == ([], 0.0)
    assert draws == []


@pytest.mark.parametrize("system,y,mu", [
    (Odometer((2, 3)), Configuration(Odometer((2, 3)).alphabet, "one", (0, 0)), ProductMeasure((2, 3))),
    (Shift(A2), dyadic_point((0, 1) * 8), BernoulliMeasure([0.3, 0.7])),
], ids=["odometer", "shift"])
def test_a_sampled_family_with_one_k_draws_once_per_radius(monkeypatch, system, y, mu):
    """No pair, so no cross-product draw: the residual's radius and the norm's
    (one radius on the odometer, which loses none per step), each drawn once."""
    spec = build_eigenfunction(system, y, 1, 1, 12)
    horizon = 2
    rho, cost = event_table(spec, horizon, 10 ** 6).rho, step_cost(system)
    draws = count_draws(monkeypatch, type(mu))
    [(_, residual, norm_sq)], max_cross = spectral_family(spec, mu, horizon, [1], mode="sampled", n_samples=300)
    assert sorted(draws) == sorted({rho, rho + cost}) and max_cross == 0.0
    assert residual >= 0.0 and norm_sq.real > 0.0


def test_sampled_integrals_past_int64_word_codes():
    """W_64 of the shift has 65 binary cells, so the ball lookup ranks words
    instead of reading them as int64 numbers; the results still equal the
    per-configuration oracle, and about a quarter of the rows hit a ball."""
    system, mu = Shift(A2), MarkovMeasure([[0.02, 0.98], [0.98, 0.02]])
    y = dyadic_point((0, 1) * 40)
    base = build_eigenfunction(system, y, 1, 0, 4)
    specs = [build_eigenfunction(system, y, 1, k, 4) for k in range(base.period)]
    horizon, cap = 63, 2 ** 70  # the ball search prunes; only the nominal window passes 2^24
    table = event_table(base, horizon, cap)
    assert 2 ** (table.rho + 1) > 2 ** 63
    rows = assert_family_equals_the_oracles(specs, mu, horizon, dict(mode="sampled", n_samples=500, cap=cap), 4)
    assert 0.1 < rows[0][2].real < 0.5


def bits(z):
    z = complex(z)
    return z.real.hex(), z.imag.hex()


def loop_sum(values, masses=None):
    acc = 0.0
    for idx, v in enumerate(values.tolist()):
        if masses is None:
            acc += v
        elif v != 0:
            acc += v * float(masses[idx])
    return acc


@pytest.mark.parametrize("kind", ["float", "complex"])
@pytest.mark.parametrize("weighted", [False, True], ids=["sampled", "exact"])
def test_running_sum_is_the_python_loop_bit_for_bit(kind, weighted):
    """Sequential from 0.0, parts apart, CPython's complex-by-float product,
    zeros skipped when weighted; signed zeros and wide magnitudes included."""
    rng = substream(21, 0)
    n = 2000
    parts = [rng.standard_normal(n) * 10.0 ** rng.integers(-12, 12, size=n) for _ in range(2)]
    for part in parts:
        part[rng.integers(0, n, size=200)] = 0.0
        part[rng.integers(0, n, size=200)] = -0.0
    values = parts[0] if kind == "float" else parts[0] + 1j * parts[1]
    masses = rng.random(n) * 10.0 ** rng.integers(-30, 0, size=n) if weighted else None
    assert bits(_running_sum(values, masses)) == bits(loop_sum(values, masses))
    assert bits(_running_sum(values[:0], masses if masses is None else masses[:0])) == bits(0.0)
    zeros = np.array([-0.0, 0.0, -0.0]) if kind == "float" else np.array([complex(-0.0, -0.0), complex(0.0, -0.0)])
    weights = None if masses is None else np.ones(len(zeros))
    assert bits(_running_sum(zeros, weights)) == bits(loop_sum(zeros, weights))


@pytest.mark.parametrize("mode", ["exact", "sampled"])
@pytest.mark.parametrize("name", ORACLE_CASES)
def test_family_equals_one_call_per_integral(name, mode):
    """spectral_family shares one certificate, table and draw per seed, and
    changes no bit of any residual, norm or cross product: each row equals a
    one-k family, and the cross maximum the largest of the one-pair families."""
    specs, mu, horizon = oracle_specs(name)
    k_list = list(range(len(specs))) + [0]
    opts = dict(mode=mode, n_samples=300, seed=2)
    rows, max_cross = spectral_family(specs[0], mu, horizon, k_list, **opts)
    assert [spec for spec, _, _ in rows] == [specs[k] for k in k_list]
    for row in rows:
        assert [row] == spectral_family(specs[0], mu, horizon, [row[0].k], **opts)[0]
    cross = [spectral_family(specs[0], mu, horizon, [a, b], **opts)[1]
             for i, a in enumerate(k_list) for b in k_list[i + 1:]]
    assert max_cross == max([0.0] + cross)


def test_family_rejects_k_outside_the_period():
    specs, mu, horizon = oracle_specs("Odometer((2,))/Haar")
    with pytest.raises(ValueError, match="k must lie"):
        spectral_family(specs[0], mu, horizon, [0, len(specs)])
