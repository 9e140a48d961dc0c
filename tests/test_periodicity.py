"""Eventual-periodicity certificates, their minimality, and sampled statistics."""


import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equidyn import (
    Alphabet,
    BernoulliMeasure,
    Configuration,
    InsufficientRadius,
    LepStatistics,
    MarkovMeasure,
    Odometer,
    PeriodCertificate,
    ProductMeasure,
    Shift,
    dependence_radius,
    eca_rule,
    identity_rule,
    lep_certificate,
    lep_statistics,
    mu_lep_classify,
    system_sided,
)
from equidyn.cli import _plain
from equidyn.periodicity import _BLOCK, detect_eventual_periods
from equidyn.rng import substream
from oracles import certificate_holds, oracle_sample_batch, scalar_column_trace

A2 = Alphabet(2)


def detect_eventual_period(trace):
    """The batch detector on one trace of any hashable symbols, numbered by first occurrence."""
    numbers = {}
    row = [numbers.setdefault(s, len(numbers)) for s in trace]
    p, q, found = detect_eventual_periods(np.array([row], dtype=np.int64))
    return PeriodCertificate(p=int(p[0]), q=int(q[0]), horizon=len(row) - 1) if found[0] else None


def brute_force_certificate(trace):
    """Independent oracle: scan every (p, q) pair, order by (p, q)."""
    horizon = len(trace) - 1
    best = None
    for p in range(1, horizon + 1):
        for q in range(0, horizon + 1):
            if horizon - q < 2 * p:
                continue
            if all(trace[i] == trace[i + p] for i in range(q, horizon - p + 1)):
                cand = (p, q)
                if best is None or cand < best:
                    best = cand
        if best is not None and best[0] == p:
            break
    return best


class TestDetect:
    def test_constant_trace(self):
        assert detect_eventual_period("aaa").p == 1
        cert = detect_eventual_period("aaaaa")
        assert (cert.p, cert.q) == (1, 0)

    def test_two_cycle(self):
        cert = detect_eventual_period("abababab")
        assert (cert.p, cert.q) == (2, 0)

    def test_preperiod(self):
        cert = detect_eventual_period("cababab")
        assert (cert.p, cert.q) == (2, 1)

    def test_insufficient_evidence(self):
        assert detect_eventual_period("ab") is None
        assert detect_eventual_period("aab") is None  # p=1,q=1 leaves one period

    def test_aperiodic(self):
        assert detect_eventual_period("abacabad") is None

    def test_resolution_label_carried(self):
        x = Configuration(A2, "one", (0, 0, 0))
        cert = lep_certificate(identity_rule(A2), x, 2, 2)
        assert cert.m == 2 and cert.horizon == 2

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            detect_eventual_period([])


@settings(max_examples=300)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=12))
def test_detect_matches_brute_force(trace):
    got = detect_eventual_period(trace)
    want = brute_force_certificate(trace)
    if want is None:
        assert got is None
    else:
        assert (got.p, got.q) == want
        assert certificate_holds(trace, got.p, got.q)


@settings(max_examples=150)
@given(st.lists(st.integers(0, 2), min_size=3, max_size=10))
def test_emitted_certificates_replay(trace):
    cert = detect_eventual_period(trace)
    if cert is not None:
        assert certificate_holds(trace, cert.p, cert.q)
        # shrinking either number of periods below two must fail validation
        assert not certificate_holds(trace[: cert.q + 2 * cert.p], cert.p, cert.q + 1)


class TestCertificateValidation:
    def test_needs_positive_period(self):
        with pytest.raises(ValueError):
            PeriodCertificate(p=0, q=0, horizon=4)

    def test_needs_two_periods(self):
        with pytest.raises(ValueError):
            PeriodCertificate(p=3, q=0, horizon=5)
        PeriodCertificate(p=3, q=0, horizon=6)  # exactly two periods is fine


def truncated_counter_period(sizes, m):
    """Oracle: cycle length of +1-with-carry restricted to the first m+1 digits."""
    digits = [sizes[min(i, len(sizes) - 1)] for i in range(m + 1)]
    state = tuple(0 for _ in digits)
    seen = {state: 0}
    t = 0
    while True:
        carry = 1
        nxt = list(state)
        for i, s in enumerate(digits):
            if not carry:
                break
            nxt[i] = (nxt[i] + carry) % s
            carry = 1 if nxt[i] == 0 else 0
        state = tuple(nxt)
        t += 1
        if state in seen:
            return t - seen[state]
        seen[state] = t


class TestOdometerCertificates:
    @pytest.mark.parametrize("sizes", [(2,), (2, 3), (3, 3)])
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
    def test_period_is_window_cycle_length(self, sizes, m):
        od = Odometer(sizes)
        mu = ProductMeasure(sizes)
        want_p = truncated_counter_period(sizes, m)
        x = mu.sample_config("one", m, substream(31, m, len(sizes)))
        cert = lep_certificate(od, x, m, 3 * want_p)
        assert cert is not None
        assert (cert.p, cert.q) == (want_p, 0)
        assert cert.p == od.window_period(m)

    def test_short_horizon_gives_none(self):
        od = Odometer((2, 3))
        x = Configuration(od.alphabet, "one", (0, 0))
        assert lep_certificate(od, x, 1, 8) is None  # needs 2 * 6 = 12


def test_shift_periodic_point_certified():
    sh = Shift(A2)
    y = Configuration(A2, "one", tuple([0, 1] * 8))
    cert = lep_certificate(sh, y, 1, 6)
    assert (cert.p, cert.q) == (2, 0)


def test_shift_preperiodic_point_certified_with_its_preperiod():
    x = Configuration(A2, "one", (1, 1, 0, 1, 0, 1, 0))
    cert = lep_certificate(Shift(A2), x, 0, 6)
    assert (cert.p, cert.q) == (2, 1)


def test_shift_random_points_rarely_certify_at_fine_resolution():
    sh = Shift(A2)
    mu = BernoulliMeasure([0.5, 0.5])
    hits = 0
    for i in range(200):
        x = mu.sample_config("one", 10 + 32, substream(77, i))
        if lep_certificate(sh, x, 10, 32) is not None:
            hits += 1
    assert hits <= 2


class TestLepStatistics:
    def test_odometer_all_certified(self):
        od = Odometer((2, 3))
        stats, = lep_statistics(
            od, ProductMeasure((2, 3)), m_list=[1], eps=0.05, n_samples=64,
            horizon=16, seed=5,
        )
        assert stats.certified_fraction == 1.0
        assert stats.lp_fraction == 1.0
        assert stats.p_quantile == 6 and stats.q_quantile == 0

    def test_nothing_certified_gives_empty_quantiles(self):
        sh = Shift(A2)
        stats, = lep_statistics(
            sh, BernoulliMeasure([0.5, 0.5]), m_list=[12], eps=0.05, n_samples=30,
            horizon=24, seed=2,
        )
        assert stats.certified_fraction < 1.0
        if stats.certified_fraction == 0.0:
            assert stats.p_quantile is None and stats.q_quantile is None


class TestClassify:
    def test_odometer_is_mu_lp(self):
        od = Odometer((2, 3))
        result = mu_lep_classify(
            od, ProductMeasure((2, 3)), m_list=[0, 1], eps=0.05,
            n_samples=48, horizon=16, seed=3,
        )
        assert result.verdict == "mu-LP"
        assert result.equicontinuity is not None
        assert result.equicontinuity.fraction == 1.0

    def test_identity_is_mu_lp(self):
        ident = identity_rule(A2)
        result = mu_lep_classify(
            ident, BernoulliMeasure([0.5, 0.5]), m_list=[0, 1], eps=0.05,
            n_samples=32, horizon=8, seed=3,
        )
        assert result.verdict == "mu-LP"

    def test_shift_is_neither(self):
        result = mu_lep_classify(
            Shift(A2), BernoulliMeasure([0.5, 0.5]), m_list=[10], eps=0.05,
            n_samples=60, horizon=32, seed=3,
        )
        assert result.verdict == "neither"
        assert result.equicontinuity is None

    def test_written_report_shape(self):
        od = Odometer((2,))
        result = mu_lep_classify(
            od, ProductMeasure((2,)), m_list=[0], eps=0.05,
            n_samples=16, horizon=8, seed=1,
        )
        d = _plain(result)
        assert d["verdict"] == "mu-LP"
        assert d["per_m"][0]["T"] == 8
        assert "equicontinuity" in d


# -- the batched certificate pass against scalar oracles -------------------------

def scalar_period(trace):
    """Oracle: per p, scan back for the last mismatch; the first p with room wins."""
    horizon = len(trace) - 1
    for p in range(1, horizon // 2 + 1):
        q_min = 0
        for i in range(horizon - p, -1, -1):
            if trace[i] != trace[i + p]:
                q_min = i + 1
                break
        if horizon - q_min >= 2 * p:
            return p, q_min
    return None


def scalar_lep_statistics(system, mu, m, eps, n_samples, horizon, seed, radius=None):
    """Oracle: draw block b of _BLOCK points with oracle_sample_batch from
    substream(seed, 0, b) on W_radius (by default the dependence window at m),
    cut each to the dependence window at m, then certify point by point
    through scalar_column_trace and scalar_period."""
    sided, rho = system_sided(system), dependence_radius(system, m, horizon)
    radius = rho if radius is None else radius
    certs = []
    for b, start in enumerate(range(0, n_samples, _BLOCK)):
        for row in oracle_sample_batch(mu, sided, radius, min(_BLOCK, n_samples - start), substream(seed, 0, b)):
            drawn = Configuration(mu.alphabet, sided, tuple(int(s) for s in row))
            x = Configuration(mu.alphabet, sided, drawn.window(rho))
            cert = scalar_period(scalar_column_trace(system, x, m, horizon))
            if cert is not None:
                certs.append(cert)
    if certs:
        k = math.ceil((1.0 - eps) * len(certs))
        p_q = sorted(p for p, _ in certs)[k - 1]
        q_q = sorted(q for _, q in certs)[k - 1]
    else:
        p_q = q_q = None
    return LepStatistics(
        m=m, eps=eps, horizon=horizon, n_samples=n_samples, seed=seed,
        certified_fraction=len(certs) / n_samples,
        lp_fraction=sum(1 for _, q in certs if q == 0) / n_samples,
        p_quantile=p_q, q_quantile=q_q,
    )


def trace_rows(width):
    return st.lists(st.lists(st.integers(0, 2), min_size=width, max_size=width), min_size=1, max_size=6)


@settings(max_examples=300)
@given(st.integers(1, 14).flatmap(trace_rows))
@example([[0]])  # T = 0
@example([[0, 1], [1, 1]])  # T = 1
@example([[0, 0, 0], [0, 1, 0], [1, 0, 0]])  # T = 2
@example([[2] * 13, [1] * 13])  # constant traces
@example([[0, 1, 0, 2, 0, 1, 0, 2, 1], [0, 1, 2, 0, 1, 1, 2, 2, 0]])  # no certificate
def test_batch_detector_matches_scalar_oracle(rows):
    p, q, found = detect_eventual_periods(np.array(rows))
    for i, trace in enumerate(rows):
        want = scalar_period(trace)
        assert bool(found[i]) == (want is not None)
        if want is not None:
            assert (int(p[i]), int(q[i])) == want


@settings(max_examples=100)
@given(st.text(alphabet="abc", min_size=1, max_size=12))
def test_symbol_traces_number_by_first_occurrence(text):
    as_tuples = [(ord(ch), "x") for ch in text]
    want = scalar_period(text)
    for trace in (text, as_tuples):
        cert = detect_eventual_period(trace)
        assert (None if cert is None else (cert.p, cert.q)) == want


def test_empty_code_matrix_rejected():
    with pytest.raises(ValueError):
        detect_eventual_periods(np.zeros((3, 0), dtype=np.int64))


BERNOULLI = BernoulliMeasure([0.3, 0.7])
MARKOV = MarkovMeasure([[0.7, 0.3], [0.4, 0.6]])


def assert_matches_oracle(system, mu, m, n_samples, horizon, seed, eps=0.1):
    got, = lep_statistics(system, mu, [m], eps=eps, n_samples=n_samples, horizon=horizon, seed=seed)
    assert got == scalar_lep_statistics(system, mu, m, eps, n_samples, horizon, seed)
    return got


def test_every_eca_matches_oracle():
    certified = 0
    for rule in range(256):
        mu = (BERNOULLI, MARKOV)[rule % 2]
        got = assert_matches_oracle(eca_rule(rule), mu, rule % 4, 10, 8, seed=rule)
        certified += got.certified_fraction > 0
    assert 0 < certified < 256


@pytest.mark.parametrize("m", [0, 1, 2, 3])
@pytest.mark.parametrize(
    "system, mu, horizon",
    [
        (Shift(A2), BERNOULLI, 8),
        (Shift(A2), MARKOV, 8),
        (Odometer((2, 3)), ProductMeasure((2, 3)), 16),
        (identity_rule(A2), BERNOULLI, 6),
        (identity_rule(A2, "two", 1), MARKOV, 6),
    ],
    ids=["shift-bernoulli", "shift-markov", "odometer-haar", "identity-bernoulli", "identity2-markov"],
)
def test_systems_match_oracle(system, mu, horizon, m):
    assert_matches_oracle(system, mu, m, 24, horizon, seed=m)


def test_window_too_wide_for_one_integer_matches_oracle():
    # W_70 of the one-sided binary shift has 71 cells: 2^71 words overflow int64
    got = assert_matches_oracle(Shift(A2), BERNOULLI, 70, 12, 6, seed=4)
    assert got.certified_fraction == 0.0


@pytest.mark.parametrize("rule", [110, 204])
def test_block_boundary_matches_oracle(rule):
    got = assert_matches_oracle(eca_rule(rule), MARKOV, 1, _BLOCK + 3, 8, seed=6, eps=0.05)
    assert got.certified_fraction > 0


@pytest.mark.parametrize(
    "system, mu, horizon",
    [
        (Shift(A2), MARKOV, 8),
        (Odometer((2, 3)), ProductMeasure((2, 3)), 16),
        (identity_rule(A2, "two", 1), MARKOV, 6),
        (eca_rule(110), MARKOV, 12),
        (eca_rule(184), BERNOULLI, 12),
    ],
    ids=["shift-markov", "odometer-haar", "identity2-markov", "eca110-markov", "eca184-bernoulli"],
)
def test_m_grid_matches_oracle_on_one_draw(system, mu, horizon):
    """Every m of the grid reads the points drawn on the largest m's window, cut to its own."""
    got = lep_statistics(system, mu, [3, 0, 1, 3], eps=0.1, n_samples=_BLOCK + 40, horizon=horizon, seed=8)
    radius = dependence_radius(system, 3, horizon)
    assert got == tuple(scalar_lep_statistics(system, mu, m, 0.1, _BLOCK + 40, horizon, 8, radius) for m in (0, 1, 3))


@pytest.mark.parametrize("rule", [110, 184])
def test_certified_fraction_is_nonincreasing_in_m(rule):
    # a certificate at m' holds for the slice at m < m'; lp_fraction carries no such order
    for seed in range(20):
        stats = lep_statistics(eca_rule(rule), MARKOV, [0, 1, 2, 3], n_samples=200, horizon=12, seed=seed)
        fractions = [s.certified_fraction for s in stats]
        assert [s.m for s in stats] == [0, 1, 2, 3] and {s.seed for s in stats} == {seed}
        assert fractions == sorted(fractions, reverse=True)


def test_report_types_unchanged():
    stats, = lep_statistics(eca_rule(110), MARKOV, [2], n_samples=300, horizon=16, seed=3)
    assert type(stats.certified_fraction) is float and type(stats.lp_fraction) is float
    assert type(stats.p_quantile) is int and type(stats.q_quantile) is int
    want = scalar_lep_statistics(eca_rule(110), MARKOV, 2, 0.05, 300, 16, 3)
    assert stats == want
    assert json.dumps(_plain(stats)) == json.dumps(_plain(want))


def test_incompatible_inputs_rejected():
    from fractions import Fraction

    from equidyn import Rotation, UnsupportedSystem

    with pytest.raises(UnsupportedSystem):
        lep_statistics(Rotation(Fraction(1, 3)), BERNOULLI, [1], n_samples=4, horizon=4)
    with pytest.raises(ValueError):
        lep_statistics(eca_rule(110), BernoulliMeasure([0.2, 0.3, 0.5]), [1], n_samples=4, horizon=4)
    with pytest.raises(ValueError):  # digit 2 does not exist at coordinate 0
        lep_statistics(Odometer((2, 3)), BernoulliMeasure([0.2, 0.3, 0.5]), [1], n_samples=4, horizon=4)


def test_certificate_checks_its_point_like_column_trace():
    with pytest.raises(InsufficientRadius):  # the shift's trace to T = 4 at m = 1 reads W_5
        lep_certificate(Shift(A2), Configuration(A2, "one", (0, 0)), 1, 4)
    with pytest.raises(ValueError, match="column 0"):  # digit 2 does not exist at coordinate 0
        lep_certificate(Odometer((2, 3)), Configuration(Alphabet(3), "one", (2, 0, 0)), 1, 1)
    with pytest.raises(ValueError, match="sided"):
        lep_certificate(Shift(A2), Configuration(A2, "two", (0, 0, 0, 0, 0)), 0, 2)


def test_memory_follows_the_block_not_the_sample_count():
    def peak(n_samples):
        tracemalloc.start()
        try:
            lep_statistics(
                Shift(A2), BernoulliMeasure([0.5, 0.5]), [0], n_samples=n_samples, horizon=128, seed=1
            )
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(16_384) <= 1.5 * peak(4_096)
