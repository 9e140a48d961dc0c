"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned as module constants next to each criterion. Verdict
lines are also collected in VERDICT_LINES; conftest replays them in the
terminal summary so they survive pytest's output capture.
"""

import itertools
import json
import math
import sys
import time
from fractions import Fraction

from equidyn import (
    Alphabet,
    BernoulliMeasure,
    CirclePoint,
    Configuration,
    Cylinder,
    LebesgueMeasure,
    MarkovMeasure,
    Odometer,
    ProductMeasure,
    Rotation,
    Shift,
    build_eigenfunction,
    density_curve,
    dichotomy_report,
    eca_rule,
    identity_rule,
    lep_certificate,
    maximal_cylinders,
    mu_equicontinuity_report,
    root_of_unity,
    spectral_family,
    union_probability,
    vitali_cover,
)
from equidyn.cli import main as cli_main
from equidyn.rng import derive_seed, substream
from equidyn.systems import dependence_radius, system_sided
from oracles import _scalar_f, compare_cylinders, cylinder_mass

A2 = Alphabet(2)
ACCEPT_SEED = 20260825

# pinned tolerances and limits
C1_SIGMA = 4.0
C1_SAMPLES = 10_000
C1_TIME_LIMIT = 120.0
C3_TIME_LIMIT = 10.0
C5_TOL = 1e-12
C5_TIME_LIMIT = 30.0
C6_THRESHOLD = 0.99
C7_TOL = 1e-10
C7_UNIONS = 100


VERDICT_LINES: list = []


def report(num: int, name: str, ok: bool) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num} {name}: {verdict}"
    VERDICT_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


def test_criterion_1_oracle_equivalence():
    """Monte Carlo density ratios agree with exact enumeration on the ECA grid."""
    t0 = time.monotonic()
    systems = [eca_rule(r) for r in (204, 170, 90, 184)]
    measures = [
        BernoulliMeasure([0.5, 0.5]),
        MarkovMeasure([[0.9, 0.1], [0.2, 0.8]]),
    ]
    failures = []
    idx = 0
    for system, mu in itertools.product(systems, measures):
        sided = system_sided(system)
        for m in (0, 1):
            radius = max(3, dependence_radius(system, m, 3))
            x = mu.sample_config(sided, radius, substream(ACCEPT_SEED, 0, idx))
            for n, horizon in itertools.product((1, 2, 3), (1, 2, 3)):
                exact = density_curve(system, mu, x, m, [n], horizon)[0][0]
                est = density_curve(
                    system, mu, x, m, [n], horizon, exact=False,
                    n_samples=C1_SAMPLES,
                    seeds=[derive_seed(ACCEPT_SEED, 1, idx, m, n, horizon)],
                )[1][0]
                if abs(est.p_hat - exact) > C1_SIGMA * est.stderr:
                    failures.append((system.table and "", m, n, horizon,
                                     exact, est.p_hat, est.stderr))
            idx += 1
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < C1_TIME_LIMIT
    report(1, f"oracle equivalence on the ECA grid ({elapsed:.1f}s)", ok)
    assert not failures, failures[:5]
    assert elapsed < C1_TIME_LIMIT


def test_criterion_2_shift_closed_form():
    """Exact shift ratios equal the per-cell mass product, bit for bit."""
    sh = Shift(A2)
    word = (0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1, 0)
    bad = []
    for p in (0.5, 0.25):
        mu = BernoulliMeasure([p, 1 - p])
        weights = (p, 1 - p)
        x = Configuration(A2, "one", word)
        for m in (0, 1, 2):
            for horizon in (0, 1, 2, 3, 4):
                for n in range(1, m + horizon + 1):
                    got = density_curve(sh, mu, x, m, [n], horizon)[0][0]
                    want = 1.0
                    for i in range(n + 1, m + horizon + 1):
                        want *= weights[word[i]]
                    if got != want:
                        bad.append((p, m, n, horizon, got, want))
    report(2, "shift closed form, exact equality", not bad)
    assert not bad, bad[:5]


def test_criterion_3_isometries_ratio_one():
    """Identity CA, odometers, and the rotation: ratio 1 and fraction 1."""
    t0 = time.monotonic()
    ok = True

    ident = identity_rule(A2)
    mu2 = BernoulliMeasure([0.5, 0.5])
    x = mu2.sample_config("one", 6, substream(ACCEPT_SEED, 3, 0))
    for m in (0, 1, 2, 3):
        for n in range(max(m, 1), m + 3):
            ok &= density_curve(ident, mu2, x, m, [n], 6)[0][0] == 1.0

    for sizes in ((2,), (2, 3), (3, 3)):
        od = Odometer(sizes)
        haar = ProductMeasure(sizes)
        y = haar.sample_config("one", 6, substream(ACCEPT_SEED, 3, 1))
        for m in (0, 1, 2, 3):
            for n in range(max(m, 1), m + 3):
                ok &= density_curve(od, haar, y, m, [n], 6)[0][0] == 1.0
        rep = mu_equicontinuity_report(
            od, haar, m=2, n_list=[2, 3, 4], horizon=8,
            points=20, n_samples=200, seed=derive_seed(ACCEPT_SEED, 3, 2),
        )
        ok &= rep.fraction == 1.0

    rot = Rotation(Fraction(2, 7))
    leb = LebesgueMeasure()
    for m in (1, 2, 3):
        for n in range(m, m + 3):
            ok &= density_curve(rot, leb, CirclePoint(Fraction(1, 9)), m, [n], 6)[0][0] == 1.0
    rot_rep = mu_equicontinuity_report(
        rot, leb, m=2, n_list=[2, 4], horizon=5,
        points=20, n_samples=200, seed=derive_seed(ACCEPT_SEED, 3, 3),
    )
    ok &= rot_rep.fraction == 1.0

    ident_rep = mu_equicontinuity_report(
        ident, mu2, m=1, n_list=[1, 2], horizon=6,
        points=20, n_samples=200, seed=derive_seed(ACCEPT_SEED, 3, 4),
    )
    ok &= ident_rep.fraction == 1.0

    elapsed = time.monotonic() - t0
    ok = ok and elapsed < C3_TIME_LIMIT
    report(3, f"isometry ratios exactly one ({elapsed:.1f}s)", ok)
    assert ok


def brute_force_cycle(sizes, m):
    """Cycle length of the truncated counter on the first m + 1 digits."""
    digits = [sizes[min(i, len(sizes) - 1)] for i in range(m + 1)]
    start = tuple(0 for _ in digits)
    state, steps = start, 0
    while True:
        carry = 1
        nxt = list(state)
        for i, s in enumerate(digits):
            if not carry:
                break
            nxt[i] = (nxt[i] + 1) % s
            carry = 1 if nxt[i] == 0 else 0
        state, steps = tuple(nxt), steps + 1
        if state == start:
            return steps


def test_criterion_4_period_certificates():
    """Odometer certificates match the brute-force cycle; random shift points do not certify."""
    ok = True
    for sizes in ((2,), (2, 3), (3, 3)):
        od = Odometer(sizes)
        haar = ProductMeasure(sizes)
        for m in range(5):
            want_p = brute_force_cycle(sizes, m)
            x = haar.sample_config("one", m, substream(ACCEPT_SEED, 4, m, len(sizes)))
            cert = lep_certificate(od, x, m, 2 * want_p + 2)
            ok &= cert is not None and (cert.p, cert.q) == (want_p, 0)
            ok &= want_p == math.prod(
                sizes[min(i, len(sizes) - 1)] for i in range(m + 1)
            )

    sh = Shift(A2)
    mu = BernoulliMeasure([0.5, 0.5])
    m_fine, horizon = 10, 32
    none_count = 0
    for i in range(1000):
        x = mu.sample_config("one", m_fine + horizon, substream(ACCEPT_SEED, 5, i))
        if lep_certificate(sh, x, m_fine, horizon) is None:
            none_count += 1
    ok &= none_count >= 990
    report(4, f"period certificates (shift none rate {none_count/1000:.3f})", ok)
    assert ok


def test_criterion_5_spectral_suite():
    """Residuals, orthogonality, and partition of unity within 1e-12."""
    t0 = time.monotonic()
    ok = True

    for p in range(1, 65):
        for k in (0, 1, p // 2, p - 1):
            total = sum(root_of_unity(p, j * k) for j in range(p))
            want = p if k % p == 0 else 0
            ok &= abs(total - want) <= C5_TOL

    cases = [((2,), 3), ((2, 3), 2), ((3, 3), 1)]
    for sizes, m_max in cases:
        od = Odometer(sizes)
        haar = ProductMeasure(sizes)
        for m in range(m_max + 1):
            p = od.window_period(m)
            y = Configuration(od.alphabet, "one", (0,) * (m + 1))
            base = build_eigenfunction(od, y, m, 0, 2 * p)
            rows, max_cross = spectral_family(base, haar, 2, list(range(p)), mode="exact")
            for _, residual, norm_sq in rows:
                ok &= residual <= C5_TOL
                ok &= abs(norm_sq - 1) <= C5_TOL
            ok &= max_cross <= C5_TOL
            # partition of unity: the k = 0 eigenfunction is constant 1
            from equidyn.spectral import event_table
            tab = event_table(base, 2)
            from equidyn.core import iter_words, window_cells
            from equidyn.systems import cell_sizes
            sizes_w = cell_sizes(od, window_cells("one", tab.rho))
            for wrd in iter_words(sizes_w):
                xx = Configuration(od.alphabet, "one", wrd)
                ok &= _scalar_f(base, tab, xx) == 1

    elapsed = time.monotonic() - t0
    ok = ok and elapsed < C5_TIME_LIMIT
    report(5, f"spectral suite within 1e-12 ({elapsed:.1f}s)", ok)
    assert ok


def test_criterion_6_dichotomy():
    """Shift is mu-sensitive at the closed-form rate; identity CA is mu-equicontinuous."""
    mu = BernoulliMeasure([0.5, 0.5])
    equi = {"m": 1, "n_list": [1, 2, 3], "horizon": 3, "points": 16, "n_samples": 500}

    shift_rep = dichotomy_report(
        Shift(A2), mu, eps_list=[2], horizon=20,
        equi_params=equi, n_samples=10_000, seed=derive_seed(ACCEPT_SEED, 6, 0),
    )
    shift_p = shift_rep.sensitivity[0].p_hat
    target = 1 - 2.0 ** -20
    ok = shift_rep.verdict == "mu-sensitive"
    ok &= shift_p >= C6_THRESHOLD
    ok &= abs(shift_p - target) <= 4 * max(shift_rep.sensitivity[0].stderr, 1e-4)

    ident_rep = dichotomy_report(
        identity_rule(A2), mu, eps_list=[2], horizon=20,
        equi_params={"m": 1, "n_list": [1, 2], "horizon": 3, "points": 16,
                     "n_samples": 500},
        n_samples=10_000, seed=derive_seed(ACCEPT_SEED, 6, 1),
    )
    ok &= ident_rep.verdict == "mu-equicontinuous"

    bundled = [
        (Shift(A2), mu, equi),
        (identity_rule(A2), mu, {"m": 1, "n_list": [1, 2], "horizon": 3,
                                 "points": 12, "n_samples": 300}),
        (eca_rule(90), mu, {"m": 1, "n_list": [1, 2], "horizon": 2,
                            "points": 12, "n_samples": 300}),
        (eca_rule(184), mu, {"m": 1, "n_list": [1, 2], "horizon": 2,
                             "points": 12, "n_samples": 300}),
        (Odometer((2, 2)), ProductMeasure((2, 2)),
         {"m": 2, "n_list": [2, 3], "horizon": 4, "points": 12, "n_samples": 300}),
    ]
    for i, (system, meas, eq) in enumerate(bundled):
        rep = dichotomy_report(
            system, meas, eps_list=[2, 1], horizon=10,
            equi_params=eq, n_samples=3000, seed=derive_seed(ACCEPT_SEED, 6, 2, i),
        )
        fires = max(e.p_hat for e in rep.sensitivity) >= 1 - rep.delta_s
        equi_holds = rep.equicontinuity.fraction >= 1 - rep.delta_e
        sensitive_branch = fires and rep.equicontinuity.fraction <= rep.delta_e
        equi_branch = equi_holds and not fires
        ok &= not (sensitive_branch and equi_branch)

    report(6, f"dichotomy (shift p_hat {shift_p:.4f})", ok)
    assert ok


def test_criterion_7_measure_vitali_suite():
    """Consistency sums within 1e-10; Vitali leftover exactly zero, 100 unions."""
    ok = True
    measures = [
        BernoulliMeasure([0.3, 0.7]),
        MarkovMeasure([[0.9, 0.1], [0.2, 0.8]]),
        ProductMeasure((2, 3)),
    ]
    for mu in measures:
        sided_options = ("one",) if isinstance(mu, ProductMeasure) else ("one", "two")
        for sided in sided_options:
            # Kolmogorov: mass of W_1 cylinders equals the sum of extensions
            width = 2 if sided == "one" else 3
            sizes = [mu.cell_size(i) for i in range(width)]
            for word in itertools.product(*[range(s) for s in sizes]):
                c = Cylinder(mu.alphabet, sided, 1, word)
                base = cylinder_mass(mu, c)
                if sided == "one":
                    exts = [word + (s,) for s in range(mu.cell_size(2))]
                    total = sum(
                        cylinder_mass(mu, Cylinder(mu.alphabet, sided, 2, e))
                        for e in exts
                    )
                else:
                    total = sum(
                        cylinder_mass(
                            mu, Cylinder(mu.alphabet, sided, 2, (a,) + word + (b,))
                        )
                        for a in range(mu.alphabet.size)
                        for b in range(mu.alphabet.size)
                    )
                ok &= abs(total - base) <= C7_TOL
            # radius-2 partition sums to one
            part_sizes = [mu.cell_size(i) for i in range(3)] if sided == "one" else \
                [mu.alphabet.size] * 5
            total = sum(
                cylinder_mass(mu, Cylinder(mu.alphabet, sided, 2, w))
                for w in itertools.product(*[range(s) for s in part_sizes])
            )
            ok &= abs(total - 1.0) <= C7_TOL

    mu = BernoulliMeasure([0.5, 0.5])
    rng = substream(ACCEPT_SEED, 7)
    for trial in range(C7_UNIONS):
        parts = []
        for _ in range(int(rng.integers(1, 7))):
            r = int(rng.integers(0, 4))
            word = tuple(int(s) for s in rng.integers(0, 2, size=r + 1))
            parts.append(Cylinder(A2, "one", r, word))
        pieces = maximal_cylinders(parts)
        fam = vitali_cover(mu, pieces, min_radius=5)
        cyls = [Cylinder(fam.alphabet, fam.sided, n, word) for word, n in fam.balls]
        for i in range(len(cyls)):
            for j in range(i + 1, len(cyls)):
                ok &= compare_cylinders(cyls[i], cyls[j]) == "disjoint"
        leftover = union_probability(mu, pieces) - sum(fam.masses(mu))
        ok &= leftover == 0.0

    report(7, "measure and Vitali suite", ok)
    assert ok


def test_criterion_8_byte_identical_reports(tmp_path):
    """Reports are byte-identical across reruns and across 1 vs 8 workers."""
    ok = True
    configs = {
        "classify": {
            "system": {"type": "eca", "rule": 90},
            "measure": {"type": "bernoulli", "weights": [0.5, 0.5]},
            "params": {"m": 1, "n_list": [1, 2], "T": 2, "points": 12,
                       "n_samples": 800},
            "seed": 41,
        },
        "dichotomy": {
            "system": {"type": "shift", "alphabet": 2},
            "measure": {"type": "bernoulli", "weights": [0.5, 0.5]},
            "params": {"eps_list": [2, 1], "T": 10, "n_samples": 2000,
                       "equi": {"m": 1, "n_list": [1, 2], "T": 3, "points": 10,
                                "n_samples": 300}},
            "seed": 42,
        },
        "lep": {
            "system": {"type": "odometer", "sizes": [2, 3]},
            "measure": {"type": "haar", "sizes": [2, 3]},
            "params": {"m_list": [0, 1], "T": 16, "n_samples": 100},
            "seed": 43,
        },
    }
    for command, cfg in configs.items():
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(cfg))
        outputs = {}
        for tag, threads in (("a1", 1), ("a2", 1), ("b8", 8)):
            out = tmp_path / f"{command}-{tag}.json"
            code = cli_main([command, "--config", str(cfg_path),
                             "--out", str(out), "--threads", str(threads)])
            ok &= code == 0
            outputs[tag] = out.read_bytes()
            csv_path = str(out)[:-5] + ".csv"
            outputs[tag + "-csv"] = open(csv_path, "rb").read()
        ok &= outputs["a1"] == outputs["a2"] == outputs["b8"]
        ok &= outputs["a1-csv"] == outputs["a2-csv"] == outputs["b8-csv"]
    report(8, "byte-identical reports", ok)
    assert ok
