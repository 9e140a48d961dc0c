"""A (system, measure) pair is checked once, before the first draw: every sampled entry
refuses a measure that does not live on the system's cells on every seed, and draws nothing."""

import json

import pytest

from equidyn import (
    AlphabetMismatch,
    BernoulliMeasure,
    Configuration,
    Odometer,
    ProductMeasure,
    build_eigenfunction,
    density_curve,
    dichotomy_report,
    eca_rule,
    lep_statistics,
    mu_equicontinuity_report,
    mu_sensitivity_curve,
    spectral_family,
)
from equidyn.cli import main
from equidyn.measures import _CylinderMeasure
from equidyn.rng import derive_seed
from equidyn.systems import check_measure, system_sided

RARE = BernoulliMeasure([0.9, 0.09, 0.01])  # digit 2 is rare, so a draw holds it on some seeds only

# each pair with the error it raises; every draw below reaches W_3, which covers each bad cell
PAIRS = {
    "past the alphabet": (eca_rule(110), BernoulliMeasure([0.2, 0.3, 0.5]),
                          AlphabetMismatch, "measure over alphabet 3, system over 2"),
    "rare digit at odometer column 0": (Odometer((2, 3)), RARE, ValueError,
                                        "symbol 2 in column 0 outside the 2 symbols of that cell of the Odometer"),
    "odometer column 0": (Odometer((2, 3)), ProductMeasure((3, 3)), ValueError,
                          "symbol 2 in column 0 outside the 2 symbols of that cell of the Odometer"),
    "later odometer column": (Odometer((3, 2)), ProductMeasure((2, 3)), ValueError,
                              "symbol 2 in column 1 outside the 2 symbols of that cell of the Odometer"),
    "later odometer column inside the alphabet": (Odometer((2, 3, 2)), ProductMeasure((2, 3, 3)), ValueError,
                                                  "symbol 2 in column 2 outside the 2 symbols of that cell of the "
                                                  "Odometer"),
}
M, NS, T, N = 2, [1, 2, 3], 2, 50


def zeros(system, radius):
    """The all-zero point of the system's space, of valid radius `radius`."""
    sided = system_sided(system)
    return Configuration(system.alphabet, sided, (0,) * (radius + 1 if sided == "one" else 2 * radius + 1))


def entries(system, mu):
    """Every sampled entry, as a call of the seed."""
    x = zeros(system, 12)
    spec = build_eigenfunction(system, zeros(system, 90), M, 0, 40)  # 0^Z, or the odometer's period at W_2
    return {
        "density_curve": lambda s: density_curve(system, mu, x, M, NS, T, exact=False, n_samples=N,
                                                 seeds=[derive_seed(s, j) for j in range(len(NS))]),
        "mu_equicontinuity_report": lambda s: mu_equicontinuity_report(system, mu, M, NS, T, points=3, n_samples=N,
                                                                       seed=s, cap=1),
        "mu_sensitivity_curve": lambda s: mu_sensitivity_curve(system, mu, [1, 0.5], T, n_samples=N, seed=s),
        "dichotomy_report": lambda s: dichotomy_report(system, mu, [1], T, {"m": M, "n_list": NS, "horizon": T,
                                                                            "points": 3}, n_samples=N, seed=s, cap=1),
        "lep_statistics": lambda s: lep_statistics(system, mu, [0, M], n_samples=N, horizon=8, seed=s),
        "spectral_family": lambda s: spectral_family(spec, mu, T, [0], mode="sampled", n_samples=N, seed=s),
    }


@pytest.mark.parametrize("pair", PAIRS)
def test_every_sampled_entry_refuses_the_pair_on_every_seed_with_no_draw(monkeypatch, pair):
    system, mu, kind, message = PAIRS[pair]
    calls = entries(system, mu)
    draws = []
    for name in ("pieces", "sample_batch"):
        original = getattr(_CylinderMeasure, name)
        monkeypatch.setattr(_CylinderMeasure, name,
                            lambda self, *a, _f=original, _n=name, **k: draws.append(_n) or _f(self, *a, **k))
    for entry, call in calls.items():
        for seed in range(20):
            with pytest.raises(ValueError) as err:
                call(seed)
            assert (type(err.value), str(err.value)) == (kind, message), (entry, seed)
    assert draws == []


# the first window column each pair's measure does not fit; None: the alphabet, refused at every radius
BAD_COLUMN = {"past the alphabet": None, "rare digit at odometer column 0": 0, "odometer column 0": 0,
              "later odometer column": 1, "later odometer column inside the alphabet": 2}


@pytest.mark.parametrize("pair", PAIRS)
@pytest.mark.parametrize("radius", range(4))
def test_check_measure_refuses_once_the_radius_covers_the_bad_cell(pair, radius):
    """A draw on W_radius checks the cells of W_radius only: a family that draws short of the bad
    cell is not refused, and one that reaches it is, with the entries' error."""
    system, mu, kind, message = PAIRS[pair]
    column = BAD_COLUMN[pair]
    if column is not None and radius < column:
        check_measure(system, mu, radius)
        return
    with pytest.raises(ValueError) as err:
        check_measure(system, mu, radius)
    assert (type(err.value), str(err.value)) == (kind, message)


def test_a_zero_weight_digit_an_odometer_cell_lacks_is_refused():
    """A measure's symbols are its alphabet, whatever their weights: Bernoulli [0.5, 0.5, 0]
    never draws digit 2, yet Odometer((2, 3))'s cell 0 lacks it, so the pair is refused."""
    system, mu = Odometer((2, 3)), BernoulliMeasure([0.5, 0.5, 0.0])
    for entry, call in entries(system, mu).items():
        with pytest.raises(ValueError, match="symbol 2 in column 0"):
            call(0)


@pytest.mark.parametrize("command,params", [
    ("lep", {"m_list": [0, 1], "T": 8, "n_samples": 200}),
    ("sensitivity", {"eps_list": [1, 0.5], "T": 4, "n_samples": 200}),
    ("classify", {"m": 1, "n_list": [1, 2], "T": 2, "points": 5, "n_samples": 200}),
])
def test_cli_exits_4_on_every_seed(tmp_path, capsys, command, params):
    for seed in range(20):
        cfg = tmp_path / f"{seed}.json"
        cfg.write_text(json.dumps({"system": {"type": "odometer", "sizes": [2, 3]},
                                   "measure": {"type": "bernoulli", "weights": list(RARE.weights)},
                                   "params": params, "seed": seed}))
        out = tmp_path / f"{seed}.out.json"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 4, seed
        assert "symbol 2 in column 0" in capsys.readouterr().err, seed
        assert not out.exists()
