"""End-to-end runs of the equidyn command line front end."""

import copy
import csv
import hashlib
import importlib.util
import json
import os
import random
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import equidyn.cli
import equidyn.spectral
from equidyn.cli import _report_text, fmt_prob, main
from equidyn.core import Alphabet, Cylinder, word_to_str
from equidyn.measures import BernoulliMeasure, ProductMeasure, vitali_cover
from equidyn.orbit import EquicontinuityReport, PointCurve
from equidyn.periodicity import LepClassification, LepStatistics
from equidyn.rng import substream
from equidyn.sensitivity import DichotomyReport, SensitivityEstimate
from equidyn.systems import row_words

DENSITY_CFG = {
    "system": {"type": "eca", "rule": 90},
    "measure": {"type": "bernoulli", "weights": [0.5, 0.5]},
    "params": {"m": 1, "n_list": [1, 2, 3], "T": 2, "n_samples": 400},
    "seed": 17,
}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(args):
    return main([str(a) for a in args])


class TestDensityCommand:
    def test_writes_json_and_csv(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, DENSITY_CFG)
        out = tmp_path / "report.json"
        assert run(["density", "--config", cfg, "--out", out]) == 0
        assert capsys.readouterr().out.strip() == str(out)

        payload = json.loads(out.read_text())
        assert payload["command"] == "density"
        assert payload["config"]["seed"] == 17
        assert payload["results"]["rows"][2]["exact"] == 1.0

        with open(tmp_path / "report.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "exact", "p_hat", "stderr"]
        assert len(rows) == 4

    def test_estimates_track_exact(self, tmp_path):
        cfg = write_cfg(tmp_path, DENSITY_CFG)
        out = tmp_path / "r.json"
        run(["density", "--config", cfg, "--out", out])
        for row in json.loads(out.read_text())["results"]["rows"]:
            if row["exact"] is not None and row["stderr"] > 0:
                assert abs(row["p_hat"] - row["exact"]) <= 5 * row["stderr"]

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_cfg(tmp_path, DENSITY_CFG)
        out = tmp_path / "r.json"
        run(["density", "--config", cfg, "--out", out, "--seed", "99"])
        assert json.loads(out.read_text())["config"]["seed"] == 99

    def test_rotation_defaults_to_lebesgue(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "system": {"type": "rotation", "alpha": "1/5"},
            "params": {"m": 2, "n_list": [2, 4], "T": 3, "n_samples": 200},
            "seed": 2,
        })
        out = tmp_path / "rot.json"
        assert run(["density", "--config", cfg, "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["measure"] == {"type": "lebesgue"}


class TestExitCodes:
    def test_missing_horizon_names_the_field(self, tmp_path, capsys):
        cfg = dict(DENSITY_CFG, params={"m": 1, "n_list": [1]})
        path = write_cfg(tmp_path, cfg)
        assert run(["density", "--config", path, "--out", tmp_path / "x.json"]) == 2
        err = capsys.readouterr().err
        assert "T" in err and "missing" in err

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["density", "--config", bad, "--out", tmp_path / "x.json"]) == 2

    def test_missing_file(self, tmp_path):
        assert run(["density", "--config", tmp_path / "ghost.json"]) == 2

    def test_unknown_system_type(self, tmp_path):
        cfg = dict(DENSITY_CFG, system={"type": "baker"})
        path = write_cfg(tmp_path, cfg)
        assert run(["density", "--config", path, "--out", tmp_path / "x.json"]) == 2

    def test_enumeration_cap_exit(self, tmp_path, capsys):
        cfg = {
            "measure": {"type": "bernoulli", "weights": [0.5, 0.5]},
            "params": {
                "cylinders": [{"radius": 1, "word": "00"}],
                "min_radius": 40,
            },
        }
        path = write_cfg(tmp_path, cfg)
        assert run(["vitali", "--config", path, "--out", tmp_path / "x.json"]) == 3
        assert "cap" in capsys.readouterr().err

    def test_domain_failure_exit(self, tmp_path, capsys):
        # a random-looking base point carries no periodicity certificate
        cfg = {
            "system": {"type": "shift", "alphabet": 2},
            "measure": {"type": "bernoulli", "weights": [0.5, 0.5]},
            "params": {"m": 0, "T": 2, "cert_T": 8, "y": "011010010"},
            "seed": 0,
        }
        path = write_cfg(tmp_path, cfg)
        assert run(["spectral", "--config", path, "--out", tmp_path / "x.json"]) == 4
        assert "certificate" in capsys.readouterr().err

    def test_odometer_digit_outside_its_cell_exits_4(self, tmp_path, capsys):
        # digit 2 fits the 3-symbol alphabet but not cell 0, which has two values
        cfg = write_cfg(tmp_path, {
            "system": {"type": "odometer", "sizes": [2, 3]},
            "measure": {"type": "haar", "sizes": [2, 3]},
            "params": {"m": 1, "T": 2, "cert_T": 8, "y": "2000000"},
            "seed": 1,
        })
        out = tmp_path / "x.json"
        assert run(["spectral", "--config", cfg, "--out", out]) == 4
        assert "symbol 2 in column 0" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_threads_value(self, tmp_path):
        path = write_cfg(tmp_path, DENSITY_CFG)
        assert run(["density", "--config", path, "--threads", "0",
                    "--out", tmp_path / "x.json"]) == 2


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        path = write_cfg(tmp_path, DENSITY_CFG)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["density", "--config", path, "--out", a])
        run(["density", "--config", path, "--out", b])
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_threads_do_not_change_bytes(self, tmp_path):
        cfg = {
            "system": {"type": "shift", "alphabet": 2},
            "measure": {"type": "bernoulli", "weights": [0.5, 0.5]},
            "params": {"m": 1, "n_list": [1, 2], "T": 3, "points": 10,
                       "n_samples": 300},
            "seed": 6,
        }
        path = write_cfg(tmp_path, cfg)
        a, b = tmp_path / "t1.json", tmp_path / "t8.json"
        run(["classify", "--config", path, "--out", a, "--threads", "1"])
        run(["classify", "--config", path, "--out", b, "--threads", "8"])
        assert a.read_bytes() == b.read_bytes()

    def test_no_leftover_temp_files(self, tmp_path):
        path = write_cfg(tmp_path, DENSITY_CFG)
        out = tmp_path / "a.json"
        run(["density", "--config", path, "--out", out])
        assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]


class TestOtherCommands:
    def test_lep_roundtrip(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "system": {"type": "odometer", "sizes": [2, 3]},
            "measure": {"type": "haar", "sizes": [2, 3]},
            "params": {"m_list": [0, 1], "T": 16, "n_samples": 60},
            "seed": 3,
        })
        out = tmp_path / "lep.json"
        assert run(["lep", "--config", cfg, "--out", out]) == 0
        results = json.loads(out.read_text())["results"]
        assert results["verdict"] == "mu-LP"
        assert results["per_m"][1]["p_quantile"] == 6

    def test_spectral_roundtrip(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "system": {"type": "odometer", "sizes": [2, 2]},
            "measure": {"type": "haar", "sizes": [2, 2]},
            "params": {"m": 1, "T": 2, "cert_T": 8},
            "seed": 1,
        })
        out = tmp_path / "sp.json"
        assert run(["spectral", "--config", cfg, "--out", out]) == 0
        results = json.loads(out.read_text())["results"]
        assert results["p"] == 4
        assert all(row["residual"] <= 1e-12 for row in results["rows"])
        assert results["max_cross_inner_product"] <= 1e-12

    def test_sensitivity_roundtrip(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "system": {"type": "shift", "alphabet": 2},
            "measure": {"type": "bernoulli", "weights": [0.5, 0.5]},
            "params": {"eps_list": [2, 1], "T": 10, "n_samples": 2000},
            "seed": 8,
        })
        out = tmp_path / "sens.json"
        assert run(["sensitivity", "--config", cfg, "--out", out]) == 0
        rows = json.loads(out.read_text())["results"]["rows"]
        assert rows[0]["p_hat"] >= 0.99

    def test_dichotomy_roundtrip(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "system": {"type": "eca", "rule": 204},
            "measure": {"type": "bernoulli", "weights": [0.5, 0.5]},
            "params": {"eps_list": [2], "T": 8, "n_samples": 1000,
                       "equi": {"m": 1, "n_list": [1, 2], "T": 3, "points": 8,
                                "n_samples": 200}},
            "seed": 2,
        })
        out = tmp_path / "dich.json"
        assert run(["dichotomy", "--config", cfg, "--out", out]) == 0
        assert json.loads(out.read_text())["results"]["verdict"] == "mu-equicontinuous"

    def test_vitali_roundtrip(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "measure": {"type": "bernoulli", "weights": [0.5, 0.5]},
            "params": {"cylinders": [{"radius": 1, "word": "00"},
                                     {"radius": 2, "word": "011"}],
                       "min_radius": 2},
        })
        out = tmp_path / "vit.json"
        assert run(["vitali", "--config", cfg, "--out", out]) == 0
        results = json.loads(out.read_text())["results"]
        assert results["leftover"] == 0.0
        assert results["union_mass"] == 0.375


DICHOTOMY_CFG = {
    "system": {"type": "eca", "rule": 204},
    "measure": {"type": "bernoulli", "weights": [0.5, 0.5]},
    "params": {"eps_list": [2], "T": 8, "n_samples": 500,
               "equi": {"m": 1, "n_list": [1, 2], "T": 3, "points": 4,
                        "n_samples": 100}},
    "seed": 2,
}
LEP_CFG = {
    "system": {"type": "odometer", "sizes": [2, 3]},
    "measure": {"type": "haar", "sizes": [2, 3]},
    "params": {"m_list": [0, 1], "T": 16, "n_samples": 60},
    "seed": 3,
}
LEP_EQUI_CFG = {**LEP_CFG, "params": {**LEP_CFG["params"], "equi": {}}}
VITALI_CFG = {
    "measure": {"type": "bernoulli", "weights": [0.5, 0.5]},
    "params": {"cylinders": [{"radius": 1, "word": "00"}], "min_radius": 2},
}
# a word of two-sided length, so only the one-sided haar measure rules "sided": "two" out
HAAR_VITALI_CFG = {
    "measure": {"type": "haar", "sizes": [2, 3]},
    "params": {"cylinders": [{"radius": 1, "word": "010"}], "min_radius": 2},
}
SPECTRAL_CFG = {
    "system": {"type": "odometer", "sizes": [2, 2]},
    "measure": {"type": "haar", "sizes": [2, 2]},
    "params": {"m": 1, "T": 2, "cert_T": 8},
    "seed": 1,
}
# "000" certifies at m 0 to cert_T 2 (p 1), but the event table traces W_0 to T 8, reading W_8
SHIFT_SPECTRAL_CFG = {
    "system": {"type": "shift", "alphabet": 2},
    "measure": {"type": "bernoulli", "weights": [0.5, 0.5]},
    "params": {"m": 0, "T": 8, "cert_T": 2},
    "seed": 1,
}


def with_field(cfg, path, value):
    """Deep copy of `cfg` with the dotted `path` set to `value`."""
    out = copy.deepcopy(cfg)
    *parents, last = path.split(".")
    node = out
    for key in parents:
        node = node[key]
    node[last] = value
    return out


FIELD_ERROR_CASES = [
    ("density", DENSITY_CFG, "cap", "abc", "cap"),
    ("density", DENSITY_CFG, "seed", "abc", "seed"),
    ("density", DENSITY_CFG, "params.n_list", [1, "x"], "params.n_list"),
    ("classify", DENSITY_CFG, "params.n_list", ["x"], "params.n_list"),
    ("classify", DENSITY_CFG, "params.delta", "abc", "params.delta"),
    ("dichotomy", DICHOTOMY_CFG, "params.equi.m", "abc", "params.equi.m"),
    ("dichotomy", DICHOTOMY_CFG, "params.equi.T", None, "params.equi.T"),
    ("dichotomy", DICHOTOMY_CFG, "params.equi.n_list", [1, "x"], "params.equi.n_list"),
    ("dichotomy", DICHOTOMY_CFG, "params.equi.points", "many", "params.equi.points"),
    ("dichotomy", DICHOTOMY_CFG, "params.equi.delta", "abc", "params.equi.delta"),
    ("dichotomy", DICHOTOMY_CFG, "params.delta_s", "abc", "params.delta_s"),
    ("dichotomy", DICHOTOMY_CFG, "params.eps_list", ["abc"], "params.eps_list"),
    ("sensitivity", DICHOTOMY_CFG, "params.eps_list", [1, "abc"], "params.eps_list"),
    ("lep", LEP_CFG, "params.m_list", ["a"], "params.m_list"),
    ("lep", LEP_CFG, "params.eps", "abc", "params.eps"),
    ("spectral", SPECTRAL_CFG, "params.k_list", [0, "a"], "params.k_list"),
    ("spectral", SPECTRAL_CFG, "params.k_list", 3, "params.k_list"),
    ("spectral", SPECTRAL_CFG, "params.k_list", [0, 9], "params.k_list"),
    ("spectral", SPECTRAL_CFG, "params.k_list", [-1], "params.k_list"),
    ("lep", LEP_EQUI_CFG, "params.equi.m", "abc", "params.equi.m"),
    ("lep", LEP_EQUI_CFG, "params.equi.n_list", [1, "x"], "params.equi.n_list"),
    ("lep", LEP_EQUI_CFG, "params.equi.T", "abc", "params.equi.T"),
    ("lep", LEP_EQUI_CFG, "params.equi.points", "many", "params.equi.points"),
    ("lep", LEP_EQUI_CFG, "params.equi.delta", "abc", "params.equi.delta"),
    ("lep", LEP_CFG, "params.equi", [3], "params.equi"),
    ("vitali", VITALI_CFG, "params.eps", "abc", "params.eps"),
    ("vitali", VITALI_CFG, "params.sided", "three", "params.sided"),
    # numbers of the wrong kind or range; the last entry keeps their test ids apart
    ("density", DENSITY_CFG, "params.n_samples", 2.5, "params.n_samples", "fraction"),
    ("density", DENSITY_CFG, "params.n_list", [1.9], "params.n_list", "fraction"),
    ("density", DENSITY_CFG, "params.m", True, "params.m", "bool"),
    ("classify", DENSITY_CFG, "params.points", True, "params.points", "bool"),
    ("density", DENSITY_CFG, "cap", True, "cap", "bool"),
    ("density", DENSITY_CFG, "cap", -1, "cap", "negative"),
    ("density", DENSITY_CFG, "cap", 0, "cap", "zero"),
    ("vitali", VITALI_CFG, "params.sided", "two", "params.sided", "one-sided-words"),
    ("vitali", HAAR_VITALI_CFG, "params.sided", "two", "params.sided", "haar"),
    ("vitali", VITALI_CFG, "measure", {"type": "lebesgue"}, "measure", "lebesgue"),
    ("density", DENSITY_CFG, "seed", False, "seed", "bool"),
    ("classify", DENSITY_CFG, "params.delta", 1.5, "params.delta", "above-1"),
    ("classify", DENSITY_CFG, "params.delta", 0, "params.delta", "zero"),
    ("classify", DENSITY_CFG, "params.delta", True, "params.delta", "bool"),
    ("dichotomy", DICHOTOMY_CFG, "params.delta_s", 1.5, "params.delta_s", "above-1"),
    ("dichotomy", DICHOTOMY_CFG, "params.delta_e", -0.1, "params.delta_e", "negative"),
    ("dichotomy", DICHOTOMY_CFG, "params.equi.delta", 1, "params.equi.delta", "one"),
    ("lep", LEP_EQUI_CFG, "params.equi.delta", 0.0, "params.equi.delta", "zero"),
    ("lep", LEP_CFG, "params.eps", 7, "params.eps", "above-1"),
    ("lep", LEP_CFG, "params.eps", -1, "params.eps", "negative"),
    ("vitali", VITALI_CFG, "params.eps", -1, "params.eps", "negative"),
    ("sensitivity", DICHOTOMY_CFG, "params.eps_list", [1, 0], "params.eps_list", "zero"),
    ("sensitivity", DICHOTOMY_CFG, "params.eps_list", [3], "params.eps_list", "above-2"),
    ("dichotomy", DICHOTOMY_CFG, "params.eps_list", [0], "params.eps_list", "zero"),
    ("dichotomy", DICHOTOMY_CFG, "params.eps_list", [2, 3], "params.eps_list", "above-2"),
    ("classify", DENSITY_CFG, "params.n_list", [0, 1], "params.n_list", "zero"),
    ("dichotomy", DICHOTOMY_CFG, "params.equi.n_list", [0], "params.equi.n_list", "zero"),
    ("lep", LEP_EQUI_CFG, "params.equi.n_list", [0, 2], "params.equi.n_list", "zero"),
    ("lep", LEP_CFG, "params.m_list", [-1, 1], "params.m_list", "negative"),
    ("spectral", SPECTRAL_CFG, "params.y", "0", "params.y", "short-to-certify"),
    ("spectral", SHIFT_SPECTRAL_CFG, "params.y", "000", "params.y", "short-to-trace"),
]


class TestConfigFieldErrors:
    @pytest.mark.parametrize(
        "command,cfg,path,value,field", [case[:5] for case in FIELD_ERROR_CASES],
        ids=["-".join((case[0], case[2]) + case[5:]) for case in FIELD_ERROR_CASES],
    )
    def test_bad_value_exits_2_naming_the_field(self, tmp_path, capsys, command, cfg, path, value, field):
        bad = with_field(cfg, path, value)
        assert run([command, "--config", write_cfg(tmp_path, bad), "--out", tmp_path / "x.json"]) == 2
        assert f"'{field}'" in capsys.readouterr().err

    def test_integral_floats_are_integers(self, tmp_path):
        reports = []
        for n_samples, n_list in ((400, [1, 2, 3]), (4e2, [1.0, 2, 3e0])):
            out = tmp_path / f"{n_samples!r}.json"
            cfg = with_field(with_field(DENSITY_CFG, "params.n_samples", n_samples), "params.n_list", n_list)
            assert run(["density", "--config", write_cfg(tmp_path, cfg), "--out", out]) == 0
            reports.append(json.loads(out.read_text())["results"])
        assert reports[0] == reports[1] and reports[1]["n_samples"] == 400

    def test_bad_cylinder_radius_names_its_index(self, tmp_path, capsys):
        bad = copy.deepcopy(VITALI_CFG)
        bad["params"]["cylinders"][0]["radius"] = "one"
        assert run(["vitali", "--config", write_cfg(tmp_path, bad), "--out", tmp_path / "x.json"]) == 2
        assert "'params.cylinders[0].radius'" in capsys.readouterr().err

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, DENSITY_CFG)
        assert run(["density", "--config", path, "--seed", "-1", "--out", tmp_path / "x.json"]) == 2
        assert "'seed'" in capsys.readouterr().err


class TestCapPassThrough:
    def test_dichotomy_honours_the_config_cap(self, tmp_path):
        out = tmp_path / "dich.json"
        path = write_cfg(tmp_path, dict(DICHOTOMY_CFG, cap=1))
        assert run(["dichotomy", "--config", path, "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["cap"] == 1
        curves = payload["results"]["equicontinuity"]["curves"]
        assert curves and not any(c["exact"] for c in curves)

    def test_lep_honours_the_config_cap(self, tmp_path):
        out = tmp_path / "lep.json"
        path = write_cfg(tmp_path, dict(LEP_CFG, cap=1))
        assert run(["lep", "--config", path, "--out", out]) == 0
        curves = json.loads(out.read_text())["results"]["equicontinuity"]["curves"]
        assert curves and not any(c["exact"] for c in curves)


class TestExactOrSampleBoundary:
    """The exact route runs while the nominal W_rho word count fits under `cap`.

    DENSITY_CFG's ECA 90 at m 1, T 2 has rho 3, so W_rho is 7 binary cells.
    """

    WORDS = 2 ** 7

    @pytest.mark.parametrize("cap,exact", [(WORDS, True), (WORDS - 1, False)], ids=["at-count", "below"])
    def test_density_and_classify_switch_at_the_word_count(self, tmp_path, cap, exact):
        cfg = dict(DENSITY_CFG, cap=cap, params=dict(DENSITY_CFG["params"], points=3))
        path = write_cfg(tmp_path, cfg)
        density, classify = tmp_path / "density.json", tmp_path / "classify.json"
        assert run(["density", "--config", path, "--out", density]) == 0
        assert run(["classify", "--config", path, "--out", classify]) == 0
        rows = json.loads(density.read_text())["results"]["rows"]
        curves = json.loads(classify.read_text())["results"]["curves"]
        assert [row["exact"] is not None for row in rows] == [exact] * 3
        assert [curve["exact"] for curve in curves] == [exact] * 3


class TestLepEquiParams:
    def test_cli_horizon_key_reaches_the_report(self, tmp_path):
        out = tmp_path / "lep.json"
        path = write_cfg(tmp_path, with_field(LEP_EQUI_CFG, "params.equi.T", 3))
        assert run(["lep", "--config", path, "--out", out]) == 0
        equi = json.loads(out.read_text())["results"]["equicontinuity"]
        assert equi["horizon"] == 3
        assert equi["points"] == 20  # the library default stands for fields not given


class TestSpectralSharesOneTable:
    def test_one_event_table_per_command(self, tmp_path, monkeypatch):
        real = equidyn.spectral.event_table
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(equidyn.spectral, "event_table", counting)
        for mode in ("exact", "sampled"):
            calls.clear()
            cfg = with_field(SPECTRAL_CFG, "params.mode", mode)
            cfg["params"]["n_samples"] = 200
            path = write_cfg(tmp_path, cfg)
            assert run(["spectral", "--config", path, "--out", tmp_path / f"{mode}.json"]) == 0
            assert len(calls) == 1

    # p = 16 on the 2-adic odometer, so the default k_list holds 16 values
    P16_CFG = {
        "system": {"type": "odometer", "sizes": [2]},
        "measure": {"type": "haar", "sizes": [2]},
        "params": {"m": 3, "T": 3, "y": "0000000000", "cert_T": 64, "mode": "sampled", "n_samples": 200},
        "seed": 1,
    }

    def counted_run(self, tmp_path, monkeypatch, owner, name):
        real = getattr(owner, name)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        assert run(["spectral", "--config", write_cfg(tmp_path, self.P16_CFG), "--out", tmp_path / "x.json"]) == 0
        return calls

    def test_one_certificate_per_command(self, tmp_path, monkeypatch):
        """The 16 eigenfunctions share the base point's certificate."""
        assert len(self.counted_run(tmp_path, monkeypatch, equidyn.spectral, "lep_certificate")) == 1

    def test_one_draw_per_distinct_seed(self, tmp_path, monkeypatch):
        """Seeds 100..115 for the residuals and norms, seed 1 for all 120 cross products."""
        assert len(self.counted_run(tmp_path, monkeypatch, ProductMeasure, "sample_batch")) == 17


class TestSpectralExactGoldenBytes:
    """The exact spectral route draws no random numbers, so its report and CSV
    bytes do not depend on numpy's generators; these are the pinned bytes."""

    CFG = {
        "system": {"type": "odometer", "sizes": [2]},
        "measure": {"type": "haar", "sizes": [2]},
        "params": {"m": 4, "T": 4, "y": "0000000000", "cert_T": 64, "mode": "exact"},
        "seed": 3,
    }

    def test_report_and_csv_bytes(self, tmp_path):
        out = tmp_path / "spectral_exact.json"
        assert run(["spectral", "--config", write_cfg(tmp_path, self.CFG), "--out", out]) == 0
        digest = lambda path: hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest(out) == "5df58d19dd94a4188083ab6bd7ade61a9578deb748ccd3d1ac90065db72cd9e5"
        assert digest(out.with_suffix(".csv")) == "08011279bfdd6dda869fc546855b40d4a5df6057f654cdbdd813cbff3c8b2cff"


class TestAlphabetMismatch:
    @pytest.mark.parametrize("command,params", [
        ("sensitivity", {"eps_list": [1], "T": 4, "n_samples": 100}),
        ("dichotomy", {"eps_list": [1], "T": 4, "n_samples": 100,
                       "equi": {"m": 1, "n_list": [1], "T": 2, "points": 2}}),
        ("spectral", {"m": 1, "T": 2, "cert_T": 8, "y": "0" * 41, "mode": "exact"}),
        ("spectral", {"m": 1, "T": 2, "cert_T": 8, "y": "0" * 41, "mode": "sampled", "n_samples": 100}),
    ])
    def test_three_symbols_on_an_eca_exit_4(self, tmp_path, capsys, command, params):
        cfg = write_cfg(tmp_path, {
            "system": {"type": "eca", "rule": 110},
            "measure": {"type": "bernoulli", "weights": [0.2, 0.3, 0.5]},
            "params": params,
            "seed": 1,
        })
        out = tmp_path / "x.json"
        assert run([command, "--config", cfg, "--out", out]) == 4
        assert "alphabet" in capsys.readouterr().err
        assert not out.exists()


ROTATION_CFG = {
    "system": {"type": "rotation", "alpha": "1/5"},
    "params": {"m": 2, "n_list": [2, 4], "T": 3, "n_samples": 200},
    "seed": 2,
}


class TestNullPoint:
    """A `null` point is an absent one: the point is drawn from the seed."""

    @pytest.mark.parametrize("command,cfg,key", [
        ("density", DENSITY_CFG, "point"),
        ("density", ROTATION_CFG, "point"),
        ("spectral", SPECTRAL_CFG, "y"),
    ], ids=["eca-density", "rotation-density", "odometer-spectral"])
    def test_null_reads_as_absent(self, tmp_path, command, cfg, key):
        absent, null = tmp_path / "absent.json", tmp_path / "null.json"
        assert run([command, "--config", write_cfg(tmp_path, cfg, "a.json"), "--out", absent]) == 0
        cfg_null = with_field(cfg, f"params.{key}", None)
        assert run([command, "--config", write_cfg(tmp_path, cfg_null, "n.json"), "--out", null]) == 0
        # the config echo keeps the null as given; every other byte is the same
        payload = json.loads(null.read_text())
        assert payload["config"]["params"].pop(key) is None
        assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == absent.read_text()
        assert (tmp_path / "null.csv").read_bytes() == (tmp_path / "absent.csv").read_bytes()


def without_field(cfg, path):
    """Deep copy of `cfg` without the dotted `path` (if it is there)."""
    out = copy.deepcopy(cfg)
    *parents, last = path.split(".")
    node = out
    for key in parents:
        node = node[key]
    node.pop(last, None)
    return out


NULL_OPTIONAL_CASES = [
    ("density", DENSITY_CFG, "params.n_samples"),
    ("density", DENSITY_CFG, "cap"),
    ("density", DENSITY_CFG, "seed"),
    ("classify", DENSITY_CFG, "params.points"),
    ("classify", DENSITY_CFG, "params.delta"),
    ("lep", LEP_CFG, "params.n_samples"),
    ("lep", LEP_EQUI_CFG, "params.equi"),
    ("lep", {**LEP_CFG, "params": {**LEP_CFG["params"], "equi": {"points": 3}}}, "params.equi.points"),
    ("spectral", SPECTRAL_CFG, "params.n_samples"),
    ("spectral", {**SPECTRAL_CFG, "params": {**SPECTRAL_CFG["params"], "k_list": [0, 1]}}, "params.k_list"),
    ("spectral", {**SPECTRAL_CFG, "params": {**SPECTRAL_CFG["params"], "mode": "exact"}}, "params.mode"),
    ("sensitivity", DICHOTOMY_CFG, "params.n_samples"),
    ("dichotomy", DICHOTOMY_CFG, "params.equi.points"),
    ("dichotomy", DICHOTOMY_CFG, "params.delta_s"),
    ("vitali", {**VITALI_CFG, "params": {**VITALI_CFG["params"], "sided": "one"}}, "params.sided"),
    ("vitali", {**VITALI_CFG, "params": {**VITALI_CFG["params"], "eps": 0.0}}, "params.eps"),
]

NULL_REQUIRED_CASES = [
    ("density", DENSITY_CFG, "params.m"),
    ("density", DENSITY_CFG, "system"),
    ("classify", DENSITY_CFG, "params.n_list"),
    ("dichotomy", DICHOTOMY_CFG, "params.equi"),
    ("dichotomy", DICHOTOMY_CFG, "params.equi.n_list"),
    ("vitali", VITALI_CFG, "params.cylinders"),
]


class TestNullFields:
    """`null` is an absent field, whichever field it is."""

    @pytest.mark.parametrize("command,cfg,path", NULL_OPTIONAL_CASES,
                             ids=["-".join(case[::2]) for case in NULL_OPTIONAL_CASES])
    def test_null_optional_field_reads_as_absent(self, tmp_path, command, cfg, path):
        absent, null = tmp_path / "absent.json", tmp_path / "null.json"
        cfg_absent = without_field(cfg, path)
        assert run([command, "--config", write_cfg(tmp_path, cfg_absent, "a.json"), "--out", absent]) == 0
        assert run([command, "--config", write_cfg(tmp_path, with_field(cfg, path, None), "n.json"), "--out", null]) == 0
        # a params field is echoed as given; the echo of `cap` and `seed` is the resolved value
        payload = json.loads(null.read_text())
        if path.startswith("params."):
            node = payload["config"]
            *parents, last = path.split(".")
            for key in parents:
                node = node[key]
            assert node.pop(last) is None
        assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == absent.read_text()
        assert (tmp_path / "null.csv").read_bytes() == (tmp_path / "absent.csv").read_bytes()

    @pytest.mark.parametrize("command,cfg,path", NULL_REQUIRED_CASES,
                             ids=["-".join(case[::2]) for case in NULL_REQUIRED_CASES])
    def test_null_required_field_is_missing(self, tmp_path, capsys, command, cfg, path):
        cfg_null = with_field(cfg, path, None)
        assert run([command, "--config", write_cfg(tmp_path, cfg_null), "--out", tmp_path / "x.json"]) == 2
        assert f"invalid config field '{path}': missing" in capsys.readouterr().err


# every report field that holds probabilities, in every command
PROB_KEYS = {
    "fraction", "ratios", "stderrs", "certified_fraction", "lp_fraction", "p_hat", "stderr",
    "exact", "mass", "union_mass", "covered_mass", "leftover",
}
REPORT_CASES = [
    ("density", DENSITY_CFG),
    ("classify", DENSITY_CFG),
    ("classify", dict(DENSITY_CFG, cap=1)),
    ("lep", LEP_EQUI_CFG),
    ("spectral", SPECTRAL_CFG),
    ("sensitivity", DICHOTOMY_CFG),
    ("dichotomy", DICHOTOMY_CFG),
    ("vitali", VITALI_CFG),
]


def report_results(tmp_path, command, cfg):
    out = tmp_path / "r.json"
    assert run([command, "--config", write_cfg(tmp_path, cfg), "--out", out]) == 0
    return json.loads(out.read_text())["results"]


def prob_values(node, key=""):
    """Every number under a PROB_KEYS key, with the key it sits under."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield from prob_values(v, k)
    elif isinstance(node, list):
        for v in node:
            yield from prob_values(v, key)
    elif key in PROB_KEYS and isinstance(node, (int, float)) and not isinstance(node, bool):
        yield key, node


def report_keys(cls, horizon_key="T"):
    return {horizon_key if f.name == "horizon" else f.name for f in fields(cls)}


def assert_equicontinuity_keys(report):
    assert set(report) == report_keys(EquicontinuityReport, "horizon")
    for curve in report["curves"]:
        want = report_keys(PointCurve)
        assert set(curve) == (want - {"stderrs"} if curve["exact"] else want)


class TestReportWriter:
    @pytest.mark.parametrize("command,cfg", REPORT_CASES,
                             ids=[f"{c}-{i}" for i, (c, _) in enumerate(REPORT_CASES)])
    def test_probabilities_have_12_significant_digits(self, tmp_path, command, cfg):
        values = list(prob_values(report_results(tmp_path, command, cfg)))
        assert values or command == "spectral"
        for key, value in values:
            assert value == fmt_prob(value), (key, value)

    def test_classify_keys_are_the_report_fields(self, tmp_path):
        for cfg in (DENSITY_CFG, dict(DENSITY_CFG, cap=1)):
            assert_equicontinuity_keys(report_results(tmp_path, "classify", cfg))

    def test_lep_keys_are_the_classification_fields(self, tmp_path):
        results = report_results(tmp_path, "lep", LEP_EQUI_CFG)
        assert set(results) == report_keys(LepClassification)
        assert all(set(stats) == report_keys(LepStatistics) for stats in results["per_m"])
        assert_equicontinuity_keys(results["equicontinuity"])

    def test_dichotomy_keys_are_the_report_fields(self, tmp_path):
        results = report_results(tmp_path, "dichotomy", DICHOTOMY_CFG)
        assert set(results) == report_keys(DichotomyReport)
        assert all(set(row) == report_keys(SensitivityEstimate) for row in results["sensitivity"])
        assert_equicontinuity_keys(results["equicontinuity"])


# the benchmark's spectral-vitali `vitali` config: five Markov cylinders that
# refine to 1,856 balls at min_radius 10
BENCH_VITALI_CFG = {
    "measure": {"type": "markov", "P": [[0.7, 0.3], [0.4, 0.6]]},
    "params": {
        "cylinders": [
            {"radius": 1, "word": "00"},
            {"radius": 2, "word": "011"},
            {"radius": 3, "word": "1011"},
            {"radius": 0, "word": "1"},
            {"radius": 4, "word": "01010"},
        ],
        "min_radius": 10,
    },
    "seed": 3,
}


def test_vitali_report_bytes_are_pinned(tmp_path):
    """The report and CSV bytes of the int-row cover are those of the object refinement it replaced."""
    out = tmp_path / "vitali.json"
    assert run(["vitali", "--config", write_cfg(tmp_path, BENCH_VITALI_CFG), "--out", out]) == 0
    digest = lambda path: hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest(out) == "156e7ba5ed239669b91e875b27ed1e1c539b40a6f28178b26a204db0f1d3ddc7"
    assert digest(out.with_suffix(".csv")) == "171dcf88855b2304548f1767bc42673220e0351d9eee171a6087e0508a1975ed"


@pytest.mark.parametrize("weights", [[0.5, 0.5], [0.1] * 10, [1 / 11] * 11, [1 / 12] * 12],
                         ids=["digits", "ten-digits", "commas-11", "commas-12"])
def test_vitali_report_lists_the_balls_in_ball_order(tmp_path, weights):
    """Two radius groups whose balls interleave in the report's order, over
    digit alphabets (up to 10 symbols) and ones whose words are comma-separated."""
    mu = BernoulliMeasure(weights)
    parts = [Cylinder(mu.alphabet, "two", 2, (1, 1, 1, 1, 1)), Cylinder(mu.alphabet, "two", 0, (0,))]
    fam = vitali_cover(mu, parts, 1)
    assert sorted({n for _, n in fam.balls}) == [1, 2] and fam.balls[0][1] == 2
    cfg = {
        "measure": {"type": "bernoulli", "weights": weights},
        "params": {
            "sided": "two",
            "cylinders": [{"radius": c.radius, "word": word_to_str(c.word, mu.alphabet)} for c in parts],
            "min_radius": 1,
        },
    }
    balls = report_results(tmp_path, "vitali", cfg)["balls"]
    assert [(b["radius"], b["word"]) for b in balls] == [(n, word_to_str(w, mu.alphabet)) for w, n in fam.balls]


class TestNonFiniteNumbers:
    """NaN and infinity are numbers to `json.load`, but no config accepts them."""

    NAN, INF = float("nan"), float("inf")

    @pytest.mark.parametrize("command,cfg,path,value,field", [
        ("density", DENSITY_CFG, "measure.weights", [NAN, NAN], "measure"),
        ("density", DENSITY_CFG, "measure", {"type": "markov", "P": [[NAN, 0.5], [0.5, 0.5]], "pi": [0.5, 0.5]},
         "measure"),
        # without `pi` the stationary vector would be solved for; LAPACK must never see the NaN
        ("density", DENSITY_CFG, "measure", {"type": "markov", "P": [[NAN, 0.5], [0.5, 0.5]]}, "measure"),
        ("vitali", VITALI_CFG, "params.eps", INF, "params.eps"),
    ], ids=["bernoulli-weights", "markov-P-with-pi", "markov-P-without-pi", "vitali-eps"])
    def test_exits_2_naming_the_field_and_writes_nothing(self, tmp_path, capfd, command, cfg, path, value, field):
        out = tmp_path / "x.json"
        assert run([command, "--config", write_cfg(tmp_path, with_field(cfg, path, value)), "--out", out]) == 2
        captured = capfd.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("equidyn: ") and f"'{field}'" in lines[0]
        assert captured.out == ""
        assert not out.exists() and not out.with_suffix(".csv").exists()


# the exact-orbit and sampled-mc `classify` configs of bench/workloads.py at seed 3
BENCH_CLASSIFY_CASES = {
    "exact": ({"system": {"type": "eca", "rule": 110}, "measure": {"type": "bernoulli", "weights": [0.5, 0.5]},
               "params": {"m": 2, "n_list": [1, 2, 3], "T": 3, "points": 50}, "seed": 3},
              "e734cecd203b52e71caf8e1596161f22ad7c72a7d25814d9f682f2ed1fa9f619",
              "2fcfc05cc725ab2337d5d7a3057db2cc79f20a8c78d1dd9fe89d345639e70740"),
    "sampled": ({"system": {"type": "eca", "rule": 110}, "measure": {"type": "markov", "P": [[0.7, 0.3], [0.4, 0.6]]},
                 "params": {"m": 2, "n_list": [1, 2, 3], "T": 3, "points": 100, "n_samples": 10_000},
                 "seed": 3, "cap": 1024},
                "a2c2474f65915f54a86d1dcaac2ff0b2332329a8cd5cf69296de6b17dfddee29",
                "cb7a392309fcc837a9e39eb70f92a3071bb7ca04f82d5d5e5b3469053643b2cf"),
}


@pytest.mark.parametrize("route", BENCH_CLASSIFY_CASES)
def test_classify_report_bytes_are_pinned(tmp_path, route):
    """The report and CSV bytes of the one-block base points are those of the per-point preparation it replaced."""
    cfg, report_sha, csv_sha = BENCH_CLASSIFY_CASES[route]
    out = tmp_path / "classify.json"
    assert run(["classify", "--config", write_cfg(tmp_path, cfg), "--out", out]) == 0
    digest = lambda path: hashlib.sha256(path.read_bytes()).hexdigest()
    assert (digest(out), digest(out.with_suffix(".csv"))) == (report_sha, csv_sha)
    assert all(c["exact"] == (route == "exact") for c in json.loads(out.read_text())["results"]["curves"])


MARKOV_CFG = {"type": "markov", "P": [[0.7, 0.3], [0.4, 0.6]]}
SAMPLED_CLASSIFY = {
    "system": {"type": "eca", "rule": 110}, "measure": MARKOV_CFG,
    "params": {"m": 2, "n_list": [1, 2, 3], "T": 3, "points": 100, "n_samples": 10_000}, "seed": 3, "cap": 1024}
SAMPLED_DENSITY = {
    "system": {"type": "eca", "rule": 30}, "measure": MARKOV_CFG,
    "params": {"m": 3, "n_list": [1, 2, 3, 4, 5, 6], "T": 8, "n_samples": 100_000}, "seed": 3, "cap": 1024}
SAMPLED_SENSITIVITY = {
    "system": {"type": "eca", "rule": 184}, "measure": MARKOV_CFG,
    "params": {"eps_list": [1, 0.5, 0.25, 0.125], "T": 32, "n_samples": 20_000}, "seed": 3}

# configs of bench/workloads.py: the exact-orbit `density` and `dichotomy`, the
# sampled-mc `density`, `lep` and `sensitivity` and the spectral-vitali
# `spectral_sampled` at seed 3, and the sampled-mc `classify`, `density` and
# `sensitivity` at seed 11
BENCH_REPORT_CASES = {
    "density-exact": ("density", {
        "system": {"type": "eca", "rule": 90}, "measure": {"type": "bernoulli", "weights": [0.5, 0.5]},
        "params": {"m": 2, "n_list": [1, 2, 3, 4, 5, 6, 7], "T": 5, "n_samples": 10_000}, "seed": 3},
        "97d97ade3830721bce72e82fcccd3b9754b01384c1ef45e0ad9dec16ea2b6621",
        "6c63d671c29b0381a70cf66799ac0ef680dd96b3819ab364ed67019ca05556e5"),
    "density-sampled": ("density", SAMPLED_DENSITY,
        "40fb759885eb5cfa0ccf651d94bb5d98bf42ba3a5e47af5583342372ed4a6a33",
        "fb073a99894c2da2a56049df90df399574b2238ca2a266e5aee8666299069744"),
    "dichotomy-exact": ("dichotomy", {
        "system": {"type": "eca", "rule": 110}, "measure": {"type": "bernoulli", "weights": [0.5, 0.5]},
        "params": {"eps_list": [1, 0.5], "T": 16, "equi": {"m": 2, "n_list": [1, 2, 3], "T": 3}}, "seed": 3},
        "d3179f08f9b2450c57a376b60a4488c5f6f5887fd40bca3c9b19b2745e3dc290",
        "d84bb2a3ae5fabd052fbb4eba2cac484971738c35e768d7e51adb485416000e8"),
    "lep-sampled": ("lep", {
        "system": {"type": "eca", "rule": 110}, "measure": MARKOV_CFG,
        "params": {"m_list": [1, 2, 3], "T": 16, "n_samples": 1000}, "seed": 3},
        "b3c9e61b231fe07fde9bdaf93c0c755c97a93ff183171ddfdf94cde1f594a229",
        "ceefa7b57d24fe8d42ede9cba6969ccd1a7eee997145b35a1a8c8dd02a1c27a2"),
    "sensitivity-sampled": ("sensitivity", SAMPLED_SENSITIVITY,
        "ad61c98cbca3004ff18fdab6b064492131d77b0281ed4f9d4b5bbf5940f0fd86",
        "90b74d9e6a10cd351b37d0ada773c87e4d0aa186f91358798d82b95eca13ecef"),
    "classify-sampled-seed-11": ("classify", {**SAMPLED_CLASSIFY, "seed": 11},
        "958b3c58ef1e0a925ea0983006be46034f82e1335677030d6624dc092a8cf4fa",
        "141fb9b90ed5d13f48c7e194e34f602cd26b4c11c180d864891436236c1f6f1d"),
    "density-sampled-seed-11": ("density", {**SAMPLED_DENSITY, "seed": 11},
        "5fdc2db5f0d21fe7160a4a46437e14128e438fc5f178fc03e7c4866e5fcc9013",
        "fa695dd6e18b505f55e2858d1adea50829d364f7b575c5a1fe68b5f3f03faaf6"),
    "sensitivity-sampled-seed-11": ("sensitivity", {**SAMPLED_SENSITIVITY, "seed": 11},
        "a683b492af48da993505b198a23b7cf0566b33a666abb87be09f7572f9d0c574",
        "aa839ce52709825bcb34a8fb06f7b74653c84fd3249f3373399f8cab2adaffe0"),
    "spectral-sampled": ("spectral", {
        "system": {"type": "odometer", "sizes": [2]}, "measure": {"type": "haar", "sizes": [2]},
        "params": {"m": 3, "T": 3, "y": "0000000000", "cert_T": 64, "mode": "sampled", "n_samples": 1000},
        "seed": 3},
        "a80f59659abf804abd6d8b1b4fcebf152918b73446af22fd2a8b74bfef0725ff",
        "8be945a0d8e9524516c02288c536558c0f566cd36c8900e99ecacabd112f8266"),
}


@pytest.mark.parametrize("case", BENCH_REPORT_CASES)
def test_bench_report_bytes_are_pinned(tmp_path, case):
    """The report and CSV bytes of benchmark configs, the sampled ones at two seeds."""
    command, cfg, report_sha, csv_sha = BENCH_REPORT_CASES[case]
    out = tmp_path / f"{command}.json"
    assert run([command, "--config", write_cfg(tmp_path, cfg), "--out", out]) == 0
    digest = lambda path: hashlib.sha256(path.read_bytes()).hexdigest()
    assert (digest(out), digest(out.with_suffix(".csv"))) == (report_sha, csv_sha)


@pytest.mark.parametrize("size", [2, 10, 11])
def test_row_words_are_word_to_str(size):
    """The ball words of `vitali`: one numpy pass per block of rows up to 10 symbols, commas past that."""
    rng = substream(91, size)
    alphabet = Alphabet(size)
    for width in (1, 2, 5, 23):
        rows = rng.integers(0, size, (40, width))
        rows[0] = size - 1  # the largest symbol, a digit 9 at size 10
        assert row_words(rows, alphabet) == [word_to_str(w, alphabet) for w in rows.tolist()]
    assert row_words(rows[:0], alphabet) == []


# strings the writer must not mistake for structure: its dict boundary, raw
# newlines, quotes, backslashes, non-ASCII text and control characters
AWKWARD = ["},\n    {", "},\n      {", "}", "{", "a\nb", "\"", "\\", "caf\u00e9 \u6f22 \U0001f600",
           "\x00\x01\x1f\x7f", "\r\n\t", ""]
NUMBERS = [True, False, None, 0, -1, 2 ** 100, -2 ** 70, 0.0, -0.0, 1.5, 1e16, 1e-300, 2.5e-7, float("nan"),
           float("inf"), float("-inf")]


def indent_oracle(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


class TestReportText:
    """`_report_text` against `json.dumps(..., indent=2, sort_keys=True)` itself."""

    @pytest.mark.parametrize("value", [
        *AWKWARD, *NUMBERS,
        {}, [], (), [{}], [[]], [{}, {}], [[], []], {"a": {}, "b": [], "c": [[]], "d": [{}], "e": {"f": {"g": []}}},
        [{"k": v} for v in AWKWARD], {k: v for k, v in zip(AWKWARD, NUMBERS)}, [{"w": w, "n": 1} for w in AWKWARD],
        [{"a": 1, "b": "x"}, {"c": None}], [{"a": 1}, {}], [{}, {"a": 1}], [{"a": 1}, 2, "s", [3], {"b": [1]}],
        [1, {"a": 1}], [{"a": 1}, [{"b": 2}]], [{"a": [1]}, {"a": [2]}], [{"a": {"b": 1}}],
        [[1, 2], [3]], [[[1]], [[2], []]], ((1, 2), (3,)), [(1, {"a": (2, 3)})], {"t": (True, None)},
        {"a": {"b": [{"x": 1}, {"y": 2}]}, "c": [[{"z": 3}]]}, {"z": 1, "a": 2, "m": {"y": [], "b": {}}},
        [{"b": 1, "a": 2}, {"a": 3, "b": 4}], NUMBERS, [{"n": n} for n in NUMBERS],
    ], ids=repr)
    def test_matches_the_indent_encoder(self, value):
        assert _report_text(value) == indent_oracle(value)

    def test_random_trees(self):
        """Seeded random trees of dicts, lists and tuples over the awkward strings and numbers."""
        rng = random.Random(24)

        def tree(depth):
            kind = rng.random()
            if depth == 0 or kind < 0.3:
                return rng.choice(AWKWARD + NUMBERS)
            items = [tree(depth - 1) for _ in range(rng.randrange(4))]
            if kind < 0.55:
                return {rng.choice(AWKWARD) + str(i): v for i, v in enumerate(items)}
            if kind < 0.75:  # a list of dicts, flat or not
                return [{rng.choice(AWKWARD): v for v in items[: rng.randrange(3)]} for _ in items]
            return items if kind < 0.9 else tuple(items)

        for _ in range(500):
            value = tree(4)
            assert _report_text(value) == indent_oracle(value)


def bench_workloads():
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("workload", ["exact-orbit", "sampled-mc", "spectral-vitali"])
def test_bench_reports_are_the_indent_encoders_text(tmp_path, workload, seed):
    """Every command of the benchmark workloads writes `json.dumps(payload, indent=2, sort_keys=True)`
    and a newline, the payload read back from the report itself."""
    for inv in bench_workloads()[workload].build(seed):
        out = tmp_path / f"{inv.stem}.json"
        assert run([inv.command, "--config", write_cfg(tmp_path, inv.config, f"{inv.stem}.config.json"),
                    "--out", out]) == 0
        text = out.read_text(encoding="utf-8")
        assert text == indent_oracle(json.loads(text)) + "\n"
