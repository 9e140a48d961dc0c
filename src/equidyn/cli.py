"""Command line front end: run configured experiments and write reports.

Every subcommand reads a JSON config, resolves defaults, runs the
experiment, and atomically writes a JSON report (plus a CSV sibling for
tabular results). Reports contain no timestamps and all sampling is keyed
by (seed, index) substreams, so identical configs give byte-identical
reports. `--threads` is validated (>= 1), but every command runs on one
thread, so nothing reads it.

The library returns plain dataclasses. One writer, `_plain`, turns the
results of `classify`, `lep` and `dichotomy` into report JSON by field
name and rounds the fields named in `PROB_KEYS` with `fmt_prob`. The
other commands build their rows here and round them as they build them.
A report's text is `json.dumps(payload, indent=2, sort_keys=True) + "\n"`.

Exit codes: 0 success, 2 invalid config, 3 enumeration over the cap,
4 domain failure / invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from dataclasses import fields, is_dataclass
from fractions import Fraction
from json.encoder import c_make_encoder, encode_basestring_ascii

from .core import (
    DEFAULT_ENUMERATION_CAP,
    ONE_SIDED,
    TWO_SIDED,
    CirclePoint,
    Configuration,
    Cylinder,
    check_sided,
    word_from_str,
    word_to_str,
)
from .errors import ConfigInvalid, EnumerationTooLarge, EquidynError
from .measures import (
    LebesgueMeasure,
    ProductMeasure,
    maximal_cylinders,
    measure_from_dict,
    measure_to_dict,
    uncovered_mass,
    union_probability,
    vitali_cover,
)
from .orbit import (
    EquicontinuityReport,
    density_curve,
    exact_fits,
    mu_equicontinuity_report,
)
from .periodicity import mu_lep_classify
from .rng import derive_seed, substream
from .sensitivity import dichotomy_report, mu_sensitivity_curve
from .spectral import build_eigenfunction, spectral_family
from .systems import (
    Rotation,
    dependence_radius,
    row_words,
    system_from_dict,
    system_sided,
    system_to_dict,
)

DEFAULT_DELTA = 0.05
DEFAULT_SAMPLES = 10_000
DEFAULT_HORIZON = 16

COMMANDS = ("density", "classify", "lep", "spectral", "sensitivity", "dichotomy", "vitali")


def fmt_prob(x: float) -> float:
    """Probabilities go out with 12 significant digits."""
    return float(f"{float(x):.12g}")


# the fields of library results that `_plain` writes through `fmt_prob`
PROB_KEYS = frozenset({"fraction", "ratios", "stderrs", "certified_fraction", "lp_fraction", "p_hat", "stderr"})


def atomic_write_text(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


@functools.cache
def _c_encoder(pad: str):
    """json's C encoder: keys sorted, items separated by a comma, a newline and `pad`."""
    encode = c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii, None, ": ", ",\n" + pad,
                            True, False, True)  # sort_keys, skipkeys, allow_nan
    return lambda value: "".join(encode(value, 0))


def _report_text(value, depth: int = 0) -> str:
    """`json.dumps(value, indent=2, sort_keys=True)` to the byte (for string keys), without json's
    pure-Python indent encoder: the C encoder writes each container of scalars, and each list of dicts
    of scalars, in one call whose item separator holds the newline and indent. It escapes control
    characters, so a raw newline is structure, and one `str.replace` indents the dict boundaries."""
    scalar = (str, int, float, type(None))
    flat = lambda items: all(isinstance(v, scalar) for v in items)
    if isinstance(value, scalar) or not value:
        return json.dumps(value)
    pad, outer, is_dict = "  " * (depth + 1), "  " * depth, isinstance(value, dict)
    if flat(value.values() if is_dict else value):
        text = _c_encoder(pad)(value)
        return f"{text[0]}\n{pad}{text[1:-1]}\n{outer}{text[-1]}"
    if not is_dict and all(isinstance(v, dict) and v and flat(v.values()) for v in value):
        inner = pad + "  "
        text = _c_encoder(inner)(value)[2:-2].replace("},\n" + inner + "{", f"\n{pad}}},\n{pad}{{\n{inner}")
        return f"[\n{pad}{{\n{inner}{text}\n{pad}}}\n{outer}]"
    one = lambda v: _c_encoder(pad)(v) if isinstance(v, scalar) else _report_text(v, depth + 1)
    body = [f"{encode_basestring_ascii(k)}: {one(v)}" for k, v in sorted(value.items())] if is_dict else map(one, value)
    brackets = "{}" if is_dict else "[]"
    return f"{brackets[0]}\n{pad}" + f",\n{pad}".join(body) + f"\n{outer}{brackets[1]}"


def _need(d: dict, field: str, prefix: str = "", default=None):
    """d[field]; absent or null, `default`, or ConfigInvalid if there is none."""
    if isinstance(d, dict) and d.get(field) is not None:
        return d[field]
    if default is None:
        raise ConfigInvalid(f"{prefix}{field}", "missing")
    return default


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigInvalid("config", f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigInvalid("config", f"not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigInvalid("config", "top level must be an object")
    return cfg


def _built(from_dict, raw, field: str):
    """`from_dict(raw)`, or ConfigInvalid naming `field` (or its missing key)."""
    try:
        return from_dict(raw)
    except KeyError as exc:
        raise ConfigInvalid(f"{field}.{exc.args[0]}", "missing")
    except (ValueError, TypeError) as exc:
        raise ConfigInvalid(field, str(exc))


def _build_measure(cfg: dict, system=None):
    if cfg.get("measure") is None and isinstance(system, Rotation):
        return LebesgueMeasure()
    return _built(measure_from_dict, _need(cfg, "measure"), "measure")


def _number(value, field: str, kind=int, minimum=None):
    """`kind(value)`, or ConfigInvalid naming the dotted `field`."""
    try:
        number = kind(value)
        if isinstance(value, bool) or (isinstance(value, float) and number != value) or not abs(number) < math.inf:
            raise ValueError  # a bool is no number, 2.5 no integer (1e3 is one), and NaN or Infinity no finite one
    except (ValueError, TypeError, OverflowError):
        raise ConfigInvalid(field, f"not {'an integer' if kind is int else 'a finite number'}: {value!r}")
    if minimum is not None and number < minimum:
        raise ConfigInvalid(field, f"must be >= {minimum}, got {number}")
    return number


def _param(params: dict, field: str, default=None, minimum=None, kind=int, prefix="params."):
    return _number(_need(params, field, prefix, default), f"{prefix}{field}", kind, minimum)


def _delta_param(params: dict, field: str, prefix="params."):
    """A tolerance such as `delta`: a number strictly between 0 and 1."""
    value = _param(params, field, DEFAULT_DELTA, kind=float, prefix=prefix)
    if not 0 < value < 1:
        raise ConfigInvalid(f"{prefix}{field}", f"must lie in (0, 1), got {value}")
    return value


def _list_param(params: dict, field: str, kind=None, prefix="params.", minimum=None):
    value = _need(params, field, prefix)
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigInvalid(f"{prefix}{field}", "must be a non-empty list")
    return [_number(v, f"{prefix}{field}", kind, minimum) for v in value] if kind else list(value)


def _eps_list_param(params: dict):
    """`eps_list`: distances, each in (0, 2]."""
    eps_list = _list_param(params, "eps_list", kind=float)
    if not all(0 < eps <= 2 for eps in eps_list):
        raise ConfigInvalid("params.eps_list", f"entries must lie in (0, 2], got {eps_list}")
    return eps_list


def _plain(value, key: str = ""):
    """A library result as report JSON, probabilities rounded by `fmt_prob`.

    A dataclass becomes a dict of its fields, tuples become lists, and the
    values under a `PROB_KEYS` key are rounded. `horizon` is written as `T`,
    except in an `EquicontinuityReport`, and a `stderrs` of None is left out.
    """
    if is_dataclass(value):
        horizon_key = "horizon" if isinstance(value, EquicontinuityReport) else "T"
        return {
            horizon_key if f.name == "horizon" else f.name: _plain(getattr(value, f.name), f.name)
            for f in fields(value)
            if f.name != "stderrs" or value.stderrs is not None
        }
    if isinstance(value, (list, tuple)):
        return [_plain(v, key) for v in value]
    return fmt_prob(value) if key in PROB_KEYS else value


def _word_config(system, text, field: str, radius: int) -> Configuration:
    """The word `text` as a configuration of the system's space, of valid radius >= `radius`."""
    try:
        x = Configuration(system.alphabet, system_sided(system), word_from_str(str(text), system.alphabet))
    except ValueError as exc:
        raise ConfigInvalid(field, str(exc))
    if x.radius < radius:
        raise ConfigInvalid(field, f"needs valid radius >= {radius}, got {x.radius}")
    return x


def _point_from_params(system, mu, params, radius: int, seed: int):
    """`params.point` (a circle angle, or a word of valid radius >= `radius`); absent or null, a draw from mu."""
    point = params.get("point")
    if isinstance(system, Rotation):
        if point is None:
            return mu.sample_point(substream(seed, 9))
        try:
            return CirclePoint(Fraction(str(point)))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigInvalid("params.point", f"not a circle angle: {exc}")
    if point is None:
        return mu.sample_config(system_sided(system), radius, substream(seed, 9))
    return _word_config(system, point, "params.point", radius)


# -- subcommand runners --------------------------------------------------------

def _run_density(system, mu, params, seed, cap):
    m = _param(params, "m", minimum=0)
    horizon = _param(params, "T", minimum=0)
    n_list = sorted(set(_list_param(params, "n_list", kind=int, minimum=1)))
    n_samples = _param(params, "n_samples", default=DEFAULT_SAMPLES, minimum=1)
    if isinstance(system, Rotation):
        if m < 1:
            raise ConfigInvalid("params.m", "rotation resolution needs m >= 1")
        x = _point_from_params(system, mu, params, 0, seed)
        point_label = str(float(x.angle))
    else:
        radius = max(max(n_list), dependence_radius(system, m, horizon))
        x = _point_from_params(system, mu, params, radius, seed)
        point_label = word_to_str(x.symbols, x.alphabet)
    exact = exact_fits(system, m, horizon, cap)
    seeds = [derive_seed(seed, j) for j in range(len(n_list))]
    ratios, ests = density_curve(system, mu, x, m, n_list, horizon, exact, n_samples, seeds, cap)
    rows = [
        {
            "n": n,
            "exact": fmt_prob(ratio) if exact else None,
            "p_hat": fmt_prob(est.p_hat),
            "stderr": fmt_prob(est.stderr),
        }
        for n, ratio, est in zip(n_list, ratios, ests)
    ]
    results = {"point": point_label, "m": m, "T": horizon, "n_samples": n_samples, "rows": rows}
    csv_rows = [(r["n"], r["exact"], r["p_hat"], r["stderr"]) for r in rows]
    return results, ("n", "exact", "p_hat", "stderr"), csv_rows


def _run_classify(system, mu, params, seed, cap):
    report = mu_equicontinuity_report(
        system, mu,
        m=_param(params, "m", minimum=0),
        n_list=_list_param(params, "n_list", kind=int, minimum=1),
        horizon=_param(params, "T", minimum=0),
        points=_param(params, "points", default=50, minimum=1),
        n_samples=_param(params, "n_samples", default=DEFAULT_SAMPLES, minimum=1),
        delta=_delta_param(params, "delta"),
        seed=seed,
        cap=cap,
    )
    payload = _plain(report)
    csv_rows = [
        (i, n, curve["ratios"][j], curve["exact"])
        for i, curve in enumerate(payload["curves"])
        for j, n in enumerate(payload["n_list"])
    ]
    return payload, ("point_index", "n", "ratio", "exact"), csv_rows


def _run_lep(system, mu, params, seed, cap):
    report = mu_lep_classify(
        system, mu,
        m_list=_list_param(params, "m_list", kind=int, minimum=0),
        eps=_delta_param(params, "eps"),
        n_samples=_param(params, "n_samples", default=1000, minimum=1),
        horizon=_param(params, "T", minimum=2),
        seed=seed,
        equi_params=_equi_params_from(params, optional=True) if params.get("equi") is not None else None,
        cap=cap,
    )
    payload = _plain(report)
    csv_rows = [
        (s["m"], s["certified_fraction"], s["lp_fraction"], s["p_quantile"], s["q_quantile"])
        for s in payload["per_m"]
    ]
    return payload, ("m", "certified_fraction", "lp_fraction", "p_quantile", "q_quantile"), csv_rows


def _run_spectral(system, mu, params, seed, cap):
    m = _param(params, "m", minimum=0)
    horizon = _param(params, "T", minimum=0)
    cert_horizon = _param(params, "cert_T", default=max(horizon, 2), minimum=2)
    if params.get("y") is None:
        radius = dependence_radius(system, m, horizon + cert_horizon)
        y = mu.sample_config(system_sided(system), radius, substream(seed, 9))
    else:
        y = _word_config(system, params["y"], "params.y", dependence_radius(system, m, cert_horizon))
    base = build_eigenfunction(system, y, m, 0, cert_horizon)
    p = base.period
    # the event tables trace y's p points on W_rho, rho = dependence_radius(m, T)
    need = dependence_radius(system, dependence_radius(system, m, horizon), p - 1)
    if params.get("y") is not None and y.radius < need:
        raise ConfigInvalid("params.y", f"needs valid radius >= {need} to trace its period-{p} orbit, got {y.radius}")
    k_list = _list_param(params, "k_list", kind=int) if params.get("k_list") is not None else list(range(min(p, 16)))
    if not all(0 <= k < p for k in k_list):
        raise ConfigInvalid("params.k_list", f"entries must lie in [0, {p}), got {k_list}")
    mode = _need(params, "mode", default="exact")
    if mode not in ("exact", "sampled"):
        raise ConfigInvalid("params.mode", "must be 'exact' or 'sampled'")
    n_samples = _param(params, "n_samples", default=DEFAULT_SAMPLES, minimum=1)
    family, max_cross = spectral_family(base, mu, horizon, k_list, mode, n_samples, seed, cap)
    rows = [
        {
            "k": spec.k,
            "p": p,
            "eigenvalue": [spec.eigenvalue().real, spec.eigenvalue().imag],
            "residual": residual,
            "norm": abs(norm_sq) ** 0.5,
        }
        for spec, residual, norm_sq in family
    ]
    results = {
        "y": word_to_str(y.symbols, y.alphabet),
        "m": m,
        "T": horizon,
        "cert_T": cert_horizon,
        "p": p,
        "mode": mode,
        "rows": rows,
        "max_cross_inner_product": max_cross,
    }
    csv_rows = [(r["k"], r["p"], r["residual"], r["norm"]) for r in rows]
    return results, ("k", "p", "residual", "norm"), csv_rows


def _run_sensitivity(system, mu, params, seed, cap):
    eps_list = _eps_list_param(params)
    horizon = _param(params, "T", minimum=1)
    n_samples = _param(params, "n_samples", default=DEFAULT_SAMPLES, minimum=1)
    ests = mu_sensitivity_curve(system, mu, eps_list, horizon, n_samples=n_samples, seed=derive_seed(seed, 0))
    rows = [{"eps": e.eps, "p_hat": fmt_prob(e.p_hat), "stderr": fmt_prob(e.stderr)} for e in ests]
    results = {"T": horizon, "n_samples": n_samples, "rows": rows}
    csv_rows = [(r["eps"], r["p_hat"], r["stderr"]) for r in rows]
    return results, ("eps", "p_hat", "stderr"), csv_rows


def _equi_params_from(params: dict, optional: bool = False) -> dict:
    """Checked `params.equi` under the library's keys (`T` becomes `horizon`).

    With `optional`, only the fields given are returned, so the library's
    own defaults stand for the rest.
    """
    raw = _need(params, "equi", "params.")
    if not isinstance(raw, dict):
        raise ConfigInvalid("params.equi", "must be an object")
    prefix = "params.equi."
    checks = {
        "m": lambda: _param(raw, "m", minimum=0, prefix=prefix),
        "n_list": lambda: _list_param(raw, "n_list", kind=int, prefix=prefix, minimum=1),
        "T": lambda: _param(raw, "T", minimum=0, prefix=prefix),
        "points": lambda: _param(raw, "points", 50, minimum=1, prefix=prefix),
        "n_samples": lambda: _param(raw, "n_samples", 2000, minimum=1, prefix=prefix),
        "delta": lambda: _delta_param(raw, "delta", prefix=prefix),
    }
    renamed = {"T": "horizon"}
    return {renamed.get(f, f): check() for f, check in checks.items() if raw.get(f) is not None or not optional}


def _run_dichotomy(system, mu, params, seed, cap):
    report = dichotomy_report(
        system, mu,
        eps_list=_eps_list_param(params),
        horizon=_param(params, "T", minimum=1),
        equi_params=_equi_params_from(params),
        n_samples=_param(params, "n_samples", default=DEFAULT_SAMPLES, minimum=1),
        delta_s=_delta_param(params, "delta_s"),
        delta_e=_delta_param(params, "delta_e"),
        seed=seed,
        cap=cap,
    )
    payload = _plain(report)
    csv_rows = [(r["eps"], r["p_hat"], r["stderr"]) for r in payload["sensitivity"]]
    return payload, ("eps", "p_hat", "stderr"), csv_rows


def _run_vitali(mu, params, seed, cap):
    if isinstance(mu, LebesgueMeasure):
        raise ConfigInvalid("measure", "vitali covers need a cylinder measure")
    sided = _need(params, "sided", default=ONE_SIDED)
    try:
        check_sided(sided)
    except ValueError as exc:
        raise ConfigInvalid("params.sided", str(exc))
    if sided == TWO_SIDED and isinstance(mu, ProductMeasure):
        raise ConfigInvalid("params.sided", "a haar measure lives on one-sided configurations")
    raw_parts = _list_param(params, "cylinders")
    parts = []
    for idx, item in enumerate(raw_parts):
        field = f"params.cylinders[{idx}]"
        radius = _param(item, "radius", prefix=field + ".")
        try:
            word = word_from_str(str(_need(item, "word", field + ".")), mu.alphabet)
            if sided == TWO_SIDED and radius > 0 and len(word) == radius + 1:
                raise ConfigInvalid("params.sided", f"'two' needs {2 * radius + 1} symbols at radius "
                                    f"{radius}; {field}.word has the {radius + 1} of a one-sided word")
            parts.append(Cylinder(mu.alphabet, sided, radius, word))
        except ValueError as exc:
            raise ConfigInvalid(field, str(exc))
    min_radius = _param(params, "min_radius", minimum=1)
    eps = _param(params, "eps", 0.0, kind=float, minimum=0)
    pieces = maximal_cylinders(parts)
    family = vitali_cover(mu, pieces, min_radius, eps=eps, cap=cap)
    union_mass = union_probability(mu, pieces)
    masses = family.masses(mu)
    covered = float(sum(masses))  # the family's mass, summed in ball order
    radii, words = [0] * len(masses), [""] * len(masses)  # in ball order, from each radius's rows
    for n, (at, rows) in family.groups.items():
        for i, word in zip(at.tolist(), row_words(rows, family.alphabet)):
            radii[i], words[i] = n, word
    balls = [{"radius": n, "word": word, "mass": fmt_prob(mass)} for n, word, mass in zip(radii, words, masses)]
    results = {
        "count": len(balls),
        "balls": balls,
        "union_mass": fmt_prob(union_mass),
        "covered_mass": fmt_prob(covered),
        "leftover": fmt_prob(uncovered_mass(mu, family, family)),
        "eps": eps,
        "min_radius": min_radius,
    }
    csv_rows = [(i, b["radius"], b["word"], b["mass"]) for i, b in enumerate(balls)]
    return results, ("index", "radius", "word", "mass"), csv_rows


# -- orchestration --------------------------------------------------------------

def run_command(command: str, cfg: dict, seed: int, out_path: str) -> str:
    params = _need(cfg, "params", default={})
    if not isinstance(params, dict):
        raise ConfigInvalid("params", "must be an object")
    cap = _number(_need(cfg, "cap", default=DEFAULT_ENUMERATION_CAP), "cap", minimum=1)

    if command == "vitali":
        mu = _build_measure(cfg)
        results, header, rows = _run_vitali(mu, params, seed, cap)
        resolved_system = cfg.get("system")
    else:
        system = _built(system_from_dict, _need(cfg, "system"), "system")
        mu = _build_measure(cfg, system)
        runner = {"density": _run_density, "classify": _run_classify, "lep": _run_lep, "spectral": _run_spectral,
                  "sensitivity": _run_sensitivity, "dichotomy": _run_dichotomy}[command]
        results, header, rows = runner(system, mu, params, seed, cap)
        resolved_system = system_to_dict(system)

    payload = {
        "command": command,
        "config": {
            "system": resolved_system,
            "measure": measure_to_dict(mu),
            "params": params,
            "seed": seed,
            "cap": cap,
        },
        "results": results,
    }
    atomic_write_text(out_path, _report_text(payload) + "\n")

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_text(os.path.splitext(out_path)[0] + ".csv", buf.getvalue())
    return out_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="equidyn",
        description="Finite-scale equicontinuity experiments on symbolic systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run a {name} experiment")
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="report path (default from config or derived)")
        p.add_argument("--threads", type=int, default=None,
                       help="validated (>= 1), unused: all work runs on one thread")
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
        seed = _number(args.seed if args.seed is not None else _need(cfg, "seed", default=0), "seed", minimum=0)
        if args.threads is not None:
            _number(args.threads, "threads", minimum=1)  # a bad value still exits 2
        out_path = args.out or cfg.get("out") or f"equidyn-{args.command}.json"
        written = run_command(args.command, cfg, seed, out_path)
    except ConfigInvalid as exc:
        print(f"equidyn: {exc}", file=sys.stderr)
        return 2
    except EnumerationTooLarge as exc:
        print(f"equidyn: {exc}", file=sys.stderr)
        return 3
    except (EquidynError, ValueError, AssertionError) as exc:
        print(f"equidyn: {exc}", file=sys.stderr)
        return 4
    print(written)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
