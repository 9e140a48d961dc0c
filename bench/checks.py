"""Correctness checks on one CLI invocation's report and CSV.

`check_invocation` returns the names of the checks that failed; an empty
list means the invocation passed. Checks never look at timings. Route
checks pin which path a workload measures (exact enumeration or sampling),
so a change in routing or in the meaning of ``cap`` fails loudly instead of
quietly timing another path.
"""

from __future__ import annotations

import csv
import io
import json
import math

SPECTRAL_TOL = 1e-12
SIGMAS = 4.0

# Checks that fail on the unchanged program. They count as failed operations
# but do not make the run incorrect; BASELINE.json records each one.
KNOWN_FAULTS = {"vitali.leftover_zero"}


def _unit(x) -> bool:
    return isinstance(x, (int, float)) and 0.0 <= x <= 1.0


def _curves_route(curves, route: str | None, fails: list, prefix: str) -> None:
    for curve in curves:
        if not all(_unit(v) for v in curve["ratios"]):
            fails.append(f"{prefix}.ratio_range")
        if route == "exact" and curve["exact"] is not True:
            fails.append(f"{prefix}.route_exact")
        if route == "sampled" and (curve["exact"] is not False or "stderrs" not in curve):
            fails.append(f"{prefix}.route_sampled")


def _density(cfg, res, route, fails):
    # imported here: run.py puts the package on sys.path only once it has found it
    from equidyn.systems import dependence_radius, system_from_dict

    params = cfg["params"]
    rho = dependence_radius(system_from_dict(cfg["system"]), params["m"], params["T"])
    n_samples = params["n_samples"]
    for row in res["rows"]:
        exact, p_hat = row["exact"], row["p_hat"]
        if not _unit(p_hat) or not (exact is None or _unit(exact)):
            fails.append("density.ratio_range")
        if route == "exact" and exact is None:
            fails.append("density.route_exact")
        if route == "sampled" and exact is not None:
            fails.append("density.route_sampled")
        if exact is None:
            continue
        if row["n"] >= rho and exact != 1.0:
            fails.append("density.exact_one_past_rho")
        # stderr implied by the exact value: the plug-in stderr is 0 when p_hat is 0
        if abs(p_hat - exact) > SIGMAS * math.sqrt(exact * (1.0 - exact) / n_samples):
            fails.append("density.estimate_within_4_sigma")


def _classify(cfg, res, route, fails):
    if not _unit(res["fraction"]):
        fails.append("classify.fraction_range")
    if len(res["curves"]) != cfg["params"]["points"]:
        fails.append("classify.point_count")
    _curves_route(res["curves"], route, fails, "classify")


def _lep(cfg, res, route, fails):
    for stats in res["per_m"]:
        cf, lp = stats["certified_fraction"], stats["lp_fraction"]
        if not (_unit(cf) and _unit(lp) and lp <= cf):
            fails.append("lep.fraction_range")
    if res["equicontinuity"]:
        _curves_route(res["equicontinuity"]["curves"], route, fails, "lep.equicontinuity")


def _sensitivity(cfg, res, route, fails):
    if len(res["rows"]) != len(cfg["params"]["eps_list"]):
        fails.append("sensitivity.row_count")
    if not all(_unit(r["p_hat"]) for r in res["rows"]):
        fails.append("sensitivity.p_hat_range")


def _dichotomy(cfg, res, route, fails):
    if not all(_unit(r["p_hat"]) for r in res["sensitivity"]):
        fails.append("dichotomy.p_hat_range")
    equi = res["equicontinuity"]
    if not _unit(equi["fraction"]):
        fails.append("dichotomy.fraction_range")
    _curves_route(equi["curves"], route, fails, "dichotomy.equicontinuity")


def _spectral(cfg, res, route, fails):
    for row in res["rows"]:
        if not (math.isfinite(row["residual"]) and row["residual"] >= 0.0 and math.isfinite(row["norm"])):
            fails.append("spectral.finite")
    if res["mode"] != "exact":
        return
    if any(row["residual"] > SPECTRAL_TOL for row in res["rows"]):
        fails.append("spectral.residual")
    if any(abs(row["norm"] - 1.0) > SPECTRAL_TOL for row in res["rows"]):
        fails.append("spectral.norm")
    if res["max_cross_inner_product"] > SPECTRAL_TOL:
        fails.append("spectral.cross_inner_product")


def _vitali(cfg, res, route, fails):
    if res["count"] != len(res["balls"]):
        fails.append("vitali.count")
    masses = [b["mass"] for b in res["balls"]]
    if not all(_unit(v) for v in [*masses, res["union_mass"], res["covered_mass"]]):
        fails.append("vitali.mass_range")
    # README and acceptance criterion 7 promise an exactly zero leftover
    if res["leftover"] != 0.0:
        fails.append("vitali.leftover_zero")


CHECKS = {
    "density": _density,
    "classify": _classify,
    "lep": _lep,
    "sensitivity": _sensitivity,
    "dichotomy": _dichotomy,
    "spectral": _spectral,
    "vitali": _vitali,
}


def check_invocation(command: str, cfg: dict, route: str | None, exit_code: int,
                     report: bytes | None, table: bytes | None) -> list[str]:
    """Failed check names for one invocation (exit code, report, CSV sibling)."""
    if exit_code != 0:
        return [f"{command}.exit_code_{exit_code}"]
    if report is None or table is None:
        return [f"{command}.outputs_written"]
    try:
        payload = json.loads(report)
        res = payload["results"]
        rows = list(csv.reader(io.StringIO(table.decode("utf-8"))))
        fails: list[str] = []
        if payload.get("command") != command or len(rows) < 2:
            fails.append(f"{command}.report_shape")
        CHECKS[command](cfg, res, route, fails)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{command}.report_parse:{type(exc).__name__}"]
    return sorted(set(fails))
