"""Run every benchmark workload, untraced and traced; print or record the results.

Run from the repository root:

    python3 bench/all.py [--seed 3] [--seconds 30] [--record bench/BASELINE.json]

Each workload runs in its own process (``run.py``), first with ``--trace 0``
(end-to-end metrics) and then with ``--trace 1`` (per-layer metrics). The
summary lists every metric with its unit and each workload's failed share of
invocations. ``--record`` also writes the pinned configs, the machine, which
end-to-end metric each layer metric should move, and the faults the checks
and counters expose, to one JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import calibration
from run import DEFAULT_SECONDS, OUT
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent

# layer metric group -> end-to-end metrics it should move, on which workloads,
# and what to expect on the others
METRIC_MOVES = [
    {"metrics": ["orbit.orbit_ball_event.*", "orbit.density_ratio_exact.*"],
     "moves": ["density_s", "classify_s", "dichotomy_s", "wall_s"], "on": ["exact-orbit"],
     "elsewhere": "spectral_s on spectral-vitali; 0 calls on sampled-mc"},
    {"metrics": ["systems.step.*", "core.Configuration.constructed"],
     "moves": ["wall_s"], "on": ["exact-orbit", "spectral-vitali"], "elsewhere": "unchanged on sampled-mc"},
    {"metrics": ["spectral.event_table.*", "spectral.koopman_residual.*", "spectral.inner_product.*"],
     "moves": ["spectral_s"], "on": ["spectral-vitali"], "elsewhere": "absent elsewhere"},
    {"metrics": ["measures.cylinder_probability.*"],
     "moves": ["classify_s", "spectral_s", "vitali_s"], "on": ["exact-orbit", "spectral-vitali"],
     "elsewhere": "small on sampled-mc"},
    {"metrics": ["measures.conditional_batch.*", "orbit.density_ratio_estimate.*",
                 "systems.trace_agreement_batch.*"],
     "moves": ["density_s", "classify_s", "peak_rss_mb"], "on": ["sampled-mc"],
     "elsewhere": "small share of exact-orbit density_s"},
    {"metrics": ["systems.step_batch.*", "measures.sample_batch.*", "sensitivity.mu_sensitivity_estimate.*"],
     "moves": ["sensitivity_s", "dichotomy_s"], "on": ["sampled-mc", "exact-orbit"],
     "elsewhere": "absent on spectral-vitali, except sampled-spectral sample_batch"},
    {"metrics": ["periodicity.lep_certificate.*", "measures.sample_config.*", "rng.substream.*"],
     "moves": ["lep_s"], "on": ["sampled-mc"], "elsewhere": "-"},
    {"metrics": ["rng.pmap.*"], "moves": ["wall_s vs cpu_s"], "on": ["sampled-mc"],
     "elsewhere": "no effect at threads 1; speedup is 1 by definition there"},
    {"metrics": ["measures.vitali_cover.*", "core.compare_cylinders.calls"],
     "moves": ["vitali_s"], "on": ["spectral-vitali"], "elsewhere": "-"},
    {"metrics": ["cli.run_command.self_s", "cli.report_bytes"],
     "moves": ["vitali_s", "classify_s"], "on": ["spectral-vitali", "exact-orbit"], "elsewhere": "-"},
]


def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One run.py process; echoes its output and returns (details, result)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    print("\n".join(line for line in lines[:-1] if not line.startswith("details ")))
    details = next(json.loads(line[len("details "):]) for line in lines if line.startswith("details "))
    return details, json.loads(lines[-1])


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def machine_facts() -> dict:
    import numpy

    model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "cache_per_instance": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def observed_faults(results: dict) -> list[dict]:
    """The faults the checks and counters expose, with the numbers behind them."""
    faults = []
    sv, eo, mc = (results.get(n) for n in ("spectral-vitali", "exact-orbit", "sampled-mc"))
    vitali = OUT / "spectral-vitali" / "vitali.json"
    if sv and vitali.is_file():
        res = json.loads(vitali.read_text())["results"]
        faults.append({
            "fault": "vitali leftover is not exactly 0.0",
            "check": "vitali.leftover_zero (known fault: counted in failed, run stays correct)",
            "leftover": res["leftover"], "count": res["count"],
            "promise": "README and acceptance criterion 7: leftover exactly 0.0",
        })
        layer = sv["per_layer"]
        faults.append({
            "fault": "vitali_cover disjointness check is O(N^2) in the ball count",
            "balls": layer["measures.vitali_cover.balls"],
            "pairs_checked": layer["measures.vitali_cover.pairs_checked"],
            "vitali_cover_self_s_traced": layer["measures.vitali_cover.self_s"],
            "vitali_s_traced": sv["traced_command_s"]["1"].get("vitali"),
        })
    density = OUT / "exact-orbit" / "density.json"
    if eo and density.is_file():
        rows = json.loads(density.read_text())["results"]["rows"]
        zero = [r for r in rows if r["p_hat"] == 0.0 and r["stderr"] == 0.0 and (r["exact"] or 0) > 0]
        if zero:
            faults.append({
                "fault": "density plug-in stderr is 0.0 when p_hat is 0 but the exact value is positive",
                "rows": zero,
                "note": "the density check uses the stderr implied by the exact value instead",
            })
    if mc and mc.get("traced_command_s"):
        traced = mc["traced_command_s"]
        faults.append({
            "fault": "--threads 2 does not speed up lep",
            "lep_s_traced_threads_1": traced["1"].get("lep"),
            "lep_s_traced_threads_2": traced["2"].get("lep"),
            "rng.pmap.speedup": mc["per_layer"]["rng.pmap.speedup"],
        })
    return faults


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--record", default=None, help="write the results to this JSON file")
    args = parser.parse_args(argv)

    results = {}
    for name in WORKLOADS:
        details, plain = run_workload(name, args.seed, args.seconds, 0)
        traced_details, traced = run_workload(name, args.seed, args.seconds, 1)
        results[name] = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "failed_ops_frac": details["failed_ops_frac"],
            "known_faults": details["known_faults"],
            "end_to_end": {k: v["value"] for k, v in plain["metrics"].items()},
            "raw_medians": {k: statistics.median(details[k]) for k in ("raw_wall_s", "raw_cpu_s", "raw_setup_s")},
            "command_s": {c: statistics.median(v) for c, v in details["command_s"].items()},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "trace.overhead_s": traced["metrics"]["trace.overhead_s"]["value"],
            "traced_command_s": traced_details["traced_command_s"],
            "traced_invocations": traced_details["traced_invocations"],
            "sha256": details["sha256"],
        }
        units = {k: v["unit"] for k, v in plain["metrics"].items()}
        print(f"== {name}: correct {results[name]['correct']}, failed_ops_frac "
              f"{plain['failed']}/{plain['attempted']} = {details['failed_ops_frac']:.4f}")
        for key, value in results[name]["end_to_end"].items():
            print(f"   {key:<16} {value:.4f} {units[key]}")
        for command, value in results[name]["command_s"].items():
            print(f"   {command + '_s':<16} {value:.4f} s")
        print(f"   trace.overhead_s {results[name]['trace.overhead_s']:.4f} s")

    if args.record:
        record = {
            "seed": args.seed,
            "run_seconds": args.seconds,
            "machine": machine_facts(),
            "calibration_reference_s": calibration.REFERENCE_S,
            "workloads": {
                name: {
                    "threads": w.threads,
                    "route": w.route,
                    "why": w.why,
                    "invocations": [{"command": i.command, "stem": i.stem, "config": i.config}
                                    for i in w.build(args.seed)],
                }
                for name, w in WORKLOADS.items()
            },
            "metric_moves": METRIC_MOVES,
            "results": results,
            "observed_faults": observed_faults(results),
        }
        Path(args.record).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"recorded {args.record}")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
