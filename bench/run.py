"""Benchmark: run one pinned workload of equidyn CLI commands, check it, print metrics.

Run from the repository root:

    python3 bench/run.py --workload exact-orbit --seed 3 --seconds 30 --trace 0

The workload seed only fills each generated config's ``seed`` field. The
program sees nothing but those config files (under ``.bench_out/``), run
through ``equidyn.cli.main`` in this process. A pass runs every command of
the workload once; passes repeat while a typical pass still ends within
``--seconds``, and at least ``MIN_PASSES`` run. ``wall_s`` and ``cpu_s`` are
medians over passes, and ``setup_s`` the median over fresh interpreters of
importing the CLI and validating the configs; every time is scaled by the
calibration bursts run next to it (`calibration.py`), so it reads in
seconds on the reference host. The raw times are printed too.

``--trace 0`` prints the end-to-end metrics, timed untraced. ``--trace 1``
runs the same untraced passes, then one pass with `tracing.Tracer` installed
for times (and, on a multi-threaded workload, a second one at one thread)
and one more with the core counters on for counts, and prints the per-layer
metrics plus the tracing overhead.

Every invocation is checked (`checks.py`); report and CSV bytes must match
across all passes of a run. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Without the package
sources next to this directory the script exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import calibration
from checks import KNOWN_FAULTS, check_invocation
from tracing import Tracer
from workloads import DEFAULT_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_PASSES = 3
SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 60
DEFAULT_SECONDS = 30

# A fresh interpreter's set-up: import the CLI, then load and validate every
# config; it prints how long that took. Interpreter start-up and numpy's
# import come first and are not timed: they are mostly file and page-mapping
# work that swings with the host far more than, and apart from, any
# calibration, and the package does not control them.
SETUP_SNIPPET = """
import json, sys, time
import numpy
start = time.perf_counter()
import equidyn.cli
from equidyn.measures import measure_from_dict
from equidyn.systems import system_from_dict
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    if "system" in cfg:
        system_from_dict(cfg["system"])
    measure_from_dict(cfg["measure"])
print(time.perf_counter() - start)
"""

# BENCHMARK.json declares every metric; the end-to-end ones are printed with
# --trace 0 and the per-layer ones, named `<layer>.<function>.<quantity>`,
# with --trace 1.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
COUNT_UNITS = ("count", "B")  # exact work counts, taken from the counting pass

# derived metric -> (numerator, denominator); 0 when the denominator is 0
RATIOS = {
    "orbit.orbit_ball_event.hit_ratio": ("orbit.orbit_ball_event.hits", "orbit.orbit_ball_event.words"),
    "orbit.orbit_ball_event.words_per_s": ("orbit.orbit_ball_event.words", "orbit.orbit_ball_event.self_s"),
    "spectral.event_table.calls_per_distinct": ("spectral.event_table.calls", "spectral.event_table.distinct"),
    "systems.step_batch.rows_per_s": ("systems.step_batch.rows", "systems.step_batch.self_s"),
    "sensitivity.mu_sensitivity_estimate.pairs_per_s": (
        "sensitivity.mu_sensitivity_estimate.pairs", "sensitivity.mu_sensitivity_estimate.self_s"),
    "periodicity.lep_certificate.per_s": ("periodicity.lep_certificate.calls", "periodicity.lep_certificate.self_s"),
}


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    command_s: dict
    bursts: list  # calibration burst times, before each invocation and after the last
    outputs: dict  # stem -> (report bytes, csv bytes)
    failures: dict = field(default_factory=dict)  # stem -> failed check names


def _read(path: Path) -> bytes | None:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return None


def _invoke(cli, argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an uncaught error is this invocation failing, not the run
        traceback.print_exc()
        return 1


def run_pass(cli, workload, invocations, work: Path, threads: int, around=None) -> PassResult:
    """Run every invocation once through the CLI, then check what it wrote.

    `around(inv, call)`, when given, runs `call()` for each invocation; the
    traced pass uses it to give every invocation its own tracer.
    """
    for inv in invocations:
        for suffix in (".json", ".csv"):
            (work / f"{inv.stem}{suffix}").unlink(missing_ok=True)
    codes, command_s = {}, dict.fromkeys((inv.command for inv in invocations), 0.0)
    bursts = []
    wall = cpu = 0.0
    for inv in invocations:
        bursts.append(calibration.burst())
        argv = [inv.command, "--config", str(work / f"{inv.stem}.config.json"),
                "--out", str(work / f"{inv.stem}.json"), "--threads", str(threads)]
        start, start_cpu = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            if around is None:
                codes[inv.stem] = _invoke(cli, argv)
            else:
                codes[inv.stem] = around(inv, lambda: _invoke(cli, argv))
        elapsed = time.perf_counter() - start
        cpu += time.process_time() - start_cpu
        wall += elapsed
        command_s[inv.command] += elapsed
        if codes[inv.stem] != 0:
            print(f"  {inv.stem} exited {codes[inv.stem]}: {err.getvalue().strip()[-500:]}")
    bursts.append(calibration.burst())
    result = PassResult(wall, cpu, command_s, bursts, {})
    for inv in invocations:
        out = (_read(work / f"{inv.stem}.json"), _read(work / f"{inv.stem}.csv"))
        result.outputs[inv.stem] = out
        result.failures[inv.stem] = check_invocation(inv.command, inv.config, workload.route, codes[inv.stem], *out)
    return result


def measure_setup(paths: list[Path]) -> tuple[list[float], list[float]]:
    """Set-up times reported by `SETUP_REPEATS` fresh interpreters running
    `SETUP_SNIPPET`, and the calibration bursts run between them (one more).

    A timer kills a child that hangs.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, bursts = [], [calibration.burst()]
    for _ in range(SETUP_REPEATS):
        child = subprocess.Popen([sys.executable, "-c", SETUP_SNIPPET, *map(str, paths)],
                                 env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        watchdog = threading.Timer(SETUP_TIMEOUT_S, child.kill)
        watchdog.start()
        out, _ = child.communicate()
        watchdog.cancel()
        if child.returncode != 0:
            raise RuntimeError(f"set-up interpreter exited {child.returncode}")
        times.append(float(out))
        bursts.append(calibration.burst())
    return times, bursts


class Tally:
    """Attempted and failed invocations, with every failed check by name."""

    def __init__(self, reference: dict):
        self.reference = reference  # stem -> (report bytes, csv bytes) of the first pass
        self.attempted = self.failed = 0
        self.unexpected: list[str] = []
        self.known: list[str] = []

    def add(self, run: PassResult, label: str) -> None:
        for stem, fails in run.failures.items():
            fails = list(fails)
            if run.outputs[stem] != self.reference[stem]:
                fails.append("determinism.bytes_changed")
            self.attempted += 1
            if fails:
                self.failed += 1
            for name in fails:
                (self.known if name in KNOWN_FAULTS else self.unexpected).append(f"{label}:{stem}:{name}")


def _quartiles(values):
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def layer_metrics(report: dict) -> dict:
    values = {name: float(report.get(name, 0.0)) for name, _ in PER_LAYER}
    for name, (num, den) in RATIOS.items():
        values[name] = values[num] / values[den] if values[den] else 0.0
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "equidyn" / "__init__.py").is_file():
        print(f"bench: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from equidyn import cli

    workload = WORKLOADS[args.workload]
    invocations = workload.build(args.seed)
    work = OUT / workload.name
    work.mkdir(parents=True, exist_ok=True)
    paths = []
    for inv in invocations:
        path = work / f"{inv.stem}.config.json"
        path.write_text(json.dumps(inv.config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        paths.append(path)

    setup_raw, setup_bursts = measure_setup(paths)

    passes: list[PassResult] = []
    took: list[float] = []
    start = time.perf_counter()

    def next_pass_fits():  # a typical pass would still end within --seconds
        return time.perf_counter() - start + statistics.median(took) <= args.seconds

    while len(passes) < MIN_PASSES or next_pass_fits():
        t0 = time.perf_counter()
        passes.append(run_pass(cli, workload, invocations, work, workload.threads))
        took.append(time.perf_counter() - t0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tally = Tally(passes[0].outputs)
    for i, run in enumerate(passes):
        tally.add(run, f"pass{i}")

    walls = [calibration.scale(p.wall_s, p.bursts) for p in passes]
    cpus = [calibration.scale(p.cpu_s, p.bursts) for p in passes]
    setup_times = [calibration.scale(t, setup_bursts[i:i + 2]) for i, t in enumerate(setup_raw)]
    bursts = setup_bursts + [b for p in passes for b in p.bursts]
    details = {
        "workload": workload.name, "seed": args.seed, "threads": workload.threads,
        "passes": len(passes), "wall_s": walls, "cpu_s": cpus, "setup_s": setup_times,
        "raw_wall_s": [p.wall_s for p in passes], "raw_cpu_s": [p.cpu_s for p in passes],
        "raw_setup_s": setup_raw, "burst_s": bursts,
        "command_s": {c: [calibration.scale(p.command_s[c], p.bursts) for p in passes]
                      for c in passes[0].command_s},
        "peak_rss_mb": peak_rss_mb,
        "sha256": {f"{stem}{suffix}": hashlib.sha256(data or b"").hexdigest()
                   for stem, pair in passes[0].outputs.items() for suffix, data in zip((".json", ".csv"), pair)},
    }
    print(f"workload {workload.name} seed {args.seed} threads {workload.threads} "
          f"passes {len(passes)} setup_repeats {SETUP_REPEATS}")
    for label, values in (("wall_s", walls), ("cpu_s", cpus), ("setup_s", setup_times),
                          ("raw_wall_s", details["raw_wall_s"]), ("raw_setup_s", setup_raw),
                          ("burst_s", bursts),
                          *((f"{c}_s", v) for c, v in details["command_s"].items())):
        q1, q3 = _quartiles(values)
        print(f"  {label:<14} median {statistics.median(values):.4f} q1 {q1:.4f} q3 {q3:.4f} "
              f"all {[round(v, 4) for v in values]}")
    print(f"  peak_rss_mb    {peak_rss_mb:.1f}")
    for name, digest in details["sha256"].items():
        print(f"  sha256 {name} {digest}")

    if args.trace:
        metrics = traced_metrics(cli, workload, invocations, work, tally, details)
    else:
        values = {"wall_s": statistics.median(walls), "cpu_s": statistics.median(cpus),
                  "peak_rss_mb": peak_rss_mb, "setup_s": statistics.median(setup_times)}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    details["failed_ops_frac"] = tally.failed / tally.attempted
    details["known_faults"] = sorted(set(n.split(":", 1)[1] for n in tally.known))
    details["failed_checks"] = tally.unexpected
    print(f"  failed_ops_frac {tally.failed}/{tally.attempted} = {details['failed_ops_frac']:.4f}")
    for name in details["known_faults"]:
        print(f"  known fault (counted as failed): {name}")
    for name in tally.unexpected:
        print(f"  FAILED CHECK {name}")
    print("details " + json.dumps(details))
    print(json.dumps({
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


def traced_metrics(cli, workload, invocations, work, tally, details) -> dict:
    """Traced passes -> per-layer metrics.

    Times come from a pass whose tracer has no core counters (and, on a
    threaded workload, a second such pass at one thread for the pmap
    speed-up); counts come from one more pass with the core counters on.
    """
    def traced_pass(threads: int, counters: bool):
        by_stem = {}

        def around(inv, call):
            tracer = Tracer(counters)
            tracer.install()
            try:
                return call()
            finally:
                tracer.uninstall()
                by_stem[inv.stem] = tracer.report()

        run = run_pass(cli, workload, invocations, work, threads, around)
        total = defaultdict(float)
        for report in by_stem.values():
            for key, value in report.items():
                total[key] += value
        return run, total, by_stem

    run, report, _ = traced_pass(workload.threads, counters=False)
    details["traced_command_s"] = {workload.threads: run.command_s}
    tally.add(run, "traced")
    report["rng.pmap.speedup"] = 1.0
    if workload.threads > 1:
        # the same pass at one thread must write the same bytes
        single, single_report, _ = traced_pass(1, counters=False)
        details["traced_command_s"][1] = single.command_s
        tally.add(single, "traced-threads1")
        if report.get("rng.pmap.total_s"):
            report["rng.pmap.speedup"] = single_report["rng.pmap.total_s"] / report["rng.pmap.total_s"]
    counted, count_report, by_stem = traced_pass(workload.threads, counters=True)
    tally.add(counted, "counted")
    units = dict(PER_LAYER)
    report.update({k: v for k, v in count_report.items() if units.get(k) in COUNT_UNITS})
    details["traced_invocations"] = {
        stem: {k: v for k, v in layer_metrics(r).items() if v and units[k] in COUNT_UNITS}
        for stem, r in by_stem.items()
    }
    report["cli.report_bytes"] = sum(len(r or b"") + len(c or b"") for r, c in run.outputs.values())
    for command, values in details["command_s"].items():
        report[f"cli.{command}.wall_s"] = statistics.median(values)
    report["trace.wall_s"] = run.wall_s
    report["trace.overhead_s"] = run.wall_s - statistics.median(details["raw_wall_s"])

    top = sorted((k for k in report if k.endswith(".self_s") and k.count(".") == 2),
                 key=lambda k: -report[k])[:15]
    for key in top:
        calls = report.get(key[: -len("self_s")] + "calls", 0)
        print(f"  trace {key:<48} {report[key]:.4f} s over {int(calls)} calls")
    return {name: {"value": value, "unit": units[name]} for name, value in layer_metrics(report).items()}


if __name__ == "__main__":
    sys.exit(main())
