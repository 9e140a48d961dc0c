"""Pinned benchmark workloads: each one is a list of CLI invocations.

A workload seed only fills each config's ``seed`` field; everything else is
fixed here, so the same seed always produces the same config bytes. Each
workload puts most of its time in different layers (see each ``why``), so a change
to one layer shows on one workload and not on the others.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 3

BERNOULLI_HALF = {"type": "bernoulli", "weights": [0.5, 0.5]}
MARKOV = {"type": "markov", "P": [[0.7, 0.3], [0.4, 0.6]]}


@dataclass(frozen=True)
class Invocation:
    """One CLI command: its name, the file stem of its config and report, and the config."""

    command: str
    stem: str
    config: dict


def _eca(rule: int) -> dict:
    return {"type": "eca", "rule": rule}


def _cfg(system, measure, params, seed, cap=None):
    cfg = {"system": system, "measure": measure, "params": params, "seed": seed}
    if cap is not None:
        cfg["cap"] = cap
    return cfg


def exact_orbit(seed: int) -> list[Invocation]:
    """Scalar orbit-ball enumeration plus exact cylinder sums, one thread."""
    return [
        # 2^15-word W_7 window, enumerated again for each n below rho = 7;
        # n = 7 reaches rho, where the exact ratio is 1 without enumeration
        Invocation("density", "density", _cfg(
            _eca(90), BERNOULLI_HALF,
            {"m": 2, "n_list": [1, 2, 3, 4, 5, 6, 7], "T": 5, "n_samples": 10_000}, seed)),
        # 50 points x 3 n = 150 exact cells on 2^11-word windows
        Invocation("classify", "classify", _cfg(
            _eca(110), BERNOULLI_HALF,
            {"m": 2, "n_list": [1, 2, 3], "T": 3, "points": 50}, seed)),
        Invocation("dichotomy", "dichotomy", _cfg(
            _eca(110), BERNOULLI_HALF,
            {"eps_list": [1, 0.5], "T": 16, "equi": {"m": 2, "n_list": [1, 2, 3], "T": 3}}, seed)),
    ]


def sampled_mc(seed: int) -> list[Invocation]:
    """Conditional sampling, trace agreement, certificates and pair stepping, two threads."""
    return [
        # cap 1024 < 2^11, so every (point, n) cell falls back to sampling
        Invocation("classify", "classify", _cfg(
            _eca(110), MARKOV,
            {"m": 2, "n_list": [1, 2, 3], "T": 3, "points": 100, "n_samples": 10_000},
            seed, cap=1024)),
        # each batch is 100 000 x 23 int64 (about 18 MB), past the 4 MB L2
        Invocation("density", "density", _cfg(
            _eca(30), MARKOV,
            {"m": 3, "n_list": [1, 2, 3, 4, 5, 6], "T": 8, "n_samples": 100_000},
            seed, cap=1024)),
        Invocation("lep", "lep", _cfg(
            _eca(110), MARKOV,
            {"m_list": [1, 2, 3], "T": 16, "n_samples": 1000}, seed)),
        # ECA 184 keeps p_hat below 1 at eps 1, so all 32 steps run
        Invocation("sensitivity", "sensitivity", _cfg(
            _eca(184), MARKOV,
            {"eps_list": [1, 0.5, 0.25, 0.125], "T": 32, "n_samples": 20_000}, seed)),
    ]


def spectral_vitali(seed: int) -> list[Invocation]:
    """Repeated event tables on the one-sided odometer, exact cylinder algebra, one thread."""
    odometer = {"type": "odometer", "sizes": [2]}
    haar = {"type": "haar", "sizes": [2]}
    return [
        # p = 32 and 16 k values; every event_table call builds the same ball
        Invocation("spectral", "spectral_exact", _cfg(
            odometer, haar,
            {"m": 4, "T": 4, "y": "0000000000", "cert_T": 64, "mode": "exact"}, seed)),
        Invocation("spectral", "spectral_sampled", _cfg(
            odometer, haar,
            {"m": 3, "T": 3, "y": "0000000000", "cert_T": 64, "mode": "sampled",
             "n_samples": 1000}, seed)),
        # refines to 1856 balls; the disjointness check is O(N^2) in that count
        Invocation("vitali", "vitali", {
            "measure": MARKOV,
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
            "seed": seed,
        }),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int
    route: str | None  # density/classify rows must all be "exact" or all "sampled"
    build: Callable[[int], list[Invocation]]
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload("exact-orbit", 1, "exact", exact_orbit,
                 "scalar orbit-ball enumeration and exact cylinder sums dominate; "
                 "a faster orbit engine shows here"),
        Workload("sampled-mc", 2, "sampled", sampled_mc,
                 "no orbit enumeration: conditional sampling, trace agreement, certificates "
                 "and pair stepping on 2 threads; the control for orbit-engine changes"),
        Workload("spectral-vitali", 1, None, spectral_vitali,
                 "the same spectral ball built 288 times per command, plus exact Vitali "
                 "refinement with an O(N^2) disjointness check"),
    )
}
