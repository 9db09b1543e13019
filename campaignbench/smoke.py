#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload on a tiny grid, untraced and traced, and checks
that each run is correct and reports exactly the metrics
``BENCHMARK.json`` names.  Then corrupts one counter of one outcome
and checks that the physics gate reports it, so the gate cannot pass
silently.  From the repository root::

    python3 campaignbench/smoke.py

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import sys

import run

#: Two kernels, one of them seed-dependent; two PE counts.
TINY = {"kernels": ("first_diff", "pic_1d"), "pes": (1, 4)}
SEED = 3


def check(condition: bool, message: str, failures: list[str]) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def check_workloads(declared: dict, failures: list[str]) -> None:
    for name in run.WORKLOADS:
        for traced in (False, True):
            label = f"{name} trace={int(traced)}"
            out = run.measure(name, SEED, seconds=0, trace=traced, **TINY)
            wanted = declared["per_layer" if traced else "end_to_end"]
            metrics = out["metrics"]
            check(out["correct"] and out["failed"] == 0, f"{label}: correct", failures)
            check(set(metrics) == wanted, f"{label}: metric names", failures)
            check(
                all(math.isfinite(m["value"]) for m in metrics.values()),
                f"{label}: finite values",
                failures,
            )


def check_gate(failures: list[str]) -> None:
    """One corrupted counter in one outcome must fail the run."""
    from repro.backends import get_backend

    backend = get_backend("untimed-vec")
    evaluate = backend.evaluate
    spec = run.campaign_spec(run.WORKLOADS["grid-replay"], SEED, **TINY)
    calls = [0]

    def corrupting(trace, scenario):
        outcome = evaluate(trace, scenario)
        # A cold set-up run and a timed pass evaluate every point once,
        # in canonical order: tamper with the first point of each.
        if calls[0] % spec.n_points == 0:
            outcome.stats.counts[0, 0] += 1
        calls[0] += 1
        return outcome

    backend.evaluate = corrupting
    try:
        out = run.measure("grid-replay", SEED, seconds=0, **TINY)
    finally:
        del backend.evaluate
    report = out["report"]
    check(
        not out["correct"] and report["failed_frac"] > 0,
        f"one corrupted counter raises failed_frac ({report['failed_frac']:.4f})",
        failures,
    )
    # The read-back in set-up returns the corrupted record the cold run
    # stored, so every campaign pass delivers exactly one.
    check(
        report["mismatched"] == report["setup_passes"] + len(report["pass_walls_s"]),
        "exactly one mismatch per campaign pass, set-up's included",
        failures,
    )


def main() -> int:
    run.import_repro()
    with open(run.ROOT / "BENCHMARK.json") as fh:
        declared = {
            key: {m["name"] for m in entries}
            for key, entries in json.load(fh).items()
            if key in ("end_to_end", "per_layer")
        }
    failures: list[str] = []
    check_workloads(declared, failures)
    check_gate(failures)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
