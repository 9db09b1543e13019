#!/usr/bin/env python
"""Super-op replay: O(unique behavior) speedup + shard compression.

Times warm replay (trace built, compacted and compiled to op programs
once, excluded from the timing) of the flat scalar engine against
:func:`repro.core.superop_replay.replay_superops` over stencil-sweep
kernels, asserts the counters are bit-identical on every case while
doing so, and additionally measures the on-disk win: flat (v1-style)
shard bytes vs the super-op (format-v2) layout.  The committed
``BENCH_superops.json`` is the performance evidence for trace
specialization: stencil-sweep kernels must hold a >=10x warm replay
speedup and a >=20x stored-trace size reduction.

CI's bench-smoke job re-runs this in ``REPRO_BENCH_FAST`` mode and
gates against the committed fast-mode baseline: the case set must
match, counters must still be bit-identical, no case may lose more
than half of its committed speedup (timings are noisy on shared
runners; halving is a collapse, not jitter), and compression — which
is deterministic — must hold to the same floor.

The routing rows guard the other side of the trade: a paper-geometry
``linear_recurrence`` point, whose view does not close (every op
steps a page per trip), must reach the default backend's flat
columnar replay without a single super-op replay call — a count, not
a timing — and with counters bit-identical to the scalar engine.

Usage::

    python tools/superop_bench.py --out BENCH_superops.json    # regenerate
    python tools/superop_bench.py --check BENCH_superops.json  # CI gate
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

#: minimum fraction of a case's committed speedup/compression the gate
#: demands.
RETAIN = 0.5


def fast() -> bool:
    return os.environ.get("REPRO_BENCH_FAST", "") not in ("", "0")


def cases() -> tuple[dict, ...]:
    """(kernel, n, config knobs) per case; smaller in fast mode.

    All are stencil-style sweeps whose whole trace collapses to a
    handful of super-ops, so replay cost tracks *unique behavior*
    (steady-state windows) instead of trip counts — the speedup and
    the shard compression both grow with n.  The fifo row holds the
    eviction-epoch fixed point (``docs/fastpaths.md``) to the same
    floors as the LRU closed form; ``run_cases`` asserts every case
    decided columnar, never per-piece.
    """
    scale = 1 if fast() else 4
    return (
        {
            "name": "hydro_fragment",
            "n": 50_000 * scale,
            "pes": 8,
            "page_size": 32,
            "cache_elems": 256,
            "policy": "lru",
        },
        {
            "name": "first_diff",
            "n": 50_000 * scale,
            "pes": 16,
            "page_size": 32,
            "cache_elems": 256,
            "policy": "lru",
        },
        {
            "name": "tri_diagonal",
            "n": 50_000 * scale,
            "pes": 8,
            "page_size": 64,
            "cache_elems": 512,
            "policy": "lru",
        },
        {
            "name": "hydro_fragment",
            "n": 50_000 * scale,
            "pes": 8,
            "page_size": 32,
            "cache_elems": 64,
            "policy": "fifo",
        },
    )


def routing_cases() -> tuple[dict, ...]:
    """Paper-grid points (the kernel's default size, a paper PE count,
    page size and cache) whose view must take the flat route."""
    return (
        {
            "name": "linear_recurrence",
            "n": 256,
            "pes": 8,
            "page_size": 32,
            "cache_elems": 256,
            "policy": "lru",
        },
    )


def _case_key(case: dict) -> str:
    return (
        f"{case['name']}[n={case['n']},pes={case['pes']},"
        f"ps={case['page_size']},cache={case['cache_elems']},"
        f"{case['policy']}]"
    )


def _config(case: dict):
    from repro.core import MachineConfig

    return MachineConfig(
        n_pes=case["pes"],
        page_size=case["page_size"],
        cache_elems=case["cache_elems"],
        cache_policy=case["policy"],
    )


def _best_of(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_cases() -> list[dict]:
    import numpy as np

    from repro.bench import kernel_trace
    from repro.core import simulate
    from repro.core.superop_replay import replay_superops
    from repro.ir.superops import compact
    from repro.kernels import get_kernel

    reps = 3 if fast() else 5
    rows = []
    for case in cases():
        program, inputs = get_kernel(case["name"]).build(n=case["n"])
        trace = kernel_trace(program, inputs)
        superops = compact(trace)
        if not superops.ops:
            raise AssertionError(
                f"{_case_key(case)}: stencil sweep failed to compact"
            )
        config = _config(case)
        flat = simulate(trace, config)
        telemetry: dict[str, int] = {}
        via_ops = replay_superops(superops, config, telemetry=telemetry)
        if not (
            np.array_equal(flat.stats.counts, via_ops.stats.counts)
            and np.array_equal(flat.stats.by_array, via_ops.stats.by_array)
            and np.array_equal(flat.page_fetches, via_ops.page_fetches)
            and np.array_equal(
                flat.distinct_pages_fetched, via_ops.distinct_pages_fetched
            )
        ):
            raise AssertionError(f"fidelity broken on {_case_key(case)}")
        if telemetry.get("superop_piece_pes", 0) or telemetry.get(
            "fallback_pes", 0
        ):
            raise AssertionError(
                f"{_case_key(case)}: "
                f"{telemetry.get('superop_piece_pes', 0)} per-piece / "
                f"{telemetry.get('fallback_pes', 0)} scalar PE(s) — "
                "every committed case must decide in closed form"
            )
        flat_s = _best_of(lambda: simulate(trace, config), reps)
        ops_s = _best_of(lambda: replay_superops(superops, config), reps)

        trace.attach_superops(superops)
        with tempfile.TemporaryDirectory() as tmp:
            flat_path = Path(tmp) / "flat.npz"
            ops_path = Path(tmp) / "ops.npz"
            trace.save(flat_path, compact=False)
            trace.save(ops_path, compact=True)
            flat_bytes = flat_path.stat().st_size
            ops_bytes = ops_path.stat().st_size

        rows.append(
            {
                "case": _case_key(case),
                "flat_s": round(flat_s, 6),
                "superop_s": round(ops_s, 6),
                "speedup": round(flat_s / max(ops_s, 1e-9), 2),
                "flat_bytes": flat_bytes,
                "superop_bytes": ops_bytes,
                "compression": round(flat_bytes / max(ops_bytes, 1), 2),
                "n_ops": len(superops.ops),
                "coverage": round(superops.coverage, 4),
            }
        )
    return rows


def run_routing() -> list[dict]:
    """Route each routing case through the default backend, counting
    super-op replay calls, and compare counters with the scalar engine."""
    from unittest import mock

    import numpy as np

    from repro.backends import Scenario, evaluate_scenario, untimed_vec
    from repro.bench import kernel_trace
    from repro.core import simulate
    from repro.core.superop_replay import closes
    from repro.ir.superops import compact
    from repro.kernels import get_kernel

    rows = []
    for case in routing_cases():
        program, inputs = get_kernel(case["name"]).build(n=case["n"])
        trace = kernel_trace(program, inputs)
        superops = compact(trace)
        config = _config(case)
        flat = simulate(trace, config)
        trace.attach_superops(superops)
        with mock.patch.object(
            untimed_vec, "replay_superops", wraps=untimed_vec.replay_superops
        ) as replays:
            outcome = evaluate_scenario(
                trace, Scenario(config=config, backend="untimed-vec")
            )
        rows.append(
            {
                "case": _case_key(case),
                "n_ops": len(superops.ops),
                "closes": closes(superops, config),
                "superop_replays": replays.call_count,
                "identical": bool(
                    np.array_equal(flat.stats.counts, outcome.stats.counts)
                    and np.array_equal(
                        flat.stats.by_array, outcome.stats.by_array
                    )
                    and np.array_equal(
                        flat.page_fetches, outcome.per_pe["page_fetches"]
                    )
                    and np.array_equal(
                        flat.distinct_pages_fetched,
                        outcome.per_pe["distinct_pages_fetched"],
                    )
                ),
            }
        )
    return rows


def document(rows: list[dict], routing: list[dict]) -> dict:
    return {
        "schema": 1,
        "fast": fast(),
        "cases": rows,
        "routing": routing,
        "headline_speedup": max(row["speedup"] for row in rows),
        "headline_compression": max(row["compression"] for row in rows),
    }


def check(baseline: dict, current: dict) -> list[str]:
    """Collapse failures of ``current`` against ``baseline``."""
    failures: list[str] = []
    base_rows = {row["case"]: row for row in baseline.get("cases", ())}
    cur_rows = {row["case"]: row for row in current.get("cases", ())}
    if set(base_rows) != set(cur_rows):
        failures.append(
            f"case set changed: baseline {sorted(base_rows)} vs current "
            f"{sorted(cur_rows)} (regenerate with --out if intentional)"
        )
        return failures
    for key, base in base_rows.items():
        cur = cur_rows[key]
        for metric in ("speedup", "compression"):
            floor = RETAIN * float(base[metric])
            got = float(cur[metric])
            if got < floor:
                failures.append(
                    f"{key}: {metric} {got:.2f}x collapsed below "
                    f"{floor:.2f}x (baseline {base[metric]:.2f}x, "
                    f"retain {RETAIN:.0%})"
                )
    base_routes = {row["case"] for row in baseline.get("routing", ())}
    cur_routes = {row["case"]: row for row in current.get("routing", ())}
    if base_routes != set(cur_routes):
        failures.append(
            f"routing case set changed: baseline {sorted(base_routes)} vs "
            f"current {sorted(cur_routes)}"
        )
    for key, row in cur_routes.items():
        if row["superop_replays"]:
            failures.append(
                f"{key}: the default path ran super-op replay "
                f"{row['superop_replays']} time(s) on a view that does "
                "not close"
            )
        if not row["identical"]:
            failures.append(f"{key}: counters differ from the scalar engine")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", metavar="FILE", help="write the report")
    group.add_argument(
        "--check",
        metavar="BASELINE",
        help="bench now and gate speedup + compression against BASELINE",
    )
    args = parser.parse_args(argv)

    doc = document(run_cases(), run_routing())
    for row in doc["cases"]:
        print(
            f"  {row['case']:<52} flat {row['flat_s']:>8.4f}s  "
            f"superop {row['superop_s']:>8.4f}s  {row['speedup']:>7.2f}x  "
            f"bytes {row['flat_bytes']:>9}->{row['superop_bytes']:<7} "
            f"{row['compression']:>6.2f}x"
        )
    for row in doc["routing"]:
        print(
            f"  {row['case']:<52} closes {row['closes']!s:<5}  "
            f"super-op replays {row['superop_replays']}  "
            f"identical {row['identical']}"
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(
            f"wrote {args.out}: headline {doc['headline_speedup']:.2f}x "
            f"replay, {doc['headline_compression']:.2f}x compression"
        )
        return 0

    with open(args.check, encoding="utf-8") as fh:
        baseline = json.load(fh)
    failures = check(baseline, doc)
    if failures:
        print("super-op replay regression:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(
        f"super-op replay within tolerance (headline "
        f"{doc['headline_speedup']:.2f}x replay / "
        f"{doc['headline_compression']:.2f}x compression vs baseline "
        f"{baseline.get('headline_speedup', 0.0):.2f}x / "
        f"{baseline.get('headline_compression', 0.0):.2f}x)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
