#!/usr/bin/env python3
"""Paper-grid campaign benchmark: host time of the reproduction, end to end.

Usage (from the repository root)::

    python3 campaignbench/run.py --workload grid-replay --seed 1 \\
        --seconds 10 --trace 0

Workloads: ``grid-replay`` and ``timed-slice`` (see ``DESIGN.md``).
The program is imported from ``src/`` of the checkout this file sits
in, and from nowhere else.  Each run:

1. sets the workload up ``SETUP_REPEATS`` times, each into a fresh
   store (``setup_s``: import time + the median set-up);
2. runs whole campaign passes until ``--seconds`` have elapsed and at
   least ``MIN_PASSES`` passes were made, probing the host's speed
   between records (``speed.py``);
3. with ``--trace 1``, runs one more pass with the span recorder of
   ``spans.py`` installed, and reports per-layer metrics instead;
4. checks every delivered point's physics, set-up's included, against
   the scalar oracle (``physics.py``), outside the timed region.

Human-readable lines come first; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Times are host times rescaled to a reference host speed; the
simulated statistics are checked, not timed.
"""

from __future__ import annotations

import time

_PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Everything a run writes (stores, spans, the oracle memo) stays here.
WORK = ROOT / ".campaignbench"
DEFAULT_SEED = 1
#: Each point's cost is its median over at least this many passes.
MIN_PASSES = 3
#: Knobs that would add timers, telemetry sinks, eviction or a shared
#: (possibly warm) store root to the measured program.
CLEARED_ENV = (
    "REPRO_PROFILE",
    "REPRO_OBS",
    "REPRO_STORE_MAX_BYTES",
    "REPRO_TRACE_STORE",
)
#: Set-up spans reported per set-up (``setup.<name>_s``).
SETUP_SPANS = (
    "store.get",
    "store.put",
    "store.lookup_result",
    "store.claim_result",
    "store.put_result",
    "store.flush_index",
    "ir.build_trace",
    "ir.compact",
    "core.replay_superops",
    "core.simulate_vec",
)

sys.path.insert(0, str(HERE))

from physics import oracle_digests, outcome_digest  # noqa: E402
from spans import LAYERS, Recorder, install  # noqa: E402
from speed import MIN_SAMPLES, SpeedTrack  # noqa: E402
from workloads import SETUP_REPEATS, WORKLOADS, Bench, campaign_spec  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program to measure)."""


def import_repro() -> float:
    """Import the checkout's ``repro``; seconds since process start."""
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {package} is missing")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported repro from {repro.__file__}, not {package}")
    return time.perf_counter() - _PROCESS_T0


def _oracle_memo() -> Path:
    """The oracle memo of this checkout's code (program + oracle)."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + [HERE / "physics.py"]:
        h.update(path.read_bytes())
    return WORK / "oracle" / f"{h.hexdigest()[:16]}.json"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def tail_decile(n: int) -> int:
    """The highest decile with at least ten of ``n`` samples beyond it."""
    return max(5, min(9, int(10 * (1 - 10 / n))))


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile.

    A weighted mean of every order statistic, with the weights of a
    Beta(p(n+1), (1-p)(n+1)) distribution.  Point costs cluster by
    kernel, and a plain order statistic jumps between neighbouring
    clusters from run to run; this estimate moves smoothly.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    u = np.linspace(0.0, 1.0, 20001)
    pdf = np.zeros_like(u)
    inner = u[1:-1]
    pdf[1:-1] = np.exp((a - 1) * np.log(inner) + (b - 1) * np.log1p(-inner))
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)))
    weights = np.diff(np.interp(np.arange(n + 1) / n, u, cdf / cdf[-1]))
    return float(weights @ x)


def end_to_end(costs: dict[int, float], setup_s: float, rss_mb: float) -> dict:
    """Metrics from each point's cost at the reference host speed.

    A point's cost is the median over the run's passes of its gap,
    rescaled by the host's speed during that gap; the rate is the grid
    over the sum of those costs.
    """
    values = list(costs.values())
    tail = tail_decile(len(values)) / 10
    return {
        "points_per_s": (len(values) / sum(values), "1/s"),
        "point_ms_p50": (hd_quantile(values, 0.5) * 1e3, "ms"),
        "point_ms_tail": (hd_quantile(values, tail) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def _hit_ratio(store) -> float:
    if store is None:
        return 0.0
    results = store.result_counters
    return _ratio(results.memory_hits + results.disk_hits, results.total)


def layer_metrics(
    recorder: Recorder, store, setup_store, base: dict, overhead: float
) -> dict:
    """Per-layer metrics of the traced pass (root span ``executor.campaign``)."""
    from repro.backends import evaluation_count
    from repro.engine import interpretation_count

    spans = recorder.by_name("executor.campaign")

    def s(name: str) -> float:
        return spans.get(name, (0, 0.0))[1]

    def calls(name: str) -> int:
        return spans.get(name, (0, 0.0))[0]

    pass_spans = recorder.under("executor.campaign")
    looping = {
        span["parent"] for span in pass_spans if span["name"] == "machine.event_loop"
    }
    compacted = [span for span in pass_spans if span["name"] == "machine.run_compacted"]
    analytic = sum(1 for span in compacted if span["id"] not in looping)
    counts = recorder.counts
    closed = counts["core.superop_closed_pes"]
    piece = counts["core.superop_piece_pes"]
    out = {
        "core.replay_superops_s": (s("core.replay_superops"), "s"),
        "core.simulate_vec_s": (s("core.simulate_vec"), "s"),
        "core.fallback_pes": (counts["core.fallback_pes"], "count"),
        "core.expanded_replays": (counts["core.expanded_replays"], "count"),
        "core.superop_flat_ops": (counts["core.superop_flat_ops"], "count"),
        "core.superop_closed_pes": (closed, "count"),
        "core.superop_piece_pes": (piece, "count"),
        "core.closed_form_ratio": (_ratio(closed, closed + piece), "ratio"),
        "cache.accesses": (counts["cache.accesses"], "count"),
        "store.put_result_s": (s("store.put_result"), "s"),
        "store.claim_result_s": (s("store.claim_result"), "s"),
        "store.merge_touches_s": (s("store.merge_touches"), "s"),
        "store.flush_index_s": (s("store.flush_index"), "s"),
        "store.put_result_calls": (calls("store.put_result"), "count"),
        "store.lookup_result_s": (s("store.lookup_result"), "s"),
        "store.lookup_result_calls": (calls("store.lookup_result"), "count"),
        "store.result_hit_ratio": (_hit_ratio(store), "ratio"),
        "store.get_s": (s("store.get"), "s"),
        "store.put_s": (s("store.put"), "s"),
        "ir.build_trace_s": (s("ir.build_trace"), "s"),
        "ir.compact_s": (s("ir.compact"), "s"),
        "ir.interpretations": (interpretation_count() - base["interp"], "count"),
        "backends.evaluate_self_s": (s("backends.evaluate"), "s"),
        "backends.evaluations": (evaluation_count() - base["evals"], "count"),
        "executor.self_s": (s("executor.campaign"), "s"),
        "machine.event_loop_s": (s("machine.event_loop"), "s"),
        "machine.run_compacted_s": (s("machine.run_compacted"), "s"),
        "machine.serial_time_s": (s("machine.serial_time"), "s"),
        "machine.event_loop_calls": (calls("machine.event_loop"), "count"),
        "machine.analytic_ratio": (_ratio(analytic, len(compacted)), "ratio"),
        "trace.overhead_frac": (overhead, "ratio"),
    }
    layers = recorder.by_layer("executor.campaign")
    for prefix in LAYERS:
        out[f"layer.{prefix}_s"] = (layers[prefix], "s")
    setup = recorder.by_name("bench.setup")
    for name in SETUP_SPANS:
        seconds = setup.get(name, (0, 0.0))[1] / SETUP_REPEATS
        out[f"setup.{name}_s"] = (seconds, "s")
    # The last set-up pass is the read-back of the cold run's results.
    out["setup.store.result_hit_ratio"] = (_hit_ratio(setup_store), "ratio")
    return out


def measure(
    workload_name: str,
    seed: int = DEFAULT_SEED,
    seconds: float = 10.0,
    trace: bool = False,
    *,
    kernels=None,
    pes=None,
    import_s: float = 0.0,
) -> dict:
    """Run one workload; returns the result object the CLI prints."""
    from repro.backends import evaluation_count, get_backend
    from repro.engine import interpretation_count, set_default_store

    workload = WORKLOADS[workload_name]
    spec = campaign_spec(workload, seed, kernels=kernels, pes=pes)
    schema = get_backend(spec.backend).result_schema
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    tempfile.tempdir = str(scratch)
    recorder = Recorder() if trace else None
    speed = SpeedTrack()
    # The host's speed right after the import.
    speed.sample(MIN_SAMPLES)
    import_s = speed.rescale(import_s, time.perf_counter())
    try:
        bench = Bench(workload, spec, scratch, speed)
        if recorder is not None:
            restore = install(recorder)
            recorder.begin("bench.setup")
        try:
            setup_s, setup_passes = bench.setup()
            setup_s += import_s
        finally:
            if recorder is not None:
                recorder.end()
                restore()

        # Records set-up delivered are checked like timed ones.
        delivered: list[tuple[int, str]] = [
            (index, outcome_digest(outcome, schema))
            for result in setup_passes
            for index, outcome in result.outcomes
        ]
        raised = sum(result.raised for result in setup_passes)
        walls: list[float] = []
        gaps: list[tuple[int, float, tuple[float, float]]] = []
        start = time.perf_counter()
        while len(walls) < MIN_PASSES or time.perf_counter() - start < seconds:
            result = bench.run_pass()
            walls.append(result.wall_s)
            raised += result.raised
            for (index, outcome), gap, stamp in zip(
                result.outcomes, result.gaps_s, result.stamps
            ):
                gaps.append((index, gap, stamp))
                delivered.append((index, outcome_digest(outcome, schema)))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rescaled: dict[int, list[float]] = {}
        for index, gap, stamp in gaps:
            rescaled.setdefault(index, []).append(speed.rescale(gap, *stamp))
        costs = {index: statistics.median(v) for index, v in rescaled.items()}
        slowdowns = [speed.slowdown(*stamp) for _, _, stamp in gaps]
        attempted = (len(setup_passes) + len(walls)) * spec.n_points

        if recorder is not None:
            recorder.counts.clear()
            base = {"interp": interpretation_count(), "evals": evaluation_count()}
            # No probes inside the traced pass: they would read as
            # executor self time.
            bench.speed = None
            restore = install(recorder)
            recorder.begin("executor.campaign")
            try:
                result = bench.run_pass()
            finally:
                recorder.end()
                restore()
            overhead = result.wall_s / statistics.median(walls) - 1.0
            setup_store = setup_passes[-1].store if setup_passes else None
            metrics = layer_metrics(recorder, result.store, setup_store, base, overhead)
            raised += result.raised
            attempted += spec.n_points
            delivered.extend(
                (index, outcome_digest(outcome, schema))
                for index, outcome in result.outcomes
            )
            recorder.write(WORK / "spans" / f"{workload.name}-seed{seed}.jsonl")
        else:
            metrics = end_to_end(costs, setup_s, rss_mb)

        # The oracle runs outside every timed region.
        expected = oracle_digests(spec, bench.acquire(), _oracle_memo())
        mismatched = sum(1 for index, digest in delivered if digest != expected[index])
    finally:
        set_default_store(None)
        tempfile.tempdir = None
        shutil.rmtree(scratch, ignore_errors=True)

    failed = raised + mismatched
    report = {
        "workload": workload.name,
        "seed": seed,
        "setup_passes": len(setup_passes),
        "pass_walls_s": walls,
        "slowdown": statistics.quantiles(slowdowns, n=4) if len(slowdowns) > 1 else [],
        "tail": f"p{10 * tail_decile(spec.n_points)}",
        "failed_frac": failed / attempted,
        "mismatched": mismatched,
        "raised": raised,
    }
    if recorder is not None:
        report["trees"] = {
            "setup": recorder.tree("bench.setup"),
            "pass": recorder.tree("executor.campaign"),
        }
        report["layers"] = {
            root: recorder.by_layer(root) for root in ("bench.setup", "executor.campaign")
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
        "report": report,
    }


def print_report(out: dict) -> None:
    report = out["report"]
    print(
        f"workload {report['workload']} seed {report['seed']}: "
        f"{len(report['pass_walls_s'])} passes of "
        + " ".join(f"{wall:.3f}" for wall in report["pass_walls_s"])
        + f" s (host time); point_ms_tail is {report['tail']}"
    )
    if report["slowdown"]:
        print(
            "  host slowdown against the reference speed (quartiles): "
            + " ".join(f"{q:.3f}" for q in report["slowdown"])
        )
    for phase, lines in report.get("trees", {}).items():
        for line in lines:
            print(f"  {phase:<5} | {line}")
    for root, layers in report.get("layers", {}).items():
        total = sum(layers.values())
        for prefix, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
            share = _ratio(seconds, total)
            print(
                f"  {root:<17} {LAYERS.get(prefix, prefix):<22}"
                f"{seconds:>10.4f} s self {share:>7.1%}"
            )
    for name, metric in out["metrics"].items():
        print(f"  {name:<28}{metric['value']:>14.6g} {metric['unit']}")
    print(
        f"  failed_frac {report['failed_frac']:.6g} "
        f"({out['failed']} of {out['attempted']} points; "
        f"{report['mismatched']} physics mismatches, {report['raised']} raised)"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_s = import_repro()
    except (BenchError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), import_s=import_s
    )
    print_report(out)
    del out["report"]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
