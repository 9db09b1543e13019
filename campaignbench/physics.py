"""Physics digests and the scalar oracle the benchmark checks against.

A digest covers what a point *simulated*, never how it got there:

* ``stats.counts``, ``stats.by_array`` and every ``per_pe`` array;
* the backend's ``result_schema`` metrics, minus telemetry columns
  (``vec_fallback_pes``, and any ``profile_*_s`` phase timer).

``EvalOutcome.identical`` cannot serve as the gate: it also compares
the backend tag and the telemetry column, and super-op and flat replay
legitimately disagree on ``vec_fallback_pes`` for the same physics.

The oracle replays the *flat* trace (``superops.expand()`` when a
super-op view is attached) through the scalar engines: ``simulate``
for untimed points, ``TimedMachine(...).run()`` for timed ones.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

#: Metric columns that describe the evaluation path, not the physics.
TELEMETRY_METRICS = frozenset({"vec_fallback_pes"})


def _is_telemetry(name: str) -> bool:
    return name in TELEMETRY_METRICS or (
        name.startswith("profile_") and name.endswith("_s")
    )


def _feed_array(h, label: str, array: np.ndarray) -> None:
    array = np.asarray(array)
    # Dtype width is representation, not physics: compare values.
    kind = np.int64 if array.dtype.kind in "iub" else np.float64
    h.update(f"{label}{array.shape}".encode())
    h.update(np.ascontiguousarray(array, dtype=kind).tobytes())


def physics_digest(stats, metrics, per_pe, schema) -> str:
    """Digest of one point's simulated statistics (telemetry excluded)."""
    h = hashlib.sha256()
    h.update(repr(tuple(stats.array_names)).encode())
    _feed_array(h, "counts", stats.counts)
    _feed_array(h, "by_array", stats.by_array)
    for name in sorted(per_pe):
        _feed_array(h, f"per_pe:{name}", per_pe[name])
    for name in schema:
        if not _is_telemetry(name):
            h.update(f"{name}={float(metrics[name])!r};".encode())
    return h.hexdigest()


def outcome_digest(outcome, schema) -> str:
    """Digest of an ``EvalOutcome`` the program under test returned."""
    return physics_digest(outcome.stats, outcome.metrics, outcome.per_pe, schema)


def flat_trace(trace):
    """The flat trace behind ``trace`` (expanded from its super-ops)."""
    superops = trace.attached_superops()
    return superops.expand() if superops is not None else trace


def oracle_digest(flat, scenario, schema) -> str:
    """Digest of the scalar oracle's answer for one point."""
    if scenario.backend == "timed":
        from repro.machine.msim import TimedMachine, serial_time

        costs = scenario.costs
        result = TimedMachine(
            flat,
            scenario.config,
            topology=scenario.topology,
            costs=costs,
            mode=scenario.mode,
            max_outstanding=scenario.max_outstanding,
        ).run()
        metrics = {
            "finish_time": result.finish_time,
            "speedup": result.speedup(serial_time(flat, costs)),
            "stall_time": float(result.stall_time.sum()),
            "messages": float(result.messages),
            "total_hops": float(result.total_hops),
            "refetches": float(result.refetches),
            "deferred_reads": float(result.deferred_reads),
            "messages_per_link_max": result.contention["messages_per_link_max"],
            "messages_per_link_mean": result.contention["messages_per_link_mean"],
            "contention_delay_cycles": result.contention_delay_cycles,
        }
        per_pe = {"finish": result.per_pe_finish, "stall": result.stall_time}
        return physics_digest(result.stats, metrics, per_pe, schema)
    from repro.core import simulate

    result = simulate(flat, scenario.config)
    per_pe = {
        "page_fetches": result.page_fetches,
        "distinct_pages_fetched": result.distinct_pages_fetched,
    }
    metrics = {name: float(values.sum()) for name, values in per_pe.items()}
    return physics_digest(result.stats, metrics, per_pe, schema)


def oracle_digests(spec, traces, memo_path=None) -> list[str]:
    """Oracle digest of every point of ``spec``, in canonical order.

    ``traces`` maps kernel labels to traces (compacted or flat).  With
    ``memo_path``, answers are memoised there by (trace content digest,
    scenario digest): the oracle is deterministic, so later runs of one
    checkout replay only points whose trace is new to it (the seeded
    kernels).  Delete the file to recompute everything.
    """
    from repro.backends import get_backend

    schema = get_backend(spec.backend).result_schema
    memo = {}
    if memo_path is not None and memo_path.is_file():
        memo = json.loads(memo_path.read_text())
    flats = {}
    out = []
    for kernel, scenario in spec.points():
        trace = traces[kernel.label]
        key = f"{trace.content_digest}:{scenario.digest}"
        if key not in memo:
            if kernel.label not in flats:
                flats[kernel.label] = flat_trace(trace)
            memo[key] = oracle_digest(flats[kernel.label], scenario, schema)
        out.append(memo[key])
    if memo_path is not None and flats:
        memo_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = memo_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(memo))
        os.replace(tmp, memo_path)
    return out
