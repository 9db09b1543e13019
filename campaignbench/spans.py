"""Outside-in span recorder for the benchmark's traced run.

The program is not edited: :func:`install` replaces the public entry
points of each layer *where the caller looks the name up* (a module
global bound by ``from x import f``, or a class attribute) with a
wrapper that opens a span.  Spans carry an id, the parent's id, start
and end, and the part of their interval that child spans cover; they
stay in memory until :meth:`Recorder.write` dumps them as JSON lines.

Counts are read at the same boundaries: the ``telemetry`` dict
``replay_superops`` / ``simulate_vec`` fill, and the calls per span.  The scalar cache
policies' ``access`` is counted, not timed: it runs ~10^5-10^6 times a
pass, and its time belongs to the replay loop that calls it.

Only the thread that installed the recorder is traced (the store's
lease heartbeat thread never reaches a wrapped name anyway).
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from pathlib import Path

#: span-name prefix -> the package module the span belongs to
LAYERS = {
    "executor": "repro.engine.executor",
    "backends": "repro.backends",
    "core": "repro.core",
    "machine": "repro.machine",
    "store": "repro.engine.store",
    "ir": "repro.ir",
}


class Recorder:
    """Spans and boundary counts of one traced region."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [id, name, start, child_s]
        self._next_id = 1
        self._thread = threading.get_ident()

    def _traced(self) -> bool:
        return threading.get_ident() == self._thread

    def begin(self, name: str) -> None:
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def end(self) -> None:
        end = time.perf_counter()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append(
            {
                "id": span_id,
                "parent": parent[0] if parent is not None else None,
                "name": name,
                "start": start,
                "end": end,
                "self_s": duration - child,
            }
        )

    def span(self, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(args, kwargs)`` reads counts."""
        recorder = self

        def wrapper(*args, **kwargs):
            if not recorder._traced():
                return fn(*args, **kwargs)
            recorder.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.end()
                if after is not None:
                    after(args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- rollups ---------------------------------------------------------------
    def by_name(self, root: str) -> dict[str, tuple[int, float]]:
        """span name -> (calls, summed self seconds) under ``root``."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for span in self.under(root):
            row = out[span["name"]]
            row[0] += 1
            row[1] += span["self_s"]
        return {name: (calls, self_s) for name, (calls, self_s) in out.items()}

    def by_layer(self, root: str) -> dict[str, float]:
        """layer prefix -> summed self seconds (spans under ``root``)."""
        out = dict.fromkeys(LAYERS, 0.0)
        for span in self.under(root):
            prefix = span["name"].split(".", 1)[0]
            out[prefix] = out.get(prefix, 0.0) + span["self_s"]
        return out

    def under(self, root: str) -> list[dict]:
        """The spans named ``root`` and every span inside them."""
        parents = {span["id"]: span for span in self.spans}
        keep = []
        for span in self.spans:
            node = span
            while node["parent"] is not None and node["name"] != root:
                node = parents[node["parent"]]
            if node["name"] == root:
                keep.append(span)
        return keep

    def tree(self, root: str) -> list[str]:
        """The layer tree under the ``root`` spans, aggregated by path."""
        parents = {span["id"]: span for span in self.spans}
        rows: dict[tuple[str, ...], list] = {}
        for span in self.under(root):
            path = [span["name"]]
            node = span
            while node["parent"] is not None and node["name"] != root:
                node = parents[node["parent"]]
                path.append(node["name"])
            row = rows.setdefault(tuple(reversed(path)), [0, 0.0, 0.0])
            row[0] += 1
            row[1] += span["end"] - span["start"]
            row[2] += span["self_s"]
        lines = [f"{'span':<46}{'calls':>8}{'wall_s':>10}{'self_s':>10}"]
        for path in sorted(rows):
            calls, wall, self_s = rows[path]
            label = "  " * (len(path) - 1) + path[-1]
            lines.append(f"{label:<46}{calls:>8}{wall:>10.4f}{self_s:>10.4f}")
        return lines

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _telemetry_reader(recorder: Recorder, position: int):
    """Fold the ``telemetry`` mapping a replay engine filled into counts."""

    def after(args, kwargs):
        telemetry = kwargs.get("telemetry")
        if telemetry is None and len(args) > position:
            telemetry = args[position]
        if not telemetry:
            return
        counts = recorder.counts
        counts["core.fallback_pes"] += int(telemetry.get("fallback_pes", 0))
        if telemetry.get("mode") == "superop-expanded":
            counts["core.expanded_replays"] += 1
        for key in ("superop_flat_ops", "superop_closed_pes", "superop_piece_pes"):
            counts[f"core.{key}"] += int(telemetry.get(key, 0))

    return after


def install(recorder: Recorder):
    """Wrap every layer boundary; returns a function that restores them."""
    from repro.backends import timed, untimed_vec
    from repro.cache import DirectMappedCache, FIFOCache, LRUCache, RandomCache
    from repro.engine import executor, store
    from repro.ir import superops
    from repro.machine.msim import TimedMachine

    patched: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr)
        patched.append((owner, attr, original))
        setattr(owner, attr, recorder.span(name, original, after))

    telemetry = _telemetry_reader(recorder, 2)
    patch(untimed_vec, "replay_superops", "core.replay_superops", telemetry)
    patch(untimed_vec, "simulate_vec", "core.simulate_vec", telemetry)
    patch(executor, "evaluate_scenario", "backends.evaluate")
    patch(timed, "serial_time", "machine.serial_time")
    patch(TimedMachine, "run", "machine.event_loop")
    patch(timed, "run_compacted", "machine.run_compacted")

    for method in (
        "get",
        "put",
        "lookup_result",
        "claim_result",
        "put_result",
        "merge_touches",
        "_flush_index",
    ):
        patch(store.TraceStore, method, f"store.{method.lstrip('_')}")
    patch(store, "build_trace", "ir.build_trace")
    patch(superops, "compact", "ir.compact")

    for policy in (LRUCache, FIFOCache, DirectMappedCache, RandomCache):
        access = policy.access
        patched.append((policy, "access", access))

        def counted_access(self, key, _access=access):
            recorder.counts["cache.accesses"] += 1
            return _access(self, key)

        policy.access = counted_access

    def restore() -> None:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)

    return restore
