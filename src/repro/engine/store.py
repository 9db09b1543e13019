"""Persistent, content-addressed, *sharded* trace/result store.

The paper's method is trace-once / sweep-many: a kernel's access trace
depends only on the program and its data, never on the machine
configuration, so one interpreter run drives an entire parameter space
(§6).  The store pushes that to its logical end — a kernel is
interpreted once *per machine, ever*.  Traces are serialised to
compressed ``.npz`` files (:meth:`repro.ir.trace.Trace.save`) and
addressed by a digest of ``(kernel name, build parameters, trace
format version)``, so a change to any ingredient yields a fresh entry
instead of a stale hit.

This module is also the single code path for trace *acquisition*:
:func:`build_trace` is the only place the interpreter (or its
vectorised fast path) is invoked on behalf of the engine, the bench
harness and the CLI, which is what lets the test suite assert that a
warm store performs **zero** interpreter executions.

The store also caches *results*: an evaluation is pure in
``(trace, scenario, backend)``, so a :class:`ResultKey` content-address
maps to a persisted :class:`~repro.backends.base.EvalOutcome` and a
re-run of an identical campaign skips simulation entirely.  Result
hits and misses are counted (``result_counters``) exactly like trace
acquisitions, and the backends' ``evaluation_count`` mirrors the
interpretation counter on the evaluation side.

On-disk layout (fleet scale: many campaigns, bounded disk)
----------------------------------------------------------

A flat directory stops working once campaign traffic fans out — at a
few thousand artifacts every ``readdir`` and every eviction decision
touches one giant directory, and nothing bounds disk use.  The store
therefore shards::

    <root>/
      index.json            versioned JSON index (atomic rename)
      traces/<ab>/<name>-<digest16>.npz     trace shards
      results/<cd>/<backend>-<digest20>.npz result shards
      touch/<tag>-<host>-<pid>.jsonl        per-worker write-ahead logs

* **Shards** — every artifact lives under a two-hex-character prefix
  directory derived from its digest (:func:`shard_of`, i.e.
  ``digest[:2]``: 256-way fan-out, stable forever).
* **Index** — ``index.json`` maps each entry's *ref* (the digest
  prefix embedded in its filename) to ``{kind, path, bytes, atime,
  ctime}`` under a top-level ``{"index_format": N, "entries": ...}``
  envelope.  Writes go through a temp file + ``os.replace`` so the
  index is never torn; an unreadable or stale-format index is rebuilt
  by scanning the shard directories, and addressable files missing
  from the index (a crash between artifact write and index flush) are
  adopted on first lookup.  Access times are updated in memory and
  flushed on the next mutation, so pure-read workloads do not rewrite
  the index per hit.
* **GC** — ``TraceStore(max_bytes=..., policy="lru")`` bounds disk
  use: :meth:`TraceStore.gc` (also run automatically after each put
  when a budget is set) evicts least-recently-used **result-cache
  entries first, then traces** (results are cheap to recompute from a
  stored trace; a trace costs an interpreter run), stops as soon as
  the budget is met, and never evicts an entry a reader currently has
  pinned (:meth:`TraceStore.reading`).  Evictions are counted per
  kind (``counters.evictions`` / ``result_counters.evictions``).
* **Write-ahead touch files** — multiprocessing campaign workers never
  write ``index.json``; each worker appends one JSON line per
  evaluation to its own ``touch/<tag>-<host>-<pid>.jsonl`` file and the
  parent merges them (access times, hit counters, worker-side
  evaluation counts) when the campaign completes
  (:meth:`TraceStore.merge_touches`), so the index cannot be corrupted
  by concurrent writers.
* **Claim leases** — in-process claims (threads, streams) coordinate
  through :class:`threading.Event`; *cross-process* claims coordinate
  through lock-file leases under ``leases/``: one small JSON file per
  in-flight build recording the holder's pid, host and an expiry
  timestamp.  A lease is published atomically (written to a temp file,
  then hard-linked into place, so a reader can never observe a
  half-written lease) and *stolen* by a rival once it goes stale — or
  immediately, when the holder's pid is provably dead on the same
  host.  Liveness past the lease's own expiry comes from a single
  per-process *heartbeat manifest* (``leases/hb/<host>-<pid>.json``)
  renewed with one atomic replace per tick, so heartbeat I/O is O(1)
  per tick no matter how many leases a campaign holds: a lease is
  live while its own expiry is in the future *or* its holder's
  heartbeat is fresh.  Two independent processes sharing one store
  root therefore never build the same entry twice while the first
  builder is alive; a crash stops the heartbeat and delays rivals by
  at most ``lease_ttl_s``.
* **Migration** — a legacy flat-layout store (traces at ``<root>/
  *.npz``, results at ``<root>/results/*.npz``) is migrated losslessly
  into the sharded layout the first time it is opened.

``repro store stats`` and ``repro store gc`` expose the same machinery
on the command line.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import re
import socket
import tempfile
import threading
import time
import warnings
import zipfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .. import obs
from ..backends.base import EvalOutcome, Scenario
from ..core.stats import AccessStats
from ..ir.loops import Program
from ..ir.trace import TRACE_DIGEST_VERSION, Trace

__all__ = [
    "INDEX_FORMAT_VERSION",
    "LEASE_TTL_S",
    "RESULT_FORMAT_VERSION",
    "STORE_MAX_BYTES_ENV",
    "TRACE_STORE_ENV",
    "GCReport",
    "ResultKey",
    "StoreCounters",
    "TraceKey",
    "TraceStore",
    "append_touch",
    "build_trace",
    "default_store",
    "interpretation_count",
    "kernel_trace_cached",
    "kernel_trace_key",
    "set_default_store",
    "shard_of",
]

#: Environment variable overriding the default store root.
TRACE_STORE_ENV = "REPRO_TRACE_STORE"

#: Environment variable setting the default store's disk budget (bytes).
STORE_MAX_BYTES_ENV = "REPRO_STORE_MAX_BYTES"

#: Version of the on-disk index envelope; a bump (or any unreadable
#: index) triggers a rebuild from the shard directories instead of a
#: misread.
INDEX_FORMAT_VERSION = 1

_INDEX_NAME = "index.json"
_TRACES_DIR = "traces"
_RESULTS_DIR = "results"
_TOUCH_DIR = "touch"
_LEASES_DIR = "leases"

#: How long a waiter blocks on another thread's in-flight build/claim
#: before giving up and building the entry itself.
_INFLIGHT_TIMEOUT_S = 120.0

#: Default validity of a cross-process claim lease.  A holder's
#: per-process heartbeat manifest is renewed every ``lease_ttl_s / 3``
#: (one atomic replace covering every lease it holds), so only a
#: crashed (or wedged) holder ever lets its leases go stale.
LEASE_TTL_S = 30.0

#: How often a cross-process lease waiter re-checks for the peer's
#: result (or the lease's disappearance).
_LEASE_POLL_S = 0.05

_HOSTNAME = socket.gethostname() or "localhost"

#: Heartbeat manifests live in a subdirectory so the ``*-*.json``
#: globs over claim-lease files never pick one up.
_HB_DIR = "hb"


def _safe_host(host: str) -> str:
    """A hostname reduced to filename-safe characters."""
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", host) or "localhost"


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness of a pid on *this* host."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True  # exists, owned by someone else (or unknowable)
    return True


def shard_of(digest: str) -> str:
    """The shard directory for a digest: its first two hex characters.

    Stable forever by construction — test-asserted, because changing it
    would orphan every existing store entry.
    """
    return digest[:2]


# ---------------------------------------------------------------------------
# the one interpretation path
# ---------------------------------------------------------------------------

_interpretations = 0


def interpretation_count() -> int:
    """How many traces this process has generated from scratch.

    Every trace acquisition in the repo funnels through
    :func:`build_trace`, so this counter is exactly the number of
    interpreter / fast-path executions — a warm store keeps it flat.
    """
    return _interpretations


def build_trace(program: Program, inputs: Mapping[str, np.ndarray]) -> Trace:
    """Generate a trace from scratch (the *only* interpretation path).

    Uses the vectorised affine fast path (bit-identical to the
    interpreter, asserted by the test suite) and falls back to the
    interpreter for kernels with indirect subscripts.
    """
    global _interpretations
    _interpretations += 1
    from ..ir.vectorize import fast_trace

    return fast_trace(program, inputs)


# ---------------------------------------------------------------------------
# content addressing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceKey:
    """Identity of a stored trace: kernel name + canonicalised params.

    The digest covers the trace *digest* version too — the semantic
    content version, deliberately not the on-disk layout version: the
    super-op layout (format v2) reads back bit-identically, so
    re-encoding a shard must never orphan it.  A digest-version bump
    invalidates every old entry instead of misreading it.
    """

    kernel: str
    params: tuple[tuple[str, object], ...] = ()

    @staticmethod
    def make(kernel: str, **params: object) -> "TraceKey":
        return TraceKey(kernel=kernel, params=tuple(sorted(params.items())))

    @property
    def digest(self) -> str:
        from .. import __version__

        # The package version is part of the identity: a release that
        # changes kernel builders or the trace generator invalidates
        # every old entry instead of silently replaying stale traces.
        # (Within one dev version, ``TraceStore.clear()`` or deleting
        # the store root forces a rebuild.)
        document = json.dumps(
            {
                "kernel": self.kernel,
                "params": list(self.params),
                "format_version": TRACE_DIGEST_VERSION,
                "package_version": __version__,
            },
            sort_keys=True,
            default=str,
        )
        return hashlib.sha256(document.encode()).hexdigest()

    @property
    def ref(self) -> str:
        """The digest prefix embedded in the filename — the index key."""
        return self.digest[:16]

    @property
    def filename(self) -> str:
        safe = re.sub(r"[^A-Za-z0-9_.-]+", "_", self.kernel) or "trace"
        return f"{safe}-{self.ref}.npz"

    def describe(self) -> str:
        args = ", ".join(f"{k}={v}" for k, v in self.params)
        return f"{self.kernel}({args})"


#: Version of the persisted result layout; a bump invalidates every
#: cached outcome instead of misreading it.
RESULT_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ResultKey:
    """Identity of a cached evaluation: trace x scenario x backend.

    The trace digest already covers kernel identity, build parameters,
    trace format and package version; the scenario digest covers the
    machine configuration and every backend knob; ``backend`` is the
    *cache identity* — usually the backend name, but a dispatching
    backend refines it (the service caches under
    ``"service:<delegate>"``, so cached physics never survives a
    delegate switch).  Everything that can change an outcome is in the
    address, so stale hits are impossible within a package version.
    """

    trace_digest: str
    scenario_digest: str
    backend: str

    @staticmethod
    def make(trace_key: "TraceKey", scenario: Scenario) -> "ResultKey":
        """The canonical key of one evaluation point.

        Resolves the scenario's backend to its cache identity through
        :func:`repro.backends.base.cache_identity_of`.
        """
        from ..backends.base import cache_identity_of

        return ResultKey(
            trace_digest=trace_key.digest,
            scenario_digest=scenario.digest,
            backend=cache_identity_of(scenario.backend),
        )

    @property
    def digest(self) -> str:
        document = json.dumps(
            {
                "trace": self.trace_digest,
                "scenario": self.scenario_digest,
                "backend": self.backend,
                "result_format": RESULT_FORMAT_VERSION,
            },
            sort_keys=True,
        )
        return hashlib.sha256(document.encode()).hexdigest()

    @property
    def ref(self) -> str:
        """The digest prefix embedded in the filename — the index key."""
        return self.digest[:20]

    @property
    def filename(self) -> str:
        safe = re.sub(r"[^A-Za-z0-9_.-]+", "_", self.backend) or "backend"
        return f"{safe}-{self.ref}.npz"


def _ref_from_filename(name: str) -> str:
    """Recover an entry's ref from its filename (``<safe>-<hex>.npz``).

    Filenames that do not follow the convention (hand-copied files)
    fall back to the whole stem — still indexed, GC-able and preserved
    by migration, just never addressed by a key lookup (exactly their
    status in the flat layout).
    """
    stem = Path(name).stem
    candidate = stem.rsplit("-", 1)[-1]
    if len(candidate) >= 2 and all(c in "0123456789abcdef" for c in candidate):
        return candidate
    return stem


def _save_outcome(path: Path, outcome: EvalOutcome) -> Path:
    """Persist an outcome to ``.npz`` (atomic replace, exact dtypes)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    meta = json.dumps(
        {
            "result_format": RESULT_FORMAT_VERSION,
            "backend": outcome.backend,
            "scenario": outcome.scenario.to_dict(),
            "metrics": outcome.metrics,
            "array_names": list(outcome.stats.array_names),
            "per_pe_keys": sorted(outcome.per_pe),
        },
        sort_keys=True,
    )
    payload = {
        "counts": outcome.stats.counts,
        "by_array": outcome.stats.by_array,
    }
    for name in outcome.per_pe:
        payload[f"per_pe__{name}"] = outcome.per_pe[name]
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez_compressed(fh, meta=np.array(meta), **payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def _load_outcome(path: Path) -> EvalOutcome:
    """Load an outcome saved by :func:`_save_outcome` (validated)."""
    with np.load(Path(path), allow_pickle=False) as data:
        try:
            meta = json.loads(str(data["meta"][()]))
            counts = data["counts"]
            by_array = data["by_array"]
            per_pe = {
                name: data[f"per_pe__{name}"]
                for name in meta.get("per_pe_keys", [])
            }
        except KeyError as exc:
            raise ValueError(f"not a result file: missing {exc}") from None
    version = meta.get("result_format")
    if version != RESULT_FORMAT_VERSION:
        raise ValueError(
            f"unsupported result format version {version!r} "
            f"(expected {RESULT_FORMAT_VERSION})"
        )
    stats = AccessStats(
        n_pes=int(counts.shape[0]),
        array_names=tuple(meta["array_names"]),
    )
    stats.counts = counts
    stats.by_array = by_array
    return EvalOutcome(
        backend=str(meta["backend"]),
        scenario=Scenario.from_dict(meta["scenario"]),
        stats=stats,
        metrics=dict(meta["metrics"]),
        per_pe=per_pe,
    )


def append_touch(
    touch_dir: str | os.PathLike, tag: str, ref: str, *, evals: int = 0
) -> None:
    """Append one write-ahead access record for a trace entry.

    Campaign workers (and the serial executor, for symmetry) call this
    once per evaluated job instead of writing the index: each process
    appends to its *own* ``<tag>-<pid>.jsonl`` file, so no two writers
    ever share a file and the index cannot be torn by a worker crash.
    The campaign parent folds the files back into the index — access
    times, trace-hit counters and worker-side evaluation counts — via
    :meth:`TraceStore.merge_touches`.  Failures are swallowed: touches
    are advisory (LRU hints and observability), never worth failing an
    evaluation over.
    """
    try:
        directory = Path(touch_dir)
        directory.mkdir(parents=True, exist_ok=True)
        line = json.dumps(
            {
                "ref": ref,
                "kind": "trace",
                "at": time.time(),
                "evals": int(evals),
            }
        )
        # Host + pid in the filename: fleet workers on different hosts
        # sharing one store root may reuse a pid.
        name = f"{tag}-{_safe_host(_HOSTNAME)}-{os.getpid()}.jsonl"
        with open(directory / name, "a") as fh:
            fh.write(line + "\n")
    except OSError:
        pass


@dataclass
class StoreCounters:
    """Observability: where each ``get`` was satisfied, plus GC work."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def total(self) -> int:
        return self.memory_hits + self.disk_hits + self.misses

    def as_dict(self) -> dict[str, int]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


@dataclass
class GCReport:
    """What one :meth:`TraceStore.gc` pass did."""

    #: ``(kind, ref, bytes)`` per evicted entry, in eviction order.
    evicted: list[tuple[str, str, int]] = field(default_factory=list)
    freed_bytes: int = 0
    #: store size after the pass
    total_bytes: int = 0
    #: the budget the pass enforced (``None``: nothing to enforce)
    max_bytes: int | None = None
    #: entries spared because a reader had them pinned
    pinned_skipped: int = 0

    @property
    def evicted_results(self) -> int:
        return sum(1 for kind, _r, _b in self.evicted if kind == "result")

    @property
    def evicted_traces(self) -> int:
        return sum(1 for kind, _r, _b in self.evicted if kind == "trace")

    def as_dict(self) -> dict[str, object]:
        return {
            "evicted_results": self.evicted_results,
            "evicted_traces": self.evicted_traces,
            "freed_bytes": self.freed_bytes,
            "total_bytes": self.total_bytes,
            "max_bytes": self.max_bytes,
            "pinned_skipped": self.pinned_skipped,
        }


#: Eviction policies: an index entry -> sort key (evict smallest first).
_POLICIES: dict[str, Callable[[dict], object]] = {
    "lru": lambda entry: entry.get("atime", 0.0),
    "fifo": lambda entry: entry.get("ctime", 0.0),
}


def _lease_fields(path: Path) -> dict[str, str]:
    """Event fields (kind, ref) recovered from a lease file name."""
    letter, _, rest = path.name.partition("-")
    ref = rest[:-5] if rest.endswith(".json") else rest
    kind = {"t": "trace", "r": "result"}.get(letter, letter)
    return {"kind": kind, "ref": ref}


def _counter_aliases(kind: str) -> Callable[[Mapping], dict[str, int]]:
    def build(snapshot: Mapping) -> dict[str, int]:
        return {
            name: snapshot[f"{kind}_{name}_total"]
            for name in ("memory_hits", "disk_hits", "misses", "evictions")
        }

    return build


#: One-release deprecation shim: pre-obs ``stats()`` keys -> canonical.
_STATS_ALIASES: dict[str, object] = {
    "traces": lambda s: {
        "entries": s["trace_entries"],
        "bytes": s["trace_bytes"],
    },
    "results": lambda s: {
        "entries": s["result_entries"],
        "bytes": s["result_bytes"],
    },
    "trace_counters": _counter_aliases("trace"),
    "result_counters": _counter_aliases("result"),
}


class _LeaseWaiter:
    """Cross-process analogue of an in-process claim's ``Event``.

    Returned by :meth:`TraceStore.claim_result` (and the trace path)
    when a *different process* holds the build lease for an entry.
    ``wait`` polls until the satisfaction predicate fires (the peer's
    artifact landed), the lease disappears or goes stale (the peer
    released it, crashed, or let it expire — the caller should then
    re-check and re-claim), or the timeout elapses.  Duck-types the
    ``wait(timeout) -> bool`` half of :class:`threading.Event`, which
    is all the claim protocol's waiters use.
    """

    def __init__(
        self, store: "TraceStore", kind: str, ref: str,
        satisfied: Callable[[], bool],
    ) -> None:
        self._store = store
        self._kind = kind
        self._ref = ref
        self._satisfied = satisfied

    def wait(self, timeout: float | None = None) -> bool:
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if self._satisfied():
                return True
            if self._store.lease_holder(self._ref, kind=self._kind) is None:
                # Released, stolen, expired or crashed: the caller's
                # re-check decides whether to replay or rebuild.
                return True
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                time.sleep(min(_LEASE_POLL_S, remaining))
            else:
                time.sleep(_LEASE_POLL_S)


class TraceStore:
    """Sharded two-level (memory, disk) cache of traces and results.

    ``get`` resolves a :class:`TraceKey` against the in-process map
    first, then the ``.npz`` file in its shard directory, and only then
    invokes the builder — persisting its result for every later
    process.  Unreadable or stale-format files are treated as misses
    and rebuilt in place, never propagated.  See the module docstring
    for the on-disk layout, the index format and the GC policy.

    ``max_bytes`` bounds the store's disk use: when set, every put
    triggers an LRU (or FIFO, per ``policy``) garbage-collection pass
    that evicts result-cache entries first, then traces, skipping
    entries currently pinned by a reader.  All index mutations are
    serialised behind one re-entrant lock, builds and result
    computations are single-flighted per key, and reads pin their
    entry so GC can never unlink a file mid-read — the store is safe
    for any number of threads/streams in one process, while
    multiprocessing workers go through write-ahead touch files instead
    of the index.

    Builds are additionally guarded *across processes* by lock-file
    leases (see the module docstring): a process that wins the
    in-process flight also takes a lease under ``leases/``, renewed by
    a heartbeat thread until released; a process that finds a foreign
    lease waits on a :class:`_LeaseWaiter` instead of building.
    ``lease_ttl_s`` is the crash-recovery bound — how long a rival
    waits before stealing a dead holder's lease (a holder whose pid is
    provably dead on the same host is stolen from immediately).
    """

    def __init__(
        self,
        root: str | os.PathLike,
        *,
        max_bytes: int | None = None,
        policy: str = "lru",
        lease_ttl_s: float = LEASE_TTL_S,
    ) -> None:
        if policy not in _POLICIES:
            raise ValueError(
                f"unknown eviction policy {policy!r}; "
                f"choose from {tuple(sorted(_POLICIES))}"
            )
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        if lease_ttl_s <= 0:
            raise ValueError("lease_ttl_s must be positive")
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.policy = policy
        self.lease_ttl_s = lease_ttl_s
        self.counters = StoreCounters()
        #: where each result lookup was satisfied (mirrors ``counters``)
        self.result_counters = StoreCounters()
        self._memory: dict[TraceKey, Trace] = {}
        self._result_memory: dict[ResultKey, EvalOutcome] = {}
        self._lock = threading.RLock()
        #: ref -> index entry; ``None`` until first loaded/migrated
        self._entries: dict[str, dict] | None = None
        self._dirty = False
        #: refs currently being read (GC must not evict them)
        self._pins: Counter[str] = Counter()
        #: single-flight builds/claims: "t:<ref>" / "r:<ref>" -> Event
        self._inflight: dict[str, threading.Event] = {}
        #: cross-process leases this store currently holds: (kind, ref)
        self._held_leases: set[tuple[str, str]] = set()
        self._lease_thread: threading.Thread | None = None
        #: (host, pid) -> (checked_monotonic, expires): short-lived
        #: cache of holder heartbeat manifests, so scanning N leases of
        #: one holder costs one manifest read, not N
        self._hb_cache: dict[tuple[str, int], tuple[float, float]] = {}
        #: whether unindexed shard artifacts have been adopted (once)
        self._adopted = False
        #: (inode, mtime, size) of the index as this process last
        #: wrote it — flushes skip the cross-process merge parse when
        #: the on-disk file is still our own snapshot
        self._last_flush_stat: tuple[int, int, int] | None = None

    # -- paths -----------------------------------------------------------------
    @property
    def index_path(self) -> Path:
        return self.root / _INDEX_NAME

    @property
    def touch_dir(self) -> Path:
        """Where write-ahead per-worker touch files live."""
        return self.root / _TOUCH_DIR

    def path_for(self, key: TraceKey) -> Path:
        """Canonical shard path of a trace entry."""
        return self.root / _TRACES_DIR / shard_of(key.digest) / key.filename

    def result_path_for(self, key: ResultKey) -> Path:
        """Canonical shard path of a result entry."""
        return self.root / _RESULTS_DIR / shard_of(key.digest) / key.filename

    def __contains__(self, key: TraceKey) -> bool:
        with self._lock:
            if key in self._memory:
                return True
            entry = self._index().get(key.ref)
            if entry is not None and entry.get("kind") == "trace":
                return True
        return self.path_for(key).is_file()

    def __len__(self) -> int:
        with self._lock:
            self._adopt_unindexed()
            return sum(
                1 for e in self._index().values() if e.get("kind") == "trace"
            )

    # -- the index -------------------------------------------------------------
    def _index(self) -> dict[str, dict]:
        """Entries, loading/rebuilding/migrating on first use (locked)."""
        if self._entries is not None:
            return self._entries
        entries: dict[str, dict] | None = None
        had_index = self.index_path.is_file()
        if had_index:
            try:
                data = json.loads(self.index_path.read_text())
                if (
                    isinstance(data, dict)
                    and data.get("index_format") == INDEX_FORMAT_VERSION
                    and isinstance(data.get("entries"), dict)
                ):
                    entries = {
                        str(ref): dict(entry)
                        for ref, entry in data["entries"].items()
                        if isinstance(entry, dict)
                    }
            except (OSError, ValueError):
                entries = None
        if entries is None:
            # Missing, torn or stale-format index: rebuild the ground
            # truth from the shard directories (crash-safe recovery).
            # A pristine root (no index, no shards) stays untouched on
            # disk until the first put.
            entries = self._scan_shards()
            self._dirty = had_index or bool(entries)
            self._adopted = True  # the rebuild IS a full scan
        # Drop entries whose artifact vanished behind our back.
        for ref in [
            ref
            for ref, entry in entries.items()
            if not (self.root / entry.get("path", "")).is_file()
        ]:
            del entries[ref]
            self._dirty = True
        if self._migrate_flat(entries):
            self._dirty = True
        self._entries = entries
        if self._dirty:
            self._flush_index()
        return entries

    def _adopt_unindexed(self) -> None:
        """Fold shard artifacts missing from the index back in (once).

        A valid index can still under-report: an entry another process
        indexed can lose a concurrent flush's rename race, and a crash
        between artifact write and index flush leaves the file
        unindexed.  Lookups recover per key (canonical-path adoption);
        the paths that need *ground-truth totals* — ``len``, result
        counts, ``stats``, GC budgets — call this instead.  One shard
        walk per store instance, and only on those paths, so plain
        lookup traffic never pays an O(artifacts) directory scan.
        Locked by the caller.
        """
        if self._adopted:
            return
        self._adopted = True
        entries = self._index()
        for ref, entry in self._scan_shards().items():
            if ref not in entries:
                entries[ref] = entry
                self._dirty = True

    def _scan_shards(self) -> dict[str, dict]:
        """Rebuild index entries from the shard directories."""
        entries: dict[str, dict] = {}
        for kind, base in (
            ("trace", self.root / _TRACES_DIR),
            ("result", self.root / _RESULTS_DIR),
        ):
            if not base.is_dir():
                continue
            for path in base.glob("[0-9a-f][0-9a-f]/*.npz"):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                entries[_ref_from_filename(path.name)] = {
                    "kind": kind,
                    "path": str(path.relative_to(self.root)),
                    "bytes": stat.st_size,
                    "atime": stat.st_mtime,
                    "ctime": stat.st_mtime,
                }
        return entries

    def _migrate_flat(self, entries: dict[str, dict]) -> bool:
        """Move a legacy flat-layout store into shards (lossless).

        Legacy traces live directly under the root, legacy results
        directly under ``results/`` — both globs deliberately skip the
        sharded subdirectories, so migration is a no-op on a store that
        is already (or partially) sharded.
        """
        moved = False
        if not self.root.is_dir():
            return moved
        batches = [(self.root.glob("*.npz"), "trace", _TRACES_DIR)]
        legacy_results = self.root / _RESULTS_DIR
        if legacy_results.is_dir():
            batches.append(
                (
                    (p for p in legacy_results.iterdir() if p.suffix == ".npz" and p.is_file()),
                    "result",
                    _RESULTS_DIR,
                )
            )
        for paths, kind, base in batches:
            for path in paths:
                ref = _ref_from_filename(path.name)
                dest = self.root / base / shard_of(ref) / path.name
                try:
                    stat = path.stat()
                    dest.parent.mkdir(parents=True, exist_ok=True)
                    os.replace(path, dest)
                except OSError:
                    continue
                entries[ref] = {
                    "kind": kind,
                    "path": str(dest.relative_to(self.root)),
                    "bytes": stat.st_size,
                    "atime": stat.st_mtime,
                    "ctime": stat.st_mtime,
                }
                moved = True
        return moved

    def _flush_index(self) -> None:
        """Atomically persist the index (temp file + rename; locked).

        Flushes *merge* with the on-disk index first: another process
        sharing this root may have indexed entries this process has
        never seen, and publishing a raw snapshot of our in-memory map
        would erase them (last-writer-wins).  Disk-only entries whose
        artifact still exists are folded in before the rename; entries
        evicted by GC or ``clear`` do not resurrect, because their
        artifacts are gone.  A flush racing another process's flush
        can still lose one entry in the rename window — the
        ground-truth shard scan (:meth:`_adopt_unindexed`, run by
        ``len``/``stats``/GC) and the per-lookup adoption path
        re-index such survivors from their artifacts.
        """
        if self._entries is None:
            return
        self.root.mkdir(parents=True, exist_ok=True)
        # Skip the merge parse when the on-disk index is still this
        # process's own last snapshot (inode/mtime/size unchanged):
        # single-writer stores then never pay an extra O(entries)
        # read per put; only an actual foreign write triggers it.
        disk_stat = self._index_stat()
        if disk_stat is not None and disk_stat != self._last_flush_stat:
            try:
                data = json.loads(self.index_path.read_text())
                if (
                    isinstance(data, dict)
                    and data.get("index_format") == INDEX_FORMAT_VERSION
                    and isinstance(data.get("entries"), dict)
                ):
                    for ref, entry in data["entries"].items():
                        if (
                            str(ref) in self._entries
                            or not isinstance(entry, dict)
                        ):
                            continue
                        if (self.root / entry.get("path", "")).is_file():
                            self._entries[str(ref)] = dict(entry)
            except (OSError, ValueError):
                pass  # torn disk index: nothing to merge
        document = json.dumps(
            {
                "index_format": INDEX_FORMAT_VERSION,
                "policy": self.policy,
                "entries": self._entries,
            },
            sort_keys=True,
        )
        fd, tmp = tempfile.mkstemp(
            dir=self.root, prefix=_INDEX_NAME, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(document + "\n")
            os.replace(tmp, self.index_path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self._last_flush_stat = self._index_stat()
        self._dirty = False

    def _index_stat(self) -> tuple[int, int, int] | None:
        """Identity of the on-disk index file (inode, mtime, size)."""
        try:
            st = os.stat(self.index_path)
        except OSError:
            return None
        return (st.st_ino, st.st_mtime_ns, st.st_size)

    def _record_entry(self, ref: str, kind: str, path: Path) -> None:
        """Index a just-written artifact and flush (locked by caller).

        Puts flush eagerly — a concurrent reader in another process
        should see the entry without relying on the canonical-path
        adoption fallback — while access-time updates only mark the
        index dirty and ride along with the next flush.  At the store
        sizes one machine hosts the serialize-on-put cost is dwarfed
        by the compressed ``.npz`` write itself; if profiles ever say
        otherwise, batching puts behind the existing ``_dirty``
        mechanism is the lever.
        """
        try:
            size = path.stat().st_size
        except OSError:
            return
        now = time.time()
        entry = self._index().get(ref)
        self._index()[ref] = {
            "kind": kind,
            "path": str(path.relative_to(self.root)),
            "bytes": size,
            "atime": now,
            "ctime": entry["ctime"] if entry else now,
        }
        self._flush_index()

    def _touch_entry(self, ref: str, at: float | None = None) -> None:
        """Refresh an entry's access time in memory (flushed lazily)."""
        entry = self._index().get(ref)
        if entry is not None:
            entry["atime"] = max(entry.get("atime", 0.0), at or time.time())
            self._dirty = True

    # -- read pinning ----------------------------------------------------------
    @contextlib.contextmanager
    def reading(self, ref: str) -> Iterator[None]:
        """Pin an entry while a reader uses its file.

        GC skips pinned entries — even if that leaves the store over
        budget — so an eviction can never unlink an ``.npz`` under a
        reader mid-load.  Used internally by every disk read; exposed
        so tests (and long-lived readers) can hold a pin explicitly.
        """
        with self._lock:
            self._pins[ref] += 1
        try:
            yield
        finally:
            with self._lock:
                self._pins[ref] -= 1
                if self._pins[ref] <= 0:
                    del self._pins[ref]

    # -- single-flight builds --------------------------------------------------
    def _begin_flight(self, token: str) -> threading.Event | None:
        """Claim an in-flight build slot; ``None`` means we own it."""
        with self._lock:
            event = self._inflight.get(token)
            if event is not None:
                return event
            self._inflight[token] = threading.Event()
            return None

    def _steal_flight(self, token: str, event: threading.Event) -> bool:
        """Take over a flight whose owner looks stuck (wait timed out).

        If the slot still holds the same unset event, replace it with
        our own claim and wake the stragglers waiting on the old one;
        the caller becomes the builder.  Should the original owner
        eventually finish anyway, its put simply overwrites ours with
        identical content (evaluations are pure).
        """
        with self._lock:
            if self._inflight.get(token) is event:
                self._inflight[token] = threading.Event()
                stolen = True
            else:
                stolen = False
        if stolen:
            event.set()
        return stolen

    def _end_flight(self, token: str) -> None:
        with self._lock:
            event = self._inflight.pop(token, None)
        if event is not None:
            event.set()

    # -- cross-process claim leases --------------------------------------------
    @property
    def lease_dir(self) -> Path:
        """Where cross-process claim leases live."""
        return self.root / _LEASES_DIR

    def _lease_path(self, kind: str, ref: str) -> Path:
        return self.lease_dir / f"{kind[0]}-{ref}.json"

    @staticmethod
    def _parse_lease(raw: bytes) -> dict | None:
        """Validate one lease document's bytes (``None`` if torn/junk)."""
        try:
            data = json.loads(raw)
        except ValueError:
            return None
        if not isinstance(data, dict):
            return None
        try:
            return {
                "pid": int(data["pid"]),
                "host": str(data.get("host", "")),
                "acquired": float(data.get("acquired", 0.0)),
                "expires": float(data["expires"]),
            }
        except (KeyError, TypeError, ValueError):
            return None

    def _read_lease(self, path: Path) -> dict | None:
        """The lease document, or ``None`` for absent/unreadable files.

        Leases are published and renewed atomically (hard link /
        rename), so an unreadable file is crash junk, never a healthy
        lease caught mid-write.
        """
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        return self._parse_lease(raw)

    def _heartbeat_path(self, host: str, pid: int) -> Path:
        """Where ``(host, pid)``'s per-process heartbeat manifest lives."""
        return self.lease_dir / _HB_DIR / f"{_safe_host(host)}-{int(pid)}.json"

    def _heartbeat_expires(self, host: str, pid: int) -> float:
        """When ``(host, pid)``'s heartbeat manifest expires (0.0 = none).

        Reads are cached for a small fraction of the TTL: a sweep over
        thousands of leases held by one campaign process costs one
        manifest read, not one per lease.
        """
        now = time.monotonic()
        window = min(1.0, self.lease_ttl_s / 6.0)
        cached = self._hb_cache.get((host, pid))
        if cached is not None and now - cached[0] <= window:
            return cached[1]
        info = self._read_lease(self._heartbeat_path(host, pid))
        expires = 0.0
        if info is not None and info["pid"] == pid and info["host"] == host:
            expires = info["expires"]
        self._hb_cache[(host, pid)] = (now, expires)
        return expires

    def _lease_stale(self, info: dict) -> bool:
        """Dead holder, or expired with no fresh holder heartbeat.

        A lease file is written once (at acquire, with one TTL of
        validity) and never rewritten; past its own expiry it stays
        live for as long as the holder's per-process heartbeat
        manifest is fresh.
        """
        if info["host"] == _HOSTNAME and not _pid_alive(info["pid"]):
            return True
        now = time.time()
        if info["expires"] > now:
            return False
        return self._heartbeat_expires(info["host"], info["pid"]) <= now

    def lease_holder(self, ref: str, *, kind: str = "result") -> dict | None:
        """The *live* lease on an entry, or ``None``.

        Stale leases (expired with no holder heartbeat, or a same-host
        holder whose pid is dead) read as ``None``: they are free to
        steal.  The reported ``expires`` is the *effective* one — the
        later of the lease file's own expiry and the holder's
        heartbeat expiry.
        """
        info = self._read_lease(self._lease_path(kind, ref))
        if info is None or self._lease_stale(info):
            return None
        heartbeat = self._heartbeat_expires(info["host"], info["pid"])
        if heartbeat > info["expires"]:
            info["expires"] = heartbeat
        return info

    def _write_lease_tmp(self) -> Path:
        """A fully-written lease document in a temp file (atomic source)."""
        self.lease_dir.mkdir(parents=True, exist_ok=True)
        now = time.time()
        document = json.dumps(
            {
                "pid": os.getpid(),
                "host": _HOSTNAME,
                "acquired": now,
                "expires": now + self.lease_ttl_s,
            }
        )
        fd, tmp = tempfile.mkstemp(dir=self.lease_dir, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(document + "\n")
        return Path(tmp)

    def acquire_lease(self, ref: str, *, kind: str = "result") -> bool:
        """Take the cross-process build lease for an entry.

        Returns ``True`` when this process now holds the lease (it is
        renewed by the heartbeat until :meth:`release_lease`), ``False``
        when another *live* process does.  Publication is atomic — the
        document is written to a temp file and hard-linked into place,
        so no reader ever sees a torn lease — and stale leases
        (expired, or a provably-dead same-host holder) are stolen.
        Stealing moves the observed stale lease *aside* with an atomic
        rename before publishing a fresh one: of several rivals racing
        the steal, exactly one wins the rename — the losers loop,
        observe the winner's fresh lease, and back off.  Never two
        holders.
        """
        path = self._lease_path(kind, ref)
        for _attempt in range(8):
            tmp = self._write_lease_tmp()
            try:
                os.link(tmp, path)
            except FileExistsError:
                info = self._read_lease(path)
                if info is not None and not self._lease_stale(info):
                    return False  # a live peer holds it
                self._steal_stale_lease(path)
                continue
            except OSError:
                # Filesystem without hard links: fall back to an
                # exclusive create (tiny torn-read window, same steal
                # protocol).
                try:
                    flags = os.O_CREAT | os.O_EXCL | os.O_WRONLY
                    fd = os.open(path, flags)
                except FileExistsError:
                    info = self._read_lease(path)
                    if info is not None and not self._lease_stale(info):
                        return False
                    self._steal_stale_lease(path)
                    continue
                with os.fdopen(fd, "w") as fh:
                    fh.write(tmp.read_text())
            finally:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
            with self._lock:
                first_hold = not self._held_leases
                self._held_leases.add((kind, ref))
                self._ensure_lease_heartbeat()
            if first_hold:
                # Publish the liveness manifest right away: the lease
                # file itself carries one TTL of validity, but the
                # manifest is what keeps it alive past that.
                self._renew_manifest(force=True)
            obs.emit("lease.acquire", kind=kind, ref=ref)
            return True
        return False

    def _steal_stale_lease(self, path: Path) -> None:
        """Retire a stale lease atomically (rename aside, then delete).

        A blind unlink would race rival stealers: the slower rival's
        queued unlink could remove the *winner's* freshly published
        lease, yielding two holders.  Instead the lease is re-judged
        immediately before an atomic ``os.rename`` aside — a fresh
        lease that appeared since the caller's check is left alone,
        and of several rivals racing the rename exactly one wins
        while the losers loop and observe the winner's new lease.

        The judgment is bound to the *file identity*: the staleness
        check fstats the very fd it reads, and after winning the
        rename the inode of what was actually taken is compared to
        what was judged.  A mismatch means a rival republished inside
        the judge→rename gap and we moved its *fresh* lease aside —
        it is restored (hard link back; a no-op if the path has
        already been repopulated) and the steal backs off.  That
        narrows the residual window dramatically: a wrong steal is
        detected and undone unless a *third* actor publishes into the
        emptied path before the restore lands, in which case the
        wronged holder's heartbeat notices the foreign pid within
        ``ttl/3`` and downgrades to the protocol's documented worst
        case — one redundant, atomically-replaced build, never a torn
        artifact.
        """
        try:
            with open(path, "rb") as fh:
                judged = os.fstat(fh.fileno())
                info = self._parse_lease(fh.read())
        except OSError:
            return  # already retired by a rival stealer
        if info is not None and not self._lease_stale(info):
            return  # a fresh lease appeared since we judged: back off
        if info is None:
            reason = "junk"
        elif info["expires"] <= time.time():
            reason = "expired"
        else:
            reason = "dead-holder"
        aside = path.parent / (
            f"{path.name}.stale-{os.getpid()}-{time.monotonic_ns()}"
        )
        try:
            os.rename(path, aside)
        except OSError:
            return  # another stealer won the rename; back off
        try:
            taken = os.stat(aside)
        except OSError:
            return
        if (taken.st_ino, taken.st_dev) != (judged.st_ino, judged.st_dev):
            # We took a lease republished after our judgment — a live
            # rival's. Put it back and back off.
            with contextlib.suppress(OSError):
                os.link(aside, path)
            with contextlib.suppress(OSError):
                os.unlink(aside)
            return
        with contextlib.suppress(OSError):
            os.unlink(aside)
        obs.emit("lease.steal", reason=reason, **_lease_fields(path))

    def release_lease(self, ref: str, *, kind: str = "result") -> None:
        """Drop a lease *if this store acquired it* (no-op otherwise).

        Membership in the held set is checked first — a pid match
        alone is not ownership, because another thread (or another
        ``TraceStore`` instance) of this same process may be the one
        actually holding the lease, and its build must stay protected.
        """
        with self._lock:
            if (kind, ref) not in self._held_leases:
                return
            self._held_leases.discard((kind, ref))
        path = self._lease_path(kind, ref)
        info = self._read_lease(path)
        if info is None:
            return
        if info["pid"] == os.getpid() and info["host"] == _HOSTNAME:
            with contextlib.suppress(OSError):
                os.unlink(path)
            obs.emit("lease.release", kind=kind, ref=ref)

    def _ensure_lease_heartbeat(self) -> None:
        """Start the renewal thread if it is not running (locked)."""
        if self._lease_thread is None or not self._lease_thread.is_alive():
            self._lease_thread = threading.Thread(
                target=self._lease_heartbeat,
                name="repro-lease-heartbeat",
                daemon=True,
            )
            self._lease_thread.start()

    def _lease_heartbeat(self) -> None:
        """Renew the per-process heartbeat manifest; exits when idle.

        One atomic replace per tick covers *every* lease this process
        holds — renewal I/O is O(1), not O(held leases), so campaigns
        that claim a 10⁵-point grid up front cost the same per tick as
        one that claims a single point.  A crash kills this thread
        with the process, the manifest goes stale, and rivals steal
        the leases after ``lease_ttl_s`` — the manifest *is* the
        holder's liveness signal.
        """
        interval = min(max(self.lease_ttl_s / 3.0, 0.02), 10.0)
        while True:
            time.sleep(interval)
            if not self._heartbeat_tick():
                return

    def _heartbeat_tick(self, now: float | None = None) -> bool:
        """One heartbeat: renew the manifest while any lease is held.

        Returns whether leases are still held.  The renewal thread
        calls this once per interval and retires itself (atomically
        with the idle check, so a racing acquire starts a fresh
        thread) on ``False``; tests call it directly, with ``now``
        standing in for the wall clock, to step the heartbeat
        deterministically.
        """
        with self._lock:
            if not self._held_leases:
                if self._lease_thread is threading.current_thread():
                    self._lease_thread = None
                return False
        self._renew_manifest(now=now)
        return True

    def _renew_manifest(
        self, *, force: bool = False, now: float | None = None
    ) -> None:
        """Push this process's heartbeat manifest forward (one replace).

        ``force`` publishes unconditionally (first acquire); otherwise
        a manifest another store instance of this same process renewed
        moments ago is left alone, and a manifest that *already
        expired* (this heartbeat stalled past the TTL) first drops the
        held leases rivals were entitled to steal in the gap — never
        resurrect a lease a rival may have legitimately taken.  ``now``
        stands in for the wall clock (see :meth:`_heartbeat_tick`).
        """
        path = self._heartbeat_path(_HOSTNAME, os.getpid())
        now = time.time() if now is None else now
        info = self._read_lease(path)
        own = (
            info is not None
            and info["pid"] == os.getpid()
            and info["host"] == _HOSTNAME
        )
        if not force:
            if own and info["expires"] - now > self.lease_ttl_s * (2.0 / 3.0):
                return  # freshly renewed (another instance's tick)
            if not own or info["expires"] <= now:
                self._drop_stalled_leases(now)
        expires = now + self.lease_ttl_s
        document = json.dumps(
            {
                "pid": os.getpid(),
                "host": _HOSTNAME,
                "acquired": now,
                "expires": expires,
            }
        )
        tmp = ""
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
            with os.fdopen(fd, "w") as fh:
                fh.write(document + "\n")
            os.replace(tmp, path)
        except OSError:
            # Renewal is advisory; the next tick retries.  Failed
            # renewals must not litter leases/hb/ with temp files.
            if tmp:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
            return
        self._hb_cache[(_HOSTNAME, os.getpid())] = (time.monotonic(), expires)
        if not force:
            with self._lock:
                held = len(self._held_leases)
            obs.emit("lease.renew", kind="hb", held=held)

    def _drop_stalled_leases(self, now: float) -> None:
        """Forget held leases a stalled heartbeat let go stale.

        Called when this process's manifest is found already expired:
        any held lease whose own file expiry has also passed (or whose
        file a rival replaced) was fair game to steal, so renewing the
        manifest over it could yield two holders.  The in-flight
        builds continue unprotected — the worst case is one redundant,
        atomically-replaced evaluation, never a torn artifact.
        """
        with self._lock:
            held = list(self._held_leases)
        for kind, ref in held:
            info = self._read_lease(self._lease_path(kind, ref))
            if (
                info is not None
                and info["pid"] == os.getpid()
                and info["host"] == _HOSTNAME
                and info["expires"] > now
            ):
                continue  # acquired after the stall: still safely ours
            with self._lock:
                self._held_leases.discard((kind, ref))
            obs.emit("lease.expire", kind=kind, ref=ref)

    def active_leases(self) -> int:
        """How many live (unexpired) leases exist under this root.

        Takes no store lock — only lease files are read — so it is
        safe to call from observability paths without stalling
        concurrent lookups and puts.
        """
        if not self.lease_dir.is_dir():
            return 0
        count = 0
        for path in self.lease_dir.glob("*-*.json"):
            info = self._read_lease(path)
            if info is not None and not self._lease_stale(info):
                count += 1
        return count

    def sweep_stale_leases(self) -> int:
        """Remove stale lease files (and rename-aside leftovers).

        A campaign killed mid-grid leaves one lease file per claimed
        point that nothing else revisits unless the exact ref is
        re-claimed; this sweep — run by every :meth:`gc` pass —
        retires them through the same judge-then-rename-aside protocol
        stealing uses, so a live holder is never touched.  Returns how
        many lease files were retired.
        """
        if not self.lease_dir.is_dir():
            return 0
        swept = 0
        for path in self.lease_dir.glob("*-*.json"):
            info = self._read_lease(path)
            if info is not None and not self._lease_stale(info):
                continue
            self._steal_stale_lease(path)
            swept += 1
        # Rename-aside leftovers (an unlink that failed mid-steal) are
        # plain junk once they have sat for a while.
        for path in self.lease_dir.glob("*.stale-*"):
            try:
                if time.time() - path.stat().st_mtime > 60.0:
                    path.unlink(missing_ok=True)
            except OSError:
                continue
        # Heartbeat manifests of exited (or long-idle) processes: give
        # a full extra TTL of grace so an owner republishing at this
        # very moment is never raced.
        hb_dir = self.lease_dir / _HB_DIR
        if hb_dir.is_dir():
            for path in hb_dir.glob("*.json"):
                info = self._read_lease(path)
                if (
                    info is None
                    or info["expires"] + self.lease_ttl_s < time.time()
                ):
                    with contextlib.suppress(OSError):
                        path.unlink(missing_ok=True)
        return swept

    # -- trace access ----------------------------------------------------------
    def _resolve(self, key: TraceKey) -> Path:
        """The entry's actual path: index first, canonical otherwise."""
        with self._lock:
            entry = self._index().get(key.ref)
            if entry is not None and entry.get("kind") == "trace":
                return self.root / entry["path"]
        return self.path_for(key)

    def load(self, key: TraceKey) -> Trace | None:
        """Disk lookup only; ``None`` on absent or unreadable entries."""
        path = self._resolve(key)
        with self.reading(key.ref):
            if not path.is_file():
                return None
            try:
                trace = Trace.load(path)
            except (OSError, ValueError, KeyError, zipfile.BadZipFile):
                return None
        with self._lock:
            if key.ref in self._index():
                self._touch_entry(key.ref)
            else:
                # Crash between artifact write and index flush (or a
                # hand-copied file at its canonical path): adopt it.
                self._record_entry(key.ref, "trace", path)
        return trace

    def put(self, key: TraceKey, trace: Trace) -> Path:
        with self._lock:
            self._memory[key] = trace
        path = trace.save(self.path_for(key))
        with self._lock:
            self._record_entry(key.ref, "trace", path)
            self._auto_gc()
        return path

    def compact_traces(
        self, refs: "Iterable[str] | None" = None
    ) -> list[dict]:
        """Rewrite stored traces in the super-op layout where it pays.

        Loads every indexed trace shard (or only ``refs``), runs cycle
        detection (:mod:`repro.ir.superops`) and re-saves in place —
        the atomic-replace write and the layout-independent digests
        mean concurrent readers see either the old or the new bytes,
        both of which load bit-identically.  Shards that do not
        compact are rewritten flat (a no-op apart from mtime).
        Returns one report row per shard for the CLI.
        """
        wanted = None if refs is None else set(refs)
        with self._lock:
            entries = {
                ref: dict(entry)
                for ref, entry in self._index().items()
                if entry.get("kind") == "trace"
                and (wanted is None or ref in wanted)
            }
        report: list[dict] = []
        for ref, entry in sorted(entries.items()):
            path = self.root / entry["path"]
            try:
                trace = Trace.load(path)
                bytes_before = path.stat().st_size
            except (OSError, ValueError, KeyError, zipfile.BadZipFile):
                continue
            trace.save(path, compact=True)
            superops = trace.attached_superops()
            n_ops = len(superops.ops) if superops is not None else 0
            coverage = superops.coverage if superops is not None else 0.0
            with self._lock:
                self._record_entry(ref, "trace", path)
            report.append(
                {
                    "ref": ref,
                    "path": str(entry["path"]),
                    "bytes_before": bytes_before,
                    "bytes_after": path.stat().st_size,
                    "n_ops": n_ops,
                    "coverage": round(coverage, 4),
                }
            )
        return report

    def get(self, key: TraceKey, builder: Callable[[], Trace]) -> Trace:
        """Memory → disk → ``builder()`` (which is then persisted).

        Builds are single-flighted per key — *within* this process by
        a claim event (several threads missing simultaneously produce
        exactly one builder call), and *across* processes by a
        lock-file lease: a process that finds a foreign lease waits
        for the peer's artifact to land instead of interpreting the
        same trace twice.  Never two interpreter runs for one trace,
        however many campaigns share the root — with one bounded
        exception: a foreign holder that stays alive (lease renewed)
        but never delivers is only deferred to for
        ``_INFLIGHT_TIMEOUT_S`` in total, after which this process
        interprets the trace itself rather than hanging forever (a
        redundant but benign build; ``put`` replaces atomically).
        """
        token = f"t:{key.ref}"
        defer_deadline = time.monotonic() + _INFLIGHT_TIMEOUT_S
        while True:
            with self._lock:
                trace = self._memory.get(key)
                if trace is not None:
                    self.counters.memory_hits += 1
                    self._touch_entry(key.ref)
                    return trace
            trace = self.load(key)
            if trace is not None:
                with self._lock:
                    self.counters.disk_hits += 1
                    self._memory[key] = trace
                return trace
            event = self._begin_flight(token)
            if event is None:
                if self.acquire_lease(key.ref, kind="trace"):
                    break  # won the build slot, in-process and across
                if time.monotonic() >= defer_deadline:
                    # The foreign holder is alive (its lease keeps
                    # renewing) but has not delivered: build without
                    # the lease rather than deferring forever.
                    break
                # A peer *process* is interpreting this trace: release
                # the local slot (threads behind us re-enter the loop)
                # and wait for the peer's artifact before re-checking.
                self._end_flight(token)
                _LeaseWaiter(
                    self, "trace", key.ref,
                    lambda: self._resolve(key).is_file(),
                ).wait(
                    max(0.1, defer_deadline - time.monotonic())
                )
                continue
            if not event.wait(timeout=_INFLIGHT_TIMEOUT_S):
                # The owner looks wedged: take the slot over rather
                # than waiting forever.
                if self._steal_flight(token, event):
                    break
        # We own the flight — but a rival may have finished (built,
        # put, released) between our miss and the claim: a thread of
        # this process (check memory) or another process entirely
        # (check disk — its artifact landed before its lease was
        # released).  Re-check both before interpreting twice.
        with self._lock:
            trace = self._memory.get(key)
            if trace is not None:
                self.counters.memory_hits += 1
                self._touch_entry(key.ref)
        if trace is None:
            trace = self.load(key)
            if trace is not None:
                with self._lock:
                    self.counters.disk_hits += 1
                    self._memory[key] = trace
        if trace is not None:
            self.release_lease(key.ref, kind="trace")
            self._end_flight(token)
            return trace
        try:
            with self._lock:
                self.counters.misses += 1
            obs.emit("trace.build.start", ref=key.ref)
            build_t0 = time.perf_counter()
            with obs.span("store.build_trace", ref=key.ref):
                trace = builder()
            obs.emit(
                "trace.build.done",
                ref=key.ref,
                dur_s=time.perf_counter() - build_t0,
            )
            self.put(key, trace)
            return trace
        finally:
            self.release_lease(key.ref, kind="trace")
            self._end_flight(token)

    # -- result cache ----------------------------------------------------------
    def n_results(self) -> int:
        with self._lock:
            self._adopt_unindexed()
            return sum(
                1 for e in self._index().values() if e.get("kind") == "result"
            )

    def _resolve_result(self, key: ResultKey) -> Path:
        with self._lock:
            entry = self._index().get(key.ref)
            if entry is not None and entry.get("kind") == "result":
                return self.root / entry["path"]
        return self.result_path_for(key)

    def lookup_result(
        self, key: ResultKey, *, count: bool = True
    ) -> EvalOutcome | None:
        """Memory → disk result lookup; counts the hit/miss either way.

        ``count=False`` is the uncounted *peek* the claim protocol uses
        to close the lookup→claim race — a re-check, not a new lookup,
        so it must not distort the hit/miss telemetry.
        """
        with self._lock:
            outcome = self._result_memory.get(key)
            if outcome is not None:
                if count:
                    self.result_counters.memory_hits += 1
                self._touch_entry(key.ref)
        if outcome is not None:
            if count:
                obs.emit("cache.hit", ref=key.ref, tier="memory")
            return outcome
        path = self._resolve_result(key)
        outcome = None
        with self.reading(key.ref):
            if path.is_file():
                try:
                    outcome = _load_outcome(path)
                except (OSError, ValueError, KeyError, zipfile.BadZipFile):
                    outcome = None
        with self._lock:
            if outcome is not None:
                if count:
                    self.result_counters.disk_hits += 1
                self._result_memory[key] = outcome
                if key.ref in self._index():
                    self._touch_entry(key.ref)
                else:
                    self._record_entry(key.ref, "result", path)
            elif count:
                self.result_counters.misses += 1
        if count:
            if outcome is not None:
                obs.emit("cache.hit", ref=key.ref, tier="disk")
            else:
                obs.emit("cache.miss", ref=key.ref)
        return outcome

    def claim_result(self, key: ResultKey) -> threading.Event | _LeaseWaiter | None:
        """Announce an intent to compute a missing result.

        Returns ``None`` when the caller now owns the claim (it must
        eventually :meth:`put_result` or :meth:`abandon_result_claim`),
        or something to ``wait(timeout)`` on: the owning computation's
        :class:`~threading.Event` when the owner is a thread of this
        process, a :class:`_LeaseWaiter` when the owner is *another
        process* holding the entry's lock-file lease.  Either way two
        concurrent campaigns over one store root — threads or
        independent processes — evaluate every shared point exactly
        once while the owner is alive.
        """
        token = f"r:{key.ref}"
        event = self._begin_flight(token)
        if event is not None:
            return event
        if self.acquire_lease(key.ref):
            return None  # full owner: in-process flight + lease
        # A peer process claimed this point first: hand the local slot
        # back (other threads will reach this same waiter) and defer.
        self._end_flight(token)
        return _LeaseWaiter(
            self, "result", key.ref,
            lambda: self._resolve_result(key).is_file(),
        )

    def abandon_result_claim(self, key: ResultKey) -> None:
        """Release a claim without a result (waiters wake and recompute)."""
        self.release_lease(key.ref)
        self._end_flight(f"r:{key.ref}")

    def put_result(self, key: ResultKey, outcome: EvalOutcome) -> Path:
        with self._lock:
            self._result_memory[key] = outcome
        path = _save_outcome(self.result_path_for(key), outcome)
        with self._lock:
            self._record_entry(key.ref, "result", path)
            self._auto_gc()
        self.release_lease(key.ref)
        self._end_flight(f"r:{key.ref}")  # wake any claim waiters
        return path

    def get_result(
        self, key: ResultKey, compute: Callable[[], EvalOutcome]
    ) -> EvalOutcome:
        """Memory → disk → ``compute()`` (which is then persisted).

        Single-flighted like :meth:`get`: concurrent callers for one
        key produce exactly one computation — and, like :meth:`get`,
        total deferral to a live-but-wedged foreign lease holder is
        capped at ``_INFLIGHT_TIMEOUT_S``, after which the result is
        computed without a claim (benign duplicate, atomic replace)
        rather than waiting forever.
        """
        claimed = False
        defer_deadline = time.monotonic() + _INFLIGHT_TIMEOUT_S
        while True:
            outcome = self.lookup_result(key)
            if outcome is not None:
                return outcome
            event = self.claim_result(key)
            if event is None:
                # Close the lookup→claim race: a rival may have put
                # and released this exact key in between.
                outcome = self.lookup_result(key, count=False)
                if outcome is not None:
                    self.abandon_result_claim(key)
                    return outcome
                claimed = True
                break
            if time.monotonic() >= defer_deadline:
                # A foreign holder kept its lease alive the whole time
                # without delivering (a _LeaseWaiter can never be
                # stolen through the in-process flight table): stop
                # deferring and compute without the claim.
                break
            if not event.wait(
                timeout=max(0.0, defer_deadline - time.monotonic())
            ):
                # The owner looks wedged: take the claim over (the
                # loop's lookup still prefers a late-but-landed
                # result over recomputing).
                if self._steal_flight(f"r:{key.ref}", event):
                    outcome = self.lookup_result(key, count=False)
                    if outcome is not None:
                        self.abandon_result_claim(key)
                        return outcome
                    claimed = True
                    break
        try:
            outcome = compute()
            self.put_result(key, outcome)
            return outcome
        finally:
            if claimed:
                self.abandon_result_claim(key)

    # -- write-ahead touch merging ---------------------------------------------
    def merge_touches(
        self, tag: str | None = None, *, stale_after_s: float = 0.0
    ) -> dict[str, int]:
        """Fold per-worker touch files back into the index.

        Applies every record — entry access times become the max of
        index and touch times, each trace touch counts as a trace-store
        memory hit (the job evaluated against the already-acquired
        table), and worker-side evaluation counts are summed for the
        caller to merge into the process counter — then deletes the
        files.  With ``tag`` only that campaign's files are merged, so
        a completing campaign never swallows (and half-reads) the
        write-ahead files of one still in flight.  Untagged callers
        (the ``repro store`` admin commands, which cannot know which
        campaigns are live in other processes) pass ``stale_after_s``
        to merge only files idle at least that long — a file still
        being appended to belongs to a running campaign and is left
        for its owner.  Malformed trailing lines (a worker killed
        mid-write) are skipped, not propagated.
        """
        pattern = f"{tag}-*.jsonl" if tag else "*.jsonl"
        merged = {"files": 0, "touches": 0, "evaluations": 0}
        if not self.touch_dir.is_dir():
            return merged
        for path in sorted(self.touch_dir.glob(pattern)):
            try:
                if (
                    stale_after_s
                    and time.time() - path.stat().st_mtime < stale_after_s
                ):
                    continue  # a live campaign's write-ahead file
                lines = path.read_text().splitlines()
            except OSError:
                continue
            with self._lock:
                for line in lines:
                    try:
                        record = json.loads(line)
                        ref = str(record["ref"])
                        at = float(record.get("at", 0.0))
                        evals = int(record.get("evals", 0))
                    except (ValueError, TypeError, KeyError):
                        continue  # torn write-ahead line
                    self._touch_entry(ref, at=at)
                    self.counters.memory_hits += 1
                    merged["touches"] += 1
                    merged["evaluations"] += evals
            path.unlink(missing_ok=True)
            merged["files"] += 1
        if merged["files"]:
            with self._lock:
                if self._dirty and self._entries is not None:
                    self._flush_index()
        return merged

    # -- garbage collection ----------------------------------------------------
    def total_bytes(self) -> int:
        with self._lock:
            self._adopt_unindexed()
            return sum(e.get("bytes", 0) for e in self._index().values())

    def _auto_gc(self) -> None:
        """Enforce the construction-time budget after a put (locked).

        Skips the stale-lease sweep: this path runs *inside* the store
        lock, and the sweep is directory I/O that must never stall
        concurrent lookups/puts (explicit ``gc()`` calls, which enter
        unlocked, do sweep).
        """
        if self.max_bytes is None:
            return
        if sum(e.get("bytes", 0) for e in self._index().values()) > self.max_bytes:
            self.gc(sweep_leases=False)

    def gc(
        self, max_bytes: int | None = None, *, sweep_leases: bool = True
    ) -> GCReport:
        """Evict entries until the store fits its disk budget.

        Eviction order is **results first, then traces** (results are
        recomputable from a stored trace in milliseconds; a trace costs
        an interpreter run), least-recently-used first within each kind
        (or oldest-created, under ``policy="fifo"``).  The pass stops
        the moment the budget is met — it never over-evicts below
        ``max_bytes`` — and entries pinned by an in-flight reader are
        skipped even if that leaves the store over budget.  With no
        budget (neither argument nor construction-time) it is a no-op
        that reports the current size.  Explicit passes also sweep
        stale lease files (crashed campaigns leave one per claimed
        point) — before taking the store lock, because the sweep is
        pure directory I/O; the auto-GC path, which enters with the
        lock already held, skips it.
        """
        if sweep_leases:
            self.sweep_stale_leases()
        with self._lock:
            self._adopt_unindexed()
            entries = self._index()
            budget = self.max_bytes if max_bytes is None else max_bytes
            total = sum(e.get("bytes", 0) for e in entries.values())
            report = GCReport(total_bytes=total, max_bytes=budget)
            if budget is None or total <= budget:
                return report
            order_key = _POLICIES[self.policy]
            victims = [
                (ref, entry)
                for kind in ("result", "trace")
                for ref, entry in sorted(
                    (
                        (ref, entry)
                        for ref, entry in entries.items()
                        if entry.get("kind") == kind
                    ),
                    key=lambda item: order_key(item[1]),
                )
            ]
            for ref, entry in victims:
                if total <= budget:
                    break
                if self._pins.get(ref):
                    report.pinned_skipped += 1
                    continue
                (self.root / entry["path"]).unlink(missing_ok=True)
                del entries[ref]
                self._evict_memory(ref, entry["kind"])
                size = entry.get("bytes", 0)
                total -= size
                report.freed_bytes += size
                report.evicted.append((entry["kind"], ref, size))
                if entry["kind"] == "result":
                    self.result_counters.evictions += 1
                else:
                    self.counters.evictions += 1
            report.total_bytes = total
            self._flush_index()
        if report.evicted:
            obs.emit(
                "gc.evicted",
                n=len(report.evicted),
                results=report.evicted_results,
                traces=report.evicted_traces,
                freed_bytes=report.freed_bytes,
                total_bytes=report.total_bytes,
                policy=self.policy,
            )
        return report

    def _evict_memory(self, ref: str, kind: str) -> None:
        """Drop the in-memory copies of an evicted entry (locked)."""
        if kind == "trace":
            for key in [k for k in self._memory if k.ref == ref]:
                del self._memory[key]
        else:
            for key in [k for k in self._result_memory if k.ref == ref]:
                del self._result_memory[key]

    # -- observability ---------------------------------------------------------
    def stats_registry(self) -> "obs.MetricsRegistry":
        """Layout, sizes and counters as one metrics registry.

        This is the single emission path behind ``repro store stats``
        (``--json`` and ``--prometheus``) and
        ``CampaignResult.store_stats``: gauges for layout/sizes,
        ``_total``-suffixed counters for the monotonic hit/miss/
        eviction counts.
        """
        # Lease files are read without the store lock: the scan is
        # pure file I/O, and holding the lock through it would stall
        # every concurrent lookup/put for the duration.
        active = self.active_leases()
        registry = obs.MetricsRegistry()
        with self._lock:
            self._adopt_unindexed()
            entries = self._index()
            by_kind: dict[str, dict[str, int]] = {
                "trace": {"entries": 0, "bytes": 0},
                "result": {"entries": 0, "bytes": 0},
            }
            shards: set[str] = set()
            for entry in entries.values():
                bucket = by_kind.setdefault(
                    entry.get("kind", "trace"), {"entries": 0, "bytes": 0}
                )
                bucket["entries"] += 1
                bucket["bytes"] += entry.get("bytes", 0)
                shards.add(str(Path(entry.get("path", "")).parent))
            pending = (
                sum(1 for _ in self.touch_dir.glob("*.jsonl"))
                if self.touch_dir.is_dir()
                else 0
            )
            registry.label("root", str(self.root))
            registry.label("policy", self.policy)
            registry.label("max_bytes", self.max_bytes)
            registry.label("index_format", INDEX_FORMAT_VERSION)
            for kind in ("trace", "result"):
                registry.gauge(
                    f"{kind}_entries", f"indexed {kind} artifacts"
                ).set(by_kind[kind]["entries"])
                registry.gauge(
                    f"{kind}_bytes", f"on-disk bytes of {kind} artifacts"
                ).set(by_kind[kind]["bytes"])
            registry.gauge("total_bytes", "total on-disk bytes").set(
                sum(b["bytes"] for b in by_kind.values())
            )
            registry.gauge("shards", "populated shard directories").set(
                len(shards)
            )
            registry.gauge(
                "pending_touch_files", "unmerged write-ahead files"
            ).set(pending)
            registry.gauge("active_leases", "live claim leases").set(active)
            for kind, counters in (
                ("trace", self.counters),
                ("result", self.result_counters),
            ):
                for name, value in counters.as_dict().items():
                    registry.counter(
                        f"{kind}_{name}", f"{kind} store {name}"
                    ).inc(value)
        return registry

    def stats(self) -> dict[str, object]:
        """One JSON-friendly snapshot of layout, sizes and counters.

        Canonical snake_case schema (monotonic counts suffixed
        ``_total``); the pre-obs nested keys (``traces``, ``results``,
        ``trace_counters``, ``result_counters``) still resolve for one
        release via a :class:`~repro.obs.LegacySnapshot` that warns
        ``DeprecationWarning`` on access.
        """
        return obs.LegacySnapshot(
            self.stats_registry().snapshot(), _STATS_ALIASES
        )

    # -- maintenance -----------------------------------------------------------
    def clear_memory(self) -> None:
        with self._lock:
            self._memory.clear()
            self._result_memory.clear()

    def clear(self) -> None:
        """Drop the memory maps and delete every on-disk entry."""
        with self._lock:
            self.clear_memory()
            entries = self._index()
            for entry in entries.values():
                (self.root / entry["path"]).unlink(missing_ok=True)
            entries.clear()
            if self.touch_dir.is_dir():
                for path in self.touch_dir.glob("*.jsonl"):
                    path.unlink(missing_ok=True)
            if self.lease_dir.is_dir():
                self._held_leases.clear()
                for path in self.lease_dir.glob("*-*.json"):
                    path.unlink(missing_ok=True)
                for path in (self.lease_dir / _HB_DIR).glob("*.json"):
                    path.unlink(missing_ok=True)
                self._hb_cache.clear()
            self._flush_index()

    def __repr__(self) -> str:
        return (
            f"TraceStore({str(self.root)!r}, entries={len(self)}, "
            f"results={self.n_results()}, "
            f"max_bytes={self.max_bytes}, policy={self.policy!r})"
        )


# ---------------------------------------------------------------------------
# default store
# ---------------------------------------------------------------------------

_override: TraceStore | None = None
_instances: dict[Path, TraceStore] = {}


def set_default_store(store: TraceStore | None) -> None:
    """Globally override (or with ``None`` reset) the default store.

    The test suite points the default at a tmpdir through this hook so
    runs never pollute the user's cache directory.
    """
    global _override
    _override = store


def default_store() -> TraceStore:
    """The process-wide store: ``$REPRO_TRACE_STORE`` or ``~/.cache``.

    Instances are memoised per resolved root so the in-memory layer
    survives repeated calls while env-var changes take effect.
    ``$REPRO_STORE_MAX_BYTES`` (bytes) sets the disk budget the
    store's GC enforces.
    """
    if _override is not None:
        return _override
    env = os.environ.get(TRACE_STORE_ENV)
    root = (
        Path(env).expanduser()
        if env
        else Path.home() / ".cache" / "repro" / "traces"
    )
    budget_env = os.environ.get(STORE_MAX_BYTES_ENV)
    max_bytes: int | None = None
    if budget_env:
        try:
            max_bytes = int(budget_env)
            if max_bytes < 0:
                raise ValueError(budget_env)
        except ValueError:
            warnings.warn(
                f"ignoring invalid {STORE_MAX_BYTES_ENV}={budget_env!r} "
                "(expected a non-negative integer byte count)",
                RuntimeWarning,
                stacklevel=2,
            )
            max_bytes = None
    store = _instances.get(root)
    if store is None:
        store = _instances.setdefault(
            root, TraceStore(root, max_bytes=max_bytes)
        )
    elif store.max_bytes != max_bytes:
        # Budget changes take effect on memoised instances too.
        store.max_bytes = max_bytes
    return store


def kernel_trace_key(
    name: str, n: int | None = None, seed: int | None = None
) -> TraceKey:
    """Store identity of a registry kernel's trace.

    ``n`` is resolved to the kernel's default so equivalent requests
    share one store entry — the same resolution
    :func:`kernel_trace_cached` applies, exposed so result caching can
    address ``(trace, scenario, backend)`` without re-acquiring.
    """
    from ..kernels import get_kernel

    kernel = get_kernel(name)
    eff_n = kernel.default_n if n is None else n
    return TraceKey.make(name, n=eff_n, seed=seed)


def kernel_trace_cached(
    name: str,
    n: int | None = None,
    seed: int | None = None,
    store: TraceStore | None = None,
) -> Trace:
    """Trace of a registered kernel, interpreted at most once per machine.

    The canonical acquisition path for everything keyed by a registry
    kernel name: resolves ``n`` to the kernel's default so equivalent
    requests share one store entry, and only builds (program, inputs)
    on a miss.
    """
    from ..kernels import get_kernel

    kernel = get_kernel(name)
    eff_n = kernel.default_n if n is None else n
    key = TraceKey.make(name, n=eff_n, seed=seed)
    target = store if store is not None else default_store()

    def _build() -> Trace:
        program, inputs = kernel.build(n=eff_n, seed=seed)
        return build_trace(program, inputs)

    return target.get(key, _build)
