"""The benchmark's workloads: the paper grid, replayed and timed.

Every workload drives the public API (``run_campaign``,
``TraceStore``, ``kernel_trace_cached``) with the serial executor, so
one process measures the program, not the scheduler.  Why each one
exists, which layers it exercises and which it bypasses, is recorded
in ``DESIGN.md`` beside this file.
"""

from __future__ import annotations

import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

#: The paper's PE axis (Figures 1-5) and its two page sizes.
PAPER_PES = (1, 2, 4, 8, 16, 32, 64)
PAPER_PAGE_SIZES = (32, 64)
#: The paper's cache capacity, and 0 for its "No Cache" series.
PAPER_CACHES = (256, 0)
#: Set-up runs this often, each time into a fresh store; ``setup_s``
#: takes the median.
SETUP_REPEATS = 3
#: Probes of the host's speed before and after each set-up.
SETUP_PROBES = 9


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str
    pes: tuple[int, ...]
    page_sizes: tuple[int, ...]
    #: Set-up is a user's first run: the grid into an empty store with
    #: the result cache on (trace build and compaction, result writes),
    #: then read back through a new ``TraceStore`` over the same root
    #: (result reads).  The first run also compiles the per-trace
    #: replay memos every timed pass reuses.  Without it, set-up only
    #: acquires the traces.
    cold_setup: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid-replay", "untimed-vec", PAPER_PES, PAPER_PAGE_SIZES,
                 cold_setup=True),
        Workload("timed-slice", "timed", (4, 16), (32,), cold_setup=False),
    )
}


def campaign_spec(workload: Workload, seed: int, kernels=None, pes=None):
    """The workload's campaign; ``kernels``/``pes`` shrink it (smoke test)."""
    from repro.engine import CampaignSpec, KernelSpec
    from repro.kernels import paper_kernels

    names = kernels or tuple(k.name for k in paper_kernels())
    return CampaignSpec(
        name=f"bench-{workload.name}",
        kernels=tuple(KernelSpec(name, seed=seed) for name in names),
        backend=workload.backend,
        pes=pes or workload.pes,
        page_sizes=workload.page_sizes,
        cache_elems=PAPER_CACHES,
    )


@dataclass
class PassResult:
    wall_s: float
    #: gap before each delivered record (the first from the call),
    #: probes excluded
    gaps_s: list[float]
    #: (start, end) host clock of each gap
    stamps: list[tuple[float, float]]
    #: (canonical index, EvalOutcome) per delivered record
    outcomes: list
    #: points the pass did not deliver because the campaign raised
    raised: int
    store: object


class Bench:
    """One workload's stores and passes, rooted in a private directory."""

    def __init__(self, workload: Workload, spec, scratch: Path, speed=None) -> None:
        self.workload = workload
        self.spec = spec
        self._scratch = scratch
        self.store = None
        #: probes the host's speed between records (``speed.py``)
        self.speed = speed

    def acquire(self) -> dict:
        """Every kernel's trace, from the workload's store."""
        from repro.engine import kernel_trace_cached

        return {
            k.label: kernel_trace_cached(k.name, n=k.n, seed=k.seed, store=self.store)
            for k in self.spec.kernels
        }

    def setup(self) -> tuple[float, list[PassResult]]:
        """Prepare the workload ``SETUP_REPEATS`` times, each into a fresh store.

        Returns the median seconds of one set-up and the campaign
        passes set-up made, to be checked like timed ones.  With a
        speed track, each set-up's seconds are rescaled to the
        reference host speed, probes taken out.
        """
        from repro.engine import TraceStore, set_default_store

        durations = []
        passes = []
        for _ in range(SETUP_REPEATS):
            if self.store is not None:
                shutil.rmtree(self.store.root, ignore_errors=True)
            if self.speed is not None:
                self.speed.sample(SETUP_PROBES)
                probed = self.speed.spent
            t0 = time.perf_counter()
            root = tempfile.mkdtemp(prefix="store-", dir=self._scratch)
            self.store = TraceStore(root)
            # Nothing may fall back to the user's (or a harness's) store.
            set_default_store(self.store)
            if self.workload.cold_setup:
                passes.append(self.run_pass(use_cache=True))
                passes.append(self.run_pass(use_cache=True, reopen=True))
            else:
                self.acquire()
            t1 = time.perf_counter()
            if self.speed is None:
                durations.append(t1 - t0)
                continue
            seconds = t1 - t0 - (self.speed.spent - probed)
            self.speed.sample(SETUP_PROBES)
            durations.append(self.speed.rescale(seconds, t0, t1))
        return statistics.median(durations), passes

    def run_pass(self, *, use_cache: bool = False, reopen: bool = False) -> PassResult:
        """One streamed campaign over the workload's grid.

        ``reopen`` runs it through a new ``TraceStore`` over the same
        root, so nothing answers from the first instance's memory.
        """
        from repro.engine import TraceStore, run_campaign

        store = TraceStore(self.store.root) if reopen else self.store
        gaps: list[float] = []
        stamps: list[tuple[float, float]] = []
        outcomes = []
        raised = 0
        if self.speed is not None:
            self.speed.sample()
            probed = self.speed.spent
        start = last = time.perf_counter()
        try:
            stream = run_campaign(
                self.spec,
                store=store,
                parallel=False,
                stream=True,
                use_cache=use_cache,
            )
            for record in stream:
                now = time.perf_counter()
                gaps.append(now - last)
                stamps.append((last, now))
                outcomes.append((record.index, record.outcome))
                # Probe while the stream is suspended; the next gap
                # starts after it.
                if self.speed is not None:
                    self.speed.sample()
                last = time.perf_counter()
        except Exception as exc:  # a failed pass counts, it does not abort
            raised = self.spec.n_points - len(gaps)
            print(f"campaign raised: {exc!r}", file=sys.stderr)
        wall = time.perf_counter() - start
        if self.speed is not None:
            wall -= self.speed.spent - probed
        return PassResult(wall, gaps, stamps, outcomes, raised, store)
