"""Frozen reference: the callback-driven timed machine, verbatim.

This is the discrete-event loop :class:`repro.machine.msim.TimedMachine`
used before its events became tuple-coded: one closure per callback,
per-access numpy scalars, a route list built per message.  It is kept
here, unchanged, as a test oracle.  ``tests/test_timed_fidelity.py``
(``TestFrozenReference``) requires the production machine to reproduce
every field of its :class:`~repro.machine.msim.TimedResult` exactly, so
the fast loop is checked against an independent implementation rather
than against itself.

Do not optimise or restyle this file: its value is that it does not
change.  It shares only the non-loop physics with the package (cost
model, topologies, caches, placement, page tables, result type).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.cache import PageCache, make_cache
from repro.core.access import AccessKind
from repro.core.simulator import (
    MachineConfig,
    SubrangeGroup,
    _owners_by_array,
    subrange_groups,
    subrange_placement,
)
from repro.core.stats import AccessStats
from repro.ir.trace import Trace
from repro.machine.msim import TimedResult
from repro.machine.network import Topology, make_topology
from repro.machine.pe import CostModel
from repro.memory.pages import PageTable
from repro.obs.profile import phase as _phase

__all__ = ["TimedMachine"]

Callback = Callable[[], None]

Cell = int  # composite (array_id << 44) | flat


def _cell(arr: int, flat: int) -> Cell:
    return (arr << 44) | flat


class EventQueue:
    """A deterministic time-ordered callback queue."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callback]] = []
        self._seq = 0
        self.now = 0.0
        self.events_processed = 0

    def schedule(self, time: float, callback: Callback) -> None:
        """Schedule ``callback`` at absolute ``time`` (>= now)."""
        if time < self.now - 1e-12:
            raise ValueError(
                f"cannot schedule into the past (now={self.now}, time={time})"
            )
        heapq.heappush(self._heap, (time, self._seq, callback))
        self._seq += 1

    def schedule_after(self, delay: float, callback: Callback) -> None:
        if delay < 0:
            raise ValueError("delay must be nonnegative")
        self.schedule(self.now + delay, callback)

    def run(self, max_events: int | None = None) -> float:
        """Process events until the queue drains; returns final time."""
        budget = max_events if max_events is not None else float("inf")
        while self._heap and budget > 0:
            time, _, callback = heapq.heappop(self._heap)
            self.now = time
            callback()
            self.events_processed += 1
            budget -= 1
        if self._heap:
            raise RuntimeError(
                f"event budget exhausted with {len(self._heap)} events pending"
            )
        return self.now

    @property
    def pending(self) -> int:
        return len(self._heap)


@dataclass
class PEState:
    """Execution bookkeeping for one PE in the timed simulation."""

    pe: int
    # Indices into the trace of the instances this PE executes, in order.
    instances: list[int] = field(default_factory=list)
    position: int = 0          # next instance to run
    read_cursor: int = 0       # next read within the current instance
    busy_until: float = 0.0    # local clock
    blocked: bool = False
    # statistics
    stall_time: float = 0.0
    requests_sent: int = 0
    refetches: int = 0

    @property
    def done(self) -> bool:
        return self.position >= len(self.instances)


@dataclass
class _Context:
    """One in-flight statement instance on a PE (multithreaded mode)."""

    local_idx: int        # index into the PE's instance list
    read_cursor: int = 0  # how many reads are already satisfied


class TimedMachine:
    """Discrete-event replay of a trace on a timed machine."""

    def __init__(
        self,
        trace: Trace,
        config: MachineConfig,
        *,
        topology: str | Topology = "crossbar",
        costs: CostModel | None = None,
        mode: str = "blocking",
        max_outstanding: int = 4,
    ) -> None:
        if mode not in ("blocking", "multithreaded"):
            raise ValueError(f"unknown mode {mode!r}")
        self.trace = trace
        self.config = config
        self.costs = costs if costs is not None else CostModel()
        self.mode = mode
        self.max_outstanding = max_outstanding if mode == "multithreaded" else 1
        self.topology = (
            topology
            if isinstance(topology, Topology)
            else make_topology(topology, config.n_pes)
        )
        if self.topology.n_pes != config.n_pes:
            raise ValueError("topology size disagrees with config")
        self.queue = EventQueue()
        self.stats = AccessStats(config.n_pes, trace.array_names)
        self.tables = [
            PageTable(size, config.page_size) for size in trace.array_sizes
        ]
        with _phase("setup"):
            self._build_placement()
            self._build_memory_state()
        self._pes = [PEState(pe) for pe in range(config.n_pes)]
        for idx, pe in enumerate(self.exec_pe):
            self._pes[pe].instances.append(idx)
        self._caches: list[PageCache] = [
            make_cache(config.cache_policy, config.cache_pages)
            for _ in range(config.n_pes)
        ]
        self._fetch_time: list[dict[tuple[int, int], float]] = [
            {} for _ in range(config.n_pes)
        ]
        self._ready: list[deque[_Context]] = [deque() for _ in range(config.n_pes)]
        self._outstanding = [0] * config.n_pes
        self._burst_scheduled = [False] * config.n_pes
        self.messages = 0
        self.total_hops = 0
        self.refetches = 0
        self.deferred_reads = 0

    # -- setup -----------------------------------------------------------------
    def _build_placement(self) -> None:
        cfg, tr = self.config, self.trace
        w_pages = tr.w_flat // cfg.page_size
        self.exec_pe = _owners_by_array(
            tr.w_arr, w_pages, self.tables, cfg.partition, cfg.n_pes
        )
        # Subrange reductions: the same re-placement and accumulator
        # grouping as the untimed simulator, so both backends agree on
        # which PEs reduce together (and therefore on every counter).
        self._combine_of: dict[Cell, SubrangeGroup] = {}
        if cfg.reduction_strategy == "subrange" and tr.reduction_mask.any():
            self.exec_pe = subrange_placement(
                tr, self.tables, cfg, self.exec_pe
            )
            self._combine_of = {
                _cell(g.array_id, g.flat): g
                for g in subrange_groups(tr, self.tables, cfg, self.exec_pe)
            }
        r_pages = tr.r_flat // cfg.page_size
        self.r_owner = _owners_by_array(
            tr.r_arr, r_pages, self.tables, cfg.partition, cfg.n_pes
        )
        self.r_pages = r_pages

    def _build_memory_state(self) -> None:
        """Per-cell write bookkeeping for deferred reads & partial pages."""
        tr = self.trace
        self._writes_needed: dict[Cell, int] = {}
        for i in range(tr.n_instances):
            cell = _cell(int(tr.w_arr[i]), int(tr.w_flat[i]))
            self._writes_needed[cell] = self._writes_needed.get(cell, 0) + 1
        # A subrange accumulator only becomes defined when its host's
        # combine performs the final write — one write beyond the
        # trace's folds — so readers defer until the gather completes.
        for cell in self._combine_of:
            self._writes_needed[cell] += 1
        # When each accumulator's last trace write *completes* in
        # simulated time (bursts run far ahead of queue.now, so the
        # counting order alone must not time the gather).
        self._acc_write_time: dict[Cell, float] = {}
        self._writes_done: dict[Cell, int] = {}
        self._write_time: dict[Cell, float] = {}
        # Deferred reads parked per cell: (request arrival time, deliver fn).
        self._deferred: dict[Cell, list] = {}

    # -- cell availability --------------------------------------------------------
    def _available_at(self, cell: Cell) -> float | None:
        """Time the cell became fully defined, or None if not yet.

        Cells never written by the trace are initialisation data (§3)
        and are available from time 0.
        """
        needed = self._writes_needed.get(cell)
        if needed is None:
            return 0.0
        if self._writes_done.get(cell, 0) >= needed:
            return self._write_time[cell]
        return None

    # -- main loop -------------------------------------------------------------
    def run(self) -> TimedResult:
        for pe in range(self.config.n_pes):
            state = self._pes[pe]
            self._ready[pe].extend(
                _Context(local_idx=i) for i in range(len(state.instances))
            )
            self._schedule_burst(pe, 0.0)
        with _phase("event_loop"):
            self.queue.run(max_events=20_000_000)
        per_pe_finish = np.asarray(
            [pe_state.busy_until for pe_state in self._pes]
        )
        if any(self._ready) or any(self._outstanding):
            raise RuntimeError("simulation drained with unfinished work")
        return TimedResult(
            config=self.config,
            topology=self.topology.name,
            mode=self.mode,
            finish_time=float(per_pe_finish.max(initial=0.0)),
            per_pe_finish=per_pe_finish,
            stats=self.stats,
            stall_time=np.asarray([p.stall_time for p in self._pes]),
            messages=self.messages,
            total_hops=self.total_hops,
            refetches=self.refetches,
            deferred_reads=self.deferred_reads,
            contention=self.topology.contention_summary(),
        )

    def _schedule_burst(self, pe: int, at: float) -> None:
        if self._burst_scheduled[pe]:
            return
        self._burst_scheduled[pe] = True
        self.queue.schedule(max(at, self.queue.now), lambda: self._burst(pe))

    def _burst(self, pe: int) -> None:
        """Run the PE until it has no ready work or saturates outstanding."""
        self._burst_scheduled[pe] = False
        ready = self._ready[pe]
        while ready:
            ctx = ready.popleft()
            if not self._execute(pe, ctx):
                # Context parked on a fetch.  A blocking PE (or one at
                # its outstanding limit) stops; a multithreaded PE moves
                # on to the next ready context.
                if self._outstanding[pe] >= self.max_outstanding:
                    return
                continue

    def _execute(self, pe: int, ctx: _Context) -> bool:
        """Advance one context; True if the instance completed."""
        state = self._pes[pe]
        cfg, costs, tr = self.config, self.costs, self.trace
        instance = state.instances[ctx.local_idx]
        lo, hi = int(tr.r_ptr[instance]), int(tr.r_ptr[instance + 1])
        cursor = lo + ctx.read_cursor
        while cursor < hi:
            arr = int(tr.r_arr[cursor])
            flat = int(tr.r_flat[cursor])
            page = int(self.r_pages[cursor])
            owner = int(self.r_owner[cursor])
            if owner == pe:
                state.busy_until = max(state.busy_until, self.queue.now)
                state.busy_until += costs.local_read
                self.stats.add(pe, AccessKind.LOCAL_READ, array_id=arr)
            else:
                key = (arr, page)
                hit = cfg.has_cache and self._caches[pe].contains(key)
                if hit and self._snapshot_valid(pe, key, arr, flat):
                    state.busy_until = max(state.busy_until, self.queue.now)
                    state.busy_until += costs.cached_read
                    self._caches[pe].access(key)  # refresh recency
                    self.stats.add(pe, AccessKind.CACHED_READ, array_id=arr)
                else:
                    if hit:
                        self.refetches += 1
                        self._pes[pe].refetches += 1
                    self._start_fetch(pe, ctx, cursor - lo, arr, flat, page, owner)
                    return False
            ctx.read_cursor = cursor - lo + 1
            cursor += 1
        # All reads satisfied: compute and write.
        state.busy_until = max(state.busy_until, self.queue.now)
        state.busy_until += costs.compute_per_statement + costs.write
        self.stats.add(pe, AccessKind.WRITE)
        cell = _cell(int(tr.w_arr[instance]), int(tr.w_flat[instance]))
        done = self._writes_done.get(cell, 0) + 1
        self._writes_done[cell] = done
        group = self._combine_of.get(cell)
        if group is not None:
            self._acc_write_time[cell] = max(
                self._acc_write_time.get(cell, 0.0), state.busy_until
            )
        if done >= self._writes_needed[cell]:
            self._write_time[cell] = state.busy_until
            self._release_waiters(cell, state.busy_until)
        elif group is not None and done == self._writes_needed[cell] - 1:
            # Every fold has been counted; the remaining write is the
            # host's, performed after it gathers the partials.  The
            # gather begins when the *slowest* counted write completes
            # in simulated time — a PE's burst counts its folds while
            # its local clock is already far past queue.now, so the
            # counting order alone would start the combine early.
            self.queue.schedule(
                self._acc_write_time[cell],
                lambda: self._combine(cell, group),
            )
        return True

    # -- messaging ------------------------------------------------------------
    def _send_at(
        self,
        src: int,
        dst: int,
        depart: float,
        payload_elements: int,
        then,
    ) -> None:
        """Put one message on the wire at ``depart`` (simulated time).

        Counts the message and its hops, then calls
        ``then(hops, queued)`` where ``queued`` is the link-queueing
        delay to add on top of the closed-form latency.

        Without link occupancy (``contention_model="none"``, or
        infinite bandwidth) the transmit is pure accounting and
        ``then`` runs *synchronously* with ``queued == 0.0`` — the
        historical event structure, bit-for-bit.  With occupancy, the
        link reservation is deferred to an event at ``depart``: a PE's
        burst calls this while its local clock runs far ahead of
        ``queue.now``, so reserving at call time would queue messages
        in event-processing order and charge a message delay behind
        traffic that departs *later* in simulated time.  Routing
        reservations through the event queue orders them causally.
        """
        occupancy = (
            self.costs.occupancy(payload_elements)
            if self.costs.contended
            else 0.0
        )
        if occupancy == 0.0:
            hops, _ = self.topology.transmit(src, dst, at=depart)
            self.messages += 1
            self.total_hops += hops
            then(hops, 0.0)
            return

        def reserve() -> None:
            hops, queued = self.topology.transmit(
                src, dst, at=self.queue.now, occupancy=occupancy
            )
            self.messages += 1
            self.total_hops += hops
            then(hops, queued)

        self.queue.schedule(depart, reserve)

    # -- remote fetches -------------------------------------------------------------
    def _snapshot_valid(self, pe: int, key: tuple[int, int], arr: int, flat: int) -> bool:
        """Was this cell defined when the cached page was fetched?"""
        fetched = self._fetch_time[pe].get(key)
        if fetched is None:
            return False
        available = self._available_at(_cell(arr, flat))
        return available is not None and available <= fetched

    def _start_fetch(
        self,
        pe: int,
        ctx: _Context,
        read_offset: int,
        arr: int,
        flat: int,
        page: int,
        owner: int,
    ) -> None:
        """Issue a page request; park the context until the reply."""
        state = self._pes[pe]
        costs = self.costs
        state.busy_until = max(state.busy_until, self.queue.now)
        state.requests_sent += 1
        self._outstanding[pe] += 1
        ctx.read_cursor = read_offset  # retry this read on resume
        depart = state.busy_until
        cell = _cell(arr, flat)
        key = (arr, page)
        page_elems = self.tables[arr].elements_in_page(page)

        def on_request(hops: int, queued: float) -> None:
            request_arrival = depart + costs.request_latency(hops) + queued

            def deliver(ready_time: float) -> None:
                def on_reply(reply_hops: int, reply_queued: float) -> None:
                    arrive = (
                        ready_time
                        + costs.reply_latency(reply_hops, page_elems)
                        + reply_queued
                    )
                    self.queue.schedule(
                        max(arrive, self.queue.now),
                        lambda: self._finish_fetch(
                            pe, ctx, key, arrive, read_offset
                        ),
                    )

                self._send_at(owner, pe, ready_time, page_elems, on_reply)

            available = self._available_at(cell)
            if available is not None:
                deliver(max(request_arrival, available))
            else:
                # I-structure deferred read: parked at the owner until
                # the producing write happens (§3).
                self.deferred_reads += 1
                self._deferred.setdefault(cell, []).append(
                    (request_arrival, deliver)
                )

        self._send_at(pe, owner, depart, 0, on_request)

    def _finish_fetch(
        self,
        pe: int,
        ctx: _Context,
        key: tuple[int, int],
        arrive: float,
        read_offset: int,
    ) -> None:
        state = self._pes[pe]
        stall_start = state.busy_until
        if arrive > stall_start:
            state.stall_time += arrive - stall_start
        state.busy_until = max(state.busy_until, arrive)
        if self.config.has_cache:
            self._caches[pe].access(key)
            self._fetch_time[pe][key] = arrive
            self._prune_fetch_times(pe)
        self.stats.add(pe, AccessKind.REMOTE_READ, array_id=key[0])
        # The fetched read is satisfied by the reply itself; resume after it.
        ctx.read_cursor = read_offset + 1
        self._outstanding[pe] -= 1
        self._ready[pe].appendleft(ctx)  # resume the parked iteration first
        self._schedule_burst(pe, state.busy_until)

    def _prune_fetch_times(self, pe: int) -> None:
        """Keep fetch-time bookkeeping in sync with cache evictions."""
        cache = self._caches[pe]
        book = self._fetch_time[pe]
        if len(book) > cache.capacity_pages:
            resident = set(cache.resident_keys())
            for key in [k for k in book if k not in resident]:
                del book[key]

    def _release_waiters(self, cell: Cell, write_time: float) -> None:
        for request_arrival, deliver in self._deferred.pop(cell, []):
            deliver(max(write_time, request_arrival))

    # -- subrange combine -------------------------------------------------------
    def _combine(self, cell: Cell, group: SubrangeGroup) -> None:
        """Gather one accumulator's partials at its host (§9 subrange).

        Fires once every fold of the accumulator has *completed in
        simulated time* (``queue.now`` is at least the slowest fold's
        write completion, so every partial a reply carries exists when
        it is read).  The host requests one partial from each *other*
        contributing PE (request + single-element reply through the
        network, so distance and — under the per-link model —
        bandwidth contention both delay the gather), folds its own
        partial locally if it made one, then performs the final
        write.  Only then does the accumulator cell become available,
        releasing any deferred readers — the exact charge pattern of
        the untimed simulator's combine phase.
        """
        costs = self.costs
        host = group.host
        state = self._pes[host]
        start = max(state.busy_until, self.queue.now)
        remotes = [c for c in group.contributors if c != host]
        arrivals = [start]
        outstanding = [len(remotes)]

        def finish() -> None:
            done_time = max(arrivals)
            if group.local_partials:
                done_time += costs.local_read
                self.stats.add(
                    host, AccessKind.LOCAL_READ, array_id=group.array_id
                )
            done_time += costs.write
            self.stats.add(host, AccessKind.WRITE, array_id=group.array_id)
            state.busy_until = max(state.busy_until, done_time)
            self._writes_done[cell] += 1
            self._write_time[cell] = done_time
            self._release_waiters(cell, done_time)

        def gather(contributor: int) -> None:
            self.stats.add(
                host, AccessKind.REMOTE_READ, array_id=group.array_id
            )

            def on_request(hops: int, queued: float) -> None:
                request_arrival = (
                    start + costs.request_latency(hops) + queued
                )

                def on_reply(reply_hops: int, reply_queued: float) -> None:
                    arrivals.append(
                        request_arrival
                        + costs.reply_latency(reply_hops, 1)
                        + reply_queued
                    )
                    outstanding[0] -= 1
                    if outstanding[0] == 0:
                        finish()

                self._send_at(contributor, host, request_arrival, 1, on_reply)

            self._send_at(host, contributor, start, 0, on_request)

        if not remotes:
            finish()
            return
        for contributor in remotes:
            gather(contributor)
