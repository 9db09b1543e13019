"""Timed machine simulation: execution time, latency hiding, contention.

The paper's measurement simulator is untimed; §9 calls for "a more
sophisticated simulation [to] better explore the problems of execution
time and network contention".  :class:`TimedMachine` is that
simulation.  It replays an access trace under the same partitioning,
owner-computes and caching rules as :func:`repro.core.simulator.simulate`,
but embeds them in a discrete-event model with

* a cycle-level :class:`~repro.machine.pe.CostModel`,
* an interconnect :class:`~repro.machine.network.Topology` whose hop
  counts delay messages and whose links accumulate traffic,
* I-structure *deferred reads*: a request for a cell whose producer has
  not yet executed parks until the write happens (§3),
* *partial pages*: a fetched page snapshots only the cells defined at
  fetch time; touching a cell produced later forces a re-fetch — the
  §8 caveat that "a single page might have to be fetched more than
  once if that page is only partially filled at the time of the first
  request",
* two execution modes — ``blocking`` (the PE stalls on every remote
  fetch) and ``multithreaded`` (the PE parks the waiting iteration and
  runs ahead, the paper's "during this remote read the requesting PE
  can perform other useful work", §4),
* both reduction strategies: ``host`` (every fold funnels through the
  accumulator's owner — plain owner-computes replay) and ``subrange``
  (folds run where their data lives via the *same*
  :func:`~repro.core.simulator.subrange_placement` the untimed
  simulator uses; once every fold of an accumulator has retired, its
  host gathers one partial per contributing PE over the network and
  performs the final write, releasing any reader deferred on the
  accumulator cell),
* optional per-link bandwidth: with
  ``CostModel(contention_model="per-link")`` every message occupies
  each link on its route for ``message_bytes / link_bandwidth``
  cycles and queues behind traffic already holding the link, so the
  contention the untimed model only *counts* feeds back into
  completion time (``contention_delay_cycles`` in the result).

Determinism: every event is a tuple ``(time, seq, kind, a, b)`` on one
:class:`~repro.machine.event.EventQueue` heap — a PE burst, a fetch
completion, a subrange combine, or a per-link reservation.  A message
carries its continuation as data (a *step* code plus the fetch record or
gather it belongs to), never as a closure, and the uncontended network
is plain synchronous accounting over memoised routes.  Ties in ``time``
break on ``seq``, the global scheduling order, and that order is part
of the physics, not bookkeeping: which of two simultaneous events runs
first decides which PE counts a write first, whether a page snapshot
predates a write (and so whether a later read refetches), whether a
request defers, and — under per-link contention — which message queues
behind which.  Events are therefore scheduled in exactly the order of
the reference loop in ``tests/timed_reference.py``, which the fidelity
suite holds this one to field for field, and repeated runs produce
identical cycle counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cache import PageCache, make_cache
from ..core.access import AccessKind
from ..core.simulator import (
    MachineConfig,
    SubrangeGroup,
    _owners_by_array,
    subrange_groups,
    subrange_placement,
)
from ..core.stats import AccessStats
from ..ir.trace import Trace
from ..memory.pages import PageTable
from ..obs.profile import phase as _phase
from .event import EventQueue
from .network import Topology, make_topology
from .pe import CostModel, PEState

__all__ = ["TimedMachine", "TimedResult", "run_compacted", "serial_time"]

Cell = int  # composite (array_id << 44) | flat

# Event kinds, the ``kind`` of a heap entry ``(time, seq, kind, a, b)``.
_BURST = 0  # a = PE: run it until it parks or runs out of work
_FETCH_DONE = 1  # a = fetch record, b = reply arrival time
_COMBINE = 2  # a = accumulator cell, b = its SubrangeGroup
_RESERVE = 3  # a = (src, dst, payload, step, occupancy), b = step data

# Message steps: what a message does when it lands.  Odd steps are
# replies (latency grows with the payload), even steps are requests.
_PAGE_REQUEST = 0  # data = fetch record
_PAGE_REPLY = 1  # data = fetch record
_PARTIAL_REQUEST = 2  # data = (_Gather, contributor)
_PARTIAL_REPLY = 3  # data = _Gather

# A fetch record is the tuple
# ``(pe, instance, cursor, page key, cell, owner, page elements)``:
# the parked context is ``(instance, cursor)``, ``cursor`` being the
# absolute index of the read the reply satisfies.

_LOCAL = int(AccessKind.LOCAL_READ)
_CACHED = int(AccessKind.CACHED_READ)
_REMOTE = int(AccessKind.REMOTE_READ)
_WRITE = int(AccessKind.WRITE)


def _cell(arr: int, flat: int) -> Cell:
    return (arr << 44) | flat


def _view(column: np.ndarray) -> memoryview:
    """Zero-copy view whose items index as plain Python ints."""
    return memoryview(np.ascontiguousarray(column))


@dataclass
class TimedResult:
    """Outcome of one timed run."""

    config: MachineConfig
    topology: str
    mode: str
    finish_time: float
    per_pe_finish: np.ndarray
    stats: AccessStats
    stall_time: np.ndarray
    messages: int
    total_hops: int
    refetches: int
    deferred_reads: int
    contention: dict[str, float]

    @property
    def contention_delay_cycles(self) -> float:
        """Cycles messages spent queueing for (or draining over) links."""
        return self.contention["contention_delay_cycles"]

    @property
    def remote_read_pct(self) -> float:
        return self.stats.remote_read_pct

    def speedup(self, serial_time: float) -> float:
        return serial_time / self.finish_time if self.finish_time else 1.0


class _Gather:
    """One accumulator's combine in flight at its host."""

    __slots__ = ("cell", "group", "latest", "waiting")

    def __init__(self, cell: Cell, group: SubrangeGroup, start: float, waiting: int):
        self.cell = cell
        self.group = group
        self.latest = start  # latest arrival so far (the gather's start)
        self.waiting = waiting  # partials still in flight


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
        if max_outstanding < 1:
            raise ValueError("max_outstanding must be at least 1")
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
        self.tables = [PageTable(size, config.page_size) for size in trace.array_sizes]
        with _phase("setup"):
            self._build_placement()
            self._build_columns()
            self._build_memory_state()
        n_pes = config.n_pes
        self._has_cache = config.has_cache
        self._contended = self.costs.contended
        self._caches: list[PageCache] = [
            make_cache(config.cache_policy, config.cache_pages) for _ in range(n_pes)
        ]
        self._fetch_time: list[dict[tuple[int, int], float]] = [
            {} for _ in range(n_pes)
        ]
        # Contexts resumed by a reply, as (instance, read cursor).  A
        # stack: the latest resumed context runs before anything else.
        self._resumed: list[list[tuple[int, int]]] = [[] for _ in range(n_pes)]
        # Per PE, how many of its instances have started.
        self._started = [0] * n_pes
        self._outstanding = [0] * n_pes
        self._burst_scheduled = [False] * n_pes
        # Access counters as plain ints, folded into ``stats`` by run():
        # reads and combine writes per (kind, PE, array); an instance's
        # write carries no array id, so it is counted per PE only.
        self._n_arrays = len(trace.array_names)
        self._kind_stride = n_pes * self._n_arrays
        self._tally = [0] * (len(AccessKind) * self._kind_stride)
        self._instance_writes = [0] * n_pes
        # src * n_pes + dst -> (hops, links, request latency, reply
        # latency before payload); see _route.
        self._routes: dict[int, tuple[int, tuple, float, float]] = {}
        self._page_elems: dict[tuple[int, int], int] = {}
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
            self.exec_pe = subrange_placement(tr, self.tables, cfg, self.exec_pe)
            self._combine_of = {
                _cell(g.array_id, g.flat): g
                for g in subrange_groups(tr, self.tables, cfg, self.exec_pe)
            }
        r_pages = tr.r_flat // cfg.page_size
        self.r_owner = _owners_by_array(
            tr.r_arr, r_pages, self.tables, cfg.partition, cfg.n_pes
        )
        self.r_pages = r_pages

    def _build_columns(self) -> None:
        """Zero-copy per-access columns and each PE's instance list."""
        tr = self.trace
        self._r_ptr = _view(tr.r_ptr)
        self._r_arr = _view(tr.r_arr)
        self._r_flat = _view(tr.r_flat)
        self._r_pages = _view(self.r_pages)
        self._r_owner = _view(self.r_owner)
        # Each PE's instances in trace order: one stable sort, sliced.
        order = _view(np.argsort(self.exec_pe, kind="stable"))
        per_pe = np.bincount(self.exec_pe, minlength=self.config.n_pes)
        ends = np.cumsum(per_pe).tolist()
        self._pes = [
            PEState(pe, instances=order[lo:hi])
            for pe, (lo, hi) in enumerate(zip([0, *ends[:-1]], ends))
        ]

    def _build_memory_state(self) -> None:
        """Per-cell write bookkeeping for deferred reads & partial pages."""
        tr = self.trace
        w_cell = (tr.w_arr.astype(np.int64) << 44) | tr.w_flat
        self._w_cell = _view(w_cell)
        cells, counts = np.unique(w_cell, return_counts=True)
        cells = cells.tolist()
        # Writes each cell still awaits.  A subrange accumulator only
        # becomes defined when its host's combine performs the final
        # write — one write beyond the trace's folds — so readers defer
        # until the gather completes.
        self._writes_left: dict[Cell, int] = dict(zip(cells, counts.tolist()))
        for cell in self._combine_of:
            self._writes_left[cell] += 1
        # When each written cell became fully defined: None until then.
        # Cells never written are initialisation data (§3), available
        # from time 0, so ``_write_time.get(cell, 0.0)`` is the cell's
        # availability.
        self._write_time: dict[Cell, float | None] = dict.fromkeys(cells)
        # When each accumulator's last trace write *completes* in
        # simulated time (bursts run far ahead of queue.now, so the
        # counting order alone must not time the gather).
        self._acc_write_time: dict[Cell, float] = {}
        # Deferred reads parked per cell: (request arrival, fetch record).
        self._deferred: dict[Cell, list] = {}

    # -- main loop -------------------------------------------------------------
    def run(self) -> TimedResult:
        n_pes = self.config.n_pes
        for pe in range(n_pes):
            self._schedule_burst(pe, 0.0)
        handlers = (self._burst, self._fetch_done, self._combine, self._reserve)
        with _phase("event_loop"):
            self.queue.run(handlers, max_events=20_000_000)
        # Every instance ends in exactly one write; any missing one is
        # still parked (on a fetch or a deferred read) or never ran.
        if sum(self._instance_writes) != self.trace.n_instances:
            raise RuntimeError("simulation drained with unfinished work")
        shape = (len(AccessKind), n_pes, self._n_arrays)
        tally = np.asarray(self._tally, dtype=np.int64).reshape(shape)
        self.stats.counts += tally.sum(axis=2).T
        self.stats.counts[:, _WRITE] += self._instance_writes
        self.stats.by_array += tally.sum(axis=1).T
        per_pe_finish = np.asarray([state.busy_until for state in self._pes])
        return TimedResult(
            config=self.config,
            topology=self.topology.name,
            mode=self.mode,
            finish_time=float(per_pe_finish.max(initial=0.0)),
            per_pe_finish=per_pe_finish,
            stats=self.stats,
            stall_time=np.asarray([state.stall_time for state in self._pes]),
            messages=self.messages,
            total_hops=self.total_hops,
            refetches=self.refetches,
            deferred_reads=self.deferred_reads,
            contention=self.topology.contention_summary(),
        )

    def _count(self, kind: int, pe: int, arr: int) -> None:
        self._tally[kind * self._kind_stride + pe * self._n_arrays + arr] += 1

    def _schedule_burst(self, pe: int, at: float) -> None:
        if self._burst_scheduled[pe]:
            return
        self._burst_scheduled[pe] = True
        self.queue.schedule(max(at, self.queue.now), _BURST, pe)

    def _burst(self, pe: int, _: object = None) -> None:
        """Run the PE until it has no ready work or saturates outstanding.

        Contexts run in the order resumed-first (latest resumed on
        top), then never-started instances in trace order.  Each read
        is local, a valid cache hit, or parks its context on a page
        fetch; a completed instance computes and writes.  The PE's
        clock lives in ``busy`` and is written back before anything
        that reads it.
        """
        self._burst_scheduled[pe] = False
        now = self.queue.now
        state = self._pes[pe]
        busy = state.busy_until
        instances = state.instances
        n_instances = len(instances)
        resumed = self._resumed[pe]
        started = self._started[pe]
        r_ptr, r_arr, r_flat = self._r_ptr, self._r_arr, self._r_flat
        r_pages, r_owner, w_cell = self._r_pages, self._r_owner, self._w_cell
        costs = self.costs
        local_read, cached_read = costs.local_read, costs.cached_read
        per_instance = costs.compute_per_statement + costs.write
        tally = self._tally
        local_row = _LOCAL * self._kind_stride + pe * self._n_arrays
        cached_row = _CACHED * self._kind_stride + pe * self._n_arrays
        cache = self._caches[pe] if self._has_cache else None
        fetch_time = self._fetch_time[pe]
        write_time = self._write_time
        writes_left = self._writes_left
        combine_of = self._combine_of
        deferred = self._deferred
        instance_writes = self._instance_writes
        outstanding = self._outstanding
        max_outstanding = self.max_outstanding
        while True:
            if resumed:
                instance, cursor = resumed.pop()
            elif started < n_instances:
                instance = instances[started]
                started += 1
                cursor = r_ptr[instance]
            else:
                break
            end = r_ptr[instance + 1]
            while cursor < end:
                arr = r_arr[cursor]
                owner = r_owner[cursor]
                if owner == pe:
                    if busy < now:
                        busy = now
                    busy += local_read
                    tally[local_row + arr] += 1
                    cursor += 1
                    continue
                key = (arr, r_pages[cursor])
                cell = (arr << 44) | r_flat[cursor]
                if cache is not None and cache.contains(key):
                    # A valid hit needs the cell defined when the cached
                    # page was fetched (partial pages, §8).
                    available = write_time.get(cell, 0.0)
                    if available is not None and available <= fetch_time[key]:
                        if busy < now:
                            busy = now
                        busy += cached_read
                        cache.access(key)  # refresh recency
                        tally[cached_row + arr] += 1
                        cursor += 1
                        continue
                    self.refetches += 1
                    state.refetches += 1
                if busy < now:
                    busy = now
                state.busy_until = busy
                self._fetch(pe, instance, cursor, key, cell, owner, busy)
                break
            else:
                # All reads satisfied: compute and write.
                if busy < now:
                    busy = now
                busy += per_instance
                instance_writes[pe] += 1
                cell = w_cell[instance]
                left = writes_left[cell] - 1
                writes_left[cell] = left
                if left == 0:
                    write_time[cell] = busy
                    if cell in deferred:
                        self._release_waiters(cell, busy)
                elif combine_of:
                    self._fold_written(cell, left, busy)
                continue
            # The context parked on a fetch.  A blocking PE (or one at
            # its outstanding limit) stops; a multithreaded PE moves on
            # to the next ready context.
            if outstanding[pe] >= max_outstanding:
                break
        state.busy_until = busy
        self._started[pe] = started

    def _fold_written(self, cell: Cell, left: int, done: float) -> None:
        """Time a subrange accumulator's combine once its folds retire.

        When only the host's final write remains, the gather begins at
        the *slowest* counted fold's completion in simulated time — a
        PE's burst counts its folds while its local clock is already
        far past queue.now, so the counting order alone would start
        the combine early.
        """
        group = self._combine_of.get(cell)
        if group is None:
            return
        latest = max(self._acc_write_time.get(cell, 0.0), done)
        self._acc_write_time[cell] = latest
        if left == 1:
            self.queue.schedule(latest, _COMBINE, cell, group)

    # -- messaging ------------------------------------------------------------
    def _route(self, src: int, dst: int) -> tuple[int, tuple, float, float]:
        """``(hops, links, request latency, reply latency sans payload)``.

        A reply's latency is ``reply + per_element * payload``; the
        memoised part is the first two terms of
        :meth:`CostModel.reply_latency`, summed in its order, so every
        latency is bit-identical to the cost model's.
        """
        key = src * self.config.n_pes + dst
        entry = self._routes.get(key)
        if entry is None:
            costs = self.costs
            hops, links = self.topology.path(src, dst)
            entry = (
                hops,
                links,
                costs.request_latency(hops),
                costs.reply_overhead + costs.per_hop * hops,
            )
            self._routes[key] = entry
        return entry

    def _send(
        self, src: int, dst: int, depart: float, payload: int, step: int, data
    ) -> None:
        """Put one message on the wire at ``depart`` (simulated time).

        The message lands at ``depart`` + its closed-form latency (+
        link-queueing delay), where ``_LANDERS[step](self, data,
        arrival)`` continues the protocol.

        Without link occupancy (``contention_model="none"``, or
        infinite bandwidth) the transmit is pure accounting — the
        route's link traffic, one message, its hops — and the message
        lands *synchronously*.  With occupancy, the link reservation is
        deferred to a ``_RESERVE`` event at ``depart``: a PE's burst
        calls this while its local clock runs far ahead of
        ``queue.now``, so reserving at call time would queue messages
        in event-processing order and charge a message delay behind
        traffic that departs *later* in simulated time.  Routing
        reservations through the event queue orders them causally.
        """
        costs = self.costs
        occupancy = costs.occupancy(payload) if self._contended else 0.0
        if occupancy != 0.0:
            message = (src, dst, payload, step, occupancy)
            self.queue.schedule(depart, _RESERVE, message, data)
            return
        hops, links, request, reply = self._route(src, dst)
        traffic = self.topology.link_traffic
        for link in links:
            traffic[link] = traffic.get(link, 0) + 1
        self.messages += 1
        self.total_hops += hops
        if step & 1:
            arrival = depart + (reply + costs.per_element * payload)
        else:
            arrival = depart + request
        _LANDERS[step](self, data, arrival)

    def _reserve(self, message: tuple, data) -> None:
        """A contended message departs now: hold its links, then land."""
        src, dst, payload, step, occupancy = message
        depart = self.queue.now
        hops, queued = self.topology.transmit(src, dst, at=depart, occupancy=occupancy)
        self.messages += 1
        self.total_hops += hops
        _, _, request, reply = self._route(src, dst)
        if step & 1:
            latency = reply + self.costs.per_element * payload
        else:
            latency = request
        _LANDERS[step](self, data, depart + latency + queued)

    # -- remote fetches -------------------------------------------------------------
    def _fetch(
        self,
        pe: int,
        instance: int,
        cursor: int,
        key: tuple[int, int],
        cell: Cell,
        owner: int,
        depart: float,
    ) -> None:
        """Issue a page request; the context parks until the reply."""
        self._pes[pe].requests_sent += 1
        self._outstanding[pe] += 1
        page_elems = self._page_elems.get(key)
        if page_elems is None:
            page_elems = self.tables[key[0]].elements_in_page(key[1])
            self._page_elems[key] = page_elems
        fetch = (pe, instance, cursor, key, cell, owner, page_elems)
        self._send(pe, owner, depart, 0, _PAGE_REQUEST, fetch)

    def _page_request_landed(self, fetch: tuple, arrival: float) -> None:
        cell = fetch[4]
        available = self._write_time.get(cell, 0.0)
        if available is None:
            # I-structure deferred read: parked at the owner until the
            # producing write happens (§3).
            self.deferred_reads += 1
            self._deferred.setdefault(cell, []).append((arrival, fetch))
            return
        self._reply(fetch, max(arrival, available))

    def _reply(self, fetch: tuple, ready: float) -> None:
        """The owner sends the page once the requested cell is ready."""
        self._send(fetch[5], fetch[0], ready, fetch[6], _PAGE_REPLY, fetch)

    def _page_reply_landed(self, fetch: tuple, arrival: float) -> None:
        now = self.queue.now
        self.queue.schedule(max(arrival, now), _FETCH_DONE, fetch, arrival)

    def _fetch_done(self, fetch: tuple, arrival: float) -> None:
        pe, instance, cursor, key = fetch[0], fetch[1], fetch[2], fetch[3]
        state = self._pes[pe]
        stall_start = state.busy_until
        if arrival > stall_start:
            state.stall_time += arrival - stall_start
        state.busy_until = max(state.busy_until, arrival)
        if self._has_cache:
            self._caches[pe].access(key)
            self._fetch_time[pe][key] = arrival
            self._prune_fetch_times(pe)
        self._count(_REMOTE, pe, key[0])
        # The fetched read is satisfied by the reply itself; resume
        # after it, ahead of every other ready context.
        self._outstanding[pe] -= 1
        self._resumed[pe].append((instance, cursor + 1))
        self._schedule_burst(pe, state.busy_until)

    def _prune_fetch_times(self, pe: int) -> None:
        """Drop fetch times of pages the cache has evicted.

        A stale entry is never consulted — a page only becomes
        resident again through a fetch, which overwrites its entry —
        so pruning only bounds memory, and doing it once the book
        holds twice the cache's capacity keeps it amortised O(1).
        """
        cache = self._caches[pe]
        book = self._fetch_time[pe]
        if len(book) > 2 * cache.capacity_pages:
            resident = set(cache.resident_keys())
            for key in [k for k in book if k not in resident]:
                del book[key]

    def _release_waiters(self, cell: Cell, write_time: float) -> None:
        for arrival, fetch in self._deferred.pop(cell, ()):
            self._reply(fetch, max(write_time, arrival))

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
        host = group.host
        start = max(self._pes[host].busy_until, self.queue.now)
        remotes = [c for c in group.contributors if c != host]
        gather = _Gather(cell, group, start, len(remotes))
        if not remotes:
            self._combined(gather)
            return
        for contributor in remotes:
            self._count(_REMOTE, host, group.array_id)
            part = (gather, contributor)
            self._send(host, contributor, start, 0, _PARTIAL_REQUEST, part)

    def _partial_request_landed(self, part: tuple, arrival: float) -> None:
        gather, contributor = part
        host = gather.group.host
        self._send(contributor, host, arrival, 1, _PARTIAL_REPLY, gather)

    def _partial_reply_landed(self, gather: _Gather, arrival: float) -> None:
        if arrival > gather.latest:
            gather.latest = arrival
        gather.waiting -= 1
        if gather.waiting == 0:
            self._combined(gather)

    def _combined(self, gather: _Gather) -> None:
        """Every partial is in: fold locally, write, release readers."""
        costs = self.costs
        group = gather.group
        host = group.host
        state = self._pes[host]
        done_time = gather.latest
        if group.local_partials:
            done_time += costs.local_read
            self._count(_LOCAL, host, group.array_id)
        done_time += costs.write
        self._count(_WRITE, host, group.array_id)
        state.busy_until = max(state.busy_until, done_time)
        cell = gather.cell
        self._writes_left[cell] -= 1
        self._write_time[cell] = done_time
        self._release_waiters(cell, done_time)


#: The handler a message runs when it lands, indexed by its step.  Plain
#: functions, not bound methods: a machine holding its own bound methods
#: would be a reference cycle, left for the cyclic collector to free.
_LANDERS = (
    TimedMachine._page_request_landed,
    TimedMachine._page_reply_landed,
    TimedMachine._partial_request_landed,
    TimedMachine._partial_reply_landed,
)


def _analytic_ok(superops, config: MachineConfig, costs: CostModel, mode: str) -> bool:
    """Can a super-op trace be timed analytically, bit-identically?

    The closed form multiplies steady-state charges by trip counts,
    which is exact only when the event machine degenerates to
    independent per-PE arithmetic:

    * ``blocking`` mode — one outstanding fetch, the PE's local clock
      is a pure sum of charges;
    * no link occupancy — ``transmit`` is synchronous accounting, so
      no event from one PE can delay another;
    * a page cache — the cacheless machine re-fetches per read, whose
      page bookkeeping the untimed engine also declines to collapse;
    * no array both written and read — rules out deferred reads,
      refetches and snapshot invalidation (every read's cell is
      initialisation data, available at t=0), and keeps PEs causally
      independent;
    * no subrange reductions (the combine gather is a cross-PE event
      cascade);
    * nonnegative cost fields that are multiples of 1/8 — every charge
      is then a dyadic rational, every partial sum in either engine is
      exactly representable, so *any* summation order reproduces the
      event order bit for bit.
    """
    if mode != "blocking" or not config.has_cache:
        return False
    if costs.contended and costs.link_bandwidth != float("inf"):
        return False
    if config.reduction_strategy == "subrange" and superops.has_reductions:
        return False
    for value in (
        costs.compute_per_statement,
        costs.local_read,
        costs.cached_read,
        costs.write,
        costs.request_overhead,
        costs.reply_overhead,
        costs.per_hop,
        costs.per_element,
    ):
        if value < 0 or not float(value * 8).is_integer():
            return False
    written: set[int] = set(np.unique(superops.f_w_arr).tolist())
    read: set[int] = set(np.unique(superops.f_r_arr).tolist())
    for op in superops.ops:
        written.update(np.unique(op.b_w_arr).tolist())
        read.update(np.unique(op.b_r_arr).tolist())
    return not (written & read)


def run_compacted(
    trace: Trace,
    superops,
    config: MachineConfig,
    *,
    topology: str | Topology = "crossbar",
    costs: CostModel | None = None,
    mode: str = "blocking",
    max_outstanding: int = 4,
) -> TimedResult:
    """Timed result of ``trace`` using its super-op view analytically.

    When :func:`_analytic_ok` holds, the timed machine's charges
    decompose into independent per-PE sums: the super-op replay engine
    (:func:`repro.core.superop_replay.replay_superops`) produces the
    exact per-(PE, array) hit counts and per-(PE, page) miss counts,
    and N steady-state iterations are charged as count x latency —
    bit-identical to the event loop because every addend is an exactly
    representable dyadic float.  Otherwise — or when the view does not
    :func:`~repro.core.superop_replay.closes` under this geometry, so
    there is no ledger to charge from — this falls back to the full
    :class:`TimedMachine` on the flat trace.
    """
    from ..core.superop_replay import TimedLedger, closes, replay_superops

    if max_outstanding < 1:
        raise ValueError("max_outstanding must be at least 1")
    costs = costs if costs is not None else CostModel()
    if not (_analytic_ok(superops, config, costs, mode) and closes(superops, config)):
        return TimedMachine(
            trace,
            config,
            topology=topology,
            costs=costs,
            mode=mode,
            max_outstanding=max_outstanding,
        ).run()
    topo = (
        topology
        if isinstance(topology, Topology)
        else make_topology(topology, config.n_pes)
    )
    if topo.n_pes != config.n_pes:
        raise ValueError("topology size disagrees with config")
    tables = [PageTable(size, config.page_size) for size in trace.array_sizes]

    ledger = TimedLedger(config.n_pes, len(trace.array_names))
    with _phase("superop_replay"):
        replay_superops(superops, config, ledger=ledger)

    stats = AccessStats(config.n_pes, trace.array_names)
    busy = np.zeros(config.n_pes, dtype=np.float64)
    stall = np.zeros(config.n_pes, dtype=np.float64)
    per_instance = costs.compute_per_statement + costs.write
    with _phase("analytic"):
        for pe in range(config.n_pes):
            writes = int(ledger.writes[pe])
            if writes:
                stats.add(pe, AccessKind.WRITE, writes)
                busy[pe] += writes * per_instance
            for arr in np.flatnonzero(ledger.local[pe]).tolist():
                n = int(ledger.local[pe, arr])
                stats.add(pe, AccessKind.LOCAL_READ, n, array_id=arr)
                busy[pe] += n * costs.local_read
            for arr in np.flatnonzero(ledger.cached[pe]).tolist():
                n = int(ledger.cached[pe, arr])
                stats.add(pe, AccessKind.CACHED_READ, n, array_id=arr)
                busy[pe] += n * costs.cached_read
        messages = 0
        total_hops = 0
        for (pe, arr, page), count in ledger.misses.items():
            table = tables[arr]
            owner = config.partition.owner_of(page, table.n_pages, config.n_pes)
            req_hops, req_links = topo.path(pe, owner)
            rep_hops, rep_links = topo.path(owner, pe)
            reply = costs.reply_latency(rep_hops, table.elements_in_page(page))
            latency = costs.request_latency(req_hops) + reply
            stats.add(pe, AccessKind.REMOTE_READ, count, array_id=arr)
            busy[pe] += count * latency
            stall[pe] += count * latency
            messages += 2 * count
            total_hops += count * (req_hops + rep_hops)
            for key in req_links + rep_links:
                topo.link_traffic[key] = topo.link_traffic.get(key, 0) + count
    return TimedResult(
        config=config,
        topology=topo.name,
        mode=mode,
        finish_time=float(busy.max(initial=0.0)),
        per_pe_finish=busy,
        stats=stats,
        stall_time=stall,
        messages=messages,
        total_hops=total_hops,
        refetches=0,
        deferred_reads=0,
        contention=topo.contention_summary(),
    )


def serial_time(trace: Trace, costs: CostModel | None = None) -> float:
    """Cycle count of the same trace on one PE (everything local)."""
    costs = costs if costs is not None else CostModel()
    n = trace.n_instances
    return float(
        n * (costs.compute_per_statement + costs.write)
        + trace.n_reads * costs.local_read
    )
