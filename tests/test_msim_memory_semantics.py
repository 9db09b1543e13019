"""Timed-machine memory semantics: deferred reads and partial pages.

These tests hand-craft traces with TraceBuilder to force the two §3/§8
mechanisms that natural kernels only exercise incidentally:

* a request for a cell whose producer has not executed yet must park at
  the owner (deferred read) and resume after the write;
* a page fetched while partially filled must be *re-fetched* when a
  later read touches a cell produced after the snapshot ("a single page
  might have to be fetched more than once if that page is only
  partially filled at the time of the first request", §8).
"""

from __future__ import annotations

import pytest

from repro.core import MachineConfig, simulate
from repro.ir import TraceBuilder
from repro.machine import CostModel, TimedMachine

PS = 4  # page size used throughout


def make_trace(instances, arrays):
    """instances: list of (write (arr, flat), reads [(arr, flat), ...])."""
    tb = TraceBuilder([a for a, _ in arrays], [s for _, s in arrays])
    for (w_arr, w_flat), reads in instances:
        for r_arr, r_flat in reads:
            tb.record_read(tb.array_id(r_arr), r_flat)
        tb.commit_instance(0, tb.array_id(w_arr), w_flat, False)
    return tb.freeze()


def pe0_filler(count):
    """Writes to Z cells in even pages — all owned by PE 0 (modulo, 2 PEs)."""
    cells = [
        page * PS + off
        for page in (0, 2, 4, 6)
        for off in range(PS)
    ]
    return [(("Z", cells[i]), []) for i in range(count)]


class TestDeferredReads:
    def test_consumer_waits_for_producer(self):
        """PE1 reaches its read of X[0] long before PE0 (stuck behind
        filler work) produces it — the request must defer, not fail.

        The consumer follows the producer in *program* order (a valid
        sequential schedule), but PE1 has no earlier work of its own, so
        in machine time the request arrives first.  PE0 additionally
        starts with a remote read of initialisation data, so it yields
        the event loop before producing X[0]."""
        arrays = [("X", 2 * PS), ("Y", 2 * PS), ("Z", 8 * PS)]
        # PE0's opener reads Y[PS+3]: never written (init data, §3) but
        # remote, forcing PE0 to stall across an event boundary.
        opener = [(("Z", 0), [("Y", PS + 3)])]
        filler = pe0_filler(16)[1:]  # Z[0] already used by the opener
        instances = (
            opener + filler + [(("X", 0), [])] + [(("Y", PS), [("X", 0)])]
        )
        trace = make_trace(instances, arrays)
        cfg = MachineConfig(n_pes=2, page_size=PS, cache_elems=0)
        result = TimedMachine(trace, cfg, mode="blocking").run()
        assert result.deferred_reads == 1
        # Two remote reads: PE0's opener plus the deferred consumer read.
        assert result.stats.remote_reads == 2

    def test_cyclic_deferral_is_reported_not_dropped(self):
        """X[0] (PE0) needs Y[PS] and Y[PS] (PE1) needs X[0]: each
        request defers on the other's write, the queue drains, and the
        run must fail loudly instead of returning partial counters.
        (Such a trace has no valid sequential order; only hand-built
        traces can pose it.)"""
        arrays = [("X", 2 * PS), ("Y", 2 * PS)]
        instances = [(("X", 0), [("Y", PS)]), (("Y", PS), [("X", 0)])]
        trace = make_trace(instances, arrays)
        cfg = MachineConfig(n_pes=2, page_size=PS, cache_elems=0)
        for mode in ("blocking", "multithreaded"):
            with pytest.raises(RuntimeError, match="unfinished work"):
                TimedMachine(trace, cfg, mode=mode).run()

    def test_deferred_read_resumes_after_write_time(self):
        arrays = [("X", 2 * PS), ("Y", 2 * PS), ("Z", 8 * PS)]
        filler = pe0_filler(16)
        instances = filler + [(("X", 0), [])] + [(("Y", PS), [("X", 0)])]
        trace = make_trace(instances, arrays)
        cfg = MachineConfig(n_pes=2, page_size=PS, cache_elems=0)
        costs = CostModel()
        result = TimedMachine(trace, cfg, costs=costs, mode="blocking").run()
        # PE1 cannot finish before the producer's write completes.
        producer_time = (len(filler) + 1) * (
            costs.compute_per_statement + costs.write
        )
        assert result.per_pe_finish[1] > producer_time


class TestPartialPages:
    def test_stale_snapshot_forces_refetch(self):
        """PE1 caches X page 0 while only X[0] is defined; a later read
        of X[1] (produced afterwards) must re-fetch the page."""
        arrays = [("X", 2 * PS), ("Y", 2 * PS), ("Z", 8 * PS)]
        instances = (
            [(("X", 0), [])]                        # PE0 defines X[0]
            + [(("Y", PS), [("X", 0)])]             # PE1 fetches page 0 (partial)
            + pe0_filler(16)                        # PE0 grinds away
            + [(("X", 1), [])]                      # X[1] defined late
            + [(("Y", PS + 1), [("X", 1)])]         # PE1 reads X[1]: stale page
        )
        trace = make_trace(instances, arrays)
        cfg = MachineConfig(n_pes=2, page_size=PS, cache_elems=8 * PS)
        result = TimedMachine(trace, cfg, mode="blocking").run()
        assert result.refetches >= 1
        # Both reads crossed the network: snapshot + refetch.
        assert result.stats.remote_reads == 2

    def test_complete_page_is_not_refetched(self):
        """If every cell was defined at fetch time, later reads hit."""
        arrays = [("X", 2 * PS), ("Y", 2 * PS)]
        instances = (
            [(("X", i), []) for i in range(PS)]       # PE0 fills page 0
            + [(("Y", PS), [("X", 0)])]               # PE1 fetches page 0
            + [(("Y", PS + 1), [("X", 1)])]           # hits the snapshot
            + [(("Y", PS + 2), [("X", 2)])]
        )
        trace = make_trace(instances, arrays)
        cfg = MachineConfig(n_pes=2, page_size=PS, cache_elems=8 * PS)
        result = TimedMachine(trace, cfg, mode="blocking").run()
        assert result.refetches == 0
        assert result.stats.remote_reads == 1
        assert result.stats.cached_reads == 2

    def test_untimed_simulator_sees_no_refetches(self):
        """The untimed model is order-free: the same trace shows one
        remote read per page, which is exactly the gap the timed model
        was built to expose (§8)."""
        arrays = [("X", 2 * PS), ("Y", 2 * PS), ("Z", 8 * PS)]
        instances = (
            [(("X", 0), [])]
            + [(("Y", PS), [("X", 0)])]
            + pe0_filler(16)
            + [(("X", 1), [])]
            + [(("Y", PS + 1), [("X", 1)])]
        )
        trace = make_trace(instances, arrays)
        cfg = MachineConfig(n_pes=2, page_size=PS, cache_elems=8 * PS)
        untimed = simulate(trace, cfg)
        timed = TimedMachine(trace, cfg, mode="blocking").run()
        assert untimed.stats.remote_reads == 1
        assert timed.stats.remote_reads == 2  # refetch visible only timed


class TestInitializationData:
    def test_never_written_cells_are_available_from_time_zero(self):
        """Cells absent from the write set are §3 initialisation data."""
        arrays = [("X", 2 * PS), ("Y", 2 * PS)]
        instances = [(("Y", PS), [("X", 3)])]  # X[3] never written
        trace = make_trace(instances, arrays)
        cfg = MachineConfig(n_pes=2, page_size=PS, cache_elems=0)
        result = TimedMachine(trace, cfg).run()
        assert result.deferred_reads == 0
        assert result.stats.remote_reads == 1
