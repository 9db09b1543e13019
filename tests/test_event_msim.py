"""Event queue and the timed machine simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import kernel_trace
from repro.core import MachineConfig, simulate
from repro.machine import CostModel, EventQueue, TimedMachine, serial_time
from repro.kernels import get_kernel


class TestEventQueue:
    """Events are tuples ``(kind, a, b)`` dispatched to ``handlers[kind]``."""

    @staticmethod
    def recorder(seen):
        """A one-kind handler table that logs each event's ``a``."""
        return (lambda a, b: seen.append(a),)

    def test_fires_in_time_order(self):
        q = EventQueue()
        seen = []
        q.schedule(3.0, 0, "c")
        q.schedule(1.0, 0, "a")
        q.schedule(2.0, 0, "b")
        assert q.run(self.recorder(seen)) == 3.0
        assert seen == ["a", "b", "c"]

    def test_ties_break_by_scheduling_order(self):
        q = EventQueue()
        seen = []
        q.schedule(1.0, 0, "first")
        q.schedule(1.0, 0, "second")
        q.run(self.recorder(seen))
        assert seen == ["first", "second"]

    def test_kinds_dispatch_to_their_handlers(self):
        q = EventQueue()
        seen = []
        handlers = (
            lambda a, b: seen.append(("zero", a, b)),
            lambda a, b: seen.append(("one", a, b)),
        )
        q.schedule(1.0, 1, "x", 7)
        q.schedule(2.0, 0, "y")
        q.run(handlers)
        assert seen == [("one", "x", 7), ("zero", "y", None)]

    def test_schedule_during_run(self):
        q = EventQueue()
        seen = []

        def cascade(a, b):
            seen.append(a)
            if a == "outer":
                q.schedule_after(1.0, 0, "inner")

        q.schedule(1.0, 0, "outer")
        assert q.run((cascade,)) == 2.0
        assert seen == ["outer", "inner"]

    def test_past_scheduling_rejected(self):
        q = EventQueue()
        q.schedule(5.0, 0)
        with pytest.raises(ValueError, match="past"):
            q.run((lambda a, b: q.schedule(1.0, 0),))

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().schedule_after(-1.0, 0)

    def test_event_budget(self):
        q = EventQueue()

        def forever(a, b):
            q.schedule_after(1.0, 0)

        q.schedule(0.0, 0)
        with pytest.raises(RuntimeError, match="budget"):
            q.run((forever,), max_events=10)
        assert q.events_processed == 10


@pytest.fixture(scope="module")
def hydro():
    program, inputs = get_kernel("hydro_fragment").build(n=400)
    return kernel_trace(program, inputs)


@pytest.fixture(scope="module")
def iccg():
    program, inputs = get_kernel("iccg").build(n=256)
    return kernel_trace(program, inputs)


class TestBlockingMode:
    def test_counters_match_untimed_simulator(self, hydro):
        """In blocking mode the per-PE access order equals the untimed
        simulator's, so all four counters must agree exactly."""
        for pes in (1, 4, 8):
            for cache in (0, 256):
                cfg = MachineConfig(n_pes=pes, page_size=32, cache_elems=cache)
                timed = TimedMachine(hydro, cfg, mode="blocking").run()
                untimed = simulate(hydro, cfg)
                assert np.array_equal(timed.stats.counts, untimed.stats.counts)

    def test_iccg_deferred_free_in_trace_order(self, iccg):
        """ICCG consumers always follow their producers in trace order,
        and blocking execution preserves enough of it that the run
        completes (no deadlock) with bounded deferred reads."""
        cfg = MachineConfig(n_pes=8, page_size=32, cache_elems=256)
        result = TimedMachine(iccg, cfg, mode="blocking").run()
        assert result.finish_time > 0

    def test_single_pe_equals_serial_time(self, hydro):
        cfg = MachineConfig(n_pes=1, page_size=32, cache_elems=0)
        result = TimedMachine(hydro, cfg).run()
        assert result.finish_time == pytest.approx(serial_time(hydro))

    def test_speedup_bounded_by_pe_count(self, hydro):
        for pes in (2, 4, 8, 16):
            cfg = MachineConfig(n_pes=pes, page_size=32, cache_elems=256)
            result = TimedMachine(hydro, cfg).run()
            s = result.speedup(serial_time(hydro))
            assert 0 < s <= pes + 1e-9

    def test_deterministic(self, hydro):
        cfg = MachineConfig(n_pes=8, page_size=32, cache_elems=256)
        a = TimedMachine(hydro, cfg).run()
        b = TimedMachine(hydro, cfg).run()
        assert a.finish_time == b.finish_time
        assert a.messages == b.messages


class TestMultithreadedMode:
    def test_latency_hiding_speeds_things_up(self, hydro):
        """'During this remote read the requesting PE can perform other
        useful work' (§4): with expensive fetches, parking the waiting
        iteration must not be slower than stalling."""
        costs = CostModel(request_overhead=200.0, reply_overhead=200.0)
        cfg = MachineConfig(n_pes=8, page_size=32, cache_elems=0)
        blocking = TimedMachine(hydro, cfg, costs=costs, mode="blocking").run()
        threaded = TimedMachine(
            hydro, cfg, costs=costs, mode="multithreaded", max_outstanding=8
        ).run()
        assert threaded.finish_time < blocking.finish_time

    def test_read_conservation(self, hydro):
        cfg = MachineConfig(n_pes=8, page_size=32, cache_elems=256)
        result = TimedMachine(hydro, cfg, mode="multithreaded").run()
        assert result.stats.total_reads == hydro.n_reads

    def test_invalid_mode(self, hydro):
        with pytest.raises(ValueError, match="unknown mode"):
            TimedMachine(
                hydro, MachineConfig(n_pes=2, page_size=32), mode="simd"
            )

    @pytest.mark.parametrize("mode", ["blocking", "multithreaded"])
    @pytest.mark.parametrize("max_outstanding", [0, -3])
    def test_invalid_max_outstanding(self, hydro, mode, max_outstanding):
        """A PE can't run with fewer than one fetch in flight; the
        machine must say so rather than silently run with one."""
        with pytest.raises(ValueError, match="max_outstanding"):
            TimedMachine(
                hydro,
                MachineConfig(n_pes=2, page_size=32),
                mode=mode,
                max_outstanding=max_outstanding,
            )


class TestNetworkEffects:
    def test_more_hops_cost_more_time(self, hydro):
        cfg = MachineConfig(n_pes=16, page_size=32, cache_elems=0)
        crossbar = TimedMachine(hydro, cfg, topology="crossbar").run()
        ring = TimedMachine(hydro, cfg, topology="ring").run()
        mesh = TimedMachine(hydro, cfg, topology="mesh2d").run()
        # Modulo partitioning maps neighbouring pages to neighbouring
        # PEs, so the skewed loop's traffic is nearest-neighbour: a ring
        # serves it as well as a full crossbar...
        assert ring.total_hops == crossbar.total_hops
        assert ring.finish_time == crossbar.finish_time
        # ...while a 2-D mesh folds the ring and pays extra hops.
        assert mesh.total_hops > crossbar.total_hops
        assert mesh.finish_time > crossbar.finish_time

    def test_messages_counted_both_directions(self, hydro):
        cfg = MachineConfig(n_pes=4, page_size=32, cache_elems=256)
        result = TimedMachine(hydro, cfg).run()
        # request + reply per remote read
        assert result.messages == 2 * result.stats.remote_reads

    def test_topology_size_mismatch(self, hydro):
        from repro.machine import Ring

        with pytest.raises(ValueError, match="disagrees"):
            TimedMachine(
                hydro, MachineConfig(n_pes=4, page_size=32), topology=Ring(8)
            )

    def test_contention_reported(self, hydro):
        cfg = MachineConfig(n_pes=8, page_size=32, cache_elems=0)
        result = TimedMachine(hydro, cfg, topology="mesh2d").run()
        assert result.contention["messages_per_link_max"] >= 1.0


class TestCostModel:
    def test_latencies(self):
        costs = CostModel(
            request_overhead=10, per_hop=2, reply_overhead=20, per_element=0.5
        )
        assert costs.request_latency(3) == 16
        assert costs.reply_latency(3, 32) == 20 + 6 + 16

    def test_stall_time_accumulates_in_blocking_mode(self, hydro):
        cfg = MachineConfig(n_pes=8, page_size=32, cache_elems=0)
        result = TimedMachine(hydro, cfg, mode="blocking").run()
        assert result.stall_time.sum() > 0
