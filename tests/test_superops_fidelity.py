"""The generative cyclic-trace fidelity wall for super-op replay.

``repro.ir.superops`` collapses repeated affine access-pattern bodies
into parameterized super-ops; three engines then execute a super-op in
one step instead of ``trip_count``: the scalar/columnar untimed
engines via :func:`repro.core.superop_replay.replay_superops` (misses
decided once per steady-state window, with an explicit scalar trip
loop for bodies that reach no cache fixed point) and the timed machine
via :func:`repro.machine.msim.run_compacted` (N iterations of
steady-state latency charged analytically).  None of that is allowed
to be *visible*: every counter, latency and message count must equal
the flat replay bit for bit.

This suite holds the whole stack to that contract generatively —
``tests/strategies.py`` draws traces with reductions, future reads,
imperfect tails and nested cycles (``cyclic_traces``) — plus
deterministic detector unit tests, the store-format-v2 round trip and
the backend-dispatch envelope.  Views that do not close under a
machine geometry (``strided_traces``: a stream stepping a page or more
per trip) must never be replayed op by op: every backend routes them
to its flat engine, bit-identically.  The nightly ``vec-fuzz`` CI job
re-runs it at the ``ci-deep`` hypothesis profile.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import Scenario, evaluate_scenario, untimed, untimed_vec
from repro.bench import kernel_trace
from repro.core import MachineConfig, simulate, simulate_vec
from repro.core import superop_replay
from repro.core.superop_replay import TimedLedger, closes, replay_superops
from repro.ir import TraceBuilder
from repro.ir.superops import SuperOpTrace, compact
from repro.kernels import get_kernel
from repro.machine import CostModel, TimedMachine
from repro.machine.msim import _analytic_ok, run_compacted
from strategies import (
    cyclic_traces,
    machine_configs,
    strided_traces,
    sweep_traces,
)

# Local floor of 200 generated examples; the nightly ci-deep profile
# raises settings.default.max_examples past it.
_EXAMPLES = max(200, settings.default.max_examples)


def assert_sim_identical(flat, compacted) -> None:
    """Bit-exact equality of everything a SimResult reports."""
    assert np.array_equal(flat.stats.counts, compacted.stats.counts)
    assert np.array_equal(flat.stats.by_array, compacted.stats.by_array)
    assert np.array_equal(flat.page_fetches, compacted.page_fetches)
    assert np.array_equal(
        flat.distinct_pages_fetched, compacted.distinct_pages_fetched
    )


def assert_timed_identical(flat, compacted) -> None:
    """Bit-exact equality of everything a TimedResult reports."""
    assert flat.finish_time == compacted.finish_time
    assert np.array_equal(flat.per_pe_finish, compacted.per_pe_finish)
    assert np.array_equal(flat.stall_time, compacted.stall_time)
    assert np.array_equal(flat.stats.counts, compacted.stats.counts)
    assert np.array_equal(flat.stats.by_array, compacted.stats.by_array)
    assert flat.messages == compacted.messages
    assert flat.total_hops == compacted.total_hops
    assert flat.refetches == compacted.refetches
    assert flat.deferred_reads == compacted.deferred_reads
    assert flat.contention == compacted.contention


class TestCompactExpand:
    """compact() is lossless: expand() rebuilds the flat trace."""

    @settings(max_examples=_EXAMPLES, deadline=None)
    @given(trace=cyclic_traces())
    def test_roundtrip_bit_identical(self, trace):
        sot = compact(trace, min_trips=2, max_period=8)
        assert trace.identical(sot.expand())
        assert sot.n_stored_rows <= trace.n_instances

    @settings(max_examples=_EXAMPLES, deadline=None)
    @given(trace=cyclic_traces(timed_safe=True))
    def test_roundtrip_timed_safe(self, trace):
        sot = compact(trace, min_trips=2, max_period=8)
        assert trace.identical(sot.expand())


class TestUntimedFidelity:
    """The wall: compacted replay == flat replay, bit for bit, on the
    scalar and columnar untimed engines."""

    @settings(max_examples=_EXAMPLES, deadline=None)
    @given(trace=cyclic_traces(), config=machine_configs())
    def test_scalar_counters_bit_identical(self, trace, config):
        sot = compact(trace, min_trips=2, max_period=8)
        assert_sim_identical(
            simulate(trace, config), replay_superops(sot, config)
        )

    @settings(max_examples=_EXAMPLES, deadline=None)
    @given(trace=cyclic_traces(), config=machine_configs())
    def test_vec_counters_bit_identical(self, trace, config):
        """The columnar engine and the super-op engine answer to the
        same scalar reference, so this transitively pins all three."""
        sot = compact(trace, min_trips=2, max_period=8)
        assert_sim_identical(
            simulate_vec(trace, config), replay_superops(sot, config)
        )


# Three-sweep views compact their third sweep into a 3-statement
# stride-3 op whose streams step about a page per trip at page size 16,
# so such views do not close there; at 64 every drawn view closes and
# the warm-cache tests assert their decisions on every draw.
_SWEEP_PAGE = 64


class TestClosedFormCoverage:
    """The FIFO and warm-LRU closed forms actually *run* — telemetry
    proves the decisions took the columnar path, not the per-piece
    fallback — and the one honest wall left (warm FIFO, whose
    admission epochs are not reconstructible from the resident set)
    really does fall back.  Bit-identity rides along on every case."""

    @settings(max_examples=_EXAMPLES, deadline=None)
    @given(trace=sweep_traces())
    def test_warm_lru_back_to_back_ops_stay_closed(self, trace):
        """Every sweep after the first enters with a warm cache; the
        seeded reuse-distance profile must keep all of them on the
        closed form (`superop_piece_pes == 0`)."""
        sot = compact(trace, min_trips=4, max_period=8)
        assert len(sot.ops) >= 2
        config = MachineConfig(
            n_pes=2,
            page_size=_SWEEP_PAGE,
            cache_elems=512,
            cache_policy="lru",
        )
        assert config.cache_pages == 8
        assert closes(sot, config)
        telemetry: dict[str, int] = {}
        assert_sim_identical(
            simulate(trace, config),
            replay_superops(sot, config, telemetry=telemetry),
        )
        assert telemetry["mode"] == "superop"
        assert telemetry["superop_piece_pes"] == 0
        assert telemetry["fallback_pes"] == 0
        assert telemetry["superop_closed_pes"] > 0

    @settings(max_examples=_EXAMPLES, deadline=None)
    @given(trace=sweep_traces(min_sweeps=1, max_sweeps=1))
    def test_fifo_over_capacity_stays_closed(self, trace):
        """A cold over-capacity FIFO sweep must solve through the
        eviction-epoch fixed point, not the per-piece walk."""
        sot = compact(trace, min_trips=4, max_period=8)
        config = MachineConfig(
            n_pes=2, page_size=16, cache_elems=32, cache_policy="fifo"
        )
        assert config.cache_pages == 2  # far under the sweep's pages
        telemetry: dict[str, int] = {}
        assert_sim_identical(
            simulate(trace, config),
            replay_superops(sot, config, telemetry=telemetry),
        )
        assert telemetry["superop_piece_pes"] == 0
        assert telemetry["fallback_pes"] == 0
        assert telemetry["superop_closed_pes"] > 0

    @settings(max_examples=60, deadline=None)
    @given(trace=sweep_traces())
    def test_warm_fifo_falls_back_per_piece(self, trace):
        """The honest wall: sweeps after the first enter warm, and a
        FIFO queue's epochs cannot be seeded — those PEs must take
        the per-piece walk, bit-identically."""
        sot = compact(trace, min_trips=4, max_period=8)
        config = MachineConfig(
            n_pes=2,
            page_size=_SWEEP_PAGE,
            cache_elems=128,
            cache_policy="fifo",
        )
        assert config.cache_pages == 2
        assert closes(sot, config)
        telemetry: dict[str, int] = {}
        assert_sim_identical(
            simulate(trace, config),
            replay_superops(sot, config, telemetry=telemetry),
        )
        assert telemetry["superop_piece_pes"] > 0


@contextlib.contextmanager
def untimed_routes():
    """Spy on the engines both untimed backends can replay through."""
    targets = {
        "untimed_vec.replay_superops": (untimed_vec, "replay_superops"),
        "untimed_vec.simulate_vec": (untimed_vec, "simulate_vec"),
        "untimed.replay_superops": (untimed, "replay_superops"),
        "untimed.simulate": (untimed, "simulate"),
    }
    with contextlib.ExitStack() as stack:
        yield {
            key: stack.enter_context(
                mock.patch.object(module, name, wraps=getattr(module, name))
            )
            for key, (module, name) in targets.items()
        }


class TestViewsThatDoNotClose:
    """A view with an op that steps a page or more per trip does not
    close: every caller replays the flat trace instead of the view,
    bit-identically to the scalar oracle."""

    @settings(max_examples=_EXAMPLES, deadline=None)
    @given(trace=strided_traces(), config=machine_configs())
    def test_backends_take_the_flat_route(self, trace, config):
        sot = compact(trace, min_trips=2, max_period=8)
        assert sot.ops and not closes(sot, config)
        oracle = simulate(trace, config)
        trace.attach_superops(sot)
        try:
            with untimed_routes() as routes:
                outcomes = [
                    evaluate_scenario(
                        trace, Scenario(config=config, backend=backend)
                    )
                    for backend in ("untimed-vec", "untimed")
                ]
        finally:
            trace.attach_superops(None)
        assert routes["untimed_vec.replay_superops"].call_count == 0
        assert routes["untimed.replay_superops"].call_count == 0
        (vec_call,) = routes["untimed_vec.simulate_vec"].call_args_list
        (scalar_call,) = routes["untimed.simulate"].call_args_list
        # The flat trace the backend already holds, not an expansion.
        assert vec_call.args[0] is trace and scalar_call.args[0] is trace
        assert vec_call.args[2]["mode"] == "flat"
        for outcome in outcomes:
            assert np.array_equal(outcome.stats.counts, oracle.stats.counts)
            assert np.array_equal(
                outcome.stats.by_array, oracle.stats.by_array
            )
            assert np.array_equal(
                outcome.per_pe["page_fetches"], oracle.page_fetches
            )
            assert np.array_equal(
                outcome.per_pe["distinct_pages_fetched"],
                oracle.distinct_pages_fetched,
            )

    @settings(max_examples=_EXAMPLES, deadline=None)
    @given(trace=strided_traces(), config=machine_configs())
    def test_direct_replay_delegates(self, trace, config):
        sot = compact(trace, min_trips=2, max_period=8)
        telemetry: dict[str, int] = {}
        assert_sim_identical(
            simulate(trace, config),
            replay_superops(sot, config, telemetry=telemetry),
        )
        assert telemetry["mode"] == "flat"
        ledger = TimedLedger(config.n_pes, len(sot.array_names))
        with pytest.raises(ValueError, match="does not close"):
            replay_superops(sot, config, ledger=ledger)

    @settings(max_examples=_EXAMPLES, deadline=None)
    @given(
        trace=strided_traces(),
        config=machine_configs(max_pes=8).filter(lambda c: c.has_cache),
        topology=st.sampled_from(("crossbar", "ring", "bus")),
    )
    def test_timed_falls_back_to_the_event_loop(
        self, trace, config, topology
    ):
        """Analytic timing needs the replay ledger, which only a
        closing view yields: such a view passes ``_analytic_ok`` yet
        must be timed by the event loop."""
        sot = compact(trace, min_trips=2, max_period=8)
        assert _analytic_ok(sot, config, CostModel(), "blocking")
        assert not closes(sot, config)
        flat = TimedMachine(trace, config, topology=topology).run()
        with mock.patch.object(
            TimedMachine, "run", autospec=True, side_effect=TimedMachine.run
        ) as event_loop, mock.patch.object(
            superop_replay, "replay_superops", side_effect=AssertionError
        ):
            compacted = run_compacted(trace, sot, config, topology=topology)
        assert event_loop.call_count == 1
        assert_timed_identical(flat, compacted)


class TestTimedFidelity:
    """run_compacted == TimedMachine on timed-valid cyclic traces,
    through both the analytic fast path and the event-loop fallback."""

    @settings(max_examples=_EXAMPLES, deadline=None)
    @given(
        trace=cyclic_traces(timed_safe=True),
        config=machine_configs(max_pes=8),
        topology=st.sampled_from(("crossbar", "ring", "bus")),
    )
    def test_timed_bit_identical(self, trace, config, topology):
        sot = compact(trace, min_trips=2, max_period=8)
        flat = TimedMachine(trace, config, topology=topology).run()
        assert_timed_identical(
            flat, run_compacted(trace, sot, config, topology=topology)
        )

    @settings(max_examples=60, deadline=None)
    @given(
        trace=cyclic_traces(timed_safe=True),
        config=machine_configs(max_pes=8),
    )
    def test_non_dyadic_costs_fall_back(self, trace, config):
        """Costs outside the exact-float guard take the event loop —
        trivially identical, but the dispatch must stay lossless."""
        costs = CostModel(per_element=0.3)
        sot = compact(trace, min_trips=2, max_period=8)
        flat = TimedMachine(trace, config, costs=costs).run()
        assert_timed_identical(
            flat, run_compacted(trace, sot, config, costs=costs)
        )


class TestStoreFormatV2:
    """Super-op shards round-trip losslessly and keep their digests."""

    @settings(max_examples=_EXAMPLES, deadline=None)
    @given(trace=cyclic_traces())
    def test_save_load_roundtrip(self, trace):
        import tempfile
        from pathlib import Path

        sot = compact(trace, min_trips=2, max_period=8)
        trace.attach_superops(sot)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.npz"
            trace.save(path, compact=True)
            loaded = type(trace).load(path)
        assert trace.identical(loaded)
        assert trace.content_digest == loaded.content_digest
        if sot.ops and sot.n_stored_rows <= trace.n_instances // 2:
            # Profitable views persist in the v2 layout and come back.
            reloaded = loaded.attached_superops()
            assert reloaded is not None
            assert len(reloaded.ops) == len(sot.ops)

    @settings(max_examples=60, deadline=None)
    @given(trace=cyclic_traces())
    def test_payload_roundtrip(self, trace):
        sot = compact(trace, min_trips=2, max_period=8)
        payload = sot.to_payload()
        back = SuperOpTrace.from_payload(
            sot.array_names,
            sot.array_sizes,
            sot.n_instances,
            {k: np.asarray(v) for k, v in payload.items()},
        )
        assert sot.expand().identical(back.expand())


def _stencil_trace(n: int = 64, prologue: int = 3) -> "TraceBuilder":
    builder = TraceBuilder(["a", "b"], [n + 2, n + 2])
    for i in range(prologue):  # irregular warm-up the body must skip
        builder.record_read(0, 0)
        builder.commit_instance(1, 1, n + 1 - i, False)
    for i in range(n):
        builder.record_read(0, i)
        builder.record_read(0, i + 2)
        builder.commit_instance(0, 1, i + 1, False)
    return builder.freeze()


class TestDetector:
    """Deterministic shape checks on what compact() proves."""

    def test_stencil_sweep_collapses(self):
        trace = _stencil_trace()
        sot = compact(trace, min_trips=4, max_period=8)
        assert len(sot.ops) == 1
        (op,) = sot.ops
        assert op.body_len == 1
        assert op.trips == 64
        assert sot.n_residual == 3
        assert np.array_equal(op.r_stride, [1, 1])
        assert np.array_equal(op.w_stride, [1])

    def test_min_trips_respected(self):
        trace = _stencil_trace(n=6)
        assert compact(trace, min_trips=8, max_period=8).ops == ()
        # At 3, both the 3-instance prologue (itself affine, stride
        # -1) and the 6-trip sweep clear the bar.
        sot = compact(trace, min_trips=3, max_period=8)
        assert [op.trips for op in sot.ops] == [3, 6]

    def test_min_trips_validates(self):
        with pytest.raises(ValueError, match="min_trips"):
            compact(_stencil_trace(n=8), min_trips=1)

    def test_nested_cycle_finds_smallest_period(self):
        # body = [stmt0, stmt0, stmt1] x 12.  At min_trips=2 the
        # greedy smallest-p scan rightly collapses each stmt0 pair as
        # its own 2-trip p=1 op; at 4 those pairs no longer qualify
        # and the provable period is the full 3-statement body.
        builder = TraceBuilder(["x", "y"], [128, 128])
        for k in range(12):
            builder.record_read(1, 2 * k)
            builder.commit_instance(0, 0, 3 * k, False)
            builder.record_read(1, 2 * k + 1)
            builder.commit_instance(0, 0, 3 * k + 1, False)
            builder.commit_instance(1, 0, 3 * k + 2, False)
        trace = builder.freeze()
        sot = compact(trace, min_trips=4, max_period=8)
        assert len(sot.ops) == 1
        assert sot.ops[0].body_len == 3
        assert sot.ops[0].trips == 12
        assert sot.coverage == 1.0

        shallow = compact(trace, min_trips=2, max_period=8)
        assert all(op.body_len == 1 for op in shallow.ops)
        assert trace.identical(shallow.expand())

    def test_imperfect_tail_stays_residual(self):
        builder = TraceBuilder(["x", "y"], [64, 64])
        for k in range(10):
            builder.record_read(1, k)
            builder.commit_instance(0, 0, k, False)
        builder.record_read(1, 10)  # tail: read pattern continues...
        builder.commit_instance(0, 0, 63, False)  # ...write breaks it
        sot = compact(builder.freeze(), min_trips=2, max_period=4)
        assert len(sot.ops) == 1
        assert sot.ops[0].trips == 10
        assert sot.n_residual == 1

    def test_kernel_grid_compacts(self):
        """The paper's stencil-sweep kernels collapse nearly whole."""
        for name, n, floor in (
            ("hydro_fragment", 200, 0.99),
            ("first_diff", 200, 0.99),
            ("tri_diagonal", 200, 0.99),
            ("linear_recurrence", 100, 0.90),
        ):
            program, inputs = get_kernel(name).build(n=n)
            trace = kernel_trace(program, inputs)
            sot = compact(trace)
            assert sot.coverage >= floor, (name, sot.coverage)
            assert trace.identical(sot.expand())


class TestBackendDispatch:
    """Attached super-ops reroute all three backends, invisibly."""

    @pytest.fixture(scope="class")
    def stencil(self):
        program, inputs = get_kernel("hydro_fragment").build(n=300)
        return kernel_trace(program, inputs)

    @pytest.mark.parametrize("backend", ["untimed", "untimed-vec", "timed"])
    def test_outcomes_bit_identical(self, stencil, backend):
        config = MachineConfig(n_pes=8, page_size=16, cache_elems=64)
        scenario = Scenario(config=config, backend=backend)
        flat = evaluate_scenario(stencil, scenario)

        sot = compact(stencil)
        assert sot.ops, "stencil sweep must compact"
        stencil.attach_superops(sot)
        try:
            via_ops = evaluate_scenario(stencil, scenario)
        finally:
            stencil.attach_superops(None)
        # Physics only: the engines count their fallbacks differently.
        assert flat.identical(via_ops)
