"""Differential untimed-vs-timed fidelity: reductions and bandwidth.

The timed machine replays the same partitioning/ownership physics as
the untimed simulator, so wherever timing cannot change a counter the
two backends must agree **bit for bit**:

* with the cache off, every access classifies identically — for every
  reduction strategy on every topology (the subrange placement and
  combine grouping are literally shared code,
  :func:`repro.core.simulator.subrange_placement` /
  :func:`~repro.core.simulator.subrange_groups`);
* with a cache, the cached/remote split may diverge (the timed model's
  partial-page refetches are timing-dependent) but writes, local reads
  and read totals are structural;
* the bandwidth model is strictly additive: at ``link_bandwidth=inf``
  the per-link contention machinery charges exactly ``0.0`` cycles, so
  pre-bandwidth latencies reproduce bit for bit (property-tested
  across random cost models) and existing artifacts stay comparable.

``TestFrozenReference`` is the timed machine's own wall: the tuple-coded
event loop must reproduce, field for field and float for float, the
callback-per-message loop it replaced, frozen in
``tests/timed_reference.py``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.backends import (
    COST_MODEL_PRESETS,
    Scenario,
    cost_model,
    cost_model_names,
    evaluate_scenario,
)
from repro.bench import kernel_trace
from repro.core import AccessKind, MachineConfig, simulate
from repro.ir import TraceBuilder
from repro.kernels import get_kernel, paper_kernels
from repro.machine import CostModel, TimedMachine, make_topology
from strategies import machine_configs, traces
from timed_reference import TimedMachine as ReferenceMachine

STRATEGIES = ("host", "subrange")
TOPOLOGIES = ("crossbar", "bus", "ring", "mesh2d", "torus2d", "hypercube")
MODES = ("blocking", "multithreaded")
#: The default cost model and a per-link contended preset.
COSTS = ("default", "contended")


@pytest.fixture(scope="module")
def ip_trace():
    program, inputs = get_kernel("inner_product").build(n=400)
    return kernel_trace(program, inputs)


@pytest.fixture(scope="module")
def matmul_trace():
    program, inputs = get_kernel("matmul").build(n=10)
    return kernel_trace(program, inputs)


def config(strategy, **kw):
    defaults = dict(n_pes=16, page_size=32, cache_elems=0)
    defaults.update(kw)
    return MachineConfig(reduction_strategy=strategy, **defaults)


class TestDifferentialCounters:
    """Untimed and timed must agree on reduction *results*; only
    timing may differ."""

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_no_cache_counters_bit_identical(
        self, ip_trace, strategy, topology
    ):
        cfg = config(strategy)
        untimed = simulate(ip_trace, cfg)
        timed = TimedMachine(ip_trace, cfg, topology=topology).run()
        assert np.array_equal(untimed.stats.counts, timed.stats.counts)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_modes_do_not_change_counters(self, matmul_trace, strategy, mode):
        cfg = config(strategy, n_pes=8)
        untimed = simulate(matmul_trace, cfg)
        timed = TimedMachine(
            matmul_trace, cfg, topology="torus2d", mode=mode
        ).run()
        assert np.array_equal(untimed.stats.counts, timed.stats.counts)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_cached_counters_conserve_structural_totals(
        self, ip_trace, strategy
    ):
        cfg = config(strategy, cache_elems=256)
        untimed = simulate(ip_trace, cfg)
        timed = TimedMachine(ip_trace, cfg, topology="mesh2d").run()
        assert untimed.stats.writes == timed.stats.writes
        assert untimed.stats.local_reads == timed.stats.local_reads
        assert untimed.stats.total_reads == timed.stats.total_reads

    def test_subrange_adds_one_write_per_accumulator(self, matmul_trace):
        cfg = config("subrange", n_pes=8)
        timed = TimedMachine(matmul_trace, cfg, topology="mesh2d").run()
        n_cells = len(
            {
                (int(a), int(f))
                for a, f in zip(
                    matmul_trace.w_arr[matmul_trace.reduction_mask],
                    matmul_trace.w_flat[matmul_trace.reduction_mask],
                )
            }
        )
        assert timed.stats.writes == matmul_trace.n_instances + n_cells

    def test_subrange_spreads_folds_and_costs_combine_time(self, ip_trace):
        """Folds leave the host PE, and the gather is not free: the
        subrange run pays visible combine messages."""
        host = TimedMachine(
            ip_trace, config("host"), topology="mesh2d"
        ).run()
        subrange = TimedMachine(
            ip_trace, config("subrange"), topology="mesh2d"
        ).run()
        host_writes = host.stats.per_pe(AccessKind.WRITE)
        sub_writes = subrange.stats.per_pe(AccessKind.WRITE)
        assert (host_writes[1:] == 0).all()  # funnel through PE 0
        # Folds spread to every PE owning an input page (n=400 at page
        # size 32 is 13 pages, so 13 of the 16 PEs hold partials).
        assert (sub_writes > 0).sum() > 1
        # Local folds kill the funnel's fetch traffic; what's left is
        # the combine gather (2 messages per remote partial).
        assert subrange.messages < host.messages
        remote_partials = int((sub_writes > 0).sum()) - 1
        assert subrange.messages == 2 * remote_partials


class TestGenerativeDifferentialCounters:
    """The hand-picked kernel cases above, generalised: both fidelity
    suites now draw from the one generator in ``tests/strategies.py``.
    ``timed_safe`` traces respect single assignment and never read
    ahead of their producers, so the event machine always makes
    progress (an unconstrained trace could park a PE forever)."""

    @settings(max_examples=40, deadline=None)
    @given(
        trace=traces(timed_safe=True),
        config=machine_configs(),
        topology=st.sampled_from(TOPOLOGIES),
    )
    def test_no_cache_counters_bit_identical(self, trace, config, topology):
        # The hypercube is only defined for power-of-two PE counts.
        assume(topology != "hypercube" or config.n_pes & (config.n_pes - 1) == 0)
        cfg = config.without_cache()
        untimed = simulate(trace, cfg)
        timed = TimedMachine(trace, cfg, topology=topology).run()
        assert np.array_equal(untimed.stats.counts, timed.stats.counts)

    @settings(max_examples=40, deadline=None)
    @given(
        trace=traces(timed_safe=True),
        config=machine_configs(),
        mode=st.sampled_from(MODES),
    )
    def test_cached_counters_conserve_structural_totals(
        self, trace, config, mode
    ):
        untimed = simulate(trace, config)
        timed = TimedMachine(trace, config, topology="ring", mode=mode).run()
        assert untimed.stats.writes == timed.stats.writes
        assert untimed.stats.local_reads == timed.stats.local_reads
        assert untimed.stats.total_reads == timed.stats.total_reads


class TestDeferredReadsOnAccumulators:
    def test_consumer_defers_until_combine_completes(self):
        """A reader of a subrange accumulator parks until the host's
        final write, not until the last fold's partial."""
        ps = 4
        tb = TraceBuilder(["S", "X", "Z"], [ps, 4 * ps, 4 * ps])
        # Two folds into S[0] (owned by PE 0), reading X pages owned by
        # PE 0 and PE 1 — so PE 1 holds a partial that must travel.
        for flat in (0, ps):
            tb.record_read(tb.array_id("X"), flat)
            tb.commit_instance(0, tb.array_id("S"), 0, True)
        # PE 1's consumer reads the accumulator afterwards.
        tb.record_read(tb.array_id("S"), 0)
        tb.commit_instance(1, tb.array_id("Z"), ps, False)
        trace = tb.freeze()
        cfg = MachineConfig(
            n_pes=2, page_size=ps, cache_elems=0,
            reduction_strategy="subrange",
        )
        result = TimedMachine(trace, cfg, topology="ring").run()
        assert result.deferred_reads >= 1
        untimed = simulate(trace, cfg)
        assert np.array_equal(untimed.stats.counts, result.stats.counts)

    def test_combine_waits_for_the_slowest_fold(self):
        """The gather must begin when the last fold *completes in
        simulated time*, not when it is merely counted: a PE's burst
        counts its folds while its local clock is far ahead of
        queue.now.  Here the slow contributor is *remote* (the host's
        own clock cannot cover for it): PE 1 counts its fold early in
        event order but finishes it late, while the host's fold parks
        on a remote fetch and triggers the combine at a small clock —
        the reply from PE 1 must still carry a *finished* partial."""
        ps = 4
        filler = 40
        z_size = (3 * filler + 1) * ps
        tb = TraceBuilder(["S", "X", "Z"], [ps, 3 * ps, z_size])
        # Host fold on PE 0 (modulo, 3 PEs): first read local
        # (placement), second read remote, so the fold parks on a
        # fetch and is *counted* around t=50 with a small busy clock —
        # after PE 1's burst already counted the slow fold.
        tb.record_read(tb.array_id("X"), 0)  # page owned by PE 0
        tb.record_read(tb.array_id("X"), ps)  # page owned by PE 1
        tb.commit_instance(1, tb.array_id("S"), 0, True)
        # PE 1: filler then its fold — counted at t=0 in one burst,
        # but the fold only *completes* after the filler, ~200 cycles.
        for i in range(filler):
            tb.commit_instance(0, tb.array_id("Z"), (3 * i + 1) * ps, False)
        tb.record_read(tb.array_id("X"), ps)
        tb.commit_instance(1, tb.array_id("S"), 0, True)
        # An otherwise-idle consumer on PE 2 defers on the accumulator
        # with a *t=0* request, so its resume time is the combine's
        # final-write time, not its own program order.
        tb.record_read(tb.array_id("S"), 0)
        tb.commit_instance(2, tb.array_id("Z"), 2 * ps, False)
        trace = tb.freeze()
        cfg = MachineConfig(
            n_pes=3,
            page_size=ps,
            cache_elems=0,
            reduction_strategy="subrange",
        )
        result = TimedMachine(trace, cfg, topology="ring").run()
        # PE 1's partial cannot exist before its filler completes, and
        # the gather's request/reply round trip can only *start* after
        # that — so the consumer deferred on the accumulator (and with
        # it the finish time) must land beyond filler + one round
        # trip, however early the trigger was counted.
        costs = CostModel()
        slow_fold_done = filler * (
            costs.compute_per_statement + costs.write
        )
        gather_round_trip = costs.request_latency(1) + costs.reply_latency(
            1, 1
        )
        assert result.finish_time > slow_fold_done + gather_round_trip
        untimed = simulate(trace, cfg)
        assert np.array_equal(untimed.stats.counts, result.stats.counts)


class TestBandwidthModel:
    def test_presets_registered(self):
        assert {"contended", "infinite-bw"} <= set(cost_model_names())
        assert cost_model("contended").contended
        assert cost_model("infinite-bw").occupancy(64) == 0.0

    def test_cost_model_validation(self):
        with pytest.raises(ValueError, match="contention model"):
            CostModel(contention_model="per-pe")
        with pytest.raises(ValueError, match="bandwidth"):
            CostModel(link_bandwidth=0.0)
        with pytest.raises(ValueError, match="nonnegative"):
            CostModel(element_bytes=-1.0)

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_infinite_bw_reproduces_default_bit_for_bit(
        self, ip_trace, strategy, topology
    ):
        """The control preset: per-link machinery on, bandwidth
        infinite — every latency must equal the historical model's."""
        cfg = config(strategy, cache_elems=256)
        base = TimedMachine(ip_trace, cfg, topology=topology).run()
        inf_bw = TimedMachine(
            ip_trace, cfg, topology=topology,
            costs=cost_model("infinite-bw"),
        ).run()
        assert inf_bw.finish_time == base.finish_time
        assert np.array_equal(inf_bw.per_pe_finish, base.per_pe_finish)
        assert np.array_equal(inf_bw.stall_time, base.stall_time)
        assert inf_bw.contention_delay_cycles == 0.0

    def test_contended_preset_feeds_latency(self, ip_trace):
        cfg = config("subrange", cache_elems=256)
        base = TimedMachine(ip_trace, cfg, topology="mesh2d").run()
        contended = TimedMachine(
            ip_trace, cfg, topology="mesh2d", costs=cost_model("contended")
        ).run()
        assert contended.contention_delay_cycles > 0.0
        assert contended.finish_time > base.finish_time
        # Contention changes when things happen, never what happens.
        assert np.array_equal(contended.stats.counts, base.stats.counts)
        assert contended.messages == base.messages

    def test_link_reservations_are_causal(self):
        """A message departing early must not queue behind one that
        departs *later* in simulated time but was processed first:
        bursts run far ahead of queue.now, so reservations go through
        the event queue in departure order, not event order."""
        ps = 4
        filler = 200
        tb = TraceBuilder(["X", "Z"], [3 * ps, (3 * filler + 3) * ps])
        # PE 1's burst is processed before PE 2's, and only issues its
        # remote fetch after ~1000 cycles of local filler.
        for i in range(filler):
            tb.commit_instance(0, tb.array_id("Z"), (3 * i + 1) * ps, False)
        tb.record_read(tb.array_id("X"), 2 * ps)  # owned by PE 2: remote
        tb.commit_instance(1, tb.array_id("Z"), (3 * filler + 1) * ps, False)
        # PE 2 fetches immediately at t~0 over the same shared bus.
        tb.record_read(tb.array_id("X"), 0)  # owned by PE 0: remote
        tb.commit_instance(2, tb.array_id("Z"), (3 * filler + 2) * ps, False)
        trace = tb.freeze()
        cfg = MachineConfig(n_pes=3, page_size=ps, cache_elems=0)
        base = TimedMachine(trace, cfg, topology="bus").run()
        loaded = TimedMachine(
            trace, cfg, topology="bus", costs=cost_model("contended")
        ).run()
        # PE 2's t~0 fetch shares the bus with nothing at that time:
        # it may pay its own serialization, never PE 1's ~1000-cycle
        # head start in event-processing order.
        own_serialization = cost_model("contended").occupancy(
            0
        ) + cost_model("contended").occupancy(ps)
        assert (
            loaded.per_pe_finish[2]
            <= base.per_pe_finish[2] + own_serialization
        )

    def test_bus_contends_harder_than_crossbar(self, ip_trace):
        """One shared medium vs dedicated pairwise links: the same
        traffic must queue for strictly longer on the bus.  Needs
        multithreaded PEs — a blocking requester serializes its own
        messages, so nothing would ever share a link."""
        cfg = config("host")
        costs = cost_model("contended")
        bus = TimedMachine(
            ip_trace, cfg, topology="bus", costs=costs, mode="multithreaded"
        ).run()
        xbar = TimedMachine(
            ip_trace, cfg, topology="crossbar", costs=costs,
            mode="multithreaded",
        ).run()
        assert bus.contention_delay_cycles > xbar.contention_delay_cycles
        assert bus.finish_time > xbar.finish_time

    def test_backend_tags_records_with_contention_delay(self, ip_trace):
        scenario = Scenario(
            config=config("subrange"),
            backend="timed",
            topology="torus2d",
            cost_model="contended",
        )
        outcome = evaluate_scenario(ip_trace, scenario)
        assert outcome.metrics["contention_delay_cycles"] > 0.0
        quiet = evaluate_scenario(
            ip_trace,
            Scenario(
                config=config("subrange"),
                backend="timed",
                topology="torus2d",
            ),
        )
        assert quiet.metrics["contention_delay_cycles"] == 0.0

    @settings(max_examples=25, deadline=None)
    @given(
        preset=st.sampled_from(sorted(COST_MODEL_PRESETS)),
        n_pes=st.sampled_from([1, 2, 4, 8, 16]),
        topology=st.sampled_from(TOPOLOGIES),
        strategy=st.sampled_from(STRATEGIES),
        bandwidth=st.one_of(
            st.just(float("inf")),
            st.floats(min_value=0.5, max_value=64.0),
        ),
    )
    def test_zero_delay_iff_infinite_bandwidth(
        self, preset, n_pes, topology, strategy, bandwidth
    ):
        """Property: ``contention_delay_cycles == 0`` whenever
        ``link_bandwidth=inf``, whatever else the cost model says."""
        from dataclasses import replace

        program, inputs = get_kernel("inner_product").build(n=64)
        trace = kernel_trace(program, inputs)
        costs = replace(
            COST_MODEL_PRESETS[preset],
            link_bandwidth=bandwidth,
            contention_model="per-link",
        )
        cfg = config(strategy, n_pes=n_pes)
        result = TimedMachine(
            trace, cfg, topology=topology, costs=costs
        ).run()
        if bandwidth == float("inf"):
            assert result.contention_delay_cycles == 0.0
        else:
            assert result.contention_delay_cycles >= 0.0
        summary = result.contention
        assert (
            summary["contention_delay_cycles"]
            == result.contention_delay_cycles
        )


class TestLinkReservation:
    """Unit-level checks of Topology.transmit's queueing discipline."""

    def test_messages_queue_on_a_shared_link(self):
        topo = make_topology("ring", 4)
        hops, d1 = topo.transmit(0, 1, at=0.0, occupancy=3.0)
        assert (hops, d1) == (1, 3.0)  # serialization only
        _, d2 = topo.transmit(0, 1, at=0.0, occupancy=3.0)
        assert d2 == 6.0  # 3 queueing behind the first + 3 draining

    def test_disjoint_links_do_not_interact(self):
        topo = make_topology("crossbar", 4)
        _, d1 = topo.transmit(0, 1, at=0.0, occupancy=5.0)
        _, d2 = topo.transmit(2, 3, at=0.0, occupancy=5.0)
        assert d1 == d2 == 5.0

    def test_zero_occupancy_is_pure_accounting(self):
        topo = make_topology("mesh2d", 9)
        _, delay = topo.transmit(0, 8, at=10.0, occupancy=0.0)
        assert delay == 0.0
        assert topo.link_free == {}
        assert sum(topo.link_traffic.values()) == 4  # 4 hops recorded

    def test_record_still_counts_traffic(self):
        topo = make_topology("ring", 4)
        assert topo.record(0, 2) == 2
        assert sum(topo.link_traffic.values()) == 2
        assert topo.queueing_delay == 0.0


def assert_same_run(result, reference):
    """Every field of two TimedResults, with exact float equality."""
    assert result.config == reference.config
    assert result.topology == reference.topology
    assert result.mode == reference.mode
    assert result.finish_time == reference.finish_time
    assert result.per_pe_finish.dtype == reference.per_pe_finish.dtype
    assert result.per_pe_finish.tolist() == reference.per_pe_finish.tolist()
    assert result.stall_time.dtype == reference.stall_time.dtype
    assert result.stall_time.tolist() == reference.stall_time.tolist()
    assert result.stats.counts.tolist() == reference.stats.counts.tolist()
    assert result.stats.by_array.tolist() == reference.stats.by_array.tolist()
    assert result.messages == reference.messages
    assert result.total_hops == reference.total_hops
    assert result.refetches == reference.refetches
    assert result.deferred_reads == reference.deferred_reads
    assert result.contention == reference.contention


def run_both(trace, cfg, *, topology, costs, mode, max_outstanding=4):
    kwargs = dict(
        topology=topology,
        costs=cost_model(costs),
        mode=mode,
        max_outstanding=max_outstanding,
    )
    return (
        TimedMachine(trace, cfg, **kwargs).run(),
        ReferenceMachine(trace, cfg, **kwargs).run(),
    )


#: (n_pes, cache_elems, cache policy, mode, topology, costs, strategy)
KERNEL_POINTS = (
    (4, 256, "lru", "blocking", "crossbar", "default", "host"),
    (16, 0, "lru", "multithreaded", "mesh2d", "contended", "subrange"),
    (8, 256, "fifo", "multithreaded", "ring", "contended", "host"),
    (16, 256, "lru", "blocking", "torus2d", "default", "subrange"),
    (8, 0, "lru", "blocking", "bus", "contended", "subrange"),
    (4, 64, "direct", "multithreaded", "hypercube", "default", "host"),
)


@pytest.fixture(scope="module")
def small_paper_traces():
    traces_by_name = {}
    for kernel in paper_kernels():
        program, inputs = kernel.build(n=64)
        traces_by_name[kernel.name] = kernel_trace(program, inputs)
    return traces_by_name


class TestFrozenReference:
    """The tuple-coded event loop is the callback loop, bit for bit.

    ``TimedMachine`` schedules the same events in the same ``seq``
    order as the frozen reference, so every result field — clocks,
    stalls, counters, messages, refetches, deferrals and the
    contention summary — must be exactly equal, in every mode and
    under either contention model.
    """

    @settings(deadline=None)
    @given(
        trace=traces(timed_safe=True),
        config=machine_configs(),
        mode=st.sampled_from(MODES),
        topology=st.sampled_from(TOPOLOGIES),
        costs=st.sampled_from(COSTS),
        strategy=st.sampled_from(STRATEGIES),
        max_outstanding=st.integers(min_value=1, max_value=4),
    )
    def test_generated_traces(
        self, trace, config, mode, topology, costs, strategy, max_outstanding
    ):
        # The hypercube is only defined for power-of-two PE counts.
        assume(topology != "hypercube" or config.n_pes & (config.n_pes - 1) == 0)
        cfg = replace(config, reduction_strategy=strategy)
        result, reference = run_both(
            trace,
            cfg,
            topology=topology,
            costs=costs,
            mode=mode,
            max_outstanding=max_outstanding,
        )
        assert_same_run(result, reference)

    @pytest.mark.parametrize(
        "point", KERNEL_POINTS, ids=lambda p: "-".join(map(str, p))
    )
    @pytest.mark.parametrize("kernel", [k.name for k in paper_kernels()])
    def test_paper_kernels(self, small_paper_traces, kernel, point):
        pes, cache, policy, mode, topology, costs, strategy = point
        cfg = MachineConfig(
            n_pes=pes,
            page_size=8,
            cache_elems=cache,
            cache_policy=policy,
            reduction_strategy=strategy,
        )
        result, reference = run_both(
            small_paper_traces[kernel],
            cfg,
            topology=topology,
            costs=costs,
            mode=mode,
        )
        assert_same_run(result, reference)
