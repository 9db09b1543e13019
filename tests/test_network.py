"""Network topologies: closed-form distances validated against networkx."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.machine import (
    Bus,
    Crossbar,
    Hypercube,
    Mesh2D,
    Ring,
    Torus2D,
    canonical_topology,
    make_topology,
    topology_names,
)


class TestFactory:
    def test_names(self):
        for name in ("bus", "crossbar", "ring", "mesh2d", "torus2d", "hypercube"):
            n = 8
            topo = make_topology(name, n)
            assert topo.n_pes == n
            assert topo.name == name
            assert name in topology_names()

    def test_aliases(self):
        assert canonical_topology("mesh") == "mesh2d"
        assert canonical_topology("torus") == "torus2d"
        assert make_topology("mesh", 8).name == "mesh2d"
        assert make_topology("torus", 8).name == "torus2d"

    def test_unknown(self):
        with pytest.raises(KeyError):
            make_topology("zigzag", 8)
        with pytest.raises(KeyError):
            canonical_topology("zigzag")

    def test_hypercube_needs_power_of_two(self):
        with pytest.raises(ValueError):
            Hypercube(12)

    def test_needs_pes(self):
        with pytest.raises(ValueError):
            Ring(0)

    def test_torus_default_grid_is_full(self):
        assert (Torus2D(8).rows, Torus2D(8).cols) == (4, 2)
        assert (Torus2D(16).rows, Torus2D(16).cols) == (4, 4)
        assert (Torus2D(5).rows, Torus2D(5).cols) == (5, 1)  # prime: a ring

    def test_torus_rejects_partial_grid(self):
        with pytest.raises(ValueError):
            Torus2D(10, cols=4)


@pytest.mark.parametrize(
    "topo",
    [
        Ring(9),
        Ring(2),
        Mesh2D(12, cols=4),
        Mesh2D(16),
        Hypercube(16),
        Crossbar(6),
        Torus2D(12, cols=4),
        Torus2D(16),
        Torus2D(8),
        Torus2D(5),
    ],
    ids=lambda t: f"{t.name}-{t.n_pes}",
)
class TestClosedFormsAgainstNetworkx:
    def test_hops_match_shortest_paths(self, topo):
        graph = topo.graph()
        lengths = dict(nx.all_pairs_shortest_path_length(graph))
        for src in range(topo.n_pes):
            for dst in range(topo.n_pes):
                assert topo.hops(src, dst) == lengths[src][dst], (
                    f"{topo.name}: hops({src},{dst})"
                )

    def test_routes_have_hop_length_and_connect(self, topo):
        for src in range(topo.n_pes):
            for dst in range(topo.n_pes):
                route = topo.route(src, dst)
                assert len(route) == topo.hops(src, dst)
                if route:
                    assert route[0][0] == src
                    assert route[-1][1] == dst
                    for (a, b), (c, d) in zip(route, route[1:]):
                        assert b == c

    def test_route_links_are_edges(self, topo):
        edges = {tuple(sorted(e)) for e in topo.edges()}
        for src in range(topo.n_pes):
            for dst in range(topo.n_pes):
                for link in topo.route(src, dst):
                    assert tuple(sorted(link)) in edges

    def test_path_is_the_canonical_route(self, topo):
        """The memoised path is the route, hop count and canonical link
        keys, computed once per pair."""
        for src in range(topo.n_pes):
            for dst in range(topo.n_pes):
                canonical = tuple(tuple(sorted(link)) for link in topo.route(src, dst))
                assert topo.path(src, dst) == (topo.hops(src, dst), canonical)
                assert topo.path(src, dst) is topo.path(src, dst)


class TestBus:
    def test_single_hop_everywhere(self):
        bus = Bus(8)
        assert bus.hops(0, 7) == 1
        assert bus.hops(3, 3) == 0

    def test_all_traffic_shares_the_medium(self):
        bus = Bus(4)
        bus.record(0, 1)
        bus.record(2, 3)
        assert list(bus.link_traffic.values()) == [2]


class TestTraffic:
    def test_record_accumulates_per_link(self):
        ring = Ring(4)
        ring.record(0, 2)  # route 0-1-2 (or 0-3-2): 2 links
        summary = ring.contention_summary()
        assert summary["messages_per_link_max"] == 1.0
        assert sum(ring.link_traffic.values()) == 2

    def test_self_message_is_free(self):
        ring = Ring(4)
        assert ring.record(1, 1) == 0
        assert not ring.link_traffic

    def test_empty_summary(self):
        assert Ring(4).contention_summary()["messages_per_link_max"] == 0.0

    def test_bounds(self):
        with pytest.raises(IndexError):
            Ring(4).record(0, 4)


class TestMesh:
    def test_dimension_order_routing_x_first(self):
        mesh = Mesh2D(16, cols=4)
        route = mesh.route(0, 5)  # (0,0) -> (1,1)
        assert route[0] == (0, 1)  # X step first
        assert route[1] == (1, 5)  # then Y

    def test_default_cols_square(self):
        mesh = Mesh2D(16)
        assert mesh.cols == 4 and mesh.rows == 4


class TestHypercube:
    def test_dimension_count(self):
        assert Hypercube(16).dimensions == 4

    def test_hops_is_popcount(self):
        cube = Hypercube(8)
        assert cube.hops(0b000, 0b111) == 3
        assert cube.hops(0b101, 0b100) == 1
