"""Interconnection network topologies and a latency/contention model.

Loosely-coupled MIMD machines of the paper's era were built around
buses, rings, 2-D meshes and hypercubes (cf. Reed & Fujimoto, the
paper's [R&F87]).  Each topology answers ``hops(src, dst)`` and
enumerates the links a (dimension-order-routed) message traverses, so
the machine simulator can both delay messages by distance and report
per-link traffic — the "network contention" the paper defers to future
work.

Hop counts use closed forms; :meth:`Topology.graph` exposes the same
topology as a ``networkx`` graph so tests can verify every closed form
against a shortest-path computation.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

__all__ = [
    "Bus",
    "Crossbar",
    "Hypercube",
    "Mesh2D",
    "Ring",
    "Topology",
    "Torus2D",
    "canonical_topology",
    "make_topology",
    "topology_names",
]

Link = tuple[int, int]


class Topology:
    """Base: a set of PEs with distances and deterministic routes."""

    name = "abstract"

    def __init__(self, n_pes: int) -> None:
        if n_pes <= 0:
            raise ValueError("need at least one PE")
        self.n_pes = n_pes
        self.link_traffic: dict[Link, int] = {}
        # Bandwidth bookkeeping: the time each link next drains, kept
        # only for messages transmitted with a nonzero occupancy.
        self.link_free: dict[Link, float] = {}
        self.queueing_delay = 0.0
        self._paths: dict[tuple[int, int], tuple[int, tuple[Link, ...]]] = {}

    # -- required ---------------------------------------------------------------
    def hops(self, src: int, dst: int) -> int:
        raise NotImplementedError

    def route(self, src: int, dst: int) -> list[Link]:
        """Directed links traversed from src to dst."""
        raise NotImplementedError

    def edges(self) -> list[Link]:
        """Undirected link list (canonical order src < dst)."""
        raise NotImplementedError

    def path(self, src: int, dst: int) -> tuple[int, tuple[Link, ...]]:
        """``(hops, links)`` of the src -> dst route, memoised.

        ``links`` are the route's links in traversal order, each in the
        canonical ``(min, max)`` form that keys :attr:`link_traffic`
        and :attr:`link_free`.
        """
        entry = self._paths.get((src, dst))
        if entry is None:
            self._check(src)
            self._check(dst)
            entry = (
                self.hops(src, dst),
                tuple((min(link), max(link)) for link in self.route(src, dst)),
            )
            self._paths[(src, dst)] = entry
        return entry

    # -- bookkeeping ---------------------------------------------------------------
    def record(self, src: int, dst: int) -> int:
        """Account one message's traffic; returns its hop count."""
        hops, _ = self.transmit(src, dst, at=0.0)
        return hops

    def transmit(
        self, src: int, dst: int, *, at: float, occupancy: float = 0.0
    ) -> tuple[int, float]:
        """Account one message and charge it link time.

        The message departs at ``at`` and holds every link on its
        deterministic route for ``occupancy`` cycles, store-and-forward:
        a link still draining earlier traffic queues the message until
        it frees.  Returns ``(hops, delay)`` where ``delay`` is the
        cycles lost to queueing *and* serialization past the departure
        time — the caller adds it on top of the closed-form latency.

        With ``occupancy=0.0`` (the ``"none"`` contention model, or
        infinite bandwidth) no link state is touched and the delay is
        exactly ``0.0``: pure traffic accounting, identical to the
        historical :meth:`record`.
        """
        hops, links = self.path(src, dst)
        t = at
        for key in links:
            self.link_traffic[key] = self.link_traffic.get(key, 0) + 1
            if occupancy > 0.0:
                t = max(t, self.link_free.get(key, 0.0))
                self.link_free[key] = t + occupancy
                t += occupancy
        delay = t - at
        self.queueing_delay += delay
        return hops, delay

    def contention_summary(self) -> dict[str, float]:
        """Aggregate link-load statistics after a run."""
        if not self.link_traffic:
            return {
                "messages_per_link_max": 0.0,
                "messages_per_link_mean": 0.0,
                "contention_delay_cycles": 0.0,
            }
        loads = np.asarray(list(self.link_traffic.values()), dtype=float)
        return {
            "messages_per_link_max": float(loads.max()),
            "messages_per_link_mean": float(loads.mean()),
            "contention_delay_cycles": float(self.queueing_delay),
        }

    def graph(self):
        """The topology as an undirected networkx graph (for validation)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n_pes))
        g.add_edges_from(self.edges())
        return g

    def _check(self, pe: int) -> None:
        if not 0 <= pe < self.n_pes:
            raise IndexError(f"PE {pe} out of range [0, {self.n_pes})")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n_pes={self.n_pes})"


class Bus(Topology):
    """A single shared medium: every transfer is one hop on one 'link'.

    All traffic shares the bus, so the contention summary degenerates
    to total message count — the architecture the paper's "broadcast
    would still strain the network facilities" remark has in mind.
    """

    name = "bus"

    def hops(self, src: int, dst: int) -> int:
        return 0 if src == dst else 1

    def route(self, src: int, dst: int) -> list[Link]:
        return [] if src == dst else [(0, 0)]  # the bus itself

    def edges(self) -> list[Link]:
        # Model the bus as a star around a virtual hub for graph checks:
        # not used for hop counts (hops() is closed-form).
        return [(pe, (pe + 1) % self.n_pes) for pe in range(self.n_pes - 1)]


class Crossbar(Topology):
    """Full point-to-point connectivity (one hop, dedicated links)."""

    name = "crossbar"

    def hops(self, src: int, dst: int) -> int:
        return 0 if src == dst else 1

    def route(self, src: int, dst: int) -> list[Link]:
        return [] if src == dst else [(src, dst)]

    def edges(self) -> list[Link]:
        return [
            (i, j)
            for i in range(self.n_pes)
            for j in range(i + 1, self.n_pes)
        ]


class Ring(Topology):
    """Bidirectional ring; messages take the shorter direction."""

    name = "ring"

    def hops(self, src: int, dst: int) -> int:
        d = abs(src - dst)
        return min(d, self.n_pes - d)

    def route(self, src: int, dst: int) -> list[Link]:
        if src == dst:
            return []
        n = self.n_pes
        forward = (dst - src) % n
        step = 1 if forward <= n - forward else -1
        links = []
        here = src
        while here != dst:
            nxt = (here + step) % n
            links.append((here, nxt))
            here = nxt
        return links

    def edges(self) -> list[Link]:
        if self.n_pes == 1:
            return []
        if self.n_pes == 2:
            return [(0, 1)]
        return [(pe, (pe + 1) % self.n_pes) for pe in range(self.n_pes)]


class Mesh2D(Topology):
    """A rows x cols mesh with dimension-order (X then Y) routing."""

    name = "mesh2d"

    def __init__(self, n_pes: int, cols: int | None = None) -> None:
        super().__init__(n_pes)
        if cols is None:
            cols = int(np.ceil(np.sqrt(n_pes)))
        if cols <= 0:
            raise ValueError("cols must be positive")
        self.cols = cols
        self.rows = -(-n_pes // cols)

    def _coords(self, pe: int) -> tuple[int, int]:
        return divmod(pe, self.cols)

    def _pe(self, row: int, col: int) -> int:
        return row * self.cols + col

    def hops(self, src: int, dst: int) -> int:
        (r1, c1), (r2, c2) = self._coords(src), self._coords(dst)
        return abs(r1 - r2) + abs(c1 - c2)

    def route(self, src: int, dst: int) -> list[Link]:
        (r1, c1), (r2, c2) = self._coords(src), self._coords(dst)
        links = []
        col = c1
        while col != c2:  # X first
            nxt = col + (1 if c2 > col else -1)
            links.append((self._pe(r1, col), self._pe(r1, nxt)))
            col = nxt
        row = r1
        while row != r2:  # then Y
            nxt = row + (1 if r2 > row else -1)
            links.append((self._pe(row, col), self._pe(nxt, col)))
            row = nxt
        return links

    def edges(self) -> list[Link]:
        links = []
        for pe in range(self.n_pes):
            row, col = self._coords(pe)
            if col + 1 < self.cols and pe + 1 < self.n_pes:
                links.append((pe, pe + 1))
            if row + 1 < self.rows and pe + self.cols < self.n_pes:
                links.append((pe, pe + self.cols))
        return links


class Torus2D(Mesh2D):
    """A rows x cols mesh with wraparound links in both dimensions.

    Dimension-order routing as in :class:`Mesh2D`, but each dimension
    takes the shorter way around its ring (ties go the positive
    direction).  The wraparound keeps the worst-case distance at half a
    mesh's, at the price of one extra link per row and column — the
    classic mesh/torus trade-off.  Requires a full rectangular grid.
    """

    name = "torus2d"

    def __init__(self, n_pes: int, cols: int | None = None) -> None:
        if cols is None:
            # Most-square full grid: largest divisor of n_pes that does
            # not exceed its square root (primes degenerate to a ring).
            cols = next(
                c
                for c in range(isqrt(n_pes), 0, -1)
                if n_pes % c == 0
            )
        super().__init__(n_pes, cols)
        if self.rows * self.cols != n_pes:
            raise ValueError(
                f"torus requires a full grid: {n_pes} PEs do not fill "
                f"{self.rows}x{self.cols}"
            )

    @staticmethod
    def _ring_hops(a: int, b: int, length: int) -> int:
        d = abs(a - b)
        return min(d, length - d)

    def hops(self, src: int, dst: int) -> int:
        (r1, c1), (r2, c2) = self._coords(src), self._coords(dst)
        return self._ring_hops(r1, r2, self.rows) + self._ring_hops(
            c1, c2, self.cols
        )

    @staticmethod
    def _ring_step(a: int, b: int, length: int) -> int:
        """Direction (+1/-1) of the shorter way around a ring."""
        forward = (b - a) % length
        return 1 if forward <= length - forward else -1

    def route(self, src: int, dst: int) -> list[Link]:
        (r1, c1), (r2, c2) = self._coords(src), self._coords(dst)
        links = []
        col = c1
        if col != c2:  # X first, the shorter way around
            step = self._ring_step(c1, c2, self.cols)
            while col != c2:
                nxt = (col + step) % self.cols
                links.append((self._pe(r1, col), self._pe(r1, nxt)))
                col = nxt
        row = r1
        if row != r2:  # then Y
            step = self._ring_step(r1, r2, self.rows)
            while row != r2:
                nxt = (row + step) % self.rows
                links.append((self._pe(row, col), self._pe(nxt, col)))
                row = nxt
        return links

    def edges(self) -> list[Link]:
        links: set[Link] = set()
        for row in range(self.rows):
            for col in range(self.cols):
                pe = self._pe(row, col)
                if self.cols > 1:
                    other = self._pe(row, (col + 1) % self.cols)
                    links.add((min(pe, other), max(pe, other)))
                if self.rows > 1:
                    other = self._pe((row + 1) % self.rows, col)
                    links.add((min(pe, other), max(pe, other)))
        return sorted(links)


class Hypercube(Topology):
    """A d-cube (requires a power-of-two PE count); e-cube routing."""

    name = "hypercube"

    def __init__(self, n_pes: int) -> None:
        super().__init__(n_pes)
        if n_pes & (n_pes - 1):
            raise ValueError("hypercube requires a power-of-two PE count")
        self.dimensions = n_pes.bit_length() - 1

    def hops(self, src: int, dst: int) -> int:
        return bin(src ^ dst).count("1")

    def route(self, src: int, dst: int) -> list[Link]:
        links = []
        here = src
        diff = src ^ dst
        bit = 0
        while diff:
            if diff & 1:
                nxt = here ^ (1 << bit)
                links.append((here, nxt))
                here = nxt
            diff >>= 1
            bit += 1
        return links

    def edges(self) -> list[Link]:
        links = []
        for pe in range(self.n_pes):
            for bit in range(self.dimensions):
                other = pe ^ (1 << bit)
                if other > pe:
                    links.append((pe, other))
        return links


_TOPOLOGIES = {
    "bus": Bus,
    "crossbar": Crossbar,
    "ring": Ring,
    "mesh2d": Mesh2D,
    "torus2d": Torus2D,
    "hypercube": Hypercube,
}

#: Accepted shorthands (the CLI advertises these).
_ALIASES = {
    "mesh": "mesh2d",
    "torus": "torus2d",
    "cube": "hypercube",
    "xbar": "crossbar",
}


def topology_names() -> tuple[str, ...]:
    """Canonical topology names (aliases excluded)."""
    return tuple(sorted(_TOPOLOGIES))


def canonical_topology(name: str) -> str:
    """Resolve a topology name or alias to its canonical name."""
    resolved = _ALIASES.get(name, name)
    if resolved not in _TOPOLOGIES:
        raise KeyError(
            f"unknown topology {name!r}; choose from {sorted(_TOPOLOGIES)}"
            f" (aliases: {sorted(_ALIASES)})"
        )
    return resolved


def make_topology(name: str, n_pes: int) -> Topology:
    """Instantiate a topology by (possibly aliased) name."""
    return _TOPOLOGIES[canonical_topology(name)](n_pes)
