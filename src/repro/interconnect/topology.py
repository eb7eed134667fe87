"""Interconnect topologies: the shape of the inter-node fabric.

The paper assumes an idealized constant-latency point-to-point network
("uniform" here): every node pair is one direct hop and the fabric
itself never congests.  This module generalizes that into a pluggable
topology family so experiments can ask how the CC-NUMA / S-COMA /
R-NUMA trade-offs shift when remote latency is hop-dependent and links
carry occupancy:

``uniform``
    The paper's fabric: every pair is directly connected, no internal
    links, no hop-dependent cost.  The default, and bit-identical to
    the pre-topology network model.
``ring``
    A bidirectional ring; messages take the shorter direction
    (clockwise on ties), so the worst pair is ``n // 2`` hops apart.
``mesh``
    A 2D mesh on the most square ``rows x cols`` factorization of the
    node count, with deterministic dimension-order (X-then-Y) routing.
``torus``
    The same grid with wraparound in both dimensions; each dimension
    routes in its shorter wrap direction.
``fattree``
    A two-level fat tree collapsed to its crossbar equivalent: every
    node has an uplink and a downlink to one central switch stage, so
    every pair is exactly two hops and contention concentrates on the
    per-node up/down links rather than on shared internal hops.

A topology is pure shape: it enumerates directed links and returns the
node sequence a message visits.  The flat per-(src, dst) tables the
simulation hot path indexes are precomputed from that shape by
:mod:`repro.interconnect.routing`.

:data:`TOPOLOGIES` is the one list of topology names:
:class:`repro.common.params.SystemConfig` validates against it.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple, Type

from repro.common.errors import ConfigurationError


class Topology:
    """Shape of the inter-node fabric: directed links + deterministic routes."""

    #: registry key; subclasses override.
    name = ""
    #: one-line description for ``python -m repro topologies``.
    description = ""

    def __init__(self, nodes: int) -> None:
        if nodes <= 0:
            raise ConfigurationError("topology needs at least one node")
        self.nodes = nodes

    def links(self) -> List[Tuple[int, int]]:
        """Directed links as (u, v) vertex pairs, in a deterministic
        order.  Vertices ``>= nodes`` are internal switch stages (fat
        tree); they carry links but never originate traffic."""
        raise NotImplementedError

    def route(self, src: int, dst: int) -> List[int]:
        """The vertex sequence a message visits, ``[src, ..., dst]``.

        Deterministic (dimension-order / fixed tie-breaks): the routing
        tables precomputed from it are the *only* routes the simulator
        ever uses, so determinism here is what keeps runs reproducible.
        """
        raise NotImplementedError

    # -- analytic forms ---------------------------------------------------
    # Routing-table construction at 1024 nodes cannot afford to
    # materialize every route() list (a million paths of O(hops)
    # vertices each).  Each topology therefore answers three questions
    # in O(1)/O(n) closed form; the generic fallbacks delegate to
    # route() so a hypothetical out-of-tree topology still works, just
    # slowly.  ``tests/test_topology.py`` pins the closed forms to
    # route() exhaustively at small node counts, and the routing table
    # re-validates them against route() for every machine up to
    # ``RoutingTable.VALIDATE_NODES``.

    def n_vertices(self) -> int:
        """Vertex-id space size: ``nodes`` plus internal switch stages."""
        return self.nodes

    def pair_hops(self, src: int, dst: int) -> int:
        """Link count on the deterministic ``src`` -> ``dst`` route."""
        return len(self.route(src, dst)) - 1

    def hops_row(self, src: int) -> List[int]:
        """``pair_hops(src, dst)`` for every destination, in order."""
        return [self.pair_hops(src, dst) for dst in range(self.nodes)]

    def next_hop(self, at: int, dst: int) -> int:
        """First vertex after ``at`` on the route toward ``dst``.

        ``at`` may be an internal switch vertex.  Must be consistent
        with :meth:`route`: following next_hop from ``src`` step by
        step reproduces ``route(src, dst)`` exactly, which is what lets
        the routing table store one next-link id per (vertex, dst)
        instead of full paths.
        """
        return self.route(at, dst)[1]

    def _check_pair(self, src: int, dst: int) -> None:
        if not (0 <= src < self.nodes and 0 <= dst < self.nodes):
            raise ConfigurationError(
                f"node pair ({src}, {dst}) out of range for {self.nodes} nodes"
            )


class UniformTopology(Topology):
    """The paper's fabric: direct single-hop pairs, no internal links."""

    name = "uniform"
    description = "constant-latency point-to-point (the paper's model)"

    def links(self) -> List[Tuple[int, int]]:
        return []

    def route(self, src: int, dst: int) -> List[int]:
        self._check_pair(src, dst)
        if src == dst:
            return [src]
        return [src, dst]

    def pair_hops(self, src: int, dst: int) -> int:
        return 0 if src == dst else 1

    def hops_row(self, src: int) -> List[int]:
        row = [1] * self.nodes
        row[src] = 0
        return row

    def next_hop(self, at: int, dst: int) -> int:
        return dst


class RingTopology(Topology):
    """Bidirectional ring; shortest direction, clockwise on ties."""

    name = "ring"
    description = "bidirectional ring, shortest-direction routing"

    def links(self) -> List[Tuple[int, int]]:
        n = self.nodes
        if n < 2:
            return []
        cw = [(i, (i + 1) % n) for i in range(n)]
        ccw = [(i, (i - 1) % n) for i in range(n)]
        # On a 2-node ring both directions are the same neighbor.
        return list(dict.fromkeys(cw + ccw))

    def route(self, src: int, dst: int) -> List[int]:
        self._check_pair(src, dst)
        n = self.nodes
        forward = (dst - src) % n
        step = 1 if forward <= n - forward else -1
        path = [src]
        at = src
        while at != dst:
            at = (at + step) % n
            path.append(at)
        return path

    def pair_hops(self, src: int, dst: int) -> int:
        forward = (dst - src) % self.nodes
        return min(forward, self.nodes - forward)

    def hops_row(self, src: int) -> List[int]:
        n = self.nodes
        return [min((d - src) % n, (src - d) % n) for d in range(n)]

    def next_hop(self, at: int, dst: int) -> int:
        # The shorter-direction choice is stable along the route: the
        # chosen direction's distance only shrinks while the other
        # grows, so re-deciding at each intermediate vertex never
        # flips (nor re-creates the tie, which strictly breaks after
        # the first step away from it).
        n = self.nodes
        forward = (dst - at) % n
        step = 1 if forward <= n - forward else -1
        return (at + step) % n


def grid_dims(nodes: int) -> Tuple[int, int]:
    """The most square ``rows x cols`` factorization (rows <= cols).

    Prime counts degrade gracefully to a 1 x n line/loop.
    """
    rows = 1
    for r in range(int(math.isqrt(nodes)), 0, -1):
        if nodes % r == 0:
            rows = r
            break
    return rows, nodes // rows


class Mesh2DTopology(Topology):
    """2D mesh, dimension-order (X-then-Y) routing."""

    name = "mesh"
    description = "2D mesh (most square grid), dimension-order routing"
    wrap = False

    def __init__(self, nodes: int) -> None:
        super().__init__(nodes)
        self.rows, self.cols = grid_dims(nodes)

    def _id(self, r: int, c: int) -> int:
        return r * self.cols + c

    def links(self) -> List[Tuple[int, int]]:
        out: List[Tuple[int, int]] = []
        for r in range(self.rows):
            for c in range(self.cols):
                u = self._id(r, c)
                for dr, dc in ((0, 1), (0, -1), (1, 0), (-1, 0)):
                    nr, nc = r + dr, c + dc
                    if self.wrap:
                        nr %= self.rows
                        nc %= self.cols
                    elif not (0 <= nr < self.rows and 0 <= nc < self.cols):
                        continue
                    v = self._id(nr, nc)
                    if v != u:
                        out.append((u, v))
        # Wraparound on a 2-long dimension makes both directions the
        # same neighbor; dedup while keeping first-seen order.
        return list(dict.fromkeys(out))

    def _axis_steps(self, at: int, to: int, size: int) -> List[int]:
        """Coordinates visited moving ``at`` -> ``to`` along one axis."""
        if at == to:
            return []
        if self.wrap:
            forward = (to - at) % size
            step = 1 if forward <= size - forward else -1
        else:
            step = 1 if to > at else -1
        steps = []
        while at != to:
            at = (at + step) % size
            steps.append(at)
        return steps

    def route(self, src: int, dst: int) -> List[int]:
        self._check_pair(src, dst)
        r, c = divmod(src, self.cols)
        dr, dc = divmod(dst, self.cols)
        path = [src]
        for nc in self._axis_steps(c, dc, self.cols):  # X first
            c = nc
            path.append(self._id(r, c))
        for nr in self._axis_steps(r, dr, self.rows):  # then Y
            r = nr
            path.append(self._id(r, c))
        return path

    def _axis_hops(self, at: int, to: int, size: int) -> int:
        if self.wrap:
            forward = (to - at) % size
            return min(forward, size - forward)
        return abs(to - at)

    def _axis_step(self, at: int, to: int, size: int) -> int:
        """One step of :meth:`_axis_steps` (same direction choice)."""
        if self.wrap:
            forward = (to - at) % size
            step = 1 if forward <= size - forward else -1
        else:
            step = 1 if to > at else -1
        return (at + step) % size

    def pair_hops(self, src: int, dst: int) -> int:
        r, c = divmod(src, self.cols)
        dr, dc = divmod(dst, self.cols)
        return self._axis_hops(c, dc, self.cols) + self._axis_hops(r, dr, self.rows)

    def next_hop(self, at: int, dst: int) -> int:
        # Dimension-order routing is self-consistent from intermediate
        # vertices: while X disagrees the route is still "finish X",
        # and the per-axis shorter-wrap choice is stable along the
        # axis (same argument as the ring).
        r, c = divmod(at, self.cols)
        dr, dc = divmod(dst, self.cols)
        if c != dc:
            return self._id(r, self._axis_step(c, dc, self.cols))
        return self._id(self._axis_step(r, dr, self.rows), c)


class Torus2DTopology(Mesh2DTopology):
    """2D torus: the mesh grid with shortest-direction wraparound."""

    name = "torus"
    description = "2D torus (mesh with wraparound), dimension-order routing"
    wrap = True


class FatTreeTopology(Topology):
    """Two-level fat tree collapsed to its crossbar equivalent.

    One internal switch vertex (id ``nodes``); every node owns an
    uplink and a downlink to it.  Every pair is exactly two hops, and
    congestion shows up on a node's own up/down links — the classic
    fat-tree property that internal bandwidth never bottlenecks first.
    """

    name = "fattree"
    description = "fat-tree/crossbar: 2 hops per pair via per-node up/down links"

    def links(self) -> List[Tuple[int, int]]:
        switch = self.nodes
        up = [(i, switch) for i in range(self.nodes)]
        down = [(switch, i) for i in range(self.nodes)]
        return up + down

    def route(self, src: int, dst: int) -> List[int]:
        self._check_pair(src, dst)
        if src == dst:
            return [src]
        return [src, self.nodes, dst]

    def n_vertices(self) -> int:
        return self.nodes + 1  # the switch vertex

    def pair_hops(self, src: int, dst: int) -> int:
        return 0 if src == dst else 2

    def hops_row(self, src: int) -> List[int]:
        row = [2] * self.nodes
        row[src] = 0
        return row

    def next_hop(self, at: int, dst: int) -> int:
        return dst if at == self.nodes else self.nodes


#: name -> class, in presentation order.
TOPOLOGIES: Dict[str, Type[Topology]] = {
    cls.name: cls
    for cls in (
        UniformTopology,
        RingTopology,
        Mesh2DTopology,
        Torus2DTopology,
        FatTreeTopology,
    )
}


def topology_names() -> Tuple[str, ...]:
    return tuple(TOPOLOGIES)


def make_topology(name: str, nodes: int) -> Topology:
    cls = TOPOLOGIES.get(name)
    if cls is None:
        raise ConfigurationError(
            f"unknown topology {name!r}; expected one of {tuple(TOPOLOGIES)}"
        )
    return cls(nodes)
