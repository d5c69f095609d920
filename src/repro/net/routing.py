"""Routing strategies and next-hop table construction.

Tables are built after the topology is wired: for every destination host
we BFS outward and record, at each node, the set of neighbors lying on a
shortest (hop-count) path; hosts behind one leaf share the leaf's BFS.  A
control plane (:mod:`repro.control`) may later recompute tables under a
different weight model and reinstall them through
:meth:`RoutingStrategy.update_tables` /
:meth:`repro.net.network.Network.install_tables`.  Strategies choose among
the tabled neighbors:

* :class:`SprayRouting` — uniform random choice **per packet** (the paper's
  packet spraying);
* :class:`EcmpRouting` — deterministic hash of the flow id, i.e. per-flow
  ECMP, kept for ablations.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.errors import RoutingError
from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Switch

NextHopTable = dict[int, dict[int, tuple[int, ...]]]


def _hops_toward(
    adjacency: dict[int, list[int]], root: int
) -> list[tuple[int, tuple[int, ...]]]:
    """``(node, equal-cost next hops toward root)`` for every node that has any.

    One BFS outward from ``root``; nodes come in ``adjacency`` order and
    ``root`` itself is left out.
    """
    distance = {root: 0}
    frontier = deque([root])
    while frontier:
        node = frontier.popleft()
        d = distance[node] + 1
        for neighbor in adjacency[node]:
            if neighbor not in distance:
                distance[neighbor] = d
                frontier.append(neighbor)
    rows = []
    reached = distance.get
    for node, neighbors in adjacency.items():
        here = reached(node)
        if not here:  # the root, or a node the BFS never reached
            continue
        up = here - 1
        hops = tuple([n for n in neighbors if reached(n) == up])
        if hops:
            rows.append((node, hops))
    return rows


def _uplinks(adjacency: dict[int, list[int]], destination_ids: list[int]) -> dict[int, int]:
    """The uplink of every single-homed destination.

    A destination is single-homed when it has exactly one distinct
    neighbor, which lists it back, and no other node lists it.  Every path
    into it then ends with ``uplink -> destination``, so its next hops
    everywhere else are the next hops toward the uplink.
    """
    listed_by: dict[int, int] = {}
    for neighbors in adjacency.values():
        for n in neighbors:
            listed_by[n] = listed_by.get(n, 0) + 1
    uplinks = {}
    for dst in destination_ids:
        distinct = set(adjacency[dst])
        if len(distinct) != 1:
            continue
        (uplink,) = distinct
        links = adjacency[uplink].count(dst)
        if uplink != dst and links and listed_by.get(dst, 0) == links:
            uplinks[dst] = uplink
    return uplinks


def build_next_hop_tables(
    adjacency: dict[int, list[int]],
    destination_ids: list[int],
) -> NextHopTable:
    """Compute equal-cost next hops toward every destination host.

    Returns ``tables[node_id][destination_id] -> tuple(neighbor ids)``,
    containing an entry for every node that can reach the destination, with
    each node's destinations in ``destination_ids`` order.

    Hosts behind one leaf share that leaf's BFS: a single-homed
    destination's hop tuple at every node is the node's hop tuple toward
    its uplink, and the uplink's own hop is the destination.  Every other
    destination (multi-homed hosts, switches) gets a BFS of its own.  The
    tables are the ones a BFS per destination gives, insertion order
    included.
    """
    tables: NextHopTable = {node: {} for node in adjacency}
    uplinks = _uplinks(adjacency, destination_ids)
    shared: dict[int, list[tuple[dict[int, tuple[int, ...]], tuple[int, ...]]]] = {}
    for dst in destination_ids:
        uplink = uplinks.get(dst)
        if uplink is None:
            for node, hops in _hops_toward(adjacency, dst):
                tables[node][dst] = hops
            continue
        rows = shared.get(uplink)
        if rows is None:
            rows = shared[uplink] = [
                (tables[node], hops) for node, hops in _hops_toward(adjacency, uplink)
            ]
        for table, hops in rows:
            table[dst] = hops
        # The destination's own row toward its uplink came along; drop it.
        del tables[dst][dst]
        tables[uplink][dst] = (dst,) * adjacency[uplink].count(dst)
    return tables


class RoutingStrategy:
    """Chooses the next hop for a packet at a switch."""

    def __init__(self, tables: NextHopTable) -> None:
        self._tables = tables

    @property
    def tables(self) -> NextHopTable:
        """The currently installed next-hop tables."""
        return self._tables

    def update_tables(self, tables: NextHopTable) -> None:
        """Swap in freshly computed next-hop tables (control-plane hook).

        Strategies are shared across switches, so one call redirects every
        switch using this strategy.  Callers must also rebuild the
        switches' single-candidate ``direct_ports`` fast path — it bypasses
        the strategy entirely and would otherwise keep forwarding along the
        stale tables (:meth:`repro.net.network.Network.install_tables` does
        both).
        """
        self._tables = tables

    def candidates(self, switch: "Switch", packet: Packet) -> tuple[int, ...]:
        """Equal-cost next hops for this packet at this switch."""
        try:
            return self._tables[switch.id][packet.dst]
        except KeyError:
            raise RoutingError(
                f"switch {switch.name} has no route to node {packet.dst}"
            ) from None

    def next_hop(self, switch: "Switch", packet: Packet) -> int:
        raise NotImplementedError


class SprayRouting(RoutingStrategy):
    """Per-packet spraying: uniform random pick among equal-cost hops."""

    def next_hop(self, switch: "Switch", packet: Packet) -> int:
        try:
            options = self._tables[switch.id][packet.dst]
        except KeyError:
            raise RoutingError(
                f"switch {switch.name} has no route to node {packet.dst}"
            ) from None
        n = len(options)
        if n == 1:
            return options[0]
        rng = switch.spray_rng
        if rng is None:
            rng = switch.open_spray_rng()
        # Inline of Random.randrange(n) -> _randbelow(n): the getrandbits
        # call sequence is identical to the stdlib's, so the spray draw
        # order — and with it every recorded digest — is unchanged.  This
        # skips two pure-Python stdlib frames per sprayed packet.
        getrandbits = rng.getrandbits
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return options[r]


class EcmpRouting(RoutingStrategy):
    """Per-flow ECMP: a flow always hashes to the same equal-cost hop."""

    #: Knuth multiplicative-hash constant; any odd 32-bit constant works.
    _HASH_MULT = 2654435761

    def next_hop(self, switch: "Switch", packet: Packet) -> int:
        options = self.candidates(switch, packet)
        if len(options) == 1:
            return options[0]
        index = ((packet.flow_id * self._HASH_MULT) ^ switch.id) % len(options)
        return options[index]


class DisjointSprayRouting(SprayRouting):
    """Per-packet spraying constrained to per-flow *lanes* of the fabric.

    RepFlow-style replication wants the two copies of a flow to avoid
    sharing bottlenecks.  At every switch with ``k`` equal-cost next hops,
    lane ``j`` owns the hops at indices ``j, j + lanes, j + 2*lanes, ...``
    — a static partition, so two flows assigned different lanes never share
    a multi-path hop anywhere in the fabric.  Flows without an assigned
    lane (ordinary traffic) spray over the full candidate set, exactly like
    :class:`SprayRouting`.

    Lane assignment covers a flow's ACKs too: control packets reuse the
    data packet's ``flow_id``, so the reverse path stays inside the lane.
    """

    def __init__(self, tables: NextHopTable, lanes: int = 2) -> None:
        if lanes < 2:
            raise RoutingError(f"disjoint spraying needs >= 2 lanes, got {lanes}")
        super().__init__(tables)
        self.lanes = lanes
        self._flow_lane: dict[int, int] = {}

    def assign_lane(self, flow_id: int, lane: int) -> None:
        """Pin ``flow_id`` (data and its control echoes) to ``lane``."""
        self._flow_lane[flow_id] = lane % self.lanes

    def next_hop(self, switch: "Switch", packet: Packet) -> int:
        lane = self._flow_lane.get(packet.flow_id)
        if lane is None:
            return super().next_hop(switch, packet)
        try:
            options = self._tables[switch.id][packet.dst]
        except KeyError:
            raise RoutingError(
                f"switch {switch.name} has no route to node {packet.dst}"
            ) from None
        subset = options[lane::self.lanes]
        if subset:
            options = subset
        n = len(options)
        if n == 1:
            return options[0]
        rng = switch.spray_rng
        if rng is None:
            rng = switch.open_spray_rng()
        getrandbits = rng.getrandbits
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return options[r]


def install_disjoint_spray(net: object, lanes: int = 2) -> DisjointSprayRouting:
    """Swap every switch's strategy for one shared :class:`DisjointSprayRouting`.

    The network must already be finalized (tables built).  Single-candidate
    destinations keep using the switches' precomputed direct ports, so only
    genuinely multi-path hops consult the new strategy — no core forwarding
    code changes hands.
    """
    switches = getattr(net, "switches", ())
    installed = None
    for switch in switches:
        if switch.routing is not None:
            installed = switch.routing
            break
    if installed is None:
        raise RoutingError("install_disjoint_spray needs a finalized network")
    disjoint = DisjointSprayRouting(installed._tables, lanes=lanes)
    for switch in switches:
        switch.routing = disjoint
    return disjoint
