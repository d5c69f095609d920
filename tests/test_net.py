"""Ports, nodes, routing, and the network container."""

import heapq
import io
import itertools
import pickle
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import QueueSpec, paper_interdc_config
from repro.errors import RoutingError, TopologyError
from repro.experiments import runner
from repro.experiments.runner import IncastScenario
from repro.net.network import Network
from repro.net.node import Host
from repro.net.packet import HEADER_BYTES, make_data
from repro.net.queues import HostQueue
from repro.net.routing import EcmpRouting, SprayRouting, build_next_hop_tables
from repro.sim.rng import derive_stream
from repro.sim.simulator import Simulator
from repro.topology.interdc import build_interdc
from repro.units import gbps, microseconds, serialization_delay_ps
from tests.conftest import build_pair


def bfs_tables_oracle(adjacency, destination_ids):
    """Reference next-hop tables: one full BFS per destination."""
    tables = {node: {} for node in adjacency}
    for dst in destination_ids:
        distance = {dst: 0}
        frontier = deque([dst])
        while frontier:
            node = frontier.popleft()
            for neighbor in adjacency[node]:
                if neighbor not in distance:
                    distance[neighbor] = distance[node] + 1
                    frontier.append(neighbor)
        for node, neighbors in adjacency.items():
            if node == dst or node not in distance:
                continue
            here = distance[node]
            hops = tuple(n for n in neighbors if distance.get(n, here) == here - 1)
            if hops:
                tables[node][dst] = hops
    return tables


def assert_same_tables(tables, expected):
    """Equal tables, with every node's destinations in the same order."""
    assert tables == expected
    assert list(tables) == list(expected)
    for node, row in expected.items():
        assert list(tables[node]) == list(row), node


def dijkstra_oracle(net, src_id, dst_id):
    """Reference one-way delay: Dijkstra from ``src`` that stops at ``dst``."""
    if src_id == dst_id:
        return 0
    best = {src_id: 0}
    heap = [(0, src_id)]
    while heap:
        delay, node = heapq.heappop(heap)
        if node == dst_id:
            return delay
        if delay > best.get(node, delay):
            continue
        for neighbor in net.adjacency[node]:
            candidate = delay + net.edge_delay_ps(node, neighbor)
            if candidate < best.get(neighbor, candidate + 1):
                best[neighbor] = candidate
                heapq.heappush(heap, (candidate, neighbor))
    raise RoutingError(f"nodes {src_id} and {dst_id} are not connected")


@st.composite
def fabric_graphs(draw):
    """Graphs mixing the shapes the table builder special-cases.

    A random switch core (possibly in several disconnected parts), hosts
    hanging off one switch (single-homed, sometimes over parallel links),
    hosts wired to several switches (multi-homed), an isolated node, a few
    one-way entries (which make a host look single-homed when it is not),
    and destinations drawn from hosts and switches alike.
    """
    switches = draw(st.integers(min_value=1, max_value=8))
    adjacency = {node: [] for node in range(switches)}

    def link(a, b):
        adjacency[a].append(b)
        adjacency[b].append(a)

    for a, b in draw(st.lists(st.tuples(st.integers(0, switches - 1),
                                        st.integers(0, switches - 1)), max_size=16)):
        if a != b:
            link(a, b)
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        host = len(adjacency)
        adjacency[host] = []
        uplink = draw(st.integers(0, switches - 1))
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            link(host, uplink)
    for _ in range(draw(st.integers(min_value=0, max_value=4)) if switches > 1 else 0):
        host = len(adjacency)
        adjacency[host] = []
        for uplink in draw(st.lists(st.integers(0, switches - 1), min_size=2, max_size=3,
                                    unique=True)):
            link(host, uplink)
    if draw(st.booleans()):
        adjacency[len(adjacency)] = []
    nodes = sorted(adjacency)
    for a, b in draw(st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)),
                              max_size=2)):
        adjacency[a].append(b)
    destinations = draw(st.lists(st.sampled_from(nodes), max_size=12))
    return adjacency, destinations


def random_weighted_network(seed):
    """A random undirected network with random integer link delays."""
    rng = random.Random(seed)
    net = Network(Simulator())
    nodes = [net.add_switch(f"s{i}") for i in range(rng.randint(2, 9))]
    spec = QueueSpec(kind="droptail", capacity_bytes=100_000)
    for a, b in itertools.combinations(nodes, 2):
        if rng.random() < 0.35:
            net.connect(a, b, gbps(10), rng.randrange(0, 5_000),
                        queue_ab=spec.build(None), queue_ba=spec.build(None))
    return net


class TestOutputPortTiming:
    def test_store_and_forward_latency(self, sim):
        net, a, b = build_pair(sim, rate_bps=gbps(10), delay_ps=microseconds(1))
        got = []
        b.register_handler(1, lambda p: got.append(sim.now))
        a.send(make_data(1, 0, a.id, b.id, payload_bytes=1000))
        sim.run()
        # Two hops (a->switch, switch->b): 2 serializations + 2 propagations.
        tx = serialization_delay_ps(1064, gbps(10))
        assert got == [2 * tx + 2 * microseconds(1)]

    def test_back_to_back_serialization(self, sim):
        net, a, b = build_pair(sim, rate_bps=gbps(10), delay_ps=0)
        got = []
        b.register_handler(1, lambda p: got.append(sim.now))
        for seq in range(3):
            a.send(make_data(1, seq, a.id, b.id, payload_bytes=1000))
        sim.run()
        tx = serialization_delay_ps(1064, gbps(10))
        # First packet: 2 serializations; each next: +1 serialization (pipelined).
        assert got == [2 * tx, 3 * tx, 4 * tx]

    def test_tx_counters(self, sim):
        net, a, b = build_pair(sim)
        b.register_handler(1, lambda p: None)
        a.send(make_data(1, 0, a.id, b.id, payload_bytes=500))
        sim.run()
        assert a.nic.tx_packets == 1
        assert a.nic.tx_bytes == 564


class TestHostDemux:
    def test_delivers_to_registered_handler(self, sim):
        net, a, b = build_pair(sim)
        seqs = []
        b.register_handler(7, lambda p: seqs.append(p.seq))
        a.send(make_data(7, 3, a.id, b.id, payload_bytes=10))
        sim.run()
        assert seqs == [3]

    def test_stray_packets_counted(self, sim):
        net, a, b = build_pair(sim)
        a.send(make_data(99, 0, a.id, b.id, payload_bytes=10))
        sim.run()
        assert b.stray_packets == 1

    def test_duplicate_handler_rejected(self, sim):
        net, a, b = build_pair(sim)
        b.register_handler(1, lambda p: None)
        with pytest.raises(TopologyError):
            b.register_handler(1, lambda p: None)

    def test_unregister_is_idempotent(self, sim):
        net, a, b = build_pair(sim)
        b.register_handler(1, lambda p: None)
        b.unregister_handler(1)
        b.unregister_handler(1)
        b.register_handler(1, lambda p: None)  # can re-register

    def test_host_is_single_homed(self, sim):
        net = Network(sim)
        a = net.add_host("a")
        s1 = net.add_switch("s1")
        s2 = net.add_switch("s2")
        from repro.config import QueueSpec
        spec = QueueSpec(kind="host", capacity_bytes=1_000_000)
        net.connect(a, s1, gbps(1), 0, queue_ab=spec.build(None), queue_ba=spec.build(None))
        with pytest.raises(TopologyError):
            net.connect(a, s2, gbps(1), 0, queue_ab=spec.build(None), queue_ba=spec.build(None))

    def test_unconnected_host_cannot_send(self, sim):
        net = Network(sim)
        a = net.add_host("a")
        with pytest.raises(TopologyError):
            a.send(make_data(1, 0, a.id, 99, payload_bytes=1))


class TestNextHopTables:
    def test_line_topology(self):
        #  0 - 1 - 2 - 3   (host 0, switches 1-2, host 3)
        adjacency = {0: [1], 1: [0, 2], 2: [1, 3], 3: [2]}
        tables = build_next_hop_tables(adjacency, [0, 3])
        assert tables[1][3] == (2,)
        assert tables[2][0] == (1,)
        assert tables[1][0] == (0,)

    def test_equal_cost_multipath(self):
        # Diamond: host 0 - {1,2} - 3 (host).
        adjacency = {0: [1, 2], 1: [0, 3], 2: [0, 3], 3: [1, 2]}
        tables = build_next_hop_tables(adjacency, [3])
        assert set(tables[0][3]) == {1, 2}

    def test_unreachable_destination_absent(self):
        adjacency = {0: [1], 1: [0], 2: []}
        tables = build_next_hop_tables(adjacency, [2])
        assert 2 not in tables[0]

    @settings(max_examples=300, deadline=None)
    @given(fabric_graphs())
    def test_matches_per_destination_bfs(self, graph):
        adjacency, destinations = graph
        assert_same_tables(build_next_hop_tables(adjacency, destinations),
                           bfs_tables_oracle(adjacency, destinations))

    @pytest.mark.parametrize("degree", [2, 60])
    def test_paper_fabric_matches_per_destination_bfs(self, monkeypatch, degree):
        built = []

        def build(*args, **kwargs):
            topo = build_interdc(*args, **kwargs)
            built.append(topo.net)
            return topo

        monkeypatch.setattr(runner, "build_interdc", build)
        runner.run_incast(IncastScenario(scheme="streamlined", degree=degree,
                                         total_bytes=degree * 1000))
        (net,) = built
        expected = bfs_tables_oracle(net.adjacency, [h.id for h in net.hosts])
        assert_same_tables(net.switches[0].routing.tables, expected)
        for switch in net.switches:
            assert switch.direct_ports == {
                dst: switch.ports[hops[0]]
                for dst, hops in expected[switch.id].items() if len(hops) == 1
            }


class TestRoutingStrategies:
    def _diamond(self, sim):
        # a - mid - {s1, s2} - tail - b : two equal-cost paths in the middle.
        net = Network(sim)
        a = net.add_host("a")
        b = net.add_host("b")
        s1 = net.add_switch("s1")
        s2 = net.add_switch("s2")
        mid = net.add_switch("mid")
        tail = net.add_switch("tail")
        from repro.config import QueueSpec
        host = QueueSpec(kind="host", capacity_bytes=10_000_000)
        sw = QueueSpec(kind="droptail", capacity_bytes=10_000_000)
        net.connect(a, mid, gbps(10), 0, queue_ab=host.build(None), queue_ba=sw.build(None))
        net.connect(mid, s1, gbps(10), 0, queue_ab=sw.build(None), queue_ba=sw.build(None))
        net.connect(mid, s2, gbps(10), 0, queue_ab=sw.build(None), queue_ba=sw.build(None))
        net.connect(s1, tail, gbps(10), 0, queue_ab=sw.build(None), queue_ba=sw.build(None))
        net.connect(s2, tail, gbps(10), 0, queue_ab=sw.build(None), queue_ba=sw.build(None))
        net.connect(tail, b, gbps(10), 0, queue_ab=sw.build(None), queue_ba=host.build(None))
        return net, a, b, mid, s1, s2

    def test_spraying_uses_both_paths(self, sim):
        net, a, b, mid, s1, s2 = self._diamond(sim)
        net.finalize(routing="spray")
        b.register_handler(1, lambda p: None)
        for seq in range(200):
            a.send(make_data(1, seq, a.id, b.id, payload_bytes=100))
        sim.run()
        via_s1 = mid.ports[s1.id].tx_packets
        via_s2 = mid.ports[s2.id].tx_packets
        assert via_s1 + via_s2 == 200
        assert via_s1 > 30 and via_s2 > 30  # roughly balanced

    def test_ecmp_pins_flow_to_one_path(self, sim):
        net, a, b, mid, s1, s2 = self._diamond(sim)
        net.finalize(routing="ecmp")
        b.register_handler(1, lambda p: None)
        for seq in range(50):
            a.send(make_data(1, seq, a.id, b.id, payload_bytes=100))
        sim.run()
        used = sorted(p for p in (mid.ports[s1.id].tx_packets, mid.ports[s2.id].tx_packets))
        assert used == [0, 50]

    def test_missing_route_raises(self, sim):
        net, a, b, mid, s1, s2 = self._diamond(sim)
        net.finalize()
        pkt = make_data(1, 0, a.id, 424242, payload_bytes=10)
        with pytest.raises(RoutingError):
            mid.receive(pkt)

    def test_unknown_strategy_rejected(self, sim):
        net, *_ = self._diamond(sim)
        with pytest.raises(TopologyError):
            net.finalize(routing="teleport")


class TestNetworkQueries:
    def test_min_delay_sums_edges(self, sim):
        net, a, b = build_pair(sim, delay_ps=microseconds(3))
        assert net.min_delay_ps(a.id, b.id) == 2 * microseconds(3)
        assert net.min_delay_ps(a.id, a.id) == 0

    def test_path_rtt_via_stops(self, sim):
        sim2 = Simulator()
        net = Network(sim2)
        from repro.config import QueueSpec
        host = QueueSpec(kind="host", capacity_bytes=1_000_000)
        hosts = [net.add_host(f"h{i}") for i in range(3)]
        s = net.add_switch("s")
        for h in hosts:
            net.connect(h, s, gbps(10), microseconds(1),
                        queue_ab=host.build(None), queue_ba=host.build(None))
        net.finalize()
        direct = net.path_rtt_ps(hosts[0].id, hosts[2].id)
        via = net.path_rtt_ps(hosts[0].id, hosts[2].id, via=[hosts[1].id])
        assert direct == 4 * microseconds(1)
        assert via == 8 * microseconds(1)

    def test_disconnected_raises(self, sim):
        net = Network(sim)
        a = net.add_host("a")
        b = net.add_host("b")
        with pytest.raises(RoutingError):
            net.min_delay_ps(a.id, b.id)

    def test_unknown_node_raises_topology_error(self, sim):
        net, a, b = build_pair(sim)
        for src, dst in ((a.id, 999), (999, b.id), (999, 999)):
            with pytest.raises(TopologyError, match="999"):
                net.min_delay_ps(src, dst)
        with pytest.raises(TopologyError, match="999"):
            net.path_rtt_ps(a.id, b.id, via=[999])

    def test_delays_follow_links_added_later(self, sim):
        net = Network(sim)
        a, b, c = (net.add_switch(name) for name in "abc")
        spec = QueueSpec(kind="droptail", capacity_bytes=100_000)
        net.connect(a, b, gbps(10), 50, queue_ab=spec.build(None), queue_ba=spec.build(None))
        net.connect(b, c, gbps(10), 50, queue_ab=spec.build(None), queue_ba=spec.build(None))
        assert net.min_delay_ps(a.id, c.id) == 100
        net.connect(a, c, gbps(10), 30, queue_ab=spec.build(None), queue_ba=spec.build(None))
        assert net.min_delay_ps(a.id, c.id) == 30

    def test_paper_fabric_delays_match_dijkstra(self):
        net = build_interdc(Simulator(seed=0), paper_interdc_config()).net
        ids = [h.id for h in net.hosts]
        pairs = list(itertools.product(ids, ids))
        # A shuffled order makes later queries hit trees rooted at either end.
        random.Random(5).shuffle(pairs)
        for src, dst in pairs:
            assert net.min_delay_ps(src, dst) == dijkstra_oracle(net, src, dst)
        rng = random.Random(6)
        for _ in range(300):
            src, via, dst = (rng.choice(ids) for _ in range(3))
            assert net.path_rtt_ps(src, dst) == 2 * dijkstra_oracle(net, src, dst)
            assert net.path_rtt_ps(src, dst, via=[via]) == 2 * (
                dijkstra_oracle(net, src, via) + dijkstra_oracle(net, via, dst))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_random_weighted_delays_match_dijkstra(self, seed):
        net = random_weighted_network(seed)
        ids = list(net.adjacency)
        pairs = list(itertools.product(ids, ids))
        random.Random(seed).shuffle(pairs)
        for src, dst in pairs:
            try:
                expected = dijkstra_oracle(net, src, dst)
            except RoutingError:
                with pytest.raises(RoutingError):
                    net.min_delay_ps(src, dst)
                continue
            assert net.min_delay_ps(src, dst) == expected
        for src, via, dst in itertools.islice(itertools.product(ids, ids, ids), 40):
            try:
                expected = 2 * (dijkstra_oracle(net, src, via) + dijkstra_oracle(net, via, dst))
            except RoutingError:
                continue
            assert net.path_rtt_ps(src, dst, via=[via]) == expected

    def test_delay_trees_stay_out_of_pickles(self, sim):
        net, a, b = build_pair(sim)
        net.min_delay_ps(a.id, b.id)
        assert net._delay_trees
        assert pickle.loads(pickle.dumps(net))._delay_trees == {}

    def test_flow_ids_unique(self, sim):
        net = Network(sim)
        assert net.new_flow_id() != net.new_flow_id()

    def test_invalid_link_params(self, sim):
        net = Network(sim)
        a = net.add_host("a")
        b = net.add_host("b")
        with pytest.raises(TopologyError):
            net.connect(a, b, 0, 0, queue_ab=None, queue_ba=None)

    def test_no_changes_after_finalize(self, sim):
        net, a, b = build_pair(sim)
        with pytest.raises(TopologyError):
            net.add_host("late")


def random_objects_in(obj):
    """Every ``random.Random`` a pickle of ``obj`` would carry."""
    found = []

    class Probe(pickle.Pickler):
        def reducer_override(self, value):
            if isinstance(value, random.Random):
                found.append(value)
            return NotImplemented

    Probe(io.BytesIO(), protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    return found


def ecn_marks_oracle(rng, low, high, occupancies):
    """Reference RED marking: one draw per occupancy strictly inside (low, high)."""
    marks = []
    for occupancy in occupancies:
        if occupancy <= low:
            marks.append(False)
        elif occupancy >= high:
            marks.append(True)
        else:
            marks.append(rng.random() < (occupancy - low) / (high - low))
    return marks


class TestLazySubstreams:
    """Streams are seeded on first draw, with unchanged draw sequences."""

    DRAWS = 1_000
    SEED = 11

    @staticmethod
    def _ports(net):
        for node in (*net.hosts, *net.switches):
            yield from node.ports.values()

    @pytest.mark.parametrize("trimming", [False, True], ids=["ecn", "trimming"])
    def test_queue_draws_match_derived_streams(self, trimming):
        sim = Simulator(seed=self.SEED)
        net = build_interdc(sim, paper_interdc_config().with_trimming(trimming)).net
        assert random_objects_in(net) == []
        checked = 0
        for port in self._ports(net):
            queue = port.queue
            low = getattr(queue, "ecn_low_bytes", None)
            if low is None:
                assert isinstance(queue, HostQueue)
                continue
            high = queue.ecn_high_bytes
            # One packet lifts the queue just past ``low``; then every
            # header-sized data packet is marked on a draw.
            sizes = [low + 1] + [HEADER_BYTES] * self.DRAWS
            occupancies = list(itertools.accumulate(sizes, initial=0))[:-1]
            assert occupancies[-1] < high
            marks = []
            for seq, size in enumerate(sizes):
                packet = make_data(1, seq, 0, 1, payload_bytes=size - HEADER_BYTES)
                queue.offer(packet)
                marks.append(packet.ecn_ce)
            expected = ecn_marks_oracle(
                derive_stream(self.SEED, f"queue:{port.name}"), low, high, occupancies)
            assert marks == expected, port.name
            checked += 1
        assert checked == 640  # every switch port of the paper fabric

    def test_host_queues_never_draw(self):
        sim = Simulator(seed=self.SEED)
        net = build_interdc(sim, paper_interdc_config()).net
        for host in net.hosts:
            queue = host.nic.queue
            assert isinstance(queue, HostQueue)
            for seq in range(self.DRAWS):
                queue.offer(make_data(1, seq, 0, 1, payload_bytes=1_000))
            while queue.pop() is not None:
                pass
        assert random_objects_in(net) == []

    def test_spray_draws_match_derived_streams(self):
        sim = Simulator(seed=self.SEED)
        net = build_interdc(sim, paper_interdc_config(), routing="spray").net
        tables = next(s.routing for s in net.switches)._tables
        sprayed = 0
        for switch in net.switches:
            multipath = [(dst, hops) for dst, hops in tables[switch.id].items()
                         if len(hops) > 1]
            if not multipath:
                continue
            expected_rng = derive_stream(self.SEED, f"spray:{switch.name}")
            for i in range(self.DRAWS):
                dst, hops = multipath[i % len(multipath)]
                packet = make_data(1, i, 0, dst, payload_bytes=100)
                assert switch.routing.next_hop(switch, packet) == \
                    hops[expected_rng.randrange(len(hops))], switch.name
            sprayed += 1
        assert sprayed > 0
        # Switches with no equal-cost choice never seeded a stream.
        assert len(random_objects_in(net)) == sprayed

    def test_ecmp_never_draws(self):
        sim = Simulator(seed=self.SEED)
        net = build_interdc(sim, paper_interdc_config(), routing="ecmp").net
        tables = next(s.routing for s in net.switches)._tables
        for switch in net.switches:
            for dst in tables[switch.id]:
                switch.routing.next_hop(switch, make_data(7, 0, 0, dst, payload_bytes=100))
        assert all(switch.spray_rng is None for switch in net.switches)
        assert random_objects_in(net) == []
