import math
import random
from collections import deque

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from bidforward import topology
from bidforward.model import BACKBONE
from bidforward.topology import (
    TopologyError,
    TopologyGraph,
    churn,
    generate,
    view_of,
)


def edge_set(view):
    """The edges a view holds: those with an endpoint whose neighbourhood it covers."""
    g = view.graph
    return {
        (min(u, v), max(u, v))
        for u in range(g.n)
        if view.covers_neighborhood(u)
        for v in g.neighbors(u)
    }


def bfs_oracle(edges, n, src):
    """Independent brute-force BFS used to cross-check hop_distance."""
    adj = {u: set() for u in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


class TestGenerate:
    def test_ring_is_a_cycle(self):
        g = generate("ring", 4)
        assert all(len(g.neighbors(u)) == 2 for u in range(4))
        assert g.edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]

    def test_grid_nine_is_three_by_three(self):
        g = generate("grid", 9)
        assert len(g.neighbors(0)) == 2  # corner
        assert len(g.neighbors(4)) == 4  # center
        assert len(g.edges()) == 12

    def test_grid_cols_one_is_a_path(self):
        g = generate("grid", 5, cols=1)
        assert g.edges() == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_geometric_deterministic(self):
        g1 = generate("geometric", 20, radius=0.4, seed=7)
        g2 = generate("geometric", 20, radius=0.4, seed=7)
        assert g1.edges() == g2.edges()
        assert g1.connected

    def test_geometric_impossible_radius_fails(self):
        with pytest.raises(TopologyError):
            generate("geometric", 30, radius=0.01, seed=1)

    def test_unknown_kind(self):
        with pytest.raises(TopologyError):
            generate("torus", 9)

    def test_gateways_required(self):
        with pytest.raises(TopologyError):
            TopologyGraph(3, [(0, 1), (1, 2)], gateways=())

    @pytest.mark.parametrize("gateways", [{0, 3}, frozenset({3, 0})])
    def test_gateways_may_be_a_set(self, gateways):
        topology.check_generate("ring", 5, gateways=gateways)
        assert generate("ring", 5, gateways=gateways).gateways == frozenset({0, 3})

    @pytest.mark.parametrize("check", [topology.check_generate, generate])
    def test_gateway_listed_twice(self, check):
        with pytest.raises(TopologyError, match="gateway 3 is listed twice") as exc:
            check("ring", 5, gateways=[3, 0, 3])
        assert exc.value.field == "gateways"


def reference_geometric(n, radius, seed):
    """The edges ``generate("geometric")`` built by a whole graph per attempt,
    tested by a BFS from node 0; None when every attempt was disconnected."""
    rng = random.Random(seed)
    for _ in range(topology.GEOMETRIC_MAX_ATTEMPTS):
        points = [(rng.random(), rng.random()) for _ in range(n)]
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if math.dist(points[u], points[v]) <= radius
        ]
        if len(bfs_oracle(edges, n, 0)) == n:
            return sorted(edges)
    return None


class TestGeometricAgainstReference:
    @pytest.mark.parametrize("n", [2, 3, 8, 20, 40])
    @pytest.mark.parametrize("radius", [0.15, 0.3, 0.5])
    def test_same_edges_and_failures(self, n, radius):
        for seed in range(12):
            expected = reference_geometric(n, radius, seed)
            if expected is None:
                with pytest.raises(TopologyError):
                    generate("geometric", n, radius=radius, seed=seed)
            else:
                assert generate("geometric", n, radius=radius, seed=seed).edges() == expected


class TestKnownConnected:
    def test_generated_graphs_know_they_are_connected(self):
        graphs = [generate("ring", 5), generate("grid", 6), generate("geometric", 15, radius=0.5)]
        assert all(g.connected is True for g in graphs)

    def test_graphs_from_edges_know_at_once(self):
        joined = TopologyGraph(3, [(0, 1), (1, 2)], gateways=(0,))
        split = TopologyGraph(3, [(0, 1)], gateways=(0,))
        assert joined.connected is True and split.connected is False
        read = TopologyGraph.from_edge_list("n 3\n0 1\ngateways 0\n")
        assert read.connected is False
        assert TopologyGraph.from_edge_list(joined.to_edge_list()).connected is True

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(4, 12), seed=st.integers(0, 10_000), p=st.floats(0.01, 1.0),
           data=st.data())
    def test_churn_carries_what_it_knows(self, n, seed, p, data):
        g = random_edge_list_graph(data, n)
        assert g.connected == nx.is_connected(nx_graph(g))
        for step in range(3):
            known = g.connected
            out = churn(g, p, seed=seed + step)
            truth = nx.is_connected(nx_graph(out))
            assert out.connected == truth
            if known:
                assert truth
            g = out


class TestHopDistance:
    def test_ring_antipodal(self):
        g = generate("ring", 6)
        assert g.hop_distance(0, 3) == 3

    def test_identity(self):
        g = generate("grid", 9)
        assert all(g.hop_distance(v, v) == 0 for v in range(9))

    def test_grid_corner_to_corner(self):
        g = generate("grid", 9)
        assert g.hop_distance(0, 8) == 4

    def test_unreachable_is_none(self):
        g = TopologyGraph(4, [(0, 1), (2, 3)], gateways=(0,))
        assert g.hop_distance(0, 3) is None

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(5, 16))
    def test_matches_bfs_oracle(self, seed, n):
        g = generate("geometric", n, radius=0.6, seed=seed)
        oracle = bfs_oracle(g.edges(), n, 0)
        for v in range(n):
            assert g.hop_distance(0, v) == oracle.get(v)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_symmetry_and_triangle_inequality(self, seed):
        g = generate("geometric", 10, radius=0.5, seed=seed)
        for a in range(g.n):
            for b in range(g.n):
                d_ab = g.hop_distance(a, b)
                assert d_ab == g.hop_distance(b, a)
                for c in range(g.n):
                    d_ac, d_cb = g.hop_distance(a, c), g.hop_distance(c, b)
                    if d_ac is not None and d_cb is not None:
                        assert d_ab is not None and d_ab <= d_ac + d_cb


class TestNodeView:
    def test_one_hop_view_on_ring(self):
        g = generate("ring", 6)
        view = view_of(g, 0, 1)
        assert edge_set(view) == {(0, 1), (0, 5)}

    def test_two_hop_view_on_ring(self):
        g = generate("ring", 6)
        view = view_of(g, 0, 2)
        assert edge_set(view) == {(0, 1), (0, 5), (1, 2), (4, 5)}

    def test_full_radius_view_is_whole_graph(self):
        g = generate("ring", 6)
        view = view_of(g, 0, 6)
        assert edge_set(view) == set(g.edges())
        assert view.distance(2, 5) == g.hop_distance(2, 5)

    def test_view_distance_unknown_outside(self):
        g = generate("ring", 8)
        view = view_of(g, 0, 1)
        assert view.distance(0, 4) is None

    def test_covers_neighborhood(self):
        g = generate("ring", 6)
        view = view_of(g, 0, 2)
        assert view.covers_neighborhood(1)      # dist 1 <= k-1
        assert not view.covers_neighborhood(2)  # dist 2 > k-1

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 5_000), k=st.integers(1, 4))
    def test_view_monotone_in_k(self, seed, k):
        g = generate("geometric", 12, radius=0.5, seed=seed)
        smaller = edge_set(view_of(g, 3, k))
        bigger = edge_set(view_of(g, 3, k + 1))
        assert smaller <= bigger

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 5_000), k=st.integers(1, 4))
    def test_view_edge_invariant(self, seed, k):
        g = generate("geometric", 12, radius=0.5, seed=seed)
        view = view_of(g, 0, k)
        for u, v in edge_set(view):
            du, dv = g.hop_distance(0, u), g.hop_distance(0, v)
            assert min(x for x in (du, dv) if x is not None) <= k - 1



def oracle_view(graph, owner, k):
    """networkx subgraph of the edges with an endpoint within k-1 hops of owner."""
    full = nx.Graph(graph.edges())
    full.add_nodes_from(range(graph.n))
    inner = {v for v, d in nx.single_source_shortest_path_length(full, owner).items() if d < k}
    sub = nx.Graph(e for e in full.edges() if e[0] in inner or e[1] in inner)
    sub.add_node(owner)
    return sub, inner


class TestNodeViewAgainstNetworkx:
    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(["ring", "grid", "geometric", "churned"]),
        n=st.integers(4, 12),
        seed=st.integers(0, 10_000),
    )
    def test_every_query_matches_the_subgraph(self, kind, n, seed):
        if kind in ("ring", "grid"):
            g = generate(kind, n)
        else:
            g = generate("geometric", n, radius=0.6, seed=seed)
            if kind == "churned":
                g = churn(g, 0.2, seed=seed)
        for owner in range(n):
            for k in (1, 2, 3, 4, n):
                view = view_of(g, owner, k)
                sub, inner = oracle_view(g, owner, k)
                lengths = dict(nx.all_pairs_shortest_path_length(sub))
                assert edge_set(view) == {(min(e), max(e)) for e in sub.edges()}
                assert view.distance(owner, BACKBONE) is None
                assert view.distance(owner, n) is None
                for v in range(n):
                    assert (view.distance(owner, v) is not None) == (v in sub)
                    expected = frozenset(sub[v]) if v in sub else frozenset()
                    assert view.neighbors(v) == expected
                    assert view.covers_neighborhood(v) == (v in inner)
                    for b in range(n):
                        assert view.distance(v, b) == lengths.get(v, {}).get(b)


def nx_graph(g):
    graph = nx.Graph(g.edges())
    graph.add_nodes_from(range(g.n))
    return graph


class TestBoundedViewWork:
    def test_owner_bfs_expands_only_nodes_closer_than_k(self, monkeypatch):
        g = generate("geometric", 400, radius=0.1, seed=2)
        lookups = [0]
        real_balls = topology._balls

        class CountedMasks:
            def __init__(self, mask):
                self.mask = mask

            def __getitem__(self, u):
                lookups[0] += 1
                return self.mask[u]

        def counting_balls(mask, *args):
            return real_balls(CountedMasks(mask), *args)

        monkeypatch.setattr(topology, "_balls", counting_balls)
        for owner in range(g.n):
            assert view_of(g, owner, 3).distance(owner, owner) == 0
        full = nx_graph(g)
        # The k-ball's nodes at depth k are reached but never expanded.
        expected = sum(
            len(nx.single_source_shortest_path_length(full, owner, cutoff=2))
            for owner in range(g.n)
        )
        assert lookups[0] == expected


class TestSymmetricViewDistances:
    """A chooser asks ``distance(bidder, dest)`` for many bidders and one ``dest``."""

    def test_one_bfs_per_destination(self, monkeypatch):
        g = churn(generate("geometric", 50, radius=0.3, seed=1), 0.05, seed=3)
        sources = []
        real_balls, real_levels = topology._balls, topology._levels

        def counting_balls(mask, adj, src, depth):
            sources.append(("ball", src))
            return real_balls(mask, adj, src, depth)

        def counting_levels(mask, n, src, inner=-1):
            sources.append(("search", src))
            return real_levels(mask, n, src, inner)

        monkeypatch.setattr(topology, "_balls", counting_balls)
        monkeypatch.setattr(topology, "_levels", counting_levels)
        full = nx_graph(g)
        for owner in (0, 7, 31):
            for k in (1, 2, 3, g.n):
                known = [
                    v for v in range(g.n) if view_of(g, owner, k).distance(owner, v) is not None
                ]
                for dest in known:
                    view = view_of(g, owner, k)
                    sources.clear()
                    for x in range(-1, g.n + 1):
                        view.distance(x, dest)
                    # The owner's bounded ball, then one level search over the view from dest.
                    assert sources == [("ball", owner), ("search", dest)]
                    if k == g.n:
                        expected = nx.single_source_shortest_path_length(full, dest)
                        assert [view.distance(x, dest) for x in known] == [
                            expected[x] for x in known
                        ]


def random_edge_list_graph(data, n):
    """A graph over random edges, often disconnected, with one or two gateways."""
    gateways = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=2))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = data.draw(st.sets(pairs.filter(lambda e: e[0] < e[1]), max_size=2 * n))
    text = "\n".join([f"n {n}", *(f"{u} {v}" for u, v in sorted(edges))])
    return TopologyGraph.from_edge_list(text + "\ngateways " + " ".join(map(str, gateways)))


def bits(nodes):
    return sum(1 << v for v in nodes)


class TestMasksAgainstNetworkx:
    """Neighbour masks, mask reachability, view balls and the mask level searches
    behind graph and view distances, after chains of churn steps."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(4, 14),
        seed=st.integers(0, 10_000),
        p=st.sampled_from([0.01, 0.2, 1.0]),
        steps=st.integers(1, 4),
        data=st.data(),
    )
    def test_masks_reach_and_views_match(self, n, seed, p, steps, data):
        g = random_edge_list_graph(data, n)
        for step in range(steps + 1):
            if step:
                g = churn(g, p, seed=seed + step)
            full = nx_graph(g)
            for u in range(n):
                assert g._mask[u] == bits(g.neighbors(u))
                component = nx.node_connected_component(full, u)
                assert topology._reach(g._mask, u) == bits(component)
                for v in range(n):
                    if v != u:
                        reached = topology._reach(g._mask, u, 1 << v)
                        assert bool(reached >> v & 1) == (v in component)
            # Across components a level search reaches nothing: None.
            hops = dict(nx.all_pairs_shortest_path_length(full))
            for u in range(n):
                for v in range(n):
                    assert g.hop_distance(u, v) == hops[u].get(v)
            for owner in range(n):
                for k in (1, 2, 3, n):
                    view = view_of(g, owner, k)
                    lengths = nx.single_source_shortest_path_length(full, owner, cutoff=k)
                    for x in range(-1, n + 1):
                        d = lengths.get(x)
                        assert view._hops(x) == d
                        assert view.distance(owner, x) == d
                        assert view.covers_neighborhood(x) == (d is not None and d < k)
                    sub, _ = oracle_view(g, owner, k)
                    within = dict(nx.all_pairs_shortest_path_length(sub))
                    for a in range(-1, n + 1):
                        assert view.neighbors(a) == (frozenset(sub[a]) if a in sub else frozenset())
                        for b in range(-1, n + 1):
                            assert view.distance(a, b) == within.get(a, {}).get(b)


def reference_churn(g, p, seed):
    """The original churn: every node pair in (u, v) order, a whole-graph BFS per removal."""
    rng = random.Random(seed)
    adj = [set(g.neighbors(u)) for u in range(g.n)]

    def connected():
        seen = {0}
        queue = deque([0])
        while queue:
            for v in adj[queue.popleft()]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        return len(seen) == g.n

    for u in range(g.n):
        for v in range(u + 1, g.n):
            if u in g.gateways or v in g.gateways:
                continue
            if rng.random() >= p:
                continue
            if v in adj[u]:
                adj[u].discard(v)
                adj[v].discard(u)
                if not connected():
                    adj[u].add(v)
                    adj[v].add(u)
            else:
                adj[u].add(v)
                adj[v].add(u)
    return sorted((u, v) for u in range(g.n) for v in adj[u] if u < v)


class TestChurnAgainstReference:
    @settings(max_examples=80, deadline=None)
    @given(
        kind=st.sampled_from(["ring", "grid", "geometric", "edge-list"]),
        n=st.integers(4, 14),
        seed=st.integers(0, 10_000),
        p=st.floats(0.005, 1.0),
        steps=st.integers(1, 4),
        data=st.data(),
    )
    def test_same_graphs_as_the_reference(self, kind, n, seed, p, steps, data):
        gateways = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=2))
        if kind == "edge-list":
            pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            edges = data.draw(st.sets(pairs.filter(lambda e: e[0] < e[1]), max_size=2 * n))
            text = "\n".join([f"n {n}", *(f"{u} {v}" for u, v in sorted(edges))])
            g = TopologyGraph.from_edge_list(text + "\ngateways " + " ".join(map(str, gateways)))
        elif kind == "geometric":
            g = generate("geometric", n, radius=0.6, seed=seed, gateways=gateways)
        else:
            g = generate(kind, n, gateways=gateways)
        for step in range(steps):
            before = (g.edges(), g.gateways, [g.neighbors(u) for u in range(n)])
            was_connected = nx.is_connected(nx_graph(g))
            out = churn(g, p, seed=seed + step)
            assert out.edges() == reference_churn(g, p, seed + step)
            assert (g.edges(), g.gateways, [g.neighbors(u) for u in range(n)]) == before
            assert out.gateways == g.gateways
            if was_connected:
                assert nx.is_connected(nx_graph(out))
            g = out


class TestChurn:
    def test_zero_probability_is_identity(self):
        g = generate("grid", 9)
        assert churn(g, 0.0, seed=1) is g

    def test_same_seed_same_result(self):
        g = generate("geometric", 15, radius=0.5, seed=3)
        c1 = churn(g, 0.3, seed=11)
        c2 = churn(g, 0.3, seed=11)
        assert c1.edges() == c2.edges()

    def test_gateway_edges_preserved_at_full_churn(self):
        g = generate("grid", 9, gateways=(0,))
        churned = churn(g, 1.0, seed=5)
        for v in g.neighbors(0):
            assert v in churned.neighbors(0)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 5_000), p=st.floats(0.0, 1.0))
    def test_connectivity_preserved(self, seed, p):
        g = generate("ring", 10)
        assert churn(g, p, seed=seed).connected


class TestEdgeListFormat:
    def test_round_trip(self):
        g = generate("grid", 6, gateways=(0, 3))
        text = g.to_edge_list()
        assert text.splitlines()[0] == "n 6"
        assert text.splitlines()[-1] == "gateways 0 3"
        back = TopologyGraph.from_edge_list(text)
        assert back.edges() == g.edges()
        assert back.gateways == g.gateways
