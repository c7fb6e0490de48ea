"""Network graphs: generation, shortest-hop queries, restricted k-hop views, churn.

Graphs are simple and undirected over dense integer node ids. The backbone
is not part of the adjacency; the gateway set marks nodes adjacent to it.
A k-hop view answers from a BFS of its owner that stops at depth k, so its
work is that of the owner's k-ball, not of the whole graph. A churn step
costs one random draw per non-gateway pair, a search per removal that stops
once the edge's ends are joined another way, and a copy of the neighbour
sets it toggles.
"""

from __future__ import annotations

import math
import random
from collections import deque
from typing import Callable, Iterable, Sequence

from .model import NodeId

GEOMETRIC_MAX_ATTEMPTS = 50


class TopologyError(ValueError):
    """Raised for invalid graph parameters or failed generation."""


class TopologyGraph:
    """Immutable simple graph plus its gateway set.

    Shortest-hop distances are BFS results cached per source node.
    """

    __slots__ = ("n", "_adj", "gateways", "_dist")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], gateways: Iterable[int]):
        if n < 2:
            raise TopologyError("graph needs at least 2 nodes")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise TopologyError(f"edge ({u},{v}) out of range")
            if u == v:
                raise TopologyError(f"self-loop at {u}")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self._adj: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in adj)
        self.gateways: frozenset[int] = frozenset(gateways)
        if not self.gateways:
            raise TopologyError("gateway set must be non-empty")
        if any(not (0 <= g < n) for g in self.gateways):
            raise TopologyError("gateway id out of range")
        self._dist: dict[int, list[int | None]] = {}

    @classmethod
    def _from_adjacency(
        cls, adj: tuple[frozenset[int], ...], gateways: frozenset[int]
    ) -> "TopologyGraph":
        """A graph over ``adj`` as given: symmetric and loop-free, not checked or copied."""
        graph = cls.__new__(cls)
        graph.n, graph._adj, graph.gateways, graph._dist = len(adj), adj, gateways, {}
        return graph

    def neighbors(self, u: NodeId) -> frozenset[int]:
        return self._adj[u]

    def edges(self) -> list[tuple[int, int]]:
        """Edge list with u < v, sorted."""
        out = []
        for u in range(self.n):
            for v in self._adj[u]:
                if u < v:
                    out.append((u, v))
        return sorted(out)

    def distances_from(self, src: NodeId) -> Sequence[int | None]:
        """All-nodes hop distances from ``src`` (``None`` where unreachable)."""
        cached = self._dist.get(src)
        if cached is None:
            cached = _bfs(self._adj.__getitem__, self.n, src)
            self._dist[src] = cached
        return cached

    def hop_distance(self, a: NodeId, b: NodeId) -> int | None:
        """Shortest-path length in hops; 0 iff a == b; None if unreachable."""
        return self.distances_from(a)[b]

    def is_connected(self) -> bool:
        return all(d is not None for d in self.distances_from(0))

    def to_edge_list(self) -> str:
        lines = [f"n {self.n}"]
        lines.extend(f"{u} {v}" for u, v in self.edges())
        lines.append("gateways " + " ".join(str(g) for g in sorted(self.gateways)))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_edge_list(cls, text: str) -> "TopologyGraph":
        n = None
        edges = []
        gateways: list[int] = []
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line:
                continue
            try:
                if line.startswith("n "):
                    n = int(line.split()[1])
                elif line.startswith("gateways"):
                    gateways = [int(tok) for tok in line.split()[1:]]
                else:
                    u, v = line.split()
                    edges.append((int(u), int(v)))
            except ValueError:
                raise TopologyError(
                    f"line {lineno}: expected 'n <count>', 'gateways <id> ...' "
                    f"or '<u> <v>', got {line!r}"
                ) from None
        if n is None:
            raise TopologyError("edge list missing 'n <count>' line")
        return cls(n, edges, gateways)


def _bfs(
    neighbors: Callable[[int], Iterable[int]], n: int, src: int, depth: int | None = None
) -> list[int | None]:
    """Hop distances from ``src`` over the edges ``neighbors`` gives.

    With ``depth``, nodes at that depth are not expanded: only nodes within
    ``depth`` hops get a distance, and ``neighbors`` is called once for each
    node closer than that.
    """
    dist: list[int | None] = [None] * n
    dist[src] = 0
    frontier = [src]
    d = 0
    while frontier and d != depth:
        d += 1
        reached = []
        for u in frontier:
            for v in neighbors(u):
                if dist[v] is None:
                    dist[v] = d
                    reached.append(v)
        frontier = reached
    return dist


def generate(
    kind: str,
    n: int,
    *,
    seed: int = 0,
    radius: float | None = None,
    cols: int | None = None,
    gateways: Iterable[int] = (0,),
) -> TopologyGraph:
    """Build a connected graph of the requested family, deterministically.

    ``ring`` is a cycle, ``grid`` a rows x cols lattice (cols defaults to the
    smallest divisor of n at least sqrt(n); pass cols=1 for a path), and
    ``geometric`` places points uniformly in the unit square, connecting
    pairs within ``radius``, redrawing up to a bounded attempt count until
    connected.
    """
    if n < 2:
        raise TopologyError("n must be >= 2")
    if kind == "ring":
        edges = [(i, (i + 1) % n) for i in range(n)] if n > 2 else [(0, 1)]
        return TopologyGraph(n, edges, gateways)
    if kind == "grid":
        c = cols if cols is not None else _default_cols(n)
        if c < 1 or n % c != 0:
            raise TopologyError(f"grid: {n} nodes do not factor into columns of {c}")
        rows = n // c
        edges = []
        for r in range(rows):
            for col in range(c):
                node = r * c + col
                if col + 1 < c:
                    edges.append((node, node + 1))
                if r + 1 < rows:
                    edges.append((node, node + c))
        return TopologyGraph(n, edges, gateways)
    if kind == "geometric":
        if radius is None:
            raise TopologyError("geometric graphs need a connection radius")
        rng = random.Random(seed)
        for _ in range(GEOMETRIC_MAX_ATTEMPTS):
            points = [(rng.random(), rng.random()) for _ in range(n)]
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if math.dist(points[u], points[v]) <= radius
            ]
            graph = TopologyGraph(n, edges, gateways)
            if graph.is_connected():
                return graph
        raise TopologyError(
            f"geometric: no connected graph with n={n}, radius={radius} "
            f"after {GEOMETRIC_MAX_ATTEMPTS} attempts"
        )
    raise TopologyError(f"unknown topology kind {kind!r}")


def _default_cols(n: int) -> int:
    start = math.isqrt(n)
    if start * start < n:
        start += 1
    for c in range(start, n + 1):
        if n % c == 0:
            return c
    return n


class NodeView:
    """One node's restricted knowledge of a graph: a window onto ``g``, not a copy.

    The view holds every edge with at least one endpoint within k-1 hops of
    the owner, so it knows exactly the nodes within k hops; with k at least
    the diameter this is the whole graph. Everything is answered from the
    owner's distance list, a BFS over ``g`` bounded at depth k that runs on
    the first query; the graph's own BFS cache is not used. The owner's
    distance to a known node is exact, because every shortest path of length
    at most k lies inside the view. The view's adjacency is built once, on
    the first ``neighbors`` query or distance from another source. It is
    symmetric, so ``distance(a, b)`` reads ``a`` off one BFS over it from
    ``b``, cached per destination: a chooser asks ``distance(bidder, dest)``
    for many bidders and one destination.
    """

    __slots__ = ("graph", "owner", "k", "_own", "_adj", "_dist")

    def __init__(self, g: TopologyGraph, owner: NodeId, k: int):
        self.graph = g
        self.owner = owner
        self.k = k
        self._own: list[int | None] | None = None
        self._adj: dict[int, frozenset[int]] | None = None
        self._dist: dict[int, list[int | None]] = {}

    def _owner_distances(self) -> list[int | None]:
        """The owner's hop distances, None beyond k hops."""
        own = self._own
        if own is None:
            g = self.graph
            own = self._own = _bfs(g._adj.__getitem__, g.n, self.owner, self.k)
        return own

    def _hops(self, node: NodeId) -> int | None:
        """The owner's hop distance to ``node``; None when beyond k or not a node."""
        own = self._owner_distances()
        return own[node] if 0 <= node < len(own) else None

    def _adjacency(self) -> dict[int, frozenset[int]]:
        """Known node -> its neighbors in the view."""
        adj = self._adj
        if adj is None:
            k, nbrs = self.k, self.graph._adj
            own = self._owner_distances()
            inner = frozenset(v for v, d in enumerate(own) if d is not None and d < k)
            # At the rim only the edges back to nodes within k-1 hops are in the view.
            adj = self._adj = {
                v: nbrs[v] if d < k else nbrs[v] & inner
                for v, d in enumerate(own)
                if d is not None
            }
        return adj

    def knows(self, node: NodeId) -> bool:
        return self._hops(node) is not None

    def neighbors(self, node: NodeId) -> frozenset[int]:
        """Known neighbors of ``node``; empty when the node is unknown."""
        return self._adjacency().get(node, frozenset())

    def covers_neighborhood(self, node: NodeId) -> bool:
        """True when every edge incident to ``node`` is in the view."""
        d = self._hops(node)
        return d is not None and d <= self.k - 1

    def distance(self, a: NodeId, b: NodeId) -> int | None:
        """Shortest-hop distance using known edges only; None when unknown."""
        if a == self.owner:
            return self._hops(b)
        if not self.knows(a) or not self.knows(b):
            return None
        from_b = self._dist.get(b)
        if from_b is None:
            from_b = self._dist[b] = _bfs(self._adjacency().__getitem__, self.graph.n, b)
        return from_b[a]


def view_of(g: TopologyGraph, owner: NodeId, k: int) -> NodeView:
    """The owner's k-hop view of ``g``; queries read ``g`` itself, nothing is copied."""
    if k < 1:
        raise TopologyError("view radius k must be >= 1")
    return NodeView(g, owner, k)


def churn(g: TopologyGraph, p: float, seed: int) -> TopologyGraph:
    """Toggle each non-gateway node pair with probability ``p``.

    Pairs touching a gateway are left alone, and any toggle that would
    disconnect the graph is reverted; on a disconnected graph every removal
    is, until additions connect it. Pairs are drawn in ``(u, v)`` order,
    one random number each, so the result is deterministic for a given
    seed. ``g`` is not changed; the result shares the neighbor sets of the
    nodes no toggle touched, and is ``g`` itself when nothing was toggled.
    """
    if not 0.0 <= p <= 1.0:
        raise TopologyError("churn probability must be in [0, 1]")
    if p == 0.0:
        return g
    draw = random.Random(seed).random
    n = g.n
    free = [u for u in range(n) if u not in g.gateways]
    adj: list[frozenset[int] | set[int]] = list(g._adj)
    edited: dict[int, set[int]] = {}

    def edit(x: int) -> set[int]:
        s = edited.get(x)
        if s is None:
            s = edited[x] = set(adj[x])
            adj[x] = s
        return s

    connected: bool | None = None  # whether adj is connected, tested when first needed
    for i, u in enumerate(free):
        for v in [v for v in free[i + 1:] if draw() < p]:
            if v in adj[u]:
                if connected is None:
                    connected = None not in _bfs(adj.__getitem__, n, 0)
                # Removing an edge of a connected graph keeps it connected iff
                # its ends are still joined by another path.
                if connected and _detour(adj, u, v):
                    edit(u).discard(v)
                    edit(v).discard(u)
            else:
                edit(u).add(v)
                edit(v).add(u)
                if connected is False:
                    connected = None not in _bfs(adj.__getitem__, n, 0)
    if not edited:
        return g
    for x, s in edited.items():
        adj[x] = frozenset(s)
    return TopologyGraph._from_adjacency(tuple(adj), g.gateways)  # type: ignore[arg-type]


def _detour(adj: Sequence[Iterable[int]], u: int, v: int) -> bool:
    """Whether ``u`` reaches ``v`` other than over the edge (u, v); stops once it does."""
    first = set(adj[u])
    first.discard(v)
    seen = first | {u}
    queue = deque(first)
    while queue:
        for y in adj[queue.popleft()]:
            if y == v:
                return True
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return False
