"""Network graphs: generation, shortest-hop queries, restricted k-hop views, churn.

Graphs are simple and undirected over dense integer node ids. The backbone
is not part of the adjacency; the gateway set marks nodes adjacent to it.
Besides its neighbour sets a graph keeps one integer mask per node, bit v
set for each neighbour v.

A k-hop view's first query grows its owner's balls, the masks of the nodes
within 0, 1, ..., k hops, by ORing the masks of each frontier's nodes: one
mask read per node closer than k, and nothing past the k-ball. After that,
``covers_neighborhood`` tests one bit, and the owner's distances are read
off the balls. Every other hop distance, the graph's
(``distances_from``) or a view's between two other nodes, comes from one
level search over the masks per source, cached as a distance list: each
level is the OR of its nodes' masks, and a view keeps only the bits of the
edges it holds. Neither a graph nor a view builds an adjacency of its own
beyond the neighbour sets and masks.

A churn step costs one random draw per non-gateway pair, over a pair list
built once per node count and gateway set; per removal, a common-neighbour
test and, failing that, a mask search from one end that stops at the level
where it meets the other; and new neighbour sets for the nodes it toggled.
A graph knows whether it is connected from the moment it is built: the
constructor runs one search over the masks, and ``churn`` carries the answer
forward from its input, so churning a connected graph never searches the
whole graph.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache, reduce
from operator import or_
from typing import Iterable, Sequence

from .model import NodeId

GEOMETRIC_MAX_ATTEMPTS = 50


class TopologyError(ValueError):
    """Raised for invalid graph parameters or failed generation; ``field`` names
    the ``generate`` parameter at fault when no seed could build the graph."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class TopologyGraph:
    """Immutable simple graph plus its gateway set.

    Shortest-hop distances are mask level searches cached per source node.
    ``connected`` is whether the graph is connected: the constructor finds
    it with one search from node 0, and ``churn`` hands it on.
    """

    __slots__ = ("n", "_adj", "_mask", "gateways", "_dist", "connected")

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
        self._mask: tuple[int, ...] = tuple(sum(1 << v for v in s) for s in adj)
        self.gateways: frozenset[int] = frozenset(gateways)
        if not self.gateways:
            raise TopologyError("gateway set must be non-empty")
        if any(not (0 <= g < n) for g in self.gateways):
            raise TopologyError("gateway id out of range")
        self._dist: dict[int, list[int | None]] = {}
        self.connected: bool = _reach(self._mask, 0) == (1 << n) - 1

    @classmethod
    def _from_adjacency(
        cls,
        adj: tuple[frozenset[int], ...],
        mask: tuple[int, ...],
        gateways: frozenset[int],
        connected: bool,
    ) -> "TopologyGraph":
        """A graph over ``adj`` and its masks as given: symmetric, loop-free and
        in agreement, not checked or copied."""
        graph = cls.__new__(cls)
        graph.n, graph._adj, graph._mask = len(adj), adj, mask
        graph.gateways, graph._dist, graph.connected = gateways, {}, connected
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
            cached = self._dist[src] = _levels(self._mask, self.n, src)
        return cached

    def hop_distance(self, a: NodeId, b: NodeId) -> int | None:
        """Shortest-path length in hops; 0 iff a == b; None if unreachable."""
        return self.distances_from(a)[b]

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


def _balls(
    mask: Sequence[int], adj: Sequence[Iterable[int]], src: int, depth: int
) -> list[int]:
    """Cumulative balls around ``src``: ``balls[d]`` masks the nodes within d hops.

    Growth ends after ``depth`` levels or once the ball stops growing.
    ``mask`` is read once for each node closer than ``depth`` hops.
    """
    ball = 1 << src
    balls = [ball]
    frontier: Iterable[int] = (src,)
    while True:
        new = reduce(or_, map(mask.__getitem__, frontier), ball) ^ ball
        if not new:
            return balls
        ball |= new
        balls.append(ball)
        if len(balls) > depth:
            return balls
        # The first frontier is src's neighbour set; later ones are read off their bits.
        frontier = adj[src] if len(balls) == 2 else members(new)


def _levels(mask: Sequence[int], n: int, src: int, inner: int = -1) -> list[int | None]:
    """Hop distances from ``src`` over the edges with an end in ``inner``; None where unreached.

    A level search over the masks: a node in ``inner`` expands by its whole
    mask, any other by the part of its mask in ``inner``. With every bit of
    ``inner`` set, the default, that is every edge of the graph.
    """
    dist: list[int | None] = [None] * n
    ball = level = 1 << src
    d = 0
    while level:
        core, rim = members(level & inner), members(level & ~inner)
        for v in core + rim:
            dist[v] = d
        d += 1
        reach = reduce(or_, map(mask.__getitem__, core), 0)
        reach |= reduce(or_, map(mask.__getitem__, rim), 0) & inner
        level = reach & ~ball
        ball |= level
    return dist


def _reach(mask: Sequence[int], src: int, stop: int = 0) -> int:
    """The mask of the nodes ``src`` reaches, or of those within the first level
    that meets a bit of ``stop``."""
    ball = new = 1 << src
    while new and not ball & stop:
        new = reduce(or_, map(mask.__getitem__, members(new)), ball) ^ ball
        ball |= new
    return ball


def members(mask: int) -> list[int]:
    """The node ids whose bits are set in ``mask``, ascending."""
    out = []
    while mask:
        top = mask.bit_length() - 1
        out.append(top)
        mask ^= 1 << top
    out.reverse()
    return out


def check_generate(
    kind: str,
    n: int,
    *,
    radius: float | None = None,
    cols: int | None = None,
    gateways: Sequence[int] = (0,),
) -> None:
    """Raise the ``TopologyError`` that ``generate`` would raise for these
    parameters whatever its seed, naming the parameter at fault."""
    if kind not in ("ring", "grid", "geometric"):
        raise TopologyError(f"unknown topology kind {kind!r}", "kind")
    if n < 2:
        raise TopologyError("n must be >= 2", "n")
    if kind == "grid":
        c = cols if cols is not None else _default_cols(n)
        if c < 1 or n % c != 0:
            raise TopologyError(f"grid: {n} nodes do not factor into columns of {c}", "cols")
    if kind == "geometric":
        if radius is None:
            raise TopologyError("geometric graphs need a connection radius", "radius")
        if not radius > 0:
            raise TopologyError(f"geometric: radius must be > 0, got {radius}", "radius")
    if not gateways:
        raise TopologyError("gateway set must be non-empty", "gateways")
    seen = set()
    for g in gateways:
        if not 0 <= g < n:
            raise TopologyError(f"gateway {g} is not a node of a {n}-node graph", "gateways")
        if g in seen:
            raise TopologyError(f"gateway {g} is listed twice", "gateways")
        seen.add(g)


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
    connected. Only that last failure depends on the seed; ``check_generate``
    raises every other.
    """
    gateways = tuple(gateways)
    check_generate(kind, n, radius=radius, cols=cols, gateways=gateways)
    if kind == "ring":
        edges = [(i, (i + 1) % n) for i in range(n)] if n > 2 else [(0, 1)]
        return TopologyGraph(n, edges, gateways)
    if kind == "grid":
        c = cols if cols is not None else _default_cols(n)
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
        if graph.connected:
            return graph
    raise TopologyError(
        f"geometric: no connected graph with n={n}, radius={radius} "
        f"after {GEOMETRIC_MAX_ATTEMPTS} attempts"
    )


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

    The view holds every edge with at least one end within k-1 hops of the
    owner, its inner nodes, so it knows exactly the nodes within k hops; with
    k at least the diameter this is the whole graph. Everything is answered
    from ``g``'s neighbour masks and the owner's balls, grown up to depth k
    on the first query; the view keeps no adjacency of its own and does not
    use the graph's distance cache. An inner node's neighbours are all of
    its neighbours; a node at the rim's are those among the inner nodes.
    The owner's distance to a known node is read off the balls, and is exact
    because every shortest path of length at most k lies inside the view.
    The view's edges are symmetric, so ``distance(a, b)`` reads ``a`` off
    one level search from ``b`` over them, cached per destination: a chooser
    asks ``distance(bidder, dest)`` for many bidders and one destination.
    """

    __slots__ = ("graph", "owner", "k", "_balls", "_dist")

    def __init__(self, g: TopologyGraph, owner: NodeId, k: int):
        self.owner = owner
        self.k = k
        self.repoint(g)

    def repoint(self, g: TopologyGraph) -> None:
        """Make this the owner's k-hop view of ``g``, dropping what it read off any other graph."""
        self.graph = g
        self._balls: list[int] | None = None
        self._dist: dict[int, list[int | None]] = {}

    def _grow(self) -> list[int]:
        """The owner's balls for depths 0 up to k, fewer when its component is smaller."""
        g = self.graph
        balls = self._balls = _balls(g._mask, g._adj, self.owner, self.k)
        return balls

    def _inner(self, balls: list[int]) -> int:
        """The mask of the nodes within k-1 hops, whose every edge the view holds."""
        return balls[min(self.k, len(balls)) - 1]

    def _hops(self, node: NodeId) -> int | None:
        """The owner's hop distance to ``node``; None when beyond k or not a node."""
        if node < 0:
            return None
        balls = self._balls or self._grow()
        bit = 1 << node
        if not balls[-1] & bit:
            return None
        d = 0
        while not balls[d] & bit:
            d += 1
        return d

    def known(self) -> int:
        """The mask of the nodes the view knows: those within k hops of the owner."""
        return (self._balls or self._grow())[-1]

    def inner(self) -> int:
        """The mask of the nodes whose every edge the view holds: those within k-1 hops."""
        return self._inner(self._balls or self._grow())

    def neighbors(self, node: NodeId) -> frozenset[int]:
        """Known neighbors of ``node``; empty when the node is unknown."""
        balls = self._balls or self._grow()
        if node < 0 or not balls[-1] >> node & 1:
            return frozenset()
        inner = self._inner(balls)
        if inner >> node & 1:
            return self.graph._adj[node]
        return frozenset(members(self.graph._mask[node] & inner))

    def covers_neighborhood(self, node: NodeId) -> bool:
        """True when every edge incident to ``node`` is in the view."""
        return node >= 0 and self.inner() >> node & 1 == 1

    def distance(self, a: NodeId, b: NodeId) -> int | None:
        """Shortest-hop distance using known edges only; None when unknown."""
        if a == self.owner:
            return self._hops(b)
        balls = self._balls or self._grow()
        known = balls[-1]
        if a < 0 or b < 0 or not (known >> a & 1 and known >> b & 1):
            return None
        from_b = self._dist.get(b)
        if from_b is None:
            g = self.graph
            from_b = self._dist[b] = _levels(g._mask, g.n, b, self._inner(balls))
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
    is, until additions connect it. The result is connected when ``g`` is,
    and, like every graph, knows whether it is: from ``g.connected``, and
    after an addition to a disconnected graph, from one search. Pairs are
    drawn in ``(u, v)`` order, one random number each, so the result is
    deterministic for a given seed. ``g`` is not changed; the result shares
    the neighbor sets of the nodes no toggle touched, and is ``g`` itself
    when nothing was toggled.
    """
    if not 0.0 <= p <= 1.0:
        raise TopologyError("churn probability must be in [0, 1]")
    if p == 0.0:
        return g
    draw = random.Random(seed).random
    # No draw depends on a toggle, so every pair is drawn before any is toggled.
    toggles = [pair for pair in _free_pairs(g.n, g.gateways) if draw() < p]
    mask = list(g._mask)
    full = (1 << g.n) - 1
    flipped: dict[int, list[int]] = {}  # node -> the neighbours toggled at it
    connected = g.connected  # whether mask is connected
    for u, v in toggles:
        bu, bv = 1 << u, 1 << v
        if mask[u] & bv:
            if not connected:
                continue
            mask[u] ^= bv
            mask[v] ^= bu
            # Removing an edge of a connected graph keeps it connected iff
            # its ends are still joined by another path: a common neighbour
            # or, failing that, a search from u.
            if not (mask[u] & mask[v] or _reach(mask, u, bv) & bv):
                mask[u] |= bv
                mask[v] |= bu
                continue
        else:
            mask[u] |= bv
            mask[v] |= bu
            if not connected:
                connected = _reach(mask, 0) == full
        flipped.setdefault(u, []).append(v)
        flipped.setdefault(v, []).append(u)
    if not flipped:
        return g
    adj = list(g._adj)
    for x, partners in flipped.items():
        adj[x] = adj[x].symmetric_difference(partners)
    return TopologyGraph._from_adjacency(tuple(adj), tuple(mask), g.gateways, connected)


@lru_cache(maxsize=8)
def _free_pairs(n: int, gateways: frozenset[int]) -> tuple[tuple[int, int], ...]:
    """Every pair ``(u, v)``, u < v, of nodes that are not gateways, in ``(u, v)`` order."""
    free = [u for u in range(n) if u not in gateways]
    return tuple((u, v) for i, u in enumerate(free) for v in free[i + 1:])
