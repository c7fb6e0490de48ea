"""Round-based game loop: injection, per-hop auctions, settlement, event log.

Each round the backbone injects a batch of packets and every packet is
carried to completion: while the destination is not a 1-hop neighbor of the
holder, the holder announces a sealed-bid auction among its neighbors not
yet on the path; the winning bidder takes custody at its bid amount, which
becomes the ceiling bound for the next hop. Adjacent destinations are
delivered directly with no auction. Custody transfers consume TTL; running
out, finding no bidder, or a deliberate drop ends the packet with a fine.

An auction invites the holder's bidders in ascending order from a per-graph
table: a sorted tuple per holder (the gateways for the backbone), built on
the holder's first auction and dropped with the views whenever the graph
changes. A packet carries the set of the nodes on its path, grown by each
winner, and its auctions skip those nodes. Each bid is still checked against
the graph's own neighbour set.

Every event but a bid or a delivery, which change no profile, goes to the
observer stores that hear it. Under ``khop:<k>`` an event that some members
of a wolf pack hear and others do not is noted with the mask of those that
did not, and ``merge_pack`` folds it into them at the end of the round. An
event is built only for the log or for a store, and its seq advances either
way, so a run that keeps no log (``log=False``) numbers its events as a
logged run does.

Bids do not reach the bid histories as events: the auction hands each bid
to the run's one ``BidFeed``, which writes the run's one bid tape, and every
bid history is a window onto it. A packet keeps its announcements, each with
the mask of the history owners that heard it, and the feed records a bid
once per group of its hearers that heard the same latest announcement, with
the group's mask. A history reads the records whose mask has its owner's
bit, folding them only when it queries. The scope decides who hears, by the
one rule of ``ObservationScope.hearers``. Under ``global`` all subscribers
share one store, and every history owner hears every bid but its own.
Under ``khop:<k>`` every subscriber keeps its own store and hears the events
within k hops of it.

Views are taken once per run. After a churn step each is re-pointed at the
new graph, which drops what it had read off the old one.

A run is strictly sequential and deterministic for a given config, graph,
assignment and master seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from .model import (
    BACKBONE,
    AuctionRequest,
    Bid,
    EventKind,
    GameEvent,
    LedgerStatus,
    Money,
    NodeId,
    Packet,
    PathLedger,
    dropper_share,
    validate_bid,
)
from .observation import ObserverStore, merge_pack, parse_scope_spec
from .predictor import Announcements, BidFeed, BidHistory, PredictorConfig
from .seeding import derive_seed
from .strategies import Strategy, StrategyContext
from .topology import TopologyGraph, churn, members, view_of

# Reading a member off an Enum class goes through EnumType.__getattr__; the
# loop below emits once per event, so it names the kinds at module level.
_ANNOUNCED = EventKind.AUCTION_ANNOUNCED
_BID_PLACED = EventKind.BID_PLACED
_BID_WON = EventKind.BID_WON
_DELIVERED = EventKind.DELIVERED
_DROPPED = EventKind.DROPPED
_FINE = EventKind.FINE_ASSESSED
_PAYMENT = EventKind.PAYMENT

# Events are built as ``_new_tuple(GameEvent, fields)``: the NamedTuple's own
# ``__new__`` is a Python function, and binding its eleven fields costs about
# 2.5 times as much as the tuple itself.
_new_tuple = tuple.__new__

FINE_MODES = ("path-split", "dropper-only")

#: What an event's audience calls: a bound ``ObserverStore.apply``, or a
#: pack's note that appends the event and the mask of the members that missed it.
Sink = Callable[[GameEvent], object]


class EngineError(RuntimeError):
    """Configuration or contract violation detected by the engine."""


@dataclass(frozen=True)
class GameConfig:
    budget: Money = 100
    fine: Money = 200
    ttl: int = 8
    packets_total: int = 50
    injection_rate: int = 2
    observation: str = "global"  # "global" | "khop:<k>"
    forced_bid_mode: bool = False
    fine_mode: str = "path-split"
    churn_rate: float = 0.0
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise EngineError("budget must be >= 1")
        if self.fine < 0:
            raise EngineError("fine must be >= 0")
        if self.ttl < 1:
            raise EngineError("ttl must be >= 1")
        if self.packets_total < 1:
            raise EngineError("packets_total must be >= 1")
        if self.injection_rate < 1:
            raise EngineError("injection_rate must be >= 1")
        if self.fine_mode not in FINE_MODES:
            raise EngineError(f"fine_mode must be one of {FINE_MODES}")
        if not 0.0 <= self.churn_rate <= 1.0:
            raise EngineError("churn_rate must be in [0, 1]")
        try:
            parse_scope_spec(self.observation)
        except ValueError as exc:
            raise EngineError(f"observation: {exc}") from exc


@dataclass(frozen=True)
class SettlementResult:
    """A closed packet's signed balance change per path node, in path order (a drop
    lists its non-zero fine shares); the backbone's is ``-sum(deltas.values())``."""

    packet_id: int
    status: LedgerStatus
    deltas: dict[NodeId, Money]


def run_auction(request: AuctionRequest, bids: list[Bid], chooser=None) -> Bid | None:
    """Select a winner among valid bids, or None when there are none.

    ``chooser`` is the holder strategy's selection function; without one
    (the backbone's own auctions) the cheapest bid wins, ties to the lowest
    node id.
    """
    if not bids:
        return None
    if chooser is None:
        return min(bids, key=lambda b: (b.amount, b.bidder))
    winner = chooser(request, bids)
    if winner not in bids:
        raise EngineError("winner chooser returned a bid that was not offered")
    return winner


def settle_delivery(ledger: PathLedger) -> SettlementResult:
    """Each node earns its promise minus the promise it granted onward."""
    if ledger.status is not LedgerStatus.DELIVERED or not ledger.entries:
        raise EngineError("settle_delivery needs a delivered, non-empty ledger")
    promises = ledger.promises
    deltas = {node: p - q for (node, p), q in zip(ledger.entries, (*promises[1:], 0))}
    if sum(deltas.values()) != promises[0]:
        raise EngineError(f"delivery settlement broke conservation on packet {ledger.packet_id}")
    return SettlementResult(ledger.packet_id, ledger.status, deltas)


def settle_drop(
    ledger: PathLedger, fine: Money, fine_mode: str = "path-split"
) -> SettlementResult:
    """Assess the fine over the path; the backbone collects it in full.

    Path-split: every path node pays an equal floor share and the node that
    held the packet when it dropped pays the remainder on top. Dropper-only
    charges the holder alone.
    """
    if ledger.status is not LedgerStatus.DROPPED or not ledger.entries:
        raise EngineError("settle_drop needs a dropped, non-empty ledger")
    dropper = ledger.last_node
    k = len(ledger)
    if fine_mode == "path-split":
        shares = dict.fromkeys(ledger.nodes, fine // k)
        shares[dropper] = dropper_share(fine, k)
    elif fine_mode == "dropper-only":
        shares = {dropper: fine}
    else:
        raise EngineError(f"unknown fine_mode {fine_mode!r}")
    deltas = {node: -s for node, s in shares.items() if s != 0}
    if sum(deltas.values()) != -fine:
        raise EngineError(f"fine shares broke conservation on packet {ledger.packet_id}")
    return SettlementResult(ledger.packet_id, ledger.status, deltas)


@dataclass
class NodeStats:
    delivered: int = 0
    dropped: int = 0
    fines_paid: Money = 0


@dataclass
class SimulationResult:
    strategy_names: dict[NodeId, str]
    events: list[GameEvent]
    balances: dict[NodeId, Money]
    backbone_balance: Money
    stats: dict[NodeId, NodeStats]
    settlements: list[SettlementResult]
    rounds: int


BALANCES_CSV_HEADER = "node,strategy,balance,delivered,dropped,fines_paid"


def balances_csv(result: SimulationResult) -> str:
    lines = [BALANCES_CSV_HEADER]
    for node in sorted(result.balances):
        stats = result.stats[node]
        lines.append(
            f"{node},{result.strategy_names[node]},{result.balances[node]},"
            f"{stats.delivered},{stats.dropped},{stats.fines_paid}"
        )
    return "\n".join(lines) + "\n"


class Simulation:
    """One deterministic run. ``run()`` drives it; ``step_round()`` exposes
    round granularity for instrumentation.

    With ``log=False`` the run keeps no event log (``events`` stays empty)
    and builds an event only for a store that acts on it; balances, stats,
    settlements and every store's profiles are those of the logged run.
    """

    def __init__(
        self,
        config: GameConfig,
        graph: TopologyGraph,
        assignment: dict[NodeId, Strategy],
        predictor: PredictorConfig | None = None,
        *,
        log: bool = True,
    ):
        missing = [n for n in range(graph.n) if n not in assignment]
        if missing:
            raise EngineError(f"no strategy assigned to node {missing[0]}")
        extras = [n for n in assignment if not 0 <= n < graph.n]
        if extras:
            raise EngineError(f"strategy assigned to unknown node {extras[0]}")
        self.config = config
        self.graph = graph
        self.strategies = dict(assignment)
        self.predictor_cfg = predictor or PredictorConfig()
        self._scope = parse_scope_spec(config.observation)
        shared = self._scope.mode == "global"
        k = graph.n if shared else self._scope.k
        if shared:
            self._views = [view_of(graph, 0, k)] * graph.n
        else:
            self._views = [view_of(graph, node, k) for node in range(graph.n)]

        self._non_gateways = sorted(set(range(graph.n)) - graph.gateways)
        if not self._non_gateways:
            raise EngineError("every node is a gateway; no valid destinations exist")

        # Under global scope every subscriber hears every event in the same
        # order, so all observers share one store. Every node's history is a
        # window onto the feed's tape, reading the records with its bit.
        shared_store = ObserverStore() if shared else None
        self._feed = BidFeed(self.predictor_cfg, config.budget, config.ttl)

        seed = config.master_seed
        self._inject_rng = random.Random(derive_seed(seed, "inject"))
        self.contexts: dict[NodeId, StrategyContext] = {}
        # Each store, with its owner: the first node using it, which hears for it.
        stores: dict[ObserverStore, NodeId] = {}
        packs: dict[str, dict[NodeId, ObserverStore]] = {}
        self._history_owners = 0
        for node in range(graph.n):
            strat = self.strategies[node]
            observer = history = None
            if strat.uses_observation:
                observer = shared_store or ObserverStore()
            if strat.uses_bid_history:
                history = BidHistory(self.predictor_cfg, node, self._feed.tape)
                self._history_owners |= 1 << node
            self.contexts[node] = StrategyContext(
                node=node,
                view=self._views[node],
                rng=random.Random(derive_seed(seed, "node", node)),
                gateways=graph.gateways,
                forced_bid=config.forced_bid_mode,
                fine_mode=config.fine_mode,
                observer=observer,
                history=history,
            )
            if observer is not None:
                stores.setdefault(observer, node)
                if strat.pack is not None and not shared:
                    packs.setdefault(strat.pack, {})[node] = observer
        # What the audience calls for each store owner.
        self._owned: dict[NodeId, Sink] = {owner: store.apply for store, owner in stores.items()}
        self._store_owners = sum(1 << owner for owner in self._owned)
        # Per pack under khop scopes, where each member keeps its own store:
        # the members' mask, their stores, and the events some of them missed.
        self._packs = [
            (sum(1 << node for node in packs[pack]), packs[pack], [])
            for pack in sorted(packs)
        ]
        self._reset_tables()

        self._log = log
        self.events: list[GameEvent] = []
        self.balances: dict[NodeId, Money] = {n: 0 for n in range(graph.n)}
        self.backbone_balance: Money = 0
        self.stats: dict[NodeId, NodeStats] = {n: NodeStats() for n in range(graph.n)}
        self.settlements: list[SettlementResult] = []
        self.round = 0
        self._injected = 0
        self._seq = 0

    # -- topology plumbing ------------------------------------------------

    def _reset_tables(self) -> None:
        """Empty the tables built on the current graph's views.

        ``_views[v]`` is node v's view, one shared view under global scope;
        a churn step re-points each at the new graph before this runs.
        ``_hearers`` maps a location to the mask of the nodes that hear it,
        as ``ObservationScope.hearers`` sets it; both the stores' audiences
        and the bid feed read it. ``_audience`` maps a location to what its
        events go to: the stores of the store owners that hear it, and a
        note for each pack that it splits, some members hearing it and some
        not. ``_bidders`` maps a holder to the nodes its auctions invite, in
        ascending order: its neighbours, or the gateways for ``BACKBONE``.
        All three fill as auctions and events arrive.
        """
        self._hearers: dict[NodeId, int] = {}
        self._audience: dict[NodeId, list[Sink]] = {}
        self._bidders: dict[NodeId, tuple[NodeId, ...]] = {}

    def _hearing(self, location: NodeId) -> int:
        """The mask of the nodes that hear an event at ``location``."""
        hearers = self._hearers.get(location)
        if hearers is None:
            hearers = self._hearers[location] = self._scope.hearers(location, self._views)
        return hearers

    def _backbone_distance(self, node: NodeId) -> int | None:
        """Hops from the backbone (one past its gateways) to ``node``."""
        best = None
        for g in self.graph.gateways:
            d = self.graph.hop_distance(g, node)
            if d is not None and (best is None or d < best):
                best = d
        return None if best is None else best + 1

    # -- event plumbing ----------------------------------------------------

    def _emit(
        self,
        kind: EventKind,
        packet_id: int,
        node: NodeId,
        amount: Money,
        location: NodeId,
        *,
        dest: NodeId | None = None,
        dist: int | None = None,
        prev: Money | None = None,
        reason: str | None = None,
    ) -> None:
        """Take the next seq, and log the event and hand it to its audience.

        Bids and deliveries have none. The event is built only when the run
        keeps its log or its audience is not empty; the seq advances either
        way. A location's audience is built once per graph from its hearers
        mask: the stores of the store owners in it, in ascending order, then
        a note per pack that the mask splits. A run without stores builds
        none. Bid histories hear bids from the auction, not from here (see
        ``_collect_bids``).
        """
        seq = self._seq
        self._seq = seq + 1
        if self._store_owners and kind is not _BID_PLACED and kind is not _DELIVERED:
            audience = self._audience.get(location)
            if audience is None:
                hearing = self._hearing(location)
                audience = [self._owned[o] for o in members(hearing & self._store_owners)]
                for pack, _, missed in self._packs:
                    if hearing & pack and ~hearing & pack:
                        note, mask = missed.append, pack & ~hearing
                        audience.append(lambda event, note=note, mask=mask: note((event, mask)))
                self._audience[location] = audience
            if not audience and not self._log:
                return
        elif self._log:
            audience = ()
        else:
            return
        event = _new_tuple(GameEvent, (
            self.round, seq, kind, packet_id, node, amount, location, dest, dist, prev, reason,
        ))
        if self._log:
            self.events.append(event)
        for sink in audience:
            sink(event)

    # -- the game loop -----------------------------------------------------

    def step_round(self) -> bool:
        """Inject and resolve one round's batch; False when the run is over."""
        if self._injected >= self.config.packets_total:
            return False
        self._seq = 0
        for ctx in self.contexts.values():
            ctx.round = self.round
        for _ in range(self.config.injection_rate):
            if self._injected >= self.config.packets_total:
                break
            dest = self._non_gateways[self._inject_rng.randrange(len(self._non_gateways))]
            packet = Packet(
                self._injected, dest, self.config.budget, self.config.fine, self.config.ttl
            )
            self._injected += 1
            self._process_packet(packet)
        for _, stores, missed in self._packs:
            merge_pack(stores, missed)
        if self.config.churn_rate > 0:
            self.graph = churn(
                self.graph,
                self.config.churn_rate,
                derive_seed(self.config.master_seed, "churn", self.round),
            )
            for view in set(self._views):
                view.repoint(self.graph)
            self._reset_tables()
        self.round += 1
        return True

    def run(self) -> SimulationResult:
        while self.step_round():
            pass
        return SimulationResult(
            strategy_names={n: s.name for n, s in self.strategies.items()},
            events=self.events,
            balances=self.balances,
            backbone_balance=self.backbone_balance,
            stats=self.stats,
            settlements=self.settlements,
            rounds=self.round,
        )

    def _process_packet(self, packet: Packet) -> None:
        ledger = PathLedger(packet.packet_id)
        on_path: set[NodeId] = set()  # the ledger's nodes, grown with it
        holder = BACKBONE
        promise_in = packet.budget
        ttl_remaining = packet.ttl
        prev_advertised: int | None = None
        announced: Announcements = []  # for the bid feed

        while True:
            if holder != BACKBONE and packet.destination in self.graph.neighbors(holder):
                self._deliver(packet, ledger, holder)
                return
            if ttl_remaining < 1:
                self._drop(packet, ledger, "ttl")
                return
            chooser = None
            if holder != BACKBONE:
                holder_strategy = self.strategies[holder]
                holder_ctx = self.contexts[holder]
                if holder_strategy.on_hold(packet, ledger, holder_ctx):
                    self._drop(packet, ledger, "deliberate")
                    return
                chooser = lambda req, bs: holder_strategy.choose_winner(req, bs, holder_ctx)
            request = self._announce(packet, holder, promise_in, ttl_remaining, prev_advertised)
            heard = self._hearing(holder) & self._history_owners
            announced.append((request.ceiling, request.hop_distance, heard))
            bids = self._collect_bids(request, on_path, announced)
            winner = run_auction(request, bids, chooser)
            if winner is None:
                self._drop(packet, ledger, "no-winner" if ledger.entries else "cancelled")
                return
            ledger = ledger.extended(winner.bidder, winner.amount)
            on_path.add(winner.bidder)
            ttl_remaining -= 1
            self._emit(_BID_WON, packet.packet_id, winner.bidder, winner.amount, holder)
            promise_in = winner.amount
            prev_advertised = request.hop_distance
            holder = winner.bidder

    def _announce(
        self,
        packet: Packet,
        holder: NodeId,
        promise_in: Money,
        ttl_remaining: int,
        prev_advertised: int | None,
    ) -> AuctionRequest:
        if holder == BACKBONE:
            ceiling = packet.budget
            advertised = self._backbone_distance(packet.destination)
        else:
            ctx = self.contexts[holder]
            raw = self.strategies[holder].announce_ceiling(
                packet, promise_in, prev_advertised, ctx
            )
            ceiling = min(promise_in, max(0, int(raw)))
            advertised = ctx.view.distance(holder, packet.destination)
        request = AuctionRequest(
            packet_id=packet.packet_id,
            destination=packet.destination,
            ceiling=ceiling,
            fine=packet.fine,
            ttl_remaining=ttl_remaining,
            holder=holder,
            hop_distance=advertised,
        )
        self._emit(
            _ANNOUNCED,
            packet.packet_id,
            holder,
            ceiling,
            holder,
            dest=packet.destination,
            dist=advertised,
            prev=promise_in,
        )
        return request

    def _collect_bids(
        self,
        request: AuctionRequest,
        on_path: set[NodeId],
        announced: Announcements,
    ) -> list[Bid]:
        """Ask the holder's bidders not in ``on_path`` to bid, in ascending order.

        The bidders come from the per-graph ``_bidders`` table, built on a
        holder's first auction; ``on_path`` is the set of the path's nodes
        that ``_process_packet`` grows with each winner. Every bid is still
        checked against the graph's own neighbour set, so a table gone stale
        raises ``EngineError`` instead of inviting the wrong nodes. Before
        the next bidder is asked, each bid goes to the bid feed with the
        packet's ``announced`` list and the mask of the history owners that
        hear its bidder; an empty mask, as in every run without a history
        owner, records nothing.
        """
        holder = request.holder
        graph = self.graph
        neighbors = graph.gateways if holder == BACKBONE else graph.neighbors(holder)
        bidders = self._bidders.get(holder)
        if bidders is None:
            bidders = self._bidders[holder] = tuple(sorted(neighbors))
        strategies, contexts = self.strategies, self.contexts
        emit, packet_id, rnd = self._emit, request.packet_id, self.round
        hear = self._feed.hear
        owners = self._history_owners
        bids: list[Bid] = []
        for node in bidders:
            if node in on_path:
                continue
            amount = strategies[node].on_auction(request, contexts[node])
            if amount is None:
                if self.config.forced_bid_mode:
                    raise EngineError(
                        f"node {node} ({strategies[node].name}) abstained under forced-bid mode"
                    )
                continue
            amount = int(amount)
            bid = Bid(node, amount)
            rejected = validate_bid(request, bid, on_path, neighbors)
            if rejected is not None:
                raise EngineError(
                    f"node {node} ({strategies[node].name}) placed an invalid bid "
                    f"of {amount} on packet {packet_id}: {rejected}"
                )
            bids.append(bid)
            emit(_BID_PLACED, packet_id, node, amount, node)
            hearers = self._hearing(node) & owners
            if hearers:
                hear(announced, node, amount, rnd, hearers)
        return bids

    def _deliver(self, packet: Packet, ledger: PathLedger, holder: NodeId) -> None:
        ledger = ledger.closed(LedgerStatus.DELIVERED)
        result = settle_delivery(ledger)
        self._emit(
            _DELIVERED,
            packet.packet_id,
            holder,
            ledger.promises[0],
            holder,
            dest=packet.destination,
        )
        for node, _ in ledger.entries:
            self.stats[node].delivered += 1
        self._settle(result, _PAYMENT)

    def _drop(self, packet: Packet, ledger: PathLedger, reason: str) -> None:
        ledger = ledger.closed(LedgerStatus.DROPPED)
        if ledger.entries:
            result = settle_drop(ledger, packet.fine, self.config.fine_mode)
            dropper, fine = ledger.last_node, packet.fine
            self.stats[dropper].dropped += 1
        else:  # nobody ever took custody: cancelled, no fine
            result = SettlementResult(packet.packet_id, ledger.status, {})
            dropper, fine, reason = BACKBONE, 0, "cancelled"
        self._emit(_DROPPED, packet.packet_id, dropper, fine, dropper, reason=reason)
        self._settle(result, _FINE)

    def _settle(self, result: SettlementResult, kind: EventKind) -> None:
        """Record ``result`` and pay it: one ``kind`` event per non-zero delta, in path order."""
        self.settlements.append(result)
        fine = kind is _FINE
        for node, delta in result.deltas.items():
            if delta:
                self._emit(kind, result.packet_id, node, -delta if fine else delta, node)
                self.balances[node] += delta
                if fine:
                    self.stats[node].fines_paid -= delta
        self.backbone_balance -= sum(result.deltas.values())


def run_simulation(
    config: GameConfig,
    graph: TopologyGraph,
    assignment: dict[NodeId, Strategy],
    predictor: PredictorConfig | None = None,
    *,
    log: bool = True,
) -> SimulationResult:
    """Build and run one simulation to completion; ``log`` as for ``Simulation``."""
    return Simulation(config, graph, assignment, predictor, log=log).run()
