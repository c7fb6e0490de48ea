"""The strategy catalog and its decision surface.

Every node runs one strategy instance. The engine consults it at four
decision points: bidding on a neighbor's auction, choosing a winner for its
own auction, announcing the next hop's ceiling while holding a packet, and
optionally dropping a held packet on purpose. A strategy that
``uses_observation`` or ``uses_bid_history`` reads its context's store or bid
history; the engine feeds those itself, with the events the node can hear.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .model import (
    BACKBONE,
    AuctionRequest,
    Bid,
    Money,
    NodeId,
    Packet,
    PathLedger,
    check_fields,
    check_value,
    fair_ceiling,
    parse_extra,  # noqa: F401 - unused; benches/spans.py counts calls through this name
)
from .observation import ObserverStore
from .predictor import BidHistory, predict_bid
from .topology import NodeView


@dataclass
class StrategyContext:
    """Per-node, single-owner state a strategy decides from."""

    node: NodeId
    view: NodeView
    rng: random.Random
    gateways: frozenset[int]
    forced_bid: bool = False
    fine_mode: str = "path-split"
    observer: ObserverStore | None = None
    history: BidHistory | None = None
    round: int = 0

    def distance_to(self, dest: NodeId, advertised: int | None = None) -> int | None:
        """Own hop distance to ``dest``; falls back to the advertised one."""
        d = self.view.distance(self.node, dest)
        return d if d is not None else advertised


def announce_distance(ctx: StrategyContext, dest: NodeId, prev_advertised: int | None) -> int:
    """Holder's distance estimate when announcing an auction.

    Own view when it has a route; otherwise one less than the distance that
    was advertised when custody was acquired. An auction only runs when the
    destination is not adjacent, so the estimate is floored at 2.
    """
    d = ctx.view.distance(ctx.node, dest)
    if d is not None:
        return max(d, 2)
    if prev_advertised is not None:
        return max(prev_advertised - 1, 2)
    return 2


def undercut_bid(ceiling: Money, hop: int, ctx: StrategyContext, small_cap: int) -> Money:
    """Predictor undercut, or a small random bid while the history is empty."""
    if ceiling < 1:
        return 0
    history = ctx.history
    if history is not None:
        # One window read serves the emptiness test and the prediction.
        live = history.live_chains(ctx.round)
        if live is not None:
            return predict_bid(history, ceiling, hop, ctx.round, live)
    return min(ceiling, ctx.rng.randint(1, small_cap))


class Strategy:
    """Decision surface every strategy implements."""

    name = "base"
    uses_observation = False
    uses_bid_history = False
    pack: str | None = None

    def on_auction(self, request: AuctionRequest, ctx: StrategyContext) -> Money | None:
        """Bid amount for a neighbor's auction, or None to abstain."""
        raise NotImplementedError

    def choose_winner(
        self, request: AuctionRequest, bids: Sequence[Bid], ctx: StrategyContext
    ) -> Bid:
        """Pick the next hop among valid bids.

        Default: cheapest bid; price ties go to the bidder closest to the
        destination (the holder shares the fine, so delivery odds matter),
        then to the lowest id.
        """

        def key(b: Bid):
            via = ctx.view.distance(b.bidder, request.destination)
            return (b.amount, math.inf if via is None else via, b.bidder)

        return min(bids, key=key)

    def announce_ceiling(
        self,
        packet: Packet,
        incoming: Money,
        prev_advertised: int | None,
        ctx: StrategyContext,
    ) -> Money:
        """Max allowed bid for the auction this holder announces. Default: fair."""
        return fair_ceiling(incoming, announce_distance(ctx, packet.destination, prev_advertised))

    def on_hold(self, packet: Packet, ledger: PathLedger, ctx: StrategyContext) -> bool:
        """True to deliberately drop the held packet instead of auctioning it."""
        return False


class FairSplit(Strategy):
    """Extracts the full ceiling and splits it equally along the path.

    Fairness lives in the announcement: a fair holder with d hops left
    keeps 1/d of its promise and offers the rest as the next ceiling, so a
    chain of fair nodes telescopes the budget into equal shares. Bidders
    take the whole announced ceiling; shaving it again would double-count
    the holder's share and strand the difference with the backbone. A node
    with no route information abstains rather than accept custody it
    cannot place.
    """

    name = "fair"

    def on_auction(self, request: AuctionRequest, ctx: StrategyContext) -> Money | None:
        d = ctx.distance_to(request.destination, request.hop_distance)
        if d is None:
            return request.ceiling if ctx.forced_bid else None
        return request.ceiling

    def choose_winner(
        self, request: AuctionRequest, bids: Sequence[Bid], ctx: StrategyContext
    ) -> Bid:
        def key(b: Bid):
            via = ctx.view.distance(b.bidder, request.destination)
            return (math.inf if via is None else via, b.amount, b.bidder)

        return min(bids, key=key)


class AlwaysOne(Strategy):
    """Bids one point on everything; keeps the weighted-rank winner choice."""

    name = "always_one"
    uses_observation = True

    def __init__(self, **chooser_params):
        self.params = ChooserParams(**chooser_params)

    def on_auction(self, request: AuctionRequest, ctx: StrategyContext) -> Money | None:
        if request.ceiling >= 1:
            return 1
        return 0 if ctx.forced_bid else None

    def choose_winner(
        self, request: AuctionRequest, bids: Sequence[Bid], ctx: StrategyContext
    ) -> Bid:
        return weighted_rank_choice(bids, bidder_metrics(request, bids, ctx), self.params)


class MaxBid(Strategy):
    """Always bids the ceiling; the forced-bid workaround taken to its limit."""

    name = "max_bid"

    def on_auction(self, request: AuctionRequest, ctx: StrategyContext) -> Money | None:
        return request.ceiling


class LastHopSniper(Strategy):
    """Bids only from a guaranteed-profit position next to the destination.

    Everywhere else it abstains; when abstention is disallowed it bids the
    ceiling so it loses against anyone shading their bid.
    """

    name = "sniper"
    uses_bid_history = True

    def __init__(self, small_cap: int = 5):
        small_cap = check_value("small_cap", small_cap, int)
        if small_cap < 1:
            raise ValueError("small_cap must be >= 1")
        self.small_cap = small_cap

    def on_auction(self, request: AuctionRequest, ctx: StrategyContext) -> Money | None:
        if ctx.view.distance(ctx.node, request.destination) == 1:
            return undercut_bid(request.ceiling, 1, ctx, self.small_cap)
        return request.ceiling if ctx.forced_bid else None


class RandomBaseline(Strategy):
    """Uniform random bid in [1, ceiling]; a floor for strategy comparisons."""

    name = "random"

    def on_auction(self, request: AuctionRequest, ctx: StrategyContext) -> Money | None:
        if request.ceiling < 1:
            return 0 if ctx.forced_bid else None
        return ctx.rng.randint(1, request.ceiling)


@dataclass(frozen=True)
class ChooserParams:
    """Weights for the weighted-rank winner choice.

    The four weights combine the per-metric rank lists; ``prefer_unfair``
    ranks high fairness deviation as desirable (set False to invert for
    sensitivity runs). Bidders whose drop rate exceeds ``drop_rate_cap`` are
    passed over. Each field is checked by its annotation's kind.
    """

    w_rich: float = 1.0
    w_topo: float = 1.0
    w_bid: float = 1.0
    w_fair: float = 1.0
    drop_rate_cap: float = 0.5
    prefer_unfair: bool = True

    def __post_init__(self) -> None:
        for name, value in check_fields(type(self), vars(self)).items():
            object.__setattr__(self, name, value)
        weights = (self.w_rich, self.w_topo, self.w_bid, self.w_fair)
        if not all(0 <= w < math.inf for w in weights):
            # A NaN or infinite weight makes every score NaN or infinite, and
            # the chooser would silently take the first bid.
            raise ValueError(f"rank weights must be finite and non-negative, got {weights}")
        if not any(w > 0 for w in weights):
            raise ValueError("at least one rank weight must be positive")
        if not 0 <= self.drop_rate_cap <= 1:
            raise ValueError("drop_rate_cap must be in [0, 1]")


@dataclass(frozen=True)
class WolfPackParams(ChooserParams):
    """The chooser's weights plus the pack's own thresholds.

    Sabotage drops are capped by the node's own affordable fine share and by
    a percentile cut for who counts as rich.
    """

    sabotage_enabled: bool = False
    rich_threshold: float = 0.2
    sabotage_budget: Money = 50
    greed_margin: Money = 1
    pack: str | None = None
    small_cap: int = 5

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0 < self.rich_threshold <= 1:
            raise ValueError("rich_threshold must be in (0, 1]")
        if self.sabotage_budget < 0 or self.greed_margin < 0 or self.small_cap < 1:
            raise ValueError("bad wolfpack parameter")


@dataclass(slots=True)
class BidderMetrics:
    """The four ranking inputs for one bidder, plus its drop rate."""

    richness: float
    distance: float  # hops to destination via this bidder; inf when unknown
    amount: Money
    fairness: Fraction | float
    drop_rate: float


#: The fairness of a bidder the chooser has no profile of; Fractions are immutable.
_ZERO = Fraction(0)


def competition_ranks(values: Sequence, descending: bool = False) -> list[int]:
    """Competition ranks: each value's count of values strictly before it.

    Ascending, that is the count of values strictly below, which
    ``bisect_left`` reads off one sorted copy; descending, the count strictly
    above, ``len - bisect_right``. Ties share the lowest position either way.
    """
    ordered = sorted(values)
    if descending:
        size = len(ordered)
        return [size - bisect_right(ordered, v) for v in values]
    return [bisect_left(ordered, v) for v in values]


def weighted_rank_choice(
    bids: Sequence[Bid], metrics: Sequence[BidderMetrics], params: ChooserParams
) -> Bid:
    """Combine the four sorted-metric lists with weights and pick the best.

    Bidders whose observed drop rate exceeds the cap are excluded first,
    unless that would empty the field. Depends only on metric orderings,
    never on their magnitudes.
    """
    if not bids:
        raise ValueError("cannot choose from an empty bid set")
    indices = [i for i, m in enumerate(metrics) if m.drop_rate <= params.drop_rate_cap]
    if not indices:
        indices = list(range(len(bids)))
    rich_rank = competition_ranks([metrics[i].richness for i in indices])
    topo_rank = competition_ranks([metrics[i].distance for i in indices])
    bid_rank = competition_ranks([metrics[i].amount for i in indices])
    fair_rank = competition_ranks([metrics[i].fairness for i in indices], params.prefer_unfair)
    best_i = None
    best_key = None
    for pos, i in enumerate(indices):
        score = (
            params.w_rich * rich_rank[pos]
            + params.w_topo * topo_rank[pos]
            + params.w_bid * bid_rank[pos]
            + params.w_fair * fair_rank[pos]
        )
        key = (score, bids[i].amount, bids[i].bidder)
        if best_key is None or key < best_key:
            best_key = key
            best_i = i
    return bids[best_i]  # type: ignore[index]


def bidder_metrics(
    request: AuctionRequest, bids: Sequence[Bid], ctx: StrategyContext
) -> list[BidderMetrics]:
    """Metrics for each bid from the chooser's own profiles and view."""
    profiles = ctx.observer.profiles if ctx.observer else {}
    distance, dest = ctx.view.distance, request.destination
    out = []
    for bid in bids:
        prof = profiles.get(bid.bidder)
        via = distance(bid.bidder, dest)
        out.append(
            BidderMetrics(
                richness=prof.estimated_profit if prof else 0,
                distance=math.inf if via is None else via,
                amount=bid.amount,
                fairness=prof.fairness_deviation if prof else _ZERO,
                drop_rate=prof.drop_rate if prof else 0.0,
            )
        )
    return out


class WolfPack(Strategy):
    """Hunts the rich: prefers poor, near, cheap and unfair forwarders,
    exploits monopoly positions, undercuts predicted bids, and can drop a
    held packet on purpose when rich upstream nodes would share the fine.
    """

    name = "wolfpack"
    uses_observation = True
    uses_bid_history = True

    def __init__(self, **params):
        self.params = WolfPackParams(**params)
        self.pack = self.params.pack

    def on_auction(self, request: AuctionRequest, ctx: StrategyContext) -> Money | None:
        d = ctx.view.distance(ctx.node, request.destination)
        if d == 1:
            return undercut_bid(request.ceiling, 1, ctx, self.params.small_cap)
        if self._sole_eligible_bidder(request, ctx):
            return request.ceiling
        if d is None:
            d = request.hop_distance
        if d is None:
            return request.ceiling if ctx.forced_bid else None
        if request.ceiling < 1:
            return 0
        return predict_bid(ctx.history, request.ceiling, d, ctx.round)  # type: ignore[arg-type]

    def _sole_eligible_bidder(self, request: AuctionRequest, ctx: StrategyContext) -> bool:
        """Monopoly check from local knowledge only."""
        holder = request.holder
        if holder == BACKBONE:
            others = set(ctx.gateways)
        else:
            if not ctx.view.covers_neighborhood(holder):
                return False
            others = set(ctx.view.neighbors(holder))
        others.discard(ctx.node)
        others.discard(holder)
        if ctx.observer is not None:
            others.difference_update(ctx.observer.known_path(request.packet_id))
        return not others

    def choose_winner(
        self, request: AuctionRequest, bids: Sequence[Bid], ctx: StrategyContext
    ) -> Bid:
        return weighted_rank_choice(bids, bidder_metrics(request, bids, ctx), self.params)

    def announce_ceiling(
        self,
        packet: Packet,
        incoming: Money,
        prev_advertised: int | None,
        ctx: StrategyContext,
    ) -> Money:
        d = announce_distance(ctx, packet.destination, prev_advertised)
        return max(0, fair_ceiling(incoming, d) - self.params.greed_margin)

    def on_hold(self, packet: Packet, ledger: PathLedger, ctx: StrategyContext) -> bool:
        p = self.params
        if not p.sabotage_enabled or ctx.observer is None:
            return False
        if ctx.fine_mode != "path-split":
            return False  # upstream shares nothing, dropping only hurts us
        k = len(ledger)
        if k == 0:
            return False
        own_share = packet.fine // k + (packet.fine - k * (packet.fine // k))
        if own_share > p.sabotage_budget:
            return False
        upstream = [n for n in ledger.nodes if n != ctx.node]
        if not upstream:
            return False
        rich = self._rich_nodes(ctx)
        return any(n in rich for n in upstream)

    def _rich_nodes(self, ctx: StrategyContext) -> set[NodeId]:
        """Subjects whose estimated profit sits in the top percentile slice."""
        profiles = ctx.observer.profiles  # type: ignore[union-attr]
        if not profiles:
            return set()
        values = sorted((p.estimated_profit for p in profiles.values()), reverse=True)
        count = max(1, math.ceil(len(values) * self.params.rich_threshold))
        cutoff = values[count - 1]
        return {
            s for s, p in profiles.items()
            if p.estimated_profit >= cutoff and p.estimated_profit > 0
        }


STRATEGY_REGISTRY: dict[str, type[Strategy]] = {
    FairSplit.name: FairSplit,
    AlwaysOne.name: AlwaysOne,
    MaxBid.name: MaxBid,
    LastHopSniper.name: LastHopSniper,
    WolfPack.name: WolfPack,
    RandomBaseline.name: RandomBaseline,
}


def build_strategy(name: str, params: dict | None = None) -> Strategy:
    """Instantiate a registered strategy; unknown names or params are errors."""
    cls = STRATEGY_REGISTRY.get(name)
    if cls is None:
        known = ", ".join(sorted(STRATEGY_REGISTRY))
        raise ValueError(f"unknown strategy {name!r} (known: {known})")
    try:
        return cls(**(params or {}))
    except TypeError as exc:
        raise ValueError(f"bad parameters for strategy {name!r}: {exc}") from exc
