"""Per-node observation: scoped event ingestion and profile estimates.

Who hears an event is one rule, ``ObservationScope.hearers``: a mask of the
nodes that hear an event at a location. Under ``global`` every node hears
every event. Under ``khop:<k>`` the nodes within k hops of the location do,
read off the location's own view, and for the backbone the nodes within k-1
hops of a gateway do, read off the gateways' views. The engine reads that
mask once per location and graph. It builds the location's audience from
it, the stores of the store owners in the mask, and hands each bid to the
run's one bid feed with the mask of the bid-history owners in it (see
``predictor.BidFeed``).

Each observer keeps, per subject node, an estimated profit (the sum of
payment and fine deltas it could hear), a running fairness deviation, and
custody/drop counters. A store does not know its owner, so under
``global`` scope, where every observer hears every event in the same order,
all observers share one store. Under ``khop`` scopes each observer
has its own store. Either way the engine applies each event a store hears to
it directly, once (see ``Simulation._emit``). A wolf pack pools what its
members hear by the same masks: the engine notes each event that some
members of a pack heard and others did not, with the mask of those that
did not, and ``merge_pack`` folds it into those members at the end of the
round. Every member then holds the pack's union, each event once, and a
run's merge work is linear in its events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Iterable

from .model import (
    BACKBONE,
    EventKind,
    GameEvent,
    Money,
    NodeId,
    fair_ceiling,
    parse_extra,  # noqa: F401 - unused; benches/spans.py counts calls through this name
)
from .topology import NodeView, members

# Reading a member off an Enum class goes through EnumType.__getattr__; the
# per-event paths compare against these module-level names instead.
_ANNOUNCED = EventKind.AUCTION_ANNOUNCED
_BID_WON = EventKind.BID_WON
_DROPPED = EventKind.DROPPED
_FINE = EventKind.FINE_ASSESSED
_PAYMENT = EventKind.PAYMENT


@dataclass(frozen=True)
class ObservationScope:
    """Which events an observer can hear: everything, or within k hops."""

    mode: str  # "global" | "khop"
    k: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("global", "khop"):
            raise ValueError(f"unknown observation mode {self.mode!r}")
        if self.mode == "khop" and self.k < 1:
            raise ValueError("khop scope needs k >= 1")

    def hearers(self, location: NodeId, views: list[NodeView]) -> int:
        """The mask of the nodes that hear an event at ``location``; the engine's one rule.

        ``views[v]`` is node v's k-hop view. Under ``global`` every node
        hears every event (all bits set). Under ``khop`` a node hears an
        event within k hops of it; hop distance is symmetric, so those nodes
        are the ones the location's own view knows. The backbone sits one hop
        past every gateway, so the nodes within k-1 hops of some gateway hear
        it: the union of the gateways' views' inner masks.
        """
        if self.mode == "global":
            return -1
        if location == BACKBONE:
            return reduce(or_, (views[g].inner() for g in views[0].graph.gateways), 0)
        return views[location].known()


def parse_scope_spec(spec: str) -> ObservationScope:
    """Build a scope from a config string, ``"global"`` or ``"khop:<k>"``."""
    if spec == "global":
        return ObservationScope("global")
    if spec.startswith("khop:"):
        try:
            k = int(spec[len("khop:"):])
        except ValueError:
            k = 0
        if k >= 1:
            return ObservationScope("khop", k)
    raise ValueError(
        f"expected 'global' or 'khop:<k>' with an integer k >= 1, got {spec!r}"
    )


@dataclass
class NodeProfile:
    """One observer's running estimate of another node, stored under its id."""

    estimated_profit: Money = 0
    fairness_deviation: Fraction = field(default_factory=lambda: Fraction(0))
    observed_drops: int = 0
    observed_custodies: int = 0

    @property
    def drop_rate(self) -> float:
        return self.observed_drops / max(self.observed_custodies, 1)


class ObserverStore:
    """Event-sourced profile store: a plain fold of the events it is given.

    It keeps the profile of each subject and the custody path of each packet
    it saw taken, and nothing else: no events, no event ids, no owner. Every
    profile field is a sum over the events folded in, and a path is read as
    a set, so a pack member that folds the events it missed at the end of
    the round ends where one that heard them at once would. Under ``global``
    scope one store serves every observer.
    """

    def __init__(self) -> None:
        self.profiles: dict[NodeId, NodeProfile] = {}
        self.packet_paths: dict[int, list[NodeId]] = {}

    def profile(self, subject: NodeId) -> NodeProfile:
        prof = self.profiles.get(subject)
        if prof is None:
            prof = self.profiles[subject] = NodeProfile()
        return prof

    def known_path(self, packet_id: int) -> list[NodeId]:
        return self.packet_paths.get(packet_id, [])

    def apply(self, event: GameEvent) -> None:
        """Fold one visible event in; bids and deliveries change nothing.

        An announcement adds the holder's fairness deviation: the fair
        ceiling splits the incoming promise equally over the ``dist`` nodes
        still needed (holder included), and the increment is the announced
        ceiling's distance from it, relative to the incoming promise.
        """
        kind = event.kind
        if kind is _ANNOUNCED:
            # A missing distance or promise is None; a 0 is folded in.
            dist, incoming = event.dist, event.prev
            if event.node != BACKBONE and dist is not None and incoming is not None and dist >= 2:
                fair = fair_ceiling(incoming, dist)
                profile = self.profile(event.node)
                if event.amount != fair:
                    profile.fairness_deviation += Fraction(
                        abs(event.amount - fair), max(incoming, 1)
                    )
        elif kind is _BID_WON:
            self.profile(event.node).observed_custodies += 1
            self.packet_paths.setdefault(event.packet_id, []).append(event.node)
        elif kind is _PAYMENT:
            self.profile(event.node).estimated_profit += event.amount
        elif kind is _FINE:
            self.profile(event.node).estimated_profit -= event.amount
        elif kind is _DROPPED:
            if event.node != BACKBONE:
                self.profile(event.node).observed_drops += 1

    def rebuild(self, events: Iterable[GameEvent]) -> None:
        """Recompute every aggregate from ``events`` alone, folded in the order given.

        The full-recompute reference that pack merging is tested against.
        """
        self.profiles = {}
        self.packet_paths = {}
        for event in events:
            self.apply(event)


def merge_pack(
    stores: dict[NodeId, ObserverStore], missed: list[tuple[GameEvent, int]]
) -> None:
    """Fold into each pack member the events it missed that another member heard.

    ``stores`` maps each member to its store. ``missed`` holds, in seq
    order, each event that some member heard and some did not, with the
    mask of the members that did not; each of those folds it in, in that
    order, and the list is emptied. A merge costs one fold per member that
    missed an event, and no event reaches a store twice.
    """
    for event, mask in missed:
        for member in members(mask):
            stores[member].apply(event)
    missed.clear()


#: Header for the per-round profile diagnostics that ``profiles_csv`` renders.
PROFILES_CSV_HEADER = "round,observer,subject,profit_est,fairness_dev,drop_rate"


def profiles_csv(
    stores: list[tuple[NodeId, ObserverStore]], round_no: int
) -> list[str]:
    """Diagnostics rows under ``PROFILES_CSV_HEADER``, one per observer and subject.

    ``stores`` pairs each observer with its store; under ``global`` scope
    every observer's store is the shared one.
    """
    rows = []
    for owner, store in stores:
        for subject in sorted(store.profiles):
            prof = store.profiles[subject]
            rows.append(
                f"{round_no},{owner},{subject},{prof.estimated_profit},"
                f"{float(prof.fairness_deviation):.6f},{prof.drop_rate:.6f}"
            )
    return rows
