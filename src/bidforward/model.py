"""Shared domain vocabulary: money, node identities, packets, auctions, ledgers, events.

All currency is integer points. Payments, bids, budgets and fines are
non-negative; only running node balances may go negative.

Events carry typed fields: an announcement's destination, advertised
distance and incoming promise, a delivery's destination, a drop's reason.
Observers read those fields directly. ``GameEvent.to_line`` renders them as
the event log's ``key=value`` column, for CSV output only.

A run builds these records per event, per bid and per hop, so none of them
is a frozen dataclass, whose ``__init__`` pays one ``object.__setattr__``
per field. ``GameEvent`` is a ``NamedTuple``: the log and every sink that
hears an event share one event object, so it stays immutable and hashable.
``Packet``, ``AuctionRequest``, ``Bid`` and ``PathLedger`` are slotted
dataclasses that keep their validating ``__post_init__``; nothing assigns
their fields after construction. The
predictor's ``BidHistoryPoint`` and the wolf pack's ``BidderMetrics`` are
slotted for the same reason. Records built once per run (the game, predictor, topology and tournament
configs) stay frozen.

``check_fields`` reads a config section or a strategy's parameters into such
a record: the fields give the known keys and the defaults, the annotations
the kind of each value, and ``check_value`` holds the one rule for kinds.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from operator import itemgetter
from typing import Iterable, NamedTuple, get_args, get_type_hints

Money = int
NodeId = int

#: Virtual wired-infrastructure node. Injects packets, pays delivery
#: promises, collects fines. Never bids, never forwards.
BACKBONE: NodeId = -1


def fair_ceiling(incoming: Money, hop_distance: int) -> Money:
    """Equal split of ``incoming`` over the ``hop_distance`` nodes still needed:
    the ceiling a fair holder announces, and what observers measure it against."""
    return incoming * (hop_distance - 1) // hop_distance


class ModelError(ValueError):
    """Raised when a domain value violates its invariants."""


class ConfigError(ValueError):
    """A config value or strategy parameter at fault, named in the message."""


def check_value(where: str, value, kind, optional: bool = False):
    """``value`` as a field of ``kind`` holds it, or a ``ConfigError`` naming ``where``.

    The one rule for config fields and strategy parameters: a bool is no
    number, a number no bool, and a string neither. A whole float such as
    ``3.0`` becomes ``3`` where an int is due, and an int becomes a float
    where a float is due. ``tuple[int, ...]`` takes a list of such ints,
    ``dict`` a mapping, and ``object`` any value, to be checked by its reader.
    None passes only where ``optional``.
    """
    if (value is None and optional) or kind is object:
        return value
    if kind is bool or kind is str:
        if isinstance(value, kind):
            return value
        due = "true or false" if kind is bool else "a string"
    elif kind is int or kind is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            if kind is float:
                try:
                    return float(value)
                except OverflowError:  # an int beyond the range of floats
                    pass
            elif isinstance(value, int) or value.is_integer():
                return int(value)
        due = "an integer" if kind is int else "a number"
    elif kind is dict:
        if isinstance(value, dict):
            return value
        due = "a mapping"
    else:
        if isinstance(value, (list, tuple)):
            item = get_args(kind)[0]
            return tuple(check_value(f"{where}[{i}]", v, item) for i, v in enumerate(value))
        due = "a list"
    raise ConfigError(f"{where} must be {due}, got {value!r}")


@cache
def field_kinds(cls: type) -> dict[str, tuple[object, bool]]:
    """Each field of dataclass ``cls`` as the ``(kind, optional)`` of
    ``check_value``, read off its annotation once per class."""
    kinds = {}
    for name, hint in get_type_hints(cls).items():
        args = get_args(hint)  # ``X | None`` gives ``(X, NoneType)``
        kinds[name] = (args[0], True) if type(None) in args else (hint, False)
    return kinds


def check_fields(
    cls: type, values: dict, prefix: str = "", aliases: dict[str, str] | None = None
) -> dict:
    """``values`` as keyword arguments of dataclass ``cls``, each checked by
    ``check_value``; a key that names no field is an error.

    ``aliases`` maps a field to the key that stands for it in ``values``;
    errors name the key after ``prefix``. Defaults stay the dataclass's own.
    """
    kinds = field_kinds(cls)
    names = {(aliases or {}).get(name, name): name for name in kinds}
    out = {}
    for key, value in values.items():
        name = names.get(key)
        if name is None:
            raise ConfigError(f"{prefix}{key}: unknown field")
        out[name] = check_value(prefix + key, value, *kinds[name])
    return out


@dataclass(slots=True)
class Packet:
    """One forwarding task handed to the ad-hoc network by the backbone."""

    packet_id: int
    destination: NodeId
    budget: Money
    fine: Money
    ttl: int

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ModelError(f"packet {self.packet_id}: budget must be >= 1")
        if self.fine < 0:
            raise ModelError(f"packet {self.packet_id}: fine must be >= 0")
        if self.ttl < 1:
            raise ModelError(f"packet {self.packet_id}: ttl must be >= 1")
        if self.destination < 0:
            raise ModelError(f"packet {self.packet_id}: destination must be a real node")


@dataclass(slots=True)
class AuctionRequest:
    """One hop's sealed-bid auction announcement.

    ``hop_distance`` is the holder's shortest-hop distance to the
    destination as the holder advertises it; ``None`` when the holder
    cannot see a route in its own view.
    """

    packet_id: int
    destination: NodeId
    ceiling: Money
    fine: Money
    ttl_remaining: int
    holder: NodeId
    hop_distance: int | None

    def __post_init__(self) -> None:
        if self.ceiling < 0:
            raise ModelError(f"auction for packet {self.packet_id}: ceiling must be >= 0")
        if self.ttl_remaining < 1:
            raise ModelError(f"auction for packet {self.packet_id}: ttl_remaining must be >= 1")


@dataclass(slots=True)
class Bid:
    bidder: NodeId
    amount: Money

    def __post_init__(self) -> None:
        if self.bidder < 0:
            raise ModelError("the backbone never bids")
        if self.amount < 0:
            raise ModelError(f"bid by {self.bidder}: amount must be >= 0")


class LedgerStatus(str, Enum):
    IN_FLIGHT = "in-flight"
    DELIVERED = "delivered"
    DROPPED = "dropped"


_NODE = itemgetter(0)
_PROMISE = itemgetter(1)


@dataclass(slots=True)
class PathLedger:
    """Chain of (node, promised amount) pairs a packet accumulated so far.

    Promises are non-increasing along the path and no node appears twice;
    settlement is defined over this chain.
    """

    packet_id: int
    entries: tuple[tuple[NodeId, Money], ...] = ()
    status: LedgerStatus = LedgerStatus.IN_FLIGHT

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def nodes(self) -> tuple[NodeId, ...]:
        return tuple(map(_NODE, self.entries))

    @property
    def promises(self) -> tuple[Money, ...]:
        return tuple(map(_PROMISE, self.entries))

    @property
    def last_node(self) -> NodeId | None:
        return self.entries[-1][0] if self.entries else None

    def extended(self, node: NodeId, promise: Money) -> "PathLedger":
        """Return a new ledger with ``(node, promise)`` appended."""
        if self.status is not LedgerStatus.IN_FLIGHT:
            raise ModelError(f"ledger for packet {self.packet_id} is closed")
        if node in self.nodes:
            raise ModelError(f"node {node} already on path of packet {self.packet_id}")
        if promise < 0:
            raise ModelError("promise must be >= 0")
        if self.entries and promise > self.entries[-1][1]:
            raise ModelError(
                f"promise {promise} exceeds incoming promise {self.entries[-1][1]}"
            )
        return PathLedger(self.packet_id, self.entries + ((node, promise),), self.status)

    def closed(self, status: LedgerStatus) -> "PathLedger":
        return PathLedger(self.packet_id, self.entries, status)


class EventKind(str, Enum):
    AUCTION_ANNOUNCED = "auction-announced"
    BID_PLACED = "bid-placed"
    BID_WON = "bid-won"
    DELIVERED = "delivered"
    DROPPED = "dropped"
    FINE_ASSESSED = "fine-assessed"
    PAYMENT = "payment"


#: Each kind's log name; reading ``.value`` off an Enum member goes through a descriptor.
_KIND_VALUES = {kind: kind.value for kind in EventKind}


class GameEvent(NamedTuple):
    """One observable game occurrence.

    ``location`` is the node where the event physically happened; it scopes
    which observers can hear it. ``(round, seq)`` totally orders the log.
    The fields after ``location`` default to None and are set only by the
    kinds that carry them:
    ``dest``, ``dist`` (the holder's advertised hop distance, ``None`` when
    it has no route) and ``prev`` (the promise the holder was paid) on an
    announcement, ``dest`` on a delivery, ``reason`` on a drop.
    """

    round: int
    seq: int
    kind: EventKind
    packet_id: int
    node: NodeId
    amount: Money
    location: NodeId
    dest: NodeId | None = None
    dist: int | None = None
    prev: Money | None = None
    reason: str | None = None

    @property
    def event_id(self) -> tuple[int, int]:
        return (self.round, self.seq)

    def to_line(self) -> str:
        round_, _, kind, packet_id, node, amount, _, dest, dist, prev, reason = self
        # Most kinds carry no typed field: their extra column is empty.
        if dest is None and dist is None and prev is None and reason is None:
            extra = ""
        else:
            extra = format_extra(dest=dest, dist=dist, prev=prev, reason=reason)
        return f"{round_},{_KIND_VALUES[kind]},{packet_id},{node},{amount},{extra}"


#: Header for the line-delimited event log.
EVENT_LOG_HEADER = "round,kind,packet_id,node,amount,extra"


def events_to_log(events: Iterable[GameEvent]) -> str:
    """Render events as the line-delimited log format, header included."""
    lines = [EVENT_LOG_HEADER]
    lines.extend(map(GameEvent.to_line, events))
    return "\n".join(lines) + "\n"


def parse_extra(extra: str) -> dict[str, str]:
    """Decode the semicolon-joined ``key=value`` pairs of an event's extra field."""
    out: dict[str, str] = {}
    if not extra:
        return out
    for pair in extra.split(";"):
        if "=" in pair:
            key, value = pair.split("=", 1)
            out[key] = value
    return out


def format_extra(**fields: object) -> str:
    return ";".join(f"{k}={v}" for k, v in fields.items() if v is not None)


# validate_bid rejection reasons
REJECT_OVER_CEILING = "over-ceiling"
REJECT_ON_PATH = "on-path"
REJECT_NOT_NEIGHBOR = "not-neighbor"


def validate_bid(
    request: AuctionRequest,
    bid: Bid,
    path_nodes: Iterable[NodeId],
    holder_neighbors: Iterable[NodeId],
) -> str | None:
    """Check a bid against an open auction.

    Returns ``None`` when accepted, otherwise one of the rejection reason
    constants. ``holder_neighbors`` are the 1-hop neighbors of the current
    holder (the gateway set when the backbone holds the packet).
    """
    if bid.amount > request.ceiling:
        return REJECT_OVER_CEILING
    if bid.bidder in path_nodes:
        return REJECT_ON_PATH
    if bid.bidder not in holder_neighbors:
        return REJECT_NOT_NEIGHBOR
    return None
