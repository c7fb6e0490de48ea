"""Historical bid prediction.

The predictor keeps a bounded history of observed bids arranged by the two
attributes an auction exposes (the hop count and the maximum allowed bid),
finds past bids within a normalized Euclidean distance epsilon of the
current query, and undercuts the smallest of them by one point, never going
below a configured floor. The floor keeps the output useful even when
observed bids have collapsed to zero.

A history is its owner's window onto a tape, an append-only log of
``(point, bidder)`` records, each with a sequence number that outlives the
tape's trims. The window holds the last ``max_history`` points not bid by
the owner, minus those more than ``max_age_rounds`` older than the newest
of them: what a bounded deque with age eviction would hold if it skipped
the owner's own bids.

One ``BidFeed`` per run, an owner-less history, writes every tape. Its
``pending`` table maps a packet to the announcements made for it so far,
each with the mask of the history owners that heard it. Under ``global``
observation every history windows the feed's own tape, which the feed fills
once per bid. Under ``khop`` scopes each history has a tape of its own, and
the feed is told which owners hear each event. A bid's hearers, minus its
bidder, fall into groups by the latest announcement each heard; a group
whose announcement carried a distance gets one point, appended by one
``record`` call to the tape of every member.

A query reads no window. Every point with the same ``(max_allowed,
hop_count)`` key is at the same distance from any query, so a tape keeps,
per key, a chain of entries ``(seq, bid, bidder, mark)`` in sequence order,
a streaming minimum filter (Lemire, "Streaming maximum-minimum filter using
no more than three comparisons per element", 2006) shared by every window
that skips one owner. An entry is dropped when a newer record under its key
bids no more than it does and either comes from the entry's own bidder, or
is the second such record from a bidder other than the entry's (``mark``
names the first). For any window, the least bid under a key is then held
by a kept entry, the newest record in the window that holds it. A window
is a suffix of the tape without its owner's records, so whatever dropped
that record would include a newer record in the window bidding as little:
its own bidder is not the owner, and of two distinct bidders at most one
is. No such record exists, so the record was kept.

The tape is folded once, in one batch, by whichever history queries first
after new records came: newest first, each key tracks the least newer bid,
its bidder, and the least newer bid from any other bidder, which decide
each record and, merged with the marks, each older entry. A tape with a
single owner, the private tapes under ``khop``, folds from that owner's
window start and skips the owner's records. A query reads each key's chain
from its first live sequence number, skipping the owner's entries, and
tests each key once against epsilon; it costs the live keys and their
entries, not the window. Entries older than the tape's first record go at
its trims.

Under ``khop:1`` no history ever records a point, so ``sniper`` and
``wolfpack`` always fall back to ``fallback_fraction`` of the ceiling. A
holder's 1-hop view knows no destination beyond its neighbours, and a
neighbour destination is delivered without an auction, so no announcement a
node makes carries a distance. The backbone's announcements do, but under
``khop:1`` only the gateways hear them. Over ``khop-churn`` seeds 1-10 with
``game.observation=khop:1``, 6,382 bids reached a hearer other than their
bidder, and none was recorded.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import attrgetter

from .model import EventKind, GameEvent, Money, NodeId
from .topology import members

# Reading a member off an Enum class goes through EnumType.__getattr__;
# BidFeed.observe, run per event, compares against these module-level names instead.
_ANNOUNCED = EventKind.AUCTION_ANNOUNCED
_BID_PLACED = EventKind.BID_PLACED
_DELIVERED = EventKind.DELIVERED
_DROPPED = EventKind.DROPPED

_ROUND = attrgetter("round")

# A bidder no history is owned by, skipped in place of the owner by owner-less ones.
_NOBODY = object()

# The mark of a chain entry that no newer record from another bidder bid as low as.
_UNMARKED = object()

#: The kinds ``BidFeed.observe`` acts on.
BID_KINDS = frozenset({_ANNOUNCED, _BID_PLACED, _DELIVERED, _DROPPED})


@dataclass(frozen=True)
class PredictorConfig:
    """Tuning knobs for the bid history and its queries.

    ``budget_norm`` and ``ttl_norm`` are the run's budget and TTL; both query
    axes are divided by them so epsilon is scale-free across configurations.
    """

    epsilon: float = 0.15
    min_bid_floor: Money = 1
    max_history: int = 128
    max_age_rounds: int = 512
    budget_norm: Money = 100
    ttl_norm: int = 8
    fallback_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not self.epsilon >= 0:  # NaN too: no distance would ever be within it
            raise ValueError("epsilon must be a number >= 0")
        if self.min_bid_floor < 1:
            raise ValueError("min_bid_floor must be >= 1")
        if self.max_history < 1:
            raise ValueError("max_history must be >= 1")
        if self.max_age_rounds < 0:
            raise ValueError("max_age_rounds must be >= 0")
        if self.budget_norm < 1:
            raise ValueError("budget_norm must be >= 1")
        if self.ttl_norm < 1:
            raise ValueError("ttl_norm must be >= 1")
        if not 0.0 <= self.fallback_fraction <= 1.0:
            raise ValueError("fallback_fraction must be in [0, 1]")


@dataclass(slots=True)
class BidHistoryPoint:
    """One observed bid, with the ceiling and advertised distance it was made under.

    Slotted but not frozen, since one is built per recorded bid; histories
    share points, so nothing assigns a field after construction. ``key``,
    ``(max_allowed, hop_count)``, names the chain the point's bid goes to.
    """

    max_allowed: Money
    hop_count: int
    observed_bid: Money
    round: int
    key: tuple[Money, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.observed_bid > self.max_allowed:
            raise ValueError("observed bid exceeds its auction ceiling")
        if self.observed_bid < 0 or self.max_allowed < 0:
            raise ValueError("bids and ceilings are non-negative")
        self.key = (self.max_allowed, self.hop_count)


class BidTape:
    """Append-only log of observed bids and their bidders, windowed by histories.

    Records are appended in round order; ``seqs`` numbers them from 0 in
    that order, and a record keeps its number through trims, which count
    the records they drop in ``dropped``. Every history that windows the
    tape registers its owner in ``owners``, and ``own`` lists the sequence
    numbers of each owner's records (not the owner-less one's), compacted
    ones included, from the tape's first record on; window starts are
    solved from them in sequence space.

    ``chains`` maps each key ``(max_allowed, hop_count)`` to its normalised
    ``(max_allowed / budget_norm, hop_count / ttl_norm)`` and its chain of
    entries ``(seq, bid, bidder, mark)``, folded in up to sequence number
    ``folded`` (see the module docstring).

    Once the tape holds more than ``limit`` records it drops every record
    that no owner's window can reach again. That leaves at most two
    windows' worth, and ``limit`` becomes twice what is left, but at least
    two windows' worth: the tape never holds more than four windows' worth,
    and a trim comes at most once per window's worth of records.
    """

    def __init__(self, cfg: PredictorConfig):
        self.cfg = cfg
        self.points: list[BidHistoryPoint] = []
        self.bidders: list[NodeId | None] = []
        self.seqs: list[int] = []
        self.dropped = 0
        self.owners: set[NodeId | None] = set()
        self.own: dict[NodeId, list[int]] = {}
        self.limit = 2 * cfg.max_history
        self.chains: dict[tuple[Money, int], list] = {}
        self.folded = 0

    def register(self, owner: NodeId | None) -> None:
        """Add ``owner``'s window to the tape, which holds no record yet."""
        if self.points or self.dropped:
            raise ValueError("windows register before the tape holds records")
        self.owners.add(owner)
        if owner is not None:
            self.own.setdefault(owner, [])

    def first_live(self, cutoff: int, start: int) -> int:
        """Index of the first record at or after ``start`` from round ``cutoff`` on."""
        return bisect_left(self.points, cutoff, start, key=_ROUND)

    def start(self, owner: NodeId | None) -> int:
        """Index of the first record in ``owner``'s window.

        The window is the last ``max_history`` records not bid by ``owner``
        (all records when ``owner`` is None), minus those more than
        ``max_age_rounds`` older than the newest of them. Records by the
        owner inside the returned range are not part of it.

        The first of those records is the greatest ``s`` with ``s = end -
        max_history - (owner's records from s on)``: starting from ``end -
        max_history``, each step moves back by the owner's records passed,
        and stops where none is left to pass.
        """
        seqs = self.seqs
        if not seqs:
            return 0
        end = len(seqs) + self.dropped
        first = end - self.cfg.max_history
        last = end - 1
        own = self.own.get(owner)
        if own:
            base = first - len(own)
            while True:
                lower = base + bisect_left(own, first)
                if lower == first:
                    break
                first = lower
            at = len(own) - 1
            while at >= 0 and own[at] == last:
                at -= 1
                last -= 1
        size = len(seqs)
        if last < seqs[0]:
            return size
        begin = bisect_left(seqs, first)
        # The newest record, when not the owner's, was never compacted away.
        newest = size - 1 if last == end - 1 else bisect_left(seqs, last, begin)
        return self.first_live(self.points[newest].round - self.cfg.max_age_rounds, begin)

    def trim(self) -> None:
        """Drop the records outside every registered owner's window.

        Only the owner whose window starts first reaches the records before
        the second-earliest start, and it skips its own among them; every
        later record lies in two windows with different owners, so at least
        one of them holds it. What is kept is that first window plus the
        second owner's records outside it: at most two windows' worth.
        Owner lists and chain entries older than the first record kept go
        too.
        """
        points, bidders, seqs = self.points, self.bidders, self.seqs
        end = len(seqs) + self.dropped
        starts = {owner: self.start(owner) for owner in self.owners}
        first = min(starts, key=starts.__getitem__)
        lo = starts.pop(first)
        hi = min(starts.values(), default=len(points))
        if first is not None and first in bidders[lo:hi]:
            keep = [i for i in range(lo, hi) if bidders[i] != first]
            points[lo:hi] = [points[i] for i in keep]
            bidders[lo:hi] = [bidders[i] for i in keep]
            seqs[lo:hi] = [seqs[i] for i in keep]
        del points[:lo], bidders[:lo], seqs[:lo]
        self.dropped = end - len(points)
        self.limit = 2 * max(len(points), self.cfg.max_history)
        oldest = seqs[0] if seqs else end
        for own in self.own.values():
            del own[: bisect_left(own, oldest)]
        chains = self.chains
        for key in [key for key, chain in chains.items() if chain[2][0][0] < oldest]:
            entries = chains[key][2]
            # Entries are in sequence order, and a 1-tuple sorts before every
            # entry with the same first field.
            gone = bisect_left(entries, (oldest,))
            if gone == len(entries):
                del chains[key]
            else:
                del entries[:gone]

    def fold(self, start: int) -> dict[tuple[Money, int], list]:
        """The chains, caught up with the tape; ``start`` is the querier's window start.

        A tape with one owner folds from that owner's window start, which
        never moves back, and skips the owner's records; a shared tape folds
        every record, since some window may still reach it.
        """
        chains = self.chains
        seqs = self.seqs
        end = len(seqs) + self.dropped
        if self.folded == end:
            return chains
        new = bisect_left(seqs, self.folded)
        skip = _NOBODY
        if len(self.owners) == 1:
            new = max(new, start)
            (owner,) = self.owners
            if owner is not None:
                skip = owner
        # Per key, newest first: [least newer bid, its bidder, least newer bid
        # by any other bidder, the kept entries]. A record below every newer
        # bid is kept unmarked; one that only one other bidder's newer bids
        # reach is kept, marked with that bidder; any other is dropped.
        batch: dict[tuple[Money, int], list] = {}
        bidders, points = self.bidders, self.points
        for at in range(len(seqs) - 1, new - 1, -1):
            bidder = bidders[at]
            if bidder == skip:
                continue
            seq = seqs[at]
            point = points[at]
            bid = point.observed_bid
            key = point.key
            state = batch.get(key)
            if state is None:
                batch[key] = [bid, bidder, math.inf, [(seq, bid, bidder, _UNMARKED)]]
            elif bid < state[0]:
                state[3].append((seq, bid, bidder, _UNMARKED))
                if bidder != state[1]:
                    state[1] = bidder
                    state[2] = state[0]
                state[0] = bid
            elif bid < state[2] and bidder != state[1]:
                state[3].append((seq, bid, bidder, state[1]))
                state[2] = bid
        cfg = self.cfg
        for key, (low, by, other, tail) in batch.items():
            tail.reverse()
            chain = chains.get(key)
            if chain is None:
                chains[key] = [key[0] / cfg.budget_norm, key[1] / cfg.ttl_norm, tail]
                continue
            kept = []
            for entry in chain[2]:
                seq, bid, bidder, mark = entry
                if bid < low:
                    kept.append(entry)
                elif bidder == by or bid >= other:
                    continue
                elif mark is _UNMARKED:
                    kept.append((seq, bid, bidder, by))
                elif mark == by:
                    kept.append(entry)
            kept += tail
            chain[2] = kept
        self.folded = end
        return chains


class BidHistory:
    """One owner's window onto a bid tape: bids by the owner are left out.

    Without an ``owner`` the window holds every bidder's records; without a
    ``tape`` the history gets one of its own. The chains a query reads are
    the tape's, shared with every other window onto it.
    """

    def __init__(
        self,
        cfg: PredictorConfig,
        owner: NodeId | None = None,
        tape: BidTape | None = None,
    ):
        self.cfg = cfg
        self.owner = owner
        self.tape = BidTape(cfg) if tape is None else tape
        self.tape.register(owner)

    def __len__(self) -> int:
        tape = self.tape
        start = tape.start(self.owner)
        size = len(tape.bidders) - start
        if self.owner is not None:
            size -= tape.bidders[start:].count(self.owner)
        return size

    def record(
        self,
        point: BidHistoryPoint,
        bidder: NodeId | None = None,
        tapes: list[BidTape] | None = None,
    ) -> None:
        """Append a point bid by ``bidder`` to the history's tape, or to each of
        ``tapes``; points come in round order on every tape."""
        rnd = point.round
        for tape in (self.tape,) if tapes is None else tapes:
            points = tape.points
            if points and rnd < points[-1].round:
                raise ValueError("bids must be recorded in round order")
            seq = len(points) + tape.dropped
            tape.seqs.append(seq)
            points.append(point)
            tape.bidders.append(bidder)
            own = tape.own.get(bidder)
            if own is not None:
                own.append(seq)
            if len(points) > tape.limit:
                tape.trim()

    def points(self, now_round: int | None = None) -> list[BidHistoryPoint]:
        """Live points, oldest first, age-filtered relative to ``now_round`` when given."""
        tape = self.tape
        owner = self.owner
        start = tape.start(owner)
        if now_round is not None:
            start = tape.first_live(now_round - self.cfg.max_age_rounds, start)
        if owner is None:
            return tape.points[start:]
        bidders, points = tape.bidders, tape.points
        out: list[BidHistoryPoint] = []
        for _ in range(bidders[start:].count(owner)):
            own = bidders.index(owner, start)
            out += points[start:own]
            start = own + 1
        out += points[start:]
        return out

    def live_chains(
        self, now_round: int | None = None
    ) -> tuple[dict[tuple[Money, int], list], int, object] | None:
        """The tape's chains, caught up, the sequence number from which their
        entries are live at ``now_round``, and the bidder whose entries this
        window skips; None when the window is empty.

        Entries before the window start, or before the age cutoff at
        ``now_round``, are left in the chains for the caller to skip: other
        windows onto the tape may still read them.
        """
        tape = self.tape
        owner = self.owner
        start = tape.start(owner)
        seqs = tape.seqs
        if start == len(seqs):
            return None
        chains = tape.fold(start)
        if now_round is not None:
            start = tape.first_live(now_round - self.cfg.max_age_rounds, start)
        live = seqs[start] if start < len(seqs) else len(seqs) + tape.dropped
        return chains, live, _NOBODY if owner is None else owner


class BidFeed(BidHistory):
    """A run's one writer of bid tapes: an owner-less history told who hears what.

    ``tapes`` maps each history owner to the tape its window reads, and
    ``tapes_of`` a group's mask to its members' tapes, filled as groups come.
    Groups follow the balls of the graph, so a run meets few distinct ones:
    47 in the 1,660 recorded by ``khop-churn`` at seed 1401. ``pending`` maps
    a packet to its ``AUCTION_ANNOUNCED`` events so far, oldest first, each
    with the mask of the owners that heard it, or None when every history
    windows the feed's own tape.
    """

    def __init__(self, cfg: PredictorConfig):
        super().__init__(cfg)
        self.tapes: dict[NodeId, BidTape] = {}
        self.tapes_of: dict[int, list[BidTape]] = {}
        self.pending: dict[int, list[tuple[GameEvent, int | None]]] = {}

    def observe(self, event: GameEvent, hearers: int | None = None) -> None:
        """Fold one event in, heard by the owners in ``hearers``, or by every
        history on the feed's tape when it is None.

        A bid is recorded against the latest announcement of its packet that
        a hearer heard, and only when that announcement carried a distance (a
        0 is one); its bidder does not record it. The hearers with the same
        latest announcement share one point. Wins, payments and fines are
        ignored.
        """
        kind = event.kind
        if kind is _BID_PLACED:
            announced = self.pending.get(event.packet_id)
            if announced is None:
                return
            if hearers is None:
                # Every window on the feed's tape skips its owner's bids, the bidder's too.
                latest = announced[-1][0]
                if latest.dist is not None:
                    self.record(
                        BidHistoryPoint(latest.amount, latest.dist, event.amount, event.round),
                        event.node,
                    )
                return
            left = hearers & ~(1 << event.node)
            for latest, heard in reversed(announced):
                group = left & heard
                if group:
                    if latest.dist is not None:
                        tapes = self.tapes_of.get(group)
                        if tapes is None:
                            tapes = self.tapes_of[group] = [
                                self.tapes[owner] for owner in members(group)
                            ]
                        self.record(
                            BidHistoryPoint(latest.amount, latest.dist, event.amount, event.round),
                            event.node,
                            tapes,
                        )
                    left ^= group
                    if not left:
                        return
        elif kind is _ANNOUNCED:
            self.pending.setdefault(event.packet_id, []).append((event, hearers))
        elif kind is _DELIVERED or kind is _DROPPED:
            self.pending.pop(event.packet_id, None)


def predict_bid(
    history: BidHistory,
    max_allowed: Money,
    hop_count: int,
    now_round: int | None = None,
    live_chains: tuple[dict[tuple[Money, int], list], int, object] | None = None,
) -> Money:
    """Smallest-undercut bid for the queried auction scenario.

    One below the minimum bid seen in the epsilon-neighborhood, clamped to
    [min_bid_floor, max_allowed]; with no neighbors, a fallback fraction of
    the ceiling, clamped the same way. ``live_chains`` is what
    ``history.live_chains(now_round)`` returned, for a caller that read it
    already and found the window non-empty; the history is not read again.
    """
    if max_allowed < 1:
        raise ValueError("query max_allowed must be >= 1")
    cfg = history.cfg
    live = live_chains or history.live_chains(now_round)
    low = math.inf
    if live is not None:
        chains, first, skip = live
        epsilon = cfg.epsilon
        qa = max_allowed / cfg.budget_norm
        qh = hop_count / cfg.ttl_norm
        for na, nh, entries in chains.values():
            if math.hypot(na - qa, nh - qh) <= epsilon:
                for seq, bid, bidder, _ in entries:
                    if bid < low and seq >= first and bidder != skip:
                        low = bid
    if low < math.inf:
        raw = low - 1
    else:
        raw = int(max_allowed * cfg.fallback_fraction)
    return min(max_allowed, max(cfg.min_bid_floor, raw))
