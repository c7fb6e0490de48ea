"""Historical bid prediction.

The predictor keeps a bounded history of observed bids arranged by the two
attributes an auction exposes (the hop count and the maximum allowed bid),
finds past bids within a normalized Euclidean distance epsilon of the
current query, and undercuts the smallest of them by one point, never going
below a configured floor, which keeps the output useful even when observed
bids have collapsed to zero.

A history is its owner's window onto the run's one tape, an append-only log
of points numbered in order: the last ``max_history`` points its owner
heard and did not bid, minus those more than ``max_age_rounds`` older than
the newest of them, as a bounded deque with age eviction would hold. The
run's ``BidFeed`` writes the tape. The engine hands it each bid as the
auction collects it, with the packet's announcements so far and the mask of
the owners that heard each. Under ``global`` observation the tape records
each bid once with its bidder, and a window skips its owner's records. Under
``khop`` scopes a bid's hearers, minus its bidder, fall into groups by the
latest announcement each heard; a group whose announcement carried a
distance gets one point, recorded once on a ``MaskedTape`` with the group's
mask, and an owner's ``HeardWindow`` holds the records with its bit.

A query reads no window. Points with the same ``(max_allowed, hop_count)``
key are at the same distance from any query, so chains keep, per key,
entries ``(seq, bid, bidder, mark)`` in sequence order: a streaming minimum
filter (Lemire, "Streaming maximum-minimum filter using no more than three
comparisons per element", 2006). A query tests each key once against
epsilon and reads its chain from the first live number, skipping the
owner's entries.

Under ``global`` every window reads the tape's chains. An entry is dropped
when a newer record under its key bids no more than it does and either
comes from the entry's own bidder, or is the second such record from a
bidder other than the entry's (``mark`` names the first). For any window,
the least bid under a key is then held by a kept entry, the newest record in
the window that holds it: a window is a suffix of the tape without its
owner's records, so whatever dropped that record would include a newer
record in the window bidding as little, since its own bidder is not the
owner, and of two distinct bidders at most one is. The tape is folded once,
in one batch, by the first history to query after new records came. Under
``khop`` a window folds chains of its own at query time, from its cursor on
the tape, testing one bit per record; an owner never hears its own bids, so
they are plain per-key running minima.

Under ``khop:1`` no history ever records a point, and ``sniper`` and
``wolfpack`` always fall back to ``fallback_fraction`` of the ceiling: a
1-hop view knows no destination beyond its neighbours, which are delivered
to without an auction, and only the gateways hear the backbone's
announcements. Over ``khop-churn`` seeds 1-10 with ``game.observation=khop:1``,
6,382 bids reached a hearer other than their bidder, and none was recorded.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import attrgetter

from .model import Money, NodeId

_ROUND = attrgetter("round")

# A bidder no history is owned by, skipped in place of the owner by owner-less ones.
_NOBODY = object()

# The mark of a chain entry that no newer record from another bidder bid as low as.
_UNMARKED = object()

#: A packet's announcements so far, oldest first: each its ceiling, its advertised
#: distance, and the mask of the history owners that heard it (None under ``global``).
Announcements = list[tuple[Money, int | None, int | None]]


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

    Slotted but not frozen, since one is built per recorded bid; windows share
    points, so nothing assigns a field after construction. ``key`` names the
    chain the point's bid goes to.
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

    Records are appended in round order; ``seqs`` numbers them from 0, and a
    record keeps its number through trims, which count the records they drop
    in ``dropped``. A window registers its owner in ``owners``; ``own`` lists
    the numbers of each owner's records (not the owner-less one's), compacted
    ones included, from which window starts are solved. ``chains`` maps each
    key ``(max_allowed, hop_count)`` to its normalised ``(max_allowed /
    budget_norm, hop_count / ttl_norm)`` and its entries, folded in up to
    sequence number ``folded``.

    Past ``limit`` records a trim drops every record that no window can
    reach again. That leaves at most two windows' worth, and ``limit``
    becomes twice what is left, but at least two windows' worth: the tape
    never holds more than four, and trims at most once per window's worth.
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

    def start(self, owner: NodeId | None) -> int:
        """Index of the first record in ``owner``'s window; the owner's records
        inside the returned range are not part of it.

        The last ``max_history`` of the other records begin at the greatest
        ``s`` with ``s = end - max_history - (owner's records from s on)``:
        from ``end - max_history``, each step moves back by the owner's
        records passed, and stops where none is left to pass.
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
        cutoff = self.points[newest].round - self.cfg.max_age_rounds
        return bisect_left(self.points, cutoff, begin, key=_ROUND)

    def trim(self) -> None:
        """Drop the records outside every registered owner's window.

        Only the owner whose window starts first reaches the records before
        the second-earliest start, and it skips its own among them; every
        later record lies in two windows with different owners, one of which
        holds it. So at most two windows' worth are kept.
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
        _drop_before(self.chains, oldest)

    def fold(self) -> dict[tuple[Money, int], list]:
        """The chains, caught up with the tape: every record is folded in,
        since some window may still reach it."""
        chains, seqs = self.chains, self.seqs
        end = len(seqs) + self.dropped
        if self.folded == end:
            return chains
        # Per key, newest first: [least newer bid, its bidder, least newer bid
        # by any other bidder, the kept entries]. A record below every newer
        # bid is kept unmarked; one that only one other bidder's newer bids
        # reach is kept, marked with that bidder; any other is dropped.
        batch: dict[tuple[Money, int], list] = {}
        bidders, points = self.bidders, self.points
        for at in range(len(seqs) - 1, bisect_left(seqs, self.folded) - 1, -1):
            bidder = bidders[at]
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


def _drop_before(chains: dict[tuple[Money, int], list], oldest: int) -> None:
    """Drop chain entries numbered below ``oldest``, and chains left empty."""
    for key in [key for key, chain in chains.items() if chain[2][0][0] < oldest]:
        entries = chains[key][2]
        # Entries are in sequence order; a 1-tuple sorts before its extensions.
        gone = bisect_left(entries, (oldest,))
        if gone == len(entries):
            del chains[key]
        else:
            del entries[:gone]


class MaskedTape(BidTape):
    """The run's tape under ``khop`` scopes: ``masks`` holds each record's mask
    of the owners of ``windows`` that heard it. Past four windows' worth of
    records a trim keeps the last two, so the record at index ``i`` is
    numbered ``i + dropped``. A window whose cursor lies before the cut
    restarts at the cut if it heard ``max_history`` of the records kept, and
    folds up to the cut otherwise.
    """

    def __init__(self, cfg: PredictorConfig):
        super().__init__(cfg)
        self.masks: list[int] = []
        self.windows: list[HeardWindow] = []
        self.limit = 4 * cfg.max_history

    def trim(self) -> None:
        masks, size = self.masks, self.cfg.max_history
        cut = len(masks) - 2 * size
        for window in self.windows:
            if window.cursor - self.dropped < cut:
                if sum(1 for mask in masks[cut:] if mask & window.bit) < size:
                    window.fold(cut)
                else:
                    window.heard, window.chains = [], {}
                    window.cursor = cut + self.dropped
        del self.points[:cut], masks[:cut]
        self.dropped += cut


class BidHistory:
    """One owner's window onto a ``BidTape``, reading the tape's chains: bids
    by the owner are left out. Without an ``owner`` the window holds every
    bidder's records; without a ``tape`` the history gets one of its own.
    """

    def __init__(
        self, cfg: PredictorConfig, owner: NodeId | None = None, tape: BidTape | None = None
    ):
        self.cfg, self.owner = cfg, owner
        self.tape = BidTape(cfg) if tape is None else tape
        self.tape.register(owner)

    def record(
        self, point: BidHistoryPoint, bidder: NodeId | None = None, hearers: int | None = None
    ) -> None:
        """Append a point bid by ``bidder``, or heard by the owners in the mask
        ``hearers`` on a ``MaskedTape``; points come in round order."""
        tape = self.tape
        points = tape.points
        if points and point.round < points[-1].round:
            raise ValueError("bids must be recorded in round order")
        if hearers is None:
            seq = len(points) + tape.dropped
            tape.seqs.append(seq)
            tape.bidders.append(bidder)
            own = tape.own.get(bidder)
            if own is not None:
                own.append(seq)
        else:
            tape.masks.append(hearers)  # type: ignore[attr-defined]
        points.append(point)
        if len(points) > tape.limit:
            tape.trim()

    def points(self, now_round: int | None = None) -> list[BidHistoryPoint]:
        """Live points, oldest first, age-filtered relative to ``now_round`` when given."""
        tape = self.tape
        start = tape.start(self.owner)
        if now_round is not None:
            start = bisect_left(tape.points, now_round - self.cfg.max_age_rounds, start, key=_ROUND)
        if self.owner is None:
            return tape.points[start:]
        pairs = zip(tape.points[start:], tape.bidders[start:])
        return [point for point, bidder in pairs if bidder != self.owner]

    def live_chains(
        self, now_round: int | None = None
    ) -> tuple[dict[tuple[Money, int], list], int, object] | None:
        """The window's chains, caught up, the sequence number from which their
        entries are live at ``now_round``, and the bidder whose entries this
        window skips; None when the window is empty. Older entries are left
        for the caller to skip: other windows may still read them.
        """
        tape, owner = self.tape, self.owner
        start = tape.start(owner)
        seqs = tape.seqs
        if start == len(seqs):
            return None
        chains = tape.fold()
        if now_round is not None:
            start = bisect_left(tape.points, now_round - self.cfg.max_age_rounds, start, key=_ROUND)
        live = seqs[start] if start < len(seqs) else len(seqs) + tape.dropped
        return chains, live, _NOBODY if owner is None else owner


class HeardWindow(BidHistory):
    """One owner's window onto a ``MaskedTape``: the records whose mask has its
    bit, folded lazily from ``cursor``, a sequence number, into ``heard`` and
    ``chains`` of its own. Entries number the points heard (``heard[0]`` is
    number ``passed``); after a fold neither holds over two windows' worth.
    """

    def __init__(self, cfg: PredictorConfig, owner: NodeId, tape: MaskedTape):
        if tape.points or tape.dropped:
            raise ValueError("windows register before the tape holds records")
        self.cfg, self.owner, self.tape, self.bit = cfg, owner, tape, 1 << owner
        self.cursor = self.passed = 0
        self.heard: list[BidHistoryPoint] = []
        self.chains: dict[tuple[Money, int], list] = {}
        tape.windows.append(self)

    def fold(self, end: int) -> None:
        """Fold the tape's records from the cursor up to index ``end`` in."""
        tape, cfg, heard, chains = self.tape, self.cfg, self.heard, self.chains
        points, masks, bit = tape.points, tape.masks, self.bit
        for at in range(self.cursor - tape.dropped, end):
            if masks[at] & bit:
                point = points[at]
                bid = point.observed_bid
                chain = chains.get(point.key)
                if chain is None:
                    norm = (point.max_allowed / cfg.budget_norm, point.hop_count / cfg.ttl_norm)
                    chain = chains[point.key] = [*norm, []]
                entries = chain[2]
                while entries and entries[-1][1] >= bid:
                    entries.pop()
                entries.append((self.passed + len(heard), bid, None, None))
                heard.append(point)
        self.cursor = end + tape.dropped
        if len(heard) > 2 * cfg.max_history:
            self.passed += len(heard) - cfg.max_history
            del heard[: -cfg.max_history]
            _drop_before(chains, self.passed)

    def points(self, now_round: int | None = None) -> list[BidHistoryPoint]:
        live = self.live_chains(now_round)
        return self.heard[live[1] - self.passed :] if live else []

    def live_chains(
        self, now_round: int | None = None
    ) -> tuple[dict[tuple[Money, int], list], int, object] | None:
        self.fold(len(self.tape.points))
        heard = self.heard
        if not heard:
            return None
        newest = heard[-1].round if now_round is None else max(heard[-1].round, now_round)
        first = max(0, len(heard) - self.cfg.max_history)
        start = bisect_left(heard, newest - self.cfg.max_age_rounds, first, key=_ROUND)
        return self.chains, self.passed + start, _NOBODY


class BidFeed(BidHistory):
    """A run's one writer of its bid tape, a ``MaskedTape`` under ``khop``
    scopes: an owner-less history that the engine hands each bid, with the
    packet's announcements so far and the mask of the owners that heard it.
    """

    def __init__(self, cfg: PredictorConfig, tape: MaskedTape | None = None):
        super().__init__(cfg, None, tape)

    def hear(
        self,
        announced: Announcements,
        bidder: NodeId,
        amount: Money,
        rnd: int,
        hearers: int | None = None,
    ) -> None:
        """Record a bid placed in round ``rnd``, heard by the owners in the
        mask ``hearers``, or by all.

        The bid is recorded against the latest of the packet's announcements
        so far, ``announced``, that a hearer heard, when that announcement
        carried a distance (a 0 is one); its bidder does not hear it. Each
        group of hearers with the same latest announcement gets one record,
        with the group's mask.
        """
        if hearers is None:
            # Every window on the feed's tape skips its owner's bids, the bidder's too.
            ceiling, dist, _ = announced[-1]
            if dist is not None:
                self.record(BidHistoryPoint(ceiling, dist, amount, rnd), bidder)
            return
        left = hearers & ~(1 << bidder)
        for ceiling, dist, heard in reversed(announced):
            group = left & heard  # type: ignore[operator]
            if group:
                if dist is not None:
                    self.record(BidHistoryPoint(ceiling, dist, amount, rnd), bidder, group)
                left ^= group
                if not left:
                    return


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
    raw = low - 1 if low < math.inf else int(max_allowed * cfg.fallback_fraction)
    return min(max_allowed, max(cfg.min_bid_floor, raw))
