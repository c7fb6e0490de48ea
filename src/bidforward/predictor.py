"""Historical bid prediction.

The predictor keeps a bounded history of observed bids arranged by the two
attributes an auction exposes (the hop count and the maximum allowed bid),
finds past bids within Euclidean distance epsilon of the current query on
axes scaled by the run's budget and TTL, and undercuts the smallest by one
point, never going below a configured floor, which keeps the output useful
even when observed bids have collapsed to zero.

A history is its owner's window onto the run's one tape, an append-only log
of points, each with the mask of the history owners that heard it: the last
``max_history`` points whose mask has its owner's bit, minus those more than
``max_age_rounds`` older than the newest of them, as a bounded deque with
age eviction would hold. The run's ``BidFeed`` writes the tape. The engine
hands it each bid as the auction collects it, with the packet's
announcements so far and the mask of the owners that heard each. A bid's
hearers, minus its bidder, fall into groups by the latest announcement each
heard; a group whose announcement carried a distance gets one point,
recorded once with the group's mask. The scope only sets the masks: under
``global`` every owner hears everything, so a bid is one record whose mask
holds every owner but its bidder; under ``khop`` scopes a mask holds the
owners within k hops.

A query reads no window. Points with the same ``(max_allowed, hop_count)``
key are at the same distance from any query, so a window folds the records
it heard, at query time, into per-key chains of entries ``(seq, bid)`` in
sequence order: a streaming minimum filter (Lemire, "Streaming
maximum-minimum filter using no more than three comparisons per element",
2006), which keeps a bid only while no newer one under its key is as low.
Bids rise along a chain, so a query tests each key once against epsilon and
takes its chain's first entry numbered at or past the window's first live
point.

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
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress
from operator import attrgetter

from .model import Money, NodeId

_ROUND = attrgetter("round")

#: A packet's announcements so far, oldest first: each its ceiling, its advertised
#: distance, and the mask of the history owners that heard it.
Announcements = list[tuple[Money, int | None, int]]


@dataclass(frozen=True)
class PredictorConfig:
    """Tuning knobs for the bid history and its queries.

    ``epsilon`` is scale-free: the tape divides both query axes by the run's
    own budget and TTL.
    """

    epsilon: float = 0.15
    min_bid_floor: Money = 1
    max_history: int = 128
    max_age_rounds: int = 512
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
    """The run's one log of observed bids: ``points``, in round order, and
    ``masks``, each point's mask of the owners of ``windows`` that heard it.

    The record at index ``i`` is numbered ``i + dropped``. Past four windows'
    worth of records a trim keeps the last two. A window whose cursor lies
    before the cut restarts at the cut if it heard ``max_history`` of the
    records kept, and folds up to the cut otherwise.
    """

    def __init__(self, cfg: PredictorConfig, budget: Money, ttl: int):
        self.cfg, self.budget, self.ttl = cfg, budget, ttl
        self.points: list[BidHistoryPoint] = []
        self.masks: list[int] = []
        self.dropped = 0
        self.windows: list[BidHistory] = []
        self.limit = 4 * cfg.max_history

    def trim(self) -> None:
        masks, size = self.masks, self.cfg.max_history
        cut = len(masks) - 2 * size
        # The kept records, counted by mask: under ``global`` a mask is the
        # owners minus the bidder, so there are few.
        kept = Counter(masks[cut:]).items()
        for window in self.windows:
            if window.cursor - self.dropped < cut:
                if sum(n for mask, n in kept if mask & window.bit) < size:
                    window.fold(cut)
                else:
                    window.heard, window.chains = [], {}
                    window.cursor = cut + self.dropped
        del self.points[:cut], masks[:cut]
        self.dropped += cut


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


class BidHistory:
    """One owner's window onto a ``BidTape``: the records whose mask has its
    bit, folded lazily from ``cursor``, a record number, into ``heard`` and
    ``chains`` of its own. ``chains`` maps each key ``(max_allowed,
    hop_count)`` to its scaled ``(max_allowed / tape.budget, hop_count /
    tape.ttl)`` and its entries, which number the points heard (``heard[0]``
    is number ``passed``); after a fold neither holds over two windows' worth.
    """

    def __init__(self, cfg: PredictorConfig, owner: NodeId, tape: BidTape):
        if tape.points or tape.dropped:
            raise ValueError("windows register before the tape holds records")
        self.cfg, self.owner, self.tape, self.bit = cfg, owner, tape, 1 << owner
        self.cursor = self.passed = 0
        self.heard: list[BidHistoryPoint] = []
        self.chains: dict[tuple[Money, int], list] = {}
        tape.windows.append(self)

    def record(self, point: BidHistoryPoint, hearers: int) -> None:
        """Append a point heard by the owners in the mask ``hearers`` to the
        tape; points come in round order."""
        tape = self.tape
        points = tape.points
        if points and point.round < points[-1].round:
            raise ValueError("bids must be recorded in round order")
        tape.masks.append(hearers)
        points.append(point)
        if len(points) > tape.limit:
            tape.trim()

    def fold(self, end: int) -> None:
        """Fold the tape's records from the cursor up to index ``end`` in."""
        tape, size, heard, chains = self.tape, self.cfg.max_history, self.heard, self.chains
        at = self.cursor - tape.dropped
        if at == end:
            return
        self.cursor = end + tape.dropped
        bit = self.bit
        new = list(compress(tape.points[at:end], map(bit.__and__, tape.masks[at:end])))
        gone = len(heard) + len(new) - size
        if gone > size and gone >= len(heard):
            # Past two windows' worth only the last one stays, and here none
            # of the points heard before: an entry depends only on newer
            # bids, so the points that go need no fold.
            self.passed += gone
            del new[: gone - len(heard)]
            heard.clear()
            chains.clear()
        seq = self.passed + len(heard)
        for point in new:
            bid = point.observed_bid
            key = point.key
            chain = chains.get(key)
            if chain is None:
                chains[key] = [key[0] / tape.budget, key[1] / tape.ttl, [(seq, bid)]]
            else:
                entries = chain[2]
                while entries and entries[-1][1] >= bid:
                    entries.pop()
                entries.append((seq, bid))
            seq += 1
        heard += new
        if len(heard) > 2 * size:
            self.passed += len(heard) - size
            del heard[:-size]
            _drop_before(chains, self.passed)

    def points(self, now_round: int | None = None) -> list[BidHistoryPoint]:
        """Live points, oldest first, age-filtered relative to ``now_round`` when given."""
        live = self.live_chains(now_round)
        return self.heard[live[1] - self.passed :] if live else []

    def live_chains(
        self, now_round: int | None = None
    ) -> tuple[dict[tuple[Money, int], list], int] | None:
        """The window's chains, caught up with the tape, and the number from
        which their entries are live at ``now_round``; None when the window
        is empty. Older entries are left for the caller to skip."""
        self.fold(len(self.tape.points))
        heard = self.heard
        if not heard:
            return None
        newest = heard[-1].round if now_round is None else max(heard[-1].round, now_round)
        first = max(0, len(heard) - self.cfg.max_history)
        start = bisect_left(heard, newest - self.cfg.max_age_rounds, first, key=_ROUND)
        return self.chains, self.passed + start


class BidFeed(BidHistory):
    """A run's one writer of its bid tape, which it makes with the run's
    budget and TTL: a history that no owner reads, so it registers no window.
    The engine hands it each bid, with the packet's announcements so far and
    the mask of the owners that heard it.
    """

    def __init__(self, cfg: PredictorConfig, budget: Money, ttl: int):
        self.cfg, self.tape = cfg, BidTape(cfg, budget, ttl)

    def hear(
        self, announced: Announcements, bidder: NodeId, amount: Money, rnd: int, hearers: int
    ) -> None:
        """Record a bid placed in round ``rnd``, heard by the owners in the
        mask ``hearers``.

        The bid is recorded against the latest of the packet's announcements
        so far, ``announced``, that a hearer heard, when that announcement
        carried a distance (a 0 is one); its bidder does not hear it. Each
        group of hearers with the same latest announcement gets one record,
        with the group's mask.
        """
        left = hearers & ~(1 << bidder)
        for ceiling, dist, heard in reversed(announced):
            group = left & heard
            if group:
                if dist is not None:
                    self.record(BidHistoryPoint(ceiling, dist, amount, rnd), group)
                left ^= group
                if not left:
                    return


def predict_bid(
    history: BidHistory,
    max_allowed: Money,
    hop_count: int,
    now_round: int | None = None,
    live_chains: tuple[dict[tuple[Money, int], list], int] | None = None,
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
        chains, first = live
        epsilon = cfg.epsilon
        qa = max_allowed / history.tape.budget
        qh = hop_count / history.tape.ttl
        for na, nh, entries in chains.values():
            if math.hypot(na - qa, nh - qh) <= epsilon:
                # Bids rise along a chain: its first live entry is its least.
                for seq, bid in entries:
                    if seq >= first:
                        if bid < low:
                            low = bid
                        break
    raw = low - 1 if low < math.inf else int(max_allowed * cfg.fallback_fraction)
    return min(max_allowed, max(cfg.min_bid_floor, raw))
