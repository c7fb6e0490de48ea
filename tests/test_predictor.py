import math
from collections import deque

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from bidforward.engine import GameConfig, Simulation
from bidforward.model import BACKBONE, EventKind, GameEvent
from bidforward.predictor import BidFeed, BidHistory, BidHistoryPoint, PredictorConfig, predict_bid
from bidforward.strategies import build_strategy
from bidforward.topology import generate, members
from helpers import window_size

#: The scale of every tape here: the default game's budget and TTL.
BUDGET, TTL = 100, 8


class DequeWindow:
    """The reference window: the points its owner heard, in a bounded deque
    with age eviction."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.deque = deque(maxlen=cfg.max_history)

    def record(self, point):
        self.deque.append(point)
        while self.deque[0].round < point.round - self.cfg.max_age_rounds:
            self.deque.popleft()

    def points(self, now_round=None):
        if now_round is None:
            return list(self.deque)
        return [p for p in self.deque if p.round >= now_round - self.cfg.max_age_rounds]


def masked(cfg, owners):
    """A feed writing a tape, and a window onto it per owner."""
    feed = BidFeed(cfg, BUDGET, TTL)
    return feed, [BidHistory(cfg, owner, feed.tape) for owner in owners]


def everyone(feed, bidder, point):
    """Hand the feed ``point``'s bid by ``bidder`` as under ``global``: every
    owner of a window onto the feed's tape heard the one announcement and
    hears the bid."""
    owners = sum(window.bit for window in feed.tape.windows)
    announced = [(point.max_allowed, point.hop_count, owners)]
    feed.hear(announced, bidder, point.observed_bid, point.round, owners)


def history_from(points, cfg):
    """Owner 0's window onto a tape of ``(max_allowed, hop_count, bid, round)``
    points, each heard by 0."""
    feed, (window,) = masked(cfg, (0,))
    for ma, hc, bid, rnd in points:
        feed.record(BidHistoryPoint(ma, hc, bid, rnd), window.bit)
    return window


def deque_from(points, cfg):
    """The reference window of the same points as ``history_from``."""
    reference = DequeWindow(cfg)
    for ma, hc, bid, rnd in points:
        reference.record(BidHistoryPoint(ma, hc, bid, rnd))
    return reference


def neighborhood(reference, max_allowed, hop_count, now_round=None):
    """Points of a reference window within epsilon of the query in normalized
    space, by a scan of the whole window: the reference for ``predict_bid``'s
    chains."""
    cfg = reference.cfg
    qa = max_allowed / BUDGET
    qh = hop_count / TTL
    out = []
    for p in reference.points(now_round):
        da = p.max_allowed / BUDGET - qa
        dh = p.hop_count / TTL - qh
        if math.hypot(da, dh) <= cfg.epsilon:
            out.append(p)
    return out


def reference_predict(reference, max_allowed, hop_count, now_round=None):
    """``predict_bid`` as a scan of ``neighborhood``."""
    cfg = reference.cfg
    nearby = neighborhood(reference, max_allowed, hop_count, now_round)
    if nearby:
        raw = min(p.observed_bid for p in nearby) - 1
    else:
        raw = int(max_allowed * cfg.fallback_fraction)
    return min(max_allowed, max(cfg.min_bid_floor, raw))


def oracle_predict(points, cfg, max_allowed, hop_count):
    """Brute-force reimplementation of the neighborhood-minimum rule."""
    nearby = []
    for ma, hc, bid, _ in points:
        d = math.sqrt(
            (ma / BUDGET - max_allowed / BUDGET) ** 2
            + (hc / TTL - hop_count / TTL) ** 2
        )
        if d <= cfg.epsilon:
            nearby.append(bid)
    raw = min(nearby) - 1 if nearby else int(max_allowed * cfg.fallback_fraction)
    return min(max_allowed, max(cfg.min_bid_floor, raw))


class TestRecord:
    def test_size_eviction(self):
        cfg = PredictorConfig(max_history=2)
        h = history_from([(100, 3, 40, 0), (100, 3, 35, 1), (100, 3, 30, 2)], cfg)
        assert [p.observed_bid for p in h.points()] == [35, 30]

    def test_age_eviction_at_query_time(self):
        cfg = PredictorConfig(max_age_rounds=10)
        h = history_from([(100, 3, 40, 0)], cfg)
        assert h.points(now_round=10) != []
        assert h.points(now_round=11) == []

    def test_age_eviction_at_record_time(self):
        cfg = PredictorConfig(max_age_rounds=5)
        h = history_from([(100, 3, 40, 0), (100, 3, 35, 20)], cfg)
        assert [p.observed_bid for p in h.points()] == [35]

    def test_deterministic_order(self):
        cfg = PredictorConfig(max_history=3)
        pts = [(100, 3, b, r) for r, b in enumerate([9, 7, 8, 6])]
        assert [p.observed_bid for p in history_from(pts, cfg).points()] == [7, 8, 6]

    def test_point_invariant(self):
        with pytest.raises(ValueError):
            BidHistoryPoint(max_allowed=10, hop_count=1, observed_bid=11, round=0)


class TestPredict:
    def test_neighborhood_min_undercut(self):
        # Points at normalized distance 0 from the query plus one far point;
        # expected value computed with the brute-force oracle: min(40, 35)-1.
        cfg = PredictorConfig(epsilon=0.3)
        points = [(100, 3, 40, 0), (100, 3, 35, 0), (50, 1, 10, 0)]
        h = history_from(points, cfg)
        assert oracle_predict(points, cfg, 100, 3) == 34
        assert predict_bid(h, 100, 3) == 34
        assert len(neighborhood(deque_from(points, cfg), 100, 3)) == 2

    def test_all_zero_bids_hit_the_floor(self):
        cfg = PredictorConfig(epsilon=2.0)
        h = history_from([(100, d, 0, 0) for d in range(1, 5)], cfg)
        assert predict_bid(h, 100, 3) == cfg.min_bid_floor == 1

    def test_empty_history_fallback(self):
        cfg = PredictorConfig(epsilon=0.1, fallback_fraction=0.5)
        h = history_from([], cfg)
        assert predict_bid(h, 100, 3) == 50

    def test_never_exceeds_ceiling(self):
        cfg = PredictorConfig(epsilon=2.0)
        h = history_from([(100, 3, 90, 0)], cfg)
        assert predict_bid(h, 20, 3) == 20

    def test_rejects_degenerate_query(self):
        cfg = PredictorConfig()
        with pytest.raises(ValueError):
            predict_bid(history_from([], cfg), 0, 1)

    @settings(max_examples=60, deadline=None)
    @given(
        bids=st.lists(st.tuples(st.integers(1, 100), st.integers(1, 8)), max_size=20),
        ceiling=st.integers(1, 100),
        hop=st.integers(1, 8),
        epsilon=st.floats(0.0, 2.0),
    )
    def test_output_always_in_bounds(self, bids, ceiling, hop, epsilon):
        cfg = PredictorConfig(epsilon=epsilon)
        points = [(ma, hc, ma // 2, 0) for ma, hc in bids]
        value = predict_bid(history_from(points, cfg), ceiling, hop)
        assert cfg.min_bid_floor <= value <= ceiling or value == ceiling

    @settings(max_examples=60, deadline=None)
    @given(
        bids=st.lists(
            st.tuples(st.integers(1, 100), st.integers(1, 8), st.integers(0, 100)),
            min_size=1, max_size=20,
        ),
        eps=st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0)),
    )
    def test_monotone_in_epsilon(self, bids, eps):
        # Larger neighborhoods can only lower the minimum, hence the bid,
        # as long as both neighborhoods are non-empty.
        lo_eps, hi_eps = min(eps), max(eps)
        points = [(ma, hc, min(bid, ma), 0) for ma, hc, bid in bids]
        small = PredictorConfig(epsilon=lo_eps)
        large = PredictorConfig(epsilon=hi_eps)
        h_small = history_from(points, small)
        h_large = history_from(points, large)
        if neighborhood(deque_from(points, small), 50, 4):
            assert predict_bid(h_large, 50, 4) <= predict_bid(h_small, 50, 4)


class TestGlobalWindows:
    """Under ``global`` each owner's window onto the feed's tape, which records
    each bid with every owner but its bidder, holds what a private deque of
    the bids the owner did not make would."""

    @settings(max_examples=150, deadline=None)
    @given(
        bids=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 50)), max_size=90
        ),
        max_history=st.integers(1, 6),
        max_age=st.integers(0, 6),
        lag=st.integers(0, 4),
    )
    def test_windows_equal_private_deques(self, bids, max_history, max_age, lag):
        # Bidder 3 owns no window.
        cfg = PredictorConfig(max_history=max_history, max_age_rounds=max_age)
        feed, windows = masked(cfg, (0, 1, 2))
        private = [DequeWindow(cfg) for _ in windows]
        rnd = 0
        for bidder, step, amount in bids:
            rnd += step
            point = BidHistoryPoint(50, 2, amount, rnd)
            everyone(feed, bidder, point)
            for owner, reference in enumerate(private):
                if bidder != owner:
                    reference.record(point)
            assert len(feed.tape.points) <= 4 * max_history
            for window, reference in zip(windows, private):
                now = rnd + lag
                assert window.points() == reference.points()
                assert window.points(now) == reference.points(now)
                assert window_size(window) == len(reference.points())

    def test_owner_bids_do_not_age_out_older_points(self):
        cfg = PredictorConfig(max_age_rounds=5)
        feed, (mine, other) = masked(cfg, (1, 3))
        everyone(feed, 2, BidHistoryPoint(100, 3, 40, 0))
        everyone(feed, 1, BidHistoryPoint(100, 3, 30, 10))
        assert [p.observed_bid for p in mine.points()] == [40]
        assert [p.observed_bid for p in other.points()] == [30]

    def test_windows_register_before_the_tape_holds_records(self):
        writer = history_from([(100, 3, 40, 0)], PredictorConfig())
        with pytest.raises(ValueError):
            BidHistory(writer.cfg, 1, writer.tape)

    def test_points_must_come_in_round_order(self):
        history = history_from([(100, 3, 40, 5)], PredictorConfig())
        with pytest.raises(ValueError):
            history.record(BidHistoryPoint(100, 3, 40, 4), history.bit)


class TestChainsMatchTheScan:
    """``predict_bid``'s per-key chains answer what a scan of a private deque
    of the same points does.

    Every owner hears every bid but its own, as under ``global``; bidder 4
    owns no window. Tapes trim (small ``max_history``), points age out (small
    ``max_age_rounds``), windows catch up after many records or after none,
    and a query without ``now_round`` follows one with it. With epsilon
    0.125 and TTL 8, a point one hop from the query at the same
    ceiling lies exactly on the epsilon circle.
    """

    records = st.tuples(
        st.just("record"),
        st.integers(0, 4),  # bidder
        st.sampled_from([20, 50]),  # ceiling: few keys, so that chains grow
        st.integers(1, 3),  # hop count
        st.floats(0.0, 1.0),  # bid as a share of the ceiling
        st.integers(0, 2),  # rounds since the previous record
    )
    queries = st.tuples(
        st.just("query"),
        st.integers(0, 3),  # the owner
        st.sampled_from([10, 20, 50]),
        st.integers(1, 4),
        st.one_of(st.none(), st.integers(0, 3)),  # now_round, as a lag behind the tape
        st.booleans(),  # follow with a query without now_round
    )

    @settings(max_examples=200, deadline=None)
    @given(
        steps=st.lists(st.one_of(records, queries), max_size=120),
        max_history=st.integers(1, 8),
        max_age=st.integers(0, 4),
        epsilon=st.sampled_from([0.0, 0.125, 0.15, 0.3, math.inf]),
    )
    def test_every_answer_equals_the_scan(self, steps, max_history, max_age, epsilon):
        cfg = PredictorConfig(epsilon=epsilon, max_history=max_history, max_age_rounds=max_age)
        feed, windows = masked(cfg, range(4))
        private = [DequeWindow(cfg) for _ in windows]
        rnd = now = 0
        for step in steps:
            if step[0] == "record":
                _, bidder, ceiling, hop, share, wait = step
                rnd += wait
                point = BidHistoryPoint(ceiling, hop, int(ceiling * share), rnd)
                everyone(feed, bidder, point)
                for owner, reference in enumerate(private):
                    if owner != bidder:
                        reference.record(point)
                continue
            _, owner, ceiling, hop, lag, then_none = step
            window, reference = windows[owner], private[owner]
            if lag is not None:
                now = max(now, rnd + lag)
                expected = reference_predict(reference, ceiling, hop, now)
                assert predict_bid(window, ceiling, hop, now) == expected
            if lag is None or then_none:
                expected = reference_predict(reference, ceiling, hop)
                assert predict_bid(window, ceiling, hop) == expected

    def test_window_start_drops_only_the_pairs_before_it(self):
        # The first query folds (0, 20) in; the next record pushes it out of a
        # one-point window, and the new pair, at the window start, stays.
        h = history_from([(50, 2, 20, 0)], PredictorConfig(max_history=1))
        assert predict_bid(h, 50, 2) == 19
        h.record(BidHistoryPoint(50, 2, 30, 0), h.bit)
        assert predict_bid(h, 50, 2) == 29

    def test_points_on_the_epsilon_circle_count(self):
        cfg = PredictorConfig(epsilon=0.125)
        h = history_from([(50, 3, 20, 0), (50, 5, 10, 0)], cfg)
        assert predict_bid(h, 50, 4) == 9
        assert predict_bid(h, 50, 2) == 19


class TestQueriesBetweenBids:
    """Each owner's window answers what its private deque does when each
    query is followed by a bid from the querier, as a wolf bids after
    predicting, so the owners' windows start at different records; bids come
    from 0-3, so that ties are common.
    """

    @settings(max_examples=150, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from([0, 1, 2, 3, 7]),  # the querier, or a bidder that owns no window
                st.booleans(),  # query first, when the querier owns a window
                st.integers(0, 3),  # bid
                st.sampled_from([10, 20]),  # ceiling
                st.integers(1, 3),  # hop count
                st.integers(0, 1),  # rounds since the previous step
            ),
            min_size=10, max_size=100,
        ),
        max_history=st.integers(1, 6),
        max_age=st.integers(0, 3),
        epsilon=st.sampled_from([0.0, 0.15, math.inf]),
    )
    def test_every_answer_equals_the_scan(self, steps, max_history, max_age, epsilon):
        cfg = PredictorConfig(epsilon=epsilon, max_history=max_history, max_age_rounds=max_age)
        feed, windows = masked(cfg, range(4))
        private = [DequeWindow(cfg) for _ in windows]
        rnd = 0
        for who, query, amount, ceiling, hop, wait in steps:
            rnd += wait
            if query and who < len(windows):
                window, reference = windows[who], private[who]
                assert (window.live_chains(rnd) is None) == (reference.points() == [])
                expected = reference_predict(reference, ceiling, hop, rnd)
                assert predict_bid(window, ceiling, hop, rnd) == expected
            point = BidHistoryPoint(ceiling, hop, amount, rnd)
            everyone(feed, who, point)
            for owner, reference in enumerate(private):
                if owner != who:
                    reference.record(point)

    def test_owner_tied_by_an_earlier_bidder_still_sees_that_bid(self):
        # The owner's own later 5 ties 2's 5; the owner still sees 2's.
        feed, (mine, other) = masked(PredictorConfig(), (1, 3))
        everyone(feed, 2, BidHistoryPoint(50, 2, 5, 0))
        everyone(feed, 1, BidHistoryPoint(50, 2, 5, 0))
        assert predict_bid(other, 50, 2) == 4
        assert predict_bid(mine, 50, 2) == 4

    def test_a_query_leaves_what_only_another_window_reaches(self):
        # Owner 1's window, two records not its own, starts at 2's first bid;
        # owner 2's window still reaches 7's bid before it.
        feed, (first, second) = masked(PredictorConfig(max_history=2), (1, 2))
        for bidder in (7, 2, 2):
            everyone(feed, bidder, BidHistoryPoint(50, 2, 3 if bidder == 7 else 9, 0))
        assert predict_bid(first, 50, 2) == 8
        everyone(feed, 1, BidHistoryPoint(50, 2, 9, 0))
        assert predict_bid(second, 50, 2) == 2

    def test_a_second_lower_bidder_across_folds(self):
        feed, windows = masked(PredictorConfig(), (1, 2, 3))
        for bidder, amount in ((1, 5), (2, 4), (2, 3), (3, 2)):
            everyone(feed, bidder, BidHistoryPoint(50, 2, amount, 0))
            for window in windows:
                window.live_chains()
        # Owner 3 heard 5, 4 and 3; owner 2 heard 5 and 2; owner 1 heard 4, 3 and 2.
        assert [predict_bid(window, 50, 2) for window in windows] == [1, 1, 2]


class TestLongRunBounds:
    """Over 2,000 ``global`` packets with a wolf pack and a short window, the
    tape and the wolves' windows stay within their bounds after every round."""

    def test_tape_and_windows_stay_bounded(self):
        n = 20
        g = generate("geometric", n, radius=0.35, seed=11)
        assignment = {
            node: build_strategy("wolfpack", {"pack": "a"}) if 1 <= node <= 10
            else build_strategy("fair")
            for node in range(n)
        }
        config = GameConfig(packets_total=2000, injection_rate=4, observation="global",
                            master_seed=1)
        cfg = PredictorConfig(max_history=5)
        sim = Simulation(config, g, assignment, cfg)
        tape = sim._feed.tape
        windows = [sim.contexts[node].history for node in range(1, 11)]
        assert all(window.tape is tape for window in windows)
        while sim.step_round():
            assert len(tape.points) <= 4 * cfg.max_history
            for window in windows:
                assert len(window.heard) <= 2 * cfg.max_history
                entries = [entry for chain in window.chains.values() for entry in chain[2]]
                assert len(entries) <= len(window.heard)
                assert all(entry[0] >= window.passed for entry in entries)
        # The tape trimmed many times over, and the windows were read: a trim
        # only restarts a window that hears every bid but its owner's, so
        # only queries fold, and the busiest window folded far past the bound.
        assert tape.dropped > 100 * cfg.max_history
        assert max(window.passed for window in windows) > 100 * cfg.max_history


class TestMaskedWindowsMatchTheScan:
    """Each owner's window onto a tape with random masks answers what a
    private deque of the points the owner heard does, scanned by
    ``reference_predict``.

    Records carry random masks over 3-5 owners; small ``max_history`` makes
    the tape trim, small ``max_age_rounds`` ages points out, and each owner
    queries at its own pace, so that some first query after many trims.
    """

    records = st.tuples(
        st.just("record"),
        st.integers(0, 31),  # the mask, cut to the owners
        st.sampled_from([20, 50]),  # ceiling: few keys, so that chains grow
        st.integers(1, 3),  # hop count
        st.floats(0.0, 1.0),  # bid as a share of the ceiling
        st.integers(0, 2),  # rounds since the previous record
    )
    queries = st.tuples(
        st.just("query"),
        st.integers(0, 4),  # the owner, modulo the owners
        st.sampled_from([10, 20, 50]),
        st.integers(1, 4),
        st.integers(0, 3),  # now_round, as a lag behind the tape
    )

    @settings(max_examples=200, deadline=None)
    @given(
        owners=st.integers(3, 5),
        steps=st.lists(st.one_of(records, records, queries), max_size=150),
        max_history=st.integers(1, 8),
        max_age=st.integers(0, 4),
        epsilon=st.sampled_from([0.0, 0.125, 0.15, 0.3, math.inf]),
    )
    def test_every_answer_equals_the_scan(self, owners, steps, max_history, max_age, epsilon):
        cfg = PredictorConfig(epsilon=epsilon, max_history=max_history, max_age_rounds=max_age)
        feed, windows = masked(cfg, range(owners))
        private = [DequeWindow(cfg) for _ in range(owners)]
        rnd = now = 0
        for step in steps:
            if step[0] == "record":
                _, mask, ceiling, hop, share, wait = step
                mask &= (1 << owners) - 1
                rnd += wait
                point = BidHistoryPoint(ceiling, hop, int(ceiling * share), rnd)
                feed.record(point, mask)
                for owner in members(mask):
                    private[owner].record(point)
                assert len(feed.tape.points) <= 4 * max_history
                continue
            _, owner, ceiling, hop, lag = step
            window, reference = windows[owner % owners], private[owner % owners]
            now = max(now, rnd + lag)
            assert predict_bid(window, ceiling, hop, now) == reference_predict(
                reference, ceiling, hop, now
            )
            assert window.points(now) == reference.points(now)
            assert (window.live_chains() is None) == (reference.points() == [])
            entries = sum(len(chain[2]) for chain in window.chains.values())
            assert entries <= len(window.heard) <= 2 * max_history

    def test_a_lone_heard_record_outlives_the_trims(self):
        # Owner 0 hears one record, then none of the many that trim the tape.
        cfg = PredictorConfig(max_history=2)
        feed, (lone, busy) = masked(cfg, (0, 1))
        feed.record(BidHistoryPoint(50, 2, 7, 0), 0b01)
        for _ in range(10 * cfg.max_history):
            feed.record(BidHistoryPoint(50, 2, 30, 0), 0b10)
        assert feed.tape.dropped > 4 * cfg.max_history
        assert lone.points() == [BidHistoryPoint(50, 2, 7, 0)]
        assert predict_bid(lone, 50, 2) == 6
        assert predict_bid(busy, 50, 2) == 29

    def test_a_first_query_after_many_trims(self):
        # Owner 0 hears every seventh record and queries only at the end;
        # owner 1 hears them all.
        cfg = PredictorConfig(max_history=3, max_age_rounds=4)
        feed, windows = masked(cfg, (0, 1))
        reference = DequeWindow(cfg)
        for i in range(120):
            point = BidHistoryPoint(50, 2, (i * 37) % 50, i // 3)
            feed.record(point, 0b11 if i % 7 == 0 else 0b10)
            if i % 7 == 0:
                reference.record(point)
        assert feed.tape.dropped > 20 * cfg.max_history
        assert windows[0].points() == reference.points() != []
        expected = min(p.observed_bid for p in windows[0].points()) - 1
        assert predict_bid(windows[0], 50, 2) == max(1, expected)

    def test_a_window_that_starts_on_a_record_it_did_not_hear(self):
        # At the first trim (nine records, four kept) owner 0 heard two of the
        # four kept, so its window restarts at the cut: record 5, which it did
        # not hear. Its older, lower bids are out of its window.
        cfg = PredictorConfig(max_history=2)
        feed, (first, second) = masked(cfg, (0, 1))
        masks = [0b01, 0b01, 0b10, 0b10, 0b10, 0b10, 0b01, 0b01, 0b10]
        for i, mask in enumerate(masks):
            feed.record(BidHistoryPoint(50, 2, 10 + i, 0), mask)
        assert feed.tape.dropped == 5 and first.cursor == 5
        assert [p.observed_bid for p in first.points()] == [16, 17]
        assert predict_bid(first, 50, 2) == 15
        assert [p.observed_bid for p in second.points()] == [15, 18]
        assert predict_bid(second, 50, 2) == 14


def mask(owners):
    return sum(1 << owner for owner in owners)


def announced(*announcements):
    """A packet's announcements as the engine keeps them, oldest first, from
    ``(ceiling, dist, hearers)`` triples, where ``hearers`` lists the owners
    that heard each."""
    return [(ceiling, dist, mask(hearers)) for ceiling, dist, hearers in announcements]


def fed(owners, *bids):
    """A feed writing a tape, with one window per owner, handed
    ``(announced, bidder, amount, rnd, hearers)`` bids, where ``hearers``
    lists the owners that hear the bid."""
    feed, _ = masked(PredictorConfig(), owners)
    for packet, bidder, amount, rnd, hearers in bids:
        feed.hear(packet, bidder, amount, rnd, mask(hearers))
    return feed


def heard_by(feed, owner):
    """The points on the feed's tape whose mask has ``owner``'s bit, checked
    against what ``owner``'s window holds."""
    tape = feed.tape
    points = [point for point, bits in zip(tape.points, tape.masks) if bits >> owner & 1]
    (window,) = [window for window in tape.windows if window.owner == owner]
    assert window.points() == points
    return points


class TestObserve:
    """The feed records a bid for its hearers against the latest of the
    packet's announcements each heard: once per group of hearers, with the
    group's mask."""

    def test_histories_that_heard_one_announcement_share_its_point(self):
        packet = announced((60, 2, (1, 2)))
        feed = fed((1, 2), (packet, 5, 50, 1, (1, 2)))
        assert heard_by(feed, 1) == heard_by(feed, 2) == [BidHistoryPoint(60, 2, 50, 1)]
        assert feed.tape.masks == [0b110]

    def test_older_announcement_gives_a_point_of_its_own(self):
        # The second owner missed the newer announcement; the first and third,
        # not adjacent in owner order, heard it and share one record.
        packet = announced((80, 3, (1, 2, 3)), (60, 2, (1, 3)))
        feed = fed((1, 2, 3), (packet, 5, 50, 1, (1, 2, 3)))
        assert heard_by(feed, 2) == [BidHistoryPoint(80, 3, 50, 1)]
        assert heard_by(feed, 1) == heard_by(feed, 3) == [BidHistoryPoint(60, 2, 50, 1)]
        assert feed.tape.masks == [0b1010, 0b100]

    def test_routeless_latest_announcement_hides_an_older_one(self):
        packet = announced((80, 3, (1, 2)), (60, None, (1,)))
        feed = fed((1, 2), (packet, 5, 50, 1, (1, 2)))
        assert heard_by(feed, 1) == []
        assert heard_by(feed, 2) == [BidHistoryPoint(80, 3, 50, 1)]

    def test_owner_bid_and_routeless_announcement_are_not_recorded(self):
        feed = fed(
            (5,),
            (announced((80, 3, (5,))), 5, 50, 0, (5,)),
            (announced((80, None, (5,))), 4, 50, 0, (5,)),
        )
        assert heard_by(feed, 5) == []
        assert feed.tape.masks == []

    def test_a_hearer_that_heard_no_announcement_records_nothing(self):
        packet = announced((60, 2, (1,)))
        feed = fed((1, 2), (packet, 5, 50, 1, (1, 2)))
        assert heard_by(feed, 1) == [BidHistoryPoint(60, 2, 50, 1)]
        assert heard_by(feed, 2) == []


class TestSharedPointsUnderKhop:
    """Under ``khop:3``, a bid's hearers that heard the same latest announcement
    share one record, and so one point object, and hearers that heard
    different ones get different points, each from its own announcement.

    The reference hears every event by hop distance on that round's graph
    and tracks each history owner's latest announcement per packet. Hearers
    with different usable announcements are rare: this run, at master seed
    1, has four such bids.
    """

    def test_same_announcement_same_point(self, monkeypatch):
        built = [0]
        real_post_init = BidHistoryPoint.__post_init__

        def counting_post_init(point):
            built[0] += 1
            real_post_init(point)

        monkeypatch.setattr(BidHistoryPoint, "__post_init__", counting_post_init)
        # Per bid, in feed order: the point each owner heard.
        held: dict[tuple[int, int], dict[int, BidHistoryPoint]] = {}
        current = [None]
        real_record, real_hear = BidHistory.record, BidFeed.hear

        def spy_record(history, point, hearers):
            for owner in members(hearers):
                held.setdefault(current[0].event_id, {})[owner] = point
            real_record(history, point, hearers)

        def spy_hear(feed, announced, bidder, amount, rnd, hearers):
            # The feed hears each bid right after the engine logs it.
            event = current[0] = sim.events[-1]
            assert event.kind is EventKind.BID_PLACED
            assert (event.node, event.amount, event.round) == (bidder, amount, rnd)
            real_hear(feed, announced, bidder, amount, rnd, hearers)

        monkeypatch.setattr(BidHistory, "record", spy_record)
        monkeypatch.setattr(BidFeed, "hear", spy_hear)
        n, k = 50, 3
        g = generate("geometric", n, radius=0.3, seed=1)
        assignment = {
            node: build_strategy("sniper" if 1 <= node <= 10 else "fair") for node in range(n)
        }
        config = GameConfig(
            packets_total=100, injection_rate=2, observation=f"khop:{k}",
            churn_rate=0.01, master_seed=1,
        )
        sim = Simulation(config, g, assignment)
        owners = range(1, 11)
        latest: dict[tuple[int, int], GameEvent] = {}  # (owner, packet) -> announcement
        expected: dict[tuple[int, int], dict[int, GameEvent]] = {}
        seen = 0
        while True:
            graph = sim.graph
            if not sim.step_round():
                break
            hops = dict(nx.all_pairs_shortest_path_length(nx.Graph(graph.edges())))
            for event in sim.events[seen:]:
                if event.location == BACKBONE:
                    reach = {o: 1 + min(hops[o][gw] for gw in graph.gateways) for o in owners}
                else:
                    reach = {o: hops[o][event.location] for o in owners}
                hearers = [o for o, d in reach.items() if d <= k]
                if event.kind is EventKind.AUCTION_ANNOUNCED:
                    latest.update(((o, event.packet_id), event) for o in hearers)
                elif event.kind is EventKind.BID_PLACED:
                    for o in hearers:
                        announced = latest.get((o, event.packet_id))
                        if o != event.node and announced is not None and announced.dist is not None:
                            expected.setdefault(event.event_id, {})[o] = announced
            seen = len(sim.events)
        built_by_run = built[0]
        bids = {e.event_id: e for e in sim.events if e.kind is EventKind.BID_PLACED}
        groups = 0
        stale = 0
        assert held.keys() == expected.keys()
        for event_id, announced in expected.items():
            points = held[event_id]
            assert points.keys() == announced.keys()
            by_announcement: dict[int, BidHistoryPoint] = {}
            for owner, point in points.items():
                a, b = announced[owner], bids[event_id]
                assert point == BidHistoryPoint(a.amount, a.dist, b.amount, b.round)
                assert by_announcement.setdefault(id(a), point) is point
            assert len({id(p) for p in points.values()}) == len(by_announcement)
            groups += len(by_announcement)
            stale += len(by_announcement) > 1
        assert built_by_run == groups
        # Some hearers missed a packet's newest announcement and recorded a
        # point from an older one, beside the hearers of the newest.
        assert stale > 0
