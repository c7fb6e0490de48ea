import math
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from bidforward.predictor import (
    BidHistory,
    BidHistoryPoint,
    PredictorConfig,
    neighborhood,
    predict_bid,
)


def history_from(points, cfg):
    h = BidHistory(cfg)
    for ma, hc, bid, rnd in points:
        h.record(BidHistoryPoint(ma, hc, bid, rnd))
    return h


def oracle_predict(points, cfg, max_allowed, hop_count):
    """Brute-force reimplementation of the neighborhood-minimum rule."""
    nearby = []
    for ma, hc, bid, _ in points:
        d = math.sqrt(
            (ma / cfg.budget_norm - max_allowed / cfg.budget_norm) ** 2
            + (hc / cfg.ttl_norm - hop_count / cfg.ttl_norm) ** 2
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
        cfg = PredictorConfig(epsilon=0.3, budget_norm=100, ttl_norm=8)
        points = [(100, 3, 40, 0), (100, 3, 35, 0), (50, 1, 10, 0)]
        h = history_from(points, cfg)
        assert oracle_predict(points, cfg, 100, 3) == 34
        assert predict_bid(h, 100, 3) == 34
        assert len(neighborhood(h, 100, 3)) == 2

    def test_all_zero_bids_hit_the_floor(self):
        cfg = PredictorConfig(epsilon=2.0)
        h = history_from([(100, d, 0, 0) for d in range(1, 5)], cfg)
        assert predict_bid(h, 100, 3) == cfg.min_bid_floor == 1

    def test_empty_history_fallback(self):
        cfg = PredictorConfig(epsilon=0.1, fallback_fraction=0.5)
        h = BidHistory(cfg)
        assert predict_bid(h, 100, 3) == 50

    def test_never_exceeds_ceiling(self):
        cfg = PredictorConfig(epsilon=2.0)
        h = history_from([(100, 3, 90, 0)], cfg)
        assert predict_bid(h, 20, 3) == 20

    def test_rejects_degenerate_query(self):
        cfg = PredictorConfig()
        with pytest.raises(ValueError):
            predict_bid(BidHistory(cfg), 0, 1)

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
        if neighborhood(h_small, 50, 4):
            assert predict_bid(h_large, 50, 4) <= predict_bid(h_small, 50, 4)


class TestSharedTape:
    """Each owner's window onto a shared tape holds what a private deque would."""

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
        cfg = PredictorConfig(max_history=max_history, max_age_rounds=max_age)
        writer = BidHistory(cfg)
        owners = [None, 0, 1, 2]
        windows = {o: BidHistory(cfg, o, writer.tape) for o in owners[1:]}
        windows[None] = writer
        private = {o: deque(maxlen=max_history) for o in owners}
        rnd = 0
        for bidder, step, amount in bids:
            rnd += step
            point = BidHistoryPoint(50, 2, amount, rnd)
            writer.record(point, bidder)
            for owner, points in private.items():
                if bidder != owner:
                    points.append(point)
                    while points[0].round < rnd - max_age:
                        points.popleft()
            assert len(writer.tape.points) <= 4 * max_history
            for owner in owners:
                now = rnd + lag
                live = [p for p in private[owner] if p.round >= now - max_age]
                assert windows[owner].points() == list(private[owner])
                assert windows[owner].points(now) == live
                assert len(windows[owner]) == len(private[owner])

    def test_owner_bids_do_not_age_out_older_points(self):
        cfg = PredictorConfig(max_age_rounds=5)
        writer = BidHistory(cfg)
        mine = BidHistory(cfg, 1, writer.tape)
        writer.record(BidHistoryPoint(100, 3, 40, 0), 2)
        writer.record(BidHistoryPoint(100, 3, 30, 10), 1)
        assert [p.observed_bid for p in mine.points()] == [40]
        assert [p.observed_bid for p in writer.points()] == [30]

    def test_points_must_come_in_round_order(self):
        history = history_from([(100, 3, 40, 5)], PredictorConfig())
        with pytest.raises(ValueError):
            history.record(BidHistoryPoint(100, 3, 40, 4))
