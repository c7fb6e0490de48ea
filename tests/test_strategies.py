import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bidforward.model import AuctionRequest, Bid, EventKind, GameEvent, Packet, PathLedger
from bidforward.observation import ObserverStore
from bidforward.predictor import BidFeed, BidHistory, BidHistoryPoint, PredictorConfig
from bidforward.strategies import (
    AlwaysOne,
    BidderMetrics,
    ChooserParams,
    FairSplit,
    LastHopSniper,
    MaxBid,
    RandomBaseline,
    WolfPack,
    WolfPackParams,
    build_strategy,
    competition_ranks,
    weighted_rank_choice,
)
from bidforward.topology import generate

from helpers import heard_history, make_ctx


def request(ceiling=90, dest=3, holder=1, dist=3, pid=0, ttl=5, fine=200):
    return AuctionRequest(pid, dest, ceiling, fine, ttl, holder, dist)


class TestFairSplit:
    def test_takes_the_announced_ceiling(self):
        # The announcement already embeds the holder's fair share; shaving
        # it again would strand budget with the backbone.
        g = generate("ring", 6)
        ctx = make_ctx(0, g)
        assert FairSplit().on_auction(request(90, dest=3), ctx) == 90

    def test_adjacent_bids_ceiling(self):
        g = generate("ring", 6)
        ctx = make_ctx(0, g)
        assert FairSplit().on_auction(request(90, dest=1), ctx) == 90

    def test_bids_with_advertised_distance_only(self):
        g = generate("ring", 6)
        ctx = make_ctx(0, g, k=1)  # destination 3 is outside the view
        assert FairSplit().on_auction(request(90, dest=3, dist=3), ctx) == 90

    def test_fair_chain_splits_budget_equally(self):
        # Telescoping announcements: 100 -> 66 -> 33 on a 3-custodian path
        # gives per-node earnings within a point of 100/3.
        g = generate("grid", 4, cols=1, gateways=(0,))
        strat = FairSplit()
        promise = 100
        promises = [promise]
        for node, d in ((0, 3), (1, 2)):
            ctx = make_ctx(node, g)
            packet = Packet(0, 3, budget=100, fine=200, ttl=5)
            promise = strat.announce_ceiling(packet, promise, None, ctx)
            promises.append(promise)
        earnings = [a - b for a, b in zip(promises, promises[1:])] + [promises[-1]]
        assert promises == [100, 66, 33]
        assert all(abs(e - 100 // 3) <= 1 for e in earnings)

    def test_abstains_without_any_route_information(self):
        g = generate("ring", 6)
        ctx = make_ctx(0, g, k=1)
        assert FairSplit().on_auction(request(90, dest=3, dist=None), ctx) is None

    def test_forced_mode_bids_ceiling_when_blind(self):
        g = generate("ring", 6)
        ctx = make_ctx(0, g, k=1, forced=True)
        assert FairSplit().on_auction(request(90, dest=3, dist=None), ctx) == 90

    def test_chooser_prefers_shorter_route(self):
        g = generate("ring", 6)
        ctx = make_ctx(1, g)
        bids = [Bid(0, 50), Bid(2, 50)]  # dest 3: via 2 is 1 hop, via 0 is 3
        assert FairSplit().choose_winner(request(dest=3, holder=1), bids, ctx) == Bid(2, 50)

    def test_announce_is_zero_deviation_point(self):
        g = generate("ring", 6)
        ctx = make_ctx(0, g)
        packet = Packet(0, 3, budget=100, fine=200, ttl=5)
        assert FairSplit().announce_ceiling(packet, 90, None, ctx) == 60


class TestAlwaysOne:
    def test_bids_one(self):
        g = generate("ring", 6)
        ctx = make_ctx(0, g, observer=ObserverStore())
        assert AlwaysOne().on_auction(request(100), ctx) == 1

    def test_zero_ceiling_abstains_unforced(self):
        g = generate("ring", 6)
        ctx = make_ctx(0, g, observer=ObserverStore())
        assert AlwaysOne().on_auction(request(0), ctx) is None

    def test_zero_ceiling_bids_zero_forced(self):
        g = generate("ring", 6)
        ctx = make_ctx(0, g, forced=True, observer=ObserverStore())
        assert AlwaysOne().on_auction(request(0), ctx) == 0

    def test_constant_over_many_auctions(self):
        g = generate("ring", 6)
        ctx = make_ctx(0, g, observer=ObserverStore())
        strat = AlwaysOne()
        bids = {strat.on_auction(request(c), ctx) for c in range(1, 101)}
        assert bids == {1}


class TestMaxBid:
    def test_bids_ceiling(self):
        g = generate("ring", 6)
        ctx = make_ctx(0, g)
        assert MaxBid().on_auction(request(100), ctx) == 100
        assert MaxBid().on_auction(request(0), ctx) == 0

    def test_loses_default_auction_to_any_lower_bid(self):
        from bidforward.engine import run_auction
        winner = run_auction(request(100), [Bid(1, 100), Bid(2, 99)])
        assert winner == Bid(2, 99)


class TestLastHopSniper:
    def test_abstains_when_far(self):
        g = generate("ring", 8)
        ctx = make_ctx(0, g, history=heard_history(0))
        assert LastHopSniper().on_auction(request(80, dest=4), ctx) is None

    def test_forced_mode_bids_ceiling_when_far(self):
        g = generate("ring", 8)
        ctx = make_ctx(0, g, forced=True, history=heard_history(0))
        assert LastHopSniper().on_auction(request(80, dest=4), ctx) == 80

    def test_adjacent_with_empty_history_bids_small(self):
        g = generate("ring", 8)
        ctx = make_ctx(0, g, history=heard_history(0))
        bid = LastHopSniper(small_cap=5).on_auction(request(80, dest=1), ctx)
        assert 1 <= bid <= 5

    def test_adjacent_with_history_undercuts_neighborhood(self):
        g = generate("ring", 8)
        cfg = PredictorConfig(epsilon=0.3, budget_norm=100, ttl_norm=8)
        history = heard_history(0, BidHistoryPoint(80, 1, 40, 0), BidHistoryPoint(80, 1, 35, 0),
                                cfg=cfg)
        ctx = make_ctx(0, g, history=history)
        assert LastHopSniper().on_auction(request(80, dest=1), ctx) == 34


class TestRandomBaseline:
    def test_bid_within_ceiling(self):
        g = generate("ring", 6)
        ctx = make_ctx(0, g, seed=5)
        for _ in range(50):
            assert 0 <= RandomBaseline().on_auction(request(30), ctx) <= 30


class TestWeightedRankChoice:
    def test_poor_unfair_bidder_beats_rich_fair_one(self):
        # Equal weights; rank sums: X = 1+0+0+1 = 2, Y = 0+0+1+0 = 1.
        bids = [Bid(1, 10), Bid(2, 12)]
        metrics = [
            BidderMetrics(100, 2, 10, Fraction(0), 0.0),
            BidderMetrics(0, 2, 12, Fraction(1, 2), 0.0),
        ]
        assert weighted_rank_choice(bids, metrics, WolfPackParams()) == Bid(2, 12)

    def test_single_bidder_wins_any_weights(self):
        bids = [Bid(5, 42)]
        metrics = [BidderMetrics(10, 1, 42, 0, 0.0)]
        assert weighted_rank_choice(bids, metrics, WolfPackParams(w_rich=9)) == Bid(5, 42)

    def test_bid_weight_only_reduces_to_lowest_bid(self):
        params = WolfPackParams(w_rich=0, w_topo=0, w_bid=1, w_fair=0)
        bids = [Bid(3, 20), Bid(1, 10), Bid(2, 10)]
        metrics = [BidderMetrics(0, 1, b.amount, 0, 0.0) for b in bids]
        assert weighted_rank_choice(bids, metrics, params) == Bid(1, 10)

    def test_drop_rate_cap_excludes(self):
        params = WolfPackParams(drop_rate_cap=0.5)
        bids = [Bid(1, 5), Bid(2, 50)]
        metrics = [
            BidderMetrics(0, 1, 5, 0, 0.9),   # habitual dropper
            BidderMetrics(0, 1, 50, 0, 0.0),
        ]
        assert weighted_rank_choice(bids, metrics, params) == Bid(2, 50)

    def test_all_excluded_falls_back_to_full_field(self):
        params = WolfPackParams(drop_rate_cap=0.1)
        bids = [Bid(1, 5), Bid(2, 50)]
        metrics = [
            BidderMetrics(0, 1, 5, 0, 0.9),
            BidderMetrics(0, 1, 50, 0, 0.9),
        ]
        assert weighted_rank_choice(bids, metrics, params) == Bid(1, 5)

    def test_competition_ranks_share_minimum(self):
        assert competition_ranks([10, 20, 10, 30]) == [0, 2, 0, 3]

    @settings(max_examples=50, deadline=None)
    @given(
        profits=st.lists(st.integers(-500, 500), min_size=2, max_size=6),
        scale=st.floats(0.01, 1000.0),
        shift=st.integers(-1000, 1000),
    )
    def test_invariant_under_profit_rescaling(self, profits, scale, shift):
        bids = [Bid(i, 10 + i) for i in range(len(profits))]
        base = [BidderMetrics(p, 2, 10 + i, 0, 0.0) for i, p in enumerate(profits)]
        moved = [
            BidderMetrics(p * scale + shift, 2, 10 + i, 0, 0.0)
            for i, p in enumerate(profits)
        ]
        params = WolfPackParams(w_rich=2.0, w_topo=0.5, w_bid=1.0, w_fair=0.25)
        assert weighted_rank_choice(bids, base, params) == weighted_rank_choice(
            bids, moved, params
        )


def reference_ranks(values):
    """The O(b²) definition: each value's count of values strictly below it."""
    return [sum(1 for other in values if other < v) for v in values]


def reference_choice(bids, metrics, params):
    """``weighted_rank_choice`` as it read with O(b²) ranks and negated fairness."""
    indices = [i for i, m in enumerate(metrics) if m.drop_rate <= params.drop_rate_cap]
    if not indices:
        indices = list(range(len(bids)))
    rich_rank = reference_ranks([metrics[i].richness for i in indices])
    topo_rank = reference_ranks([metrics[i].distance for i in indices])
    bid_rank = reference_ranks([metrics[i].amount for i in indices])
    fairness = [metrics[i].fairness for i in indices]
    fair_rank = (
        reference_ranks([-f for f in fairness]) if params.prefer_unfair
        else reference_ranks(fairness)
    )
    best_i = best_key = None
    for pos, i in enumerate(indices):
        score = (
            params.w_rich * rich_rank[pos] + params.w_topo * topo_rank[pos]
            + params.w_bid * bid_rank[pos] + params.w_fair * fair_rank[pos]
        )
        key = (score, bids[i].amount, bids[i].bidder)
        if best_key is None or key < best_key:
            best_key, best_i = key, i
    return bids[best_i]


# Few distinct values, so that ties are common; ints, Fractions and inf mix.
rank_values = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
    st.just(math.inf),
)


class TestRankHelpers:
    """Ranks by sorting agree with the O(b²) definitions they replaced."""

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(rank_values, min_size=1, max_size=12))
    def test_competition_ranks_match_the_definition(self, values):
        assert competition_ranks(values) == reference_ranks(values)
        negated = [-v for v in values]
        assert competition_ranks(values, descending=True) == reference_ranks(negated)

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, 40),  # bidder
                st.integers(0, 6),  # amount
                st.integers(-5, 5),  # richness
                st.one_of(st.integers(1, 4), st.just(math.inf)),  # distance
                st.fractions(-2, 2, max_denominator=3),  # fairness
                st.sampled_from([0.0, 0.25, 0.5, 1.0]),  # drop rate
            ),
            min_size=1, max_size=12, unique_by=lambda row: row[0],
        ),
        prefer_unfair=st.booleans(),
        weights=st.tuples(*[st.sampled_from([0, 0.25, 1, 2.5])] * 4).filter(any),
        cap=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    )
    def test_choice_matches_the_old_code(self, rows, prefer_unfair, weights, cap):
        bids = [Bid(bidder, amount) for bidder, amount, *_ in rows]
        metrics = [BidderMetrics(rich, dist, amount, fair, drop)
                   for _, amount, rich, dist, fair, drop in rows]
        w_rich, w_topo, w_bid, w_fair = weights
        params = WolfPackParams(
            w_rich=w_rich, w_topo=w_topo, w_bid=w_bid, w_fair=w_fair,
            drop_rate_cap=cap, prefer_unfair=prefer_unfair,
        )
        assert weighted_rank_choice(bids, metrics, params) == reference_choice(
            bids, metrics, params
        )


class TestWolfPack:
    def line(self):
        return generate("grid", 5, cols=1, gateways=(0,))  # 0-1-2-3-4

    def test_monopoly_position_bids_ceiling(self):
        g = self.line()
        observer = ObserverStore()
        observer.apply(GameEvent(0, 0, EventKind.BID_WON, 0, 0, 100, -1))
        observer.apply(GameEvent(0, 1, EventKind.BID_WON, 0, 1, 90, 0))
        ctx = make_ctx(2, g, observer=observer, history=heard_history(2))
        # Holder 1's only neighbors are 0 (on path) and us: a monopoly.
        bid = WolfPack().on_auction(request(90, dest=4, holder=1, dist=3), ctx)
        assert bid == 90

    def test_no_monopoly_without_path_knowledge(self):
        g = self.line()
        ctx = make_ctx(2, g, observer=ObserverStore(), history=heard_history(2))
        bid = WolfPack().on_auction(request(90, dest=4, holder=1, dist=3), ctx)
        assert bid == 45  # predictor fallback: half the ceiling

    def test_adjacent_undercuts_like_a_sniper(self):
        g = self.line()
        cfg = PredictorConfig(epsilon=0.3, budget_norm=100, ttl_norm=8)
        history = heard_history(3, BidHistoryPoint(90, 1, 36, 0), BidHistoryPoint(90, 1, 35, 0),
                                cfg=cfg)
        ctx = make_ctx(3, g, observer=ObserverStore(), history=history)
        bid = WolfPack().on_auction(request(90, dest=4, holder=2, dist=2), ctx)
        assert bid == 34

    def test_blind_abstains_unforced(self):
        g = self.line()
        ctx = make_ctx(2, g, k=1, observer=ObserverStore(), history=heard_history(2))
        # k=1 view cannot see holder 1's neighborhood nor the destination.
        bid = WolfPack().on_auction(request(90, dest=4, holder=1, dist=None), ctx)
        assert bid is None

    def test_announce_keeps_a_margin(self):
        g = self.line()
        ctx = make_ctx(1, g, observer=ObserverStore(), history=heard_history(1))
        packet = Packet(0, 4, budget=100, fine=200, ttl=5)
        assert WolfPack(greed_margin=1).announce_ceiling(packet, 90, None, ctx) == 59
        assert WolfPack(greed_margin=0).announce_ceiling(packet, 90, None, ctx) == 60
        assert WolfPack(greed_margin=1).announce_ceiling(packet, 0, None, ctx) == 0

    def sabotage_ctx(self, g, node, rich_subject, rich_profit=500):
        observer = ObserverStore()
        observer.profile(rich_subject).estimated_profit = rich_profit
        observer.profile(1).estimated_profit = 5
        observer.profile(2).estimated_profit = 0
        return make_ctx(node, g, observer=observer, history=heard_history(node))

    def test_sabotage_drops_on_rich_upstream(self):
        g = self.line()
        ctx = self.sabotage_ctx(g, 3, rich_subject=0)
        ledger = PathLedger(0).extended(0, 100).extended(1, 80).extended(2, 60).extended(3, 40)
        packet = Packet(0, 4, budget=100, fine=200, ttl=8)
        strat = WolfPack(sabotage_enabled=True, sabotage_budget=60)
        assert strat.on_hold(packet, ledger, ctx)  # own share 50 <= 60

    def test_sabotage_disabled_forwards(self):
        g = self.line()
        ctx = self.sabotage_ctx(g, 3, rich_subject=0)
        ledger = PathLedger(0).extended(0, 100).extended(1, 80).extended(2, 60).extended(3, 40)
        packet = Packet(0, 4, budget=100, fine=200, ttl=8)
        assert not WolfPack(sabotage_enabled=False).on_hold(packet, ledger, ctx)

    def test_sabotage_respects_own_budget(self):
        g = self.line()
        ctx = self.sabotage_ctx(g, 3, rich_subject=0)
        # Path of 3: own share is 66 + remainder 2 = 68 > budget 60.
        ledger = PathLedger(0).extended(0, 100).extended(2, 60).extended(3, 40)
        packet = Packet(0, 4, budget=100, fine=200, ttl=8)
        strat = WolfPack(sabotage_enabled=True, sabotage_budget=60)
        assert not strat.on_hold(packet, ledger, ctx)

    def test_no_sabotage_when_dropper_pays_alone(self):
        g = self.line()
        ctx = self.sabotage_ctx(g, 3, rich_subject=0)
        ctx.fine_mode = "dropper-only"
        ledger = PathLedger(0).extended(0, 100).extended(1, 80).extended(2, 60).extended(3, 40)
        packet = Packet(0, 4, budget=100, fine=200, ttl=8)
        strat = WolfPack(sabotage_enabled=True, sabotage_budget=200)
        assert not strat.on_hold(packet, ledger, ctx)

    def test_no_sabotage_when_nobody_is_rich_yet(self):
        g = self.line()
        observer = ObserverStore()
        for s in (0, 1, 2):
            observer.profile(s).estimated_profit = 0
        ctx = make_ctx(3, g, observer=observer, history=heard_history(3))
        ledger = PathLedger(0).extended(0, 100).extended(1, 80).extended(2, 60).extended(3, 40)
        packet = Packet(0, 4, budget=100, fine=200, ttl=8)
        strat = WolfPack(sabotage_enabled=True, sabotage_budget=60)
        assert not strat.on_hold(packet, ledger, ctx)

    def test_chooser_uses_observed_profiles(self):
        g = generate("ring", 6)
        observer = ObserverStore()
        observer.profile(0).estimated_profit = 100
        observer.profile(2).estimated_profit = 0
        ctx = make_ctx(1, g, observer=observer, history=heard_history(1))
        # Both bidders are 3 hops from dest 4 via themselves? No: via 2 it is
        # 2 hops, via 0 it is 2 hops on the ring; distances tie, profit decides.
        bids = [Bid(0, 10), Bid(2, 10)]
        winner = WolfPack().choose_winner(request(90, dest=4, holder=1, dist=3), bids, ctx)
        assert winner == Bid(2, 10)


class TestZeroValuedEventFields:
    """A typed 0 is a value: only None means the field is missing."""

    def announcement(self, amount, dist, prev):
        return GameEvent(0, 0, EventKind.AUCTION_ANNOUNCED, 7, 3, amount, 3,
                         dest=5, dist=dist, prev=prev)

    def test_zero_incoming_promise_adds_deviation(self):
        store = ObserverStore()
        store.apply(self.announcement(5, dist=3, prev=0))
        # fair share of 0 is 0; the deviation is 5 over max(0, 1)
        assert store.profile(3).fairness_deviation == Fraction(5)

    def heard(self, ceiling, dist, bidder, amount):
        """Node 0's window onto the run's tape after the feed hears one bid
        against one announcement, told node 0 heard both."""
        cfg = PredictorConfig()
        feed = BidFeed(cfg)
        ctx = make_ctx(0, generate("ring", 8), history=BidHistory(cfg, 0, feed.tape))
        feed.hear([(ceiling, dist, 1)], bidder, amount, 0, 1)
        return ctx.history

    def test_zero_distance_bid_is_recorded(self):
        history = self.heard(40, 0, 1, 30)
        assert history.points() == [BidHistoryPoint(40, 0, 30, 0)]

    def test_missing_distance_records_nothing(self):
        history = self.heard(40, None, 1, 30)
        assert history.points() == []


class TestBidValidityFuzz:
    @settings(max_examples=80, deadline=None)
    @given(
        ceiling=st.integers(0, 100),
        dest=st.integers(1, 7),
        seed=st.integers(0, 100),
        name=st.sampled_from(["fair", "always_one", "max_bid", "sniper", "wolfpack", "random"]),
        forced=st.booleans(),
    )
    def test_bids_are_valid_or_abstain(self, ceiling, dest, seed, name, forced):
        g = generate("ring", 8)
        strat = build_strategy(name)
        ctx = make_ctx(
            0, g, seed=seed, forced=forced,
            observer=ObserverStore() if strat.uses_observation else None,
            history=heard_history(0) if strat.uses_bid_history else None,
        )
        req = request(ceiling, dest=dest, holder=1, dist=g.hop_distance(1, dest))
        bid = strat.on_auction(req, ctx)
        if forced:
            assert bid is not None
        if bid is not None:
            assert 0 <= bid <= ceiling


class TestRegistry:
    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            build_strategy("nope")

    def test_bad_params(self):
        with pytest.raises(ValueError, match="bad parameters"):
            build_strategy("wolfpack", {"w_richness": 1})

    def test_param_validation(self):
        with pytest.raises(ValueError):
            WolfPackParams(w_rich=0, w_topo=0, w_bid=0, w_fair=0)
        with pytest.raises(ValueError):
            WolfPackParams(rich_threshold=0)
        with pytest.raises(ValueError):
            LastHopSniper(small_cap=0)
        for name in ("sabotage_enabled", "prefer_unfair"):
            with pytest.raises(ValueError, match=name):
                WolfPackParams(**{name: "no"})

    def test_always_one_takes_only_the_choosers_params(self):
        chooser = {"w_rich": 2, "w_topo": 0.5, "drop_rate_cap": 0.1, "prefer_unfair": False}
        assert build_strategy("always_one", chooser).params == ChooserParams(**chooser)
        for name, value in [("pack", "a"), ("sabotage_enabled", True), ("greed_margin", 7)]:
            with pytest.raises(ValueError, match=f"strategy 'always_one'.*'{name}'"):
                build_strategy("always_one", {name: value})
