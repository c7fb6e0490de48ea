import pytest
from hypothesis import given, settings, strategies as st

from bidforward import engine
from bidforward.engine import GameConfig, Simulation
from bidforward.model import (
    AuctionRequest,
    Bid,
    EventKind,
    GameEvent,
    LedgerStatus,
    ModelError,
    Packet,
    PathLedger,
    REJECT_NOT_NEIGHBOR,
    REJECT_ON_PATH,
    REJECT_OVER_CEILING,
    events_to_log,
    format_extra,
    parse_extra,
    validate_bid,
)
from bidforward.observation import ObserverStore
from bidforward.predictor import BidHistoryPoint
from bidforward.strategies import BidderMetrics, build_strategy
from bidforward.topology import generate


def request(ceiling=100, holder=1, dest=5):
    return AuctionRequest(
        packet_id=0, destination=dest, ceiling=ceiling, fine=200,
        ttl_remaining=3, holder=holder, hop_distance=3,
    )


class TestValidateBid:
    def test_bid_at_ceiling_accepted(self):
        assert validate_bid(request(100), Bid(2, 100), [], {2, 3}) is None

    def test_bid_over_ceiling_rejected(self):
        assert validate_bid(request(100), Bid(2, 101), [], {2, 3}) == REJECT_OVER_CEILING

    def test_bidder_on_path_rejected(self):
        # 0 -- 1 -- 2 in a triangle with 0: node 0 already carried the packet
        # and bids again from one hop away.
        ledger = PathLedger(0).extended(0, 90).extended(1, 60)
        req = request(60, holder=1)
        assert validate_bid(req, Bid(0, 10), ledger.nodes, {0, 2}) == REJECT_ON_PATH

    def test_non_neighbor_rejected(self):
        assert validate_bid(request(100), Bid(9, 10), [], {2, 3}) == REJECT_NOT_NEIGHBOR

    def test_zero_bid_accepted(self):
        assert validate_bid(request(0), Bid(2, 0), [], {2}) is None


class TestDomainTypes:
    def test_packet_invariants(self):
        with pytest.raises(ModelError):
            Packet(0, 1, budget=0, fine=0, ttl=1)
        with pytest.raises(ModelError):
            Packet(0, 1, budget=1, fine=-1, ttl=1)
        with pytest.raises(ModelError):
            Packet(0, 1, budget=1, fine=0, ttl=0)

    def test_auction_needs_ttl(self):
        with pytest.raises(ModelError):
            AuctionRequest(0, 1, 10, 0, 0, 2, None)

    def test_bid_non_negative(self):
        with pytest.raises(ModelError):
            Bid(1, -1)
        with pytest.raises(ModelError):
            Bid(-1, 5)  # the backbone never bids


class TestPathLedger:
    def test_promises_non_increasing(self):
        ledger = PathLedger(0).extended(1, 90).extended(2, 60)
        with pytest.raises(ModelError):
            ledger.extended(3, 61)

    def test_no_duplicate_nodes(self):
        ledger = PathLedger(0).extended(1, 90)
        with pytest.raises(ModelError):
            ledger.extended(1, 50)

    def test_closed_ledger_rejects_hops(self):
        ledger = PathLedger(0).extended(1, 90).closed(LedgerStatus.DELIVERED)
        with pytest.raises(ModelError):
            ledger.extended(2, 10)

    def test_accessors(self):
        ledger = PathLedger(7).extended(1, 90).extended(2, 60)
        assert ledger.nodes == (1, 2)
        assert ledger.promises == (90, 60)
        assert ledger.last_node == 2
        assert len(ledger) == 2


class TestEventLog:
    def test_line_format(self):
        e = GameEvent(3, 0, EventKind.PAYMENT, 12, 4, 30, 4)
        assert e.to_line() == "3,payment,12,4,30,"

    def test_log_has_header(self):
        e = GameEvent(0, 0, EventKind.DROPPED, 1, 2, 200, 2, reason="ttl")
        text = events_to_log([e])
        lines = text.splitlines()
        assert lines[0] == "round,kind,packet_id,node,amount,extra"
        assert lines[1] == "0,dropped,1,2,200,reason=ttl"

    @settings(max_examples=100, deadline=None)
    @given(
        kind=st.sampled_from(list(EventKind)),
        numbers=st.tuples(*[st.integers(-1, 300)] * 5),
        typed=st.tuples(*[st.none() | st.integers(0, 9)] * 3),
        reason=st.none() | st.sampled_from(["ttl", "no-winner", "deliberate"]),
    )
    def test_line_matches_the_fields(self, kind, numbers, typed, reason):
        """Zero-valued typed fields are rendered; only absent ones are left out."""
        round_, packet_id, node, amount, location = numbers
        dest, dist, prev = typed
        e = GameEvent(round_, 0, kind, packet_id, node, amount, location, dest, dist, prev, reason)
        extra = ";".join(
            f"{key}={value}"
            for key, value in (("dest", dest), ("dist", dist), ("prev", prev), ("reason", reason))
            if value is not None
        )
        assert e.to_line() == f"{round_},{kind.value},{packet_id},{node},{amount},{extra}"
        assert events_to_log([e, e]).splitlines()[1:] == [e.to_line()] * 2

    def test_extra_round_trip(self):
        extra = format_extra(dest=5, dist=None, prev=90)
        assert extra == "dest=5;prev=90"
        assert parse_extra(extra) == {"dest": "5", "prev": "90"}
        assert parse_extra("") == {}

    def test_event_id_orders_log(self):
        events = [
            GameEvent(r, s, EventKind.PAYMENT, 0, 0, 1, 0)
            for r in range(3) for s in range(4)
        ]
        assert [e.event_id for e in events] == sorted(e.event_id for e in events)


class TestRecordContract:
    """Events are shared immutable tuples; per-bid and per-hop records are slotted."""

    def test_event_fields_cannot_be_assigned(self):
        e = GameEvent(0, 1, EventKind.AUCTION_ANNOUNCED, 2, 3, 50, 3, dest=7, dist=2, prev=60)
        with pytest.raises(AttributeError):
            e.amount = 1
        with pytest.raises(AttributeError):
            e.dist = None

    def test_equal_events_are_equal_and_hash_equal(self):
        a = GameEvent(0, 1, EventKind.DROPPED, 2, 3, 200, 3, reason="ttl")
        b = GameEvent(0, 1, EventKind.DROPPED, 2, 3, 200, 3, reason="ttl")
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != GameEvent(0, 1, EventKind.DROPPED, 2, 3, 200, 3, reason="deliberate")
        assert len({a, b}) == 1

    @pytest.mark.parametrize("record", [
        Bid(1, 5),
        AuctionRequest(0, 1, 10, 0, 1, 2, None),
        Packet(0, 1, budget=1, fine=0, ttl=1),
        PathLedger(0).extended(1, 90),
        BidHistoryPoint(10, 1, 5, 0),
        BidderMetrics(0, 1, 5, 0, 0.0),
    ], ids=lambda record: type(record).__name__)
    def test_per_bid_and_per_hop_records_have_no_dict(self, record):
        assert not hasattr(record, "__dict__")

    @staticmethod
    def counted_run(monkeypatch, log):
        """A khop run with packs and churn, and the events the engine built for it.

        The engine builds each event through ``engine._new_tuple``; counting
        those calls counts the events built.
        """
        built = []
        new = engine._new_tuple

        def counting_new(cls, fields):
            event = new(cls, fields)
            built.append(event)
            return event

        monkeypatch.setattr(engine, "_new_tuple", counting_new)
        graph = generate("geometric", 12, radius=0.45, seed=2)
        names = ["fair", "sniper", "wolfpack", "random", "always_one"]
        assignment = {n: build_strategy(names[n % len(names)]) for n in range(12)}
        assignment[0] = build_strategy("fair")
        config = GameConfig(
            packets_total=12, injection_rate=3, observation="khop:2", churn_rate=0.05,
            master_seed=4,
        )
        return Simulation(config, graph, assignment, log=log).run(), built

    def test_one_event_built_per_logged_event(self, monkeypatch):
        result, built = self.counted_run(monkeypatch, log=True)
        assert result.events and len(built) == len(result.events)
        assert all(type(e) is GameEvent for e in result.events)

    def test_unlogged_run_builds_one_event_per_applied_event(self, monkeypatch):
        applied = {}
        apply = ObserverStore.apply

        def recording_apply(store, event):
            applied.setdefault(event.event_id, event)
            return apply(store, event)

        monkeypatch.setattr(ObserverStore, "apply", recording_apply)
        result, built = self.counted_run(monkeypatch, log=False)
        assert result.events == []
        assert built and sorted(e.event_id for e in built) == sorted(applied)
        assert all(type(e) is GameEvent for e in built)
