from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bidforward.model import BACKBONE, EventKind, GameEvent
from bidforward.observation import (
    ObservationScope,
    ObserverStore,
    merge_pack,
    parse_scope_spec,
    profiles_csv,
)
from bidforward.topology import generate, members, view_of


def ev(rnd, seq, kind, pid, node, amount, location=None, **fields):
    return GameEvent(rnd, seq, kind, pid, node, amount,
                     node if location is None else location, **fields)


def views_of(g, k):
    """Every node's k-hop view of ``g``, indexed by node."""
    return [view_of(g, v, k) for v in range(g.n)]


def ingest(store, owner, event, scope, views):
    """Apply ``event`` iff the scope lets ``owner`` hear it (the engine's rule); whether it did."""
    heard = bool(scope.hearers(event.location, views) >> owner & 1)
    if heard:
        store.apply(event)
    return heard


class TestIngest:
    def test_delivery_payments_mirror_settlement(self):
        # Path [(4, 90), (5, 60)]: node 4 keeps 30, node 5 keeps 60.
        store = ObserverStore()
        store.apply(ev(0, 0, EventKind.PAYMENT, 0, 4, 30))
        store.apply(ev(0, 1, EventKind.PAYMENT, 0, 5, 60))
        assert store.profiles[4].estimated_profit == 30
        assert store.profiles[5].estimated_profit == 60

    def test_out_of_range_event_ignored(self):
        g = generate("grid", 5, cols=1)  # path 0-1-2-3-4
        store = ObserverStore()
        scope = ObservationScope("khop", k=1)
        applied = ingest(store, 0, ev(0, 0, EventKind.PAYMENT, 0, 3, 99), scope, views_of(g, 1))
        assert not applied
        assert store.profiles == {}

    def test_in_range_event_applied(self):
        g = generate("grid", 5, cols=1)
        store = ObserverStore()
        scope = ObservationScope("khop", k=1)
        assert ingest(store, 0, ev(0, 0, EventKind.PAYMENT, 0, 1, 99), scope, views_of(g, 1))
        assert store.profiles[1].estimated_profit == 99

    def test_drop_updates_counters_and_profit(self):
        store = ObserverStore()
        store.apply(ev(0, 0, EventKind.BID_WON, 0, 4, 90, location=1))
        store.apply(ev(0, 1, EventKind.BID_WON, 0, 5, 60, location=4))
        store.apply(ev(0, 2, EventKind.DROPPED, 0, 5, 200))
        store.apply(ev(0, 3, EventKind.FINE_ASSESSED, 0, 4, 100))
        store.apply(ev(0, 4, EventKind.FINE_ASSESSED, 0, 5, 100))
        assert store.profiles[4].estimated_profit == -100
        assert store.profiles[5].estimated_profit == -100
        assert store.profile(4).observed_custodies == 1
        assert store.profile(5).observed_drops == 1
        assert store.profile(4).observed_drops == 0
        assert store.known_path(0) == [4, 5]

    def test_drop_rate_safe_denominator(self):
        store = ObserverStore()
        assert store.profile(9).drop_rate == 0.0


class TestScope:
    def test_parse(self):
        assert parse_scope_spec("global").mode == "global"
        scope = parse_scope_spec("khop:2")
        assert (scope.mode, scope.k) == ("khop", 2)
        with pytest.raises(ValueError):
            parse_scope_spec("near")

    def test_backbone_location_visible_near_gateway(self):
        g = generate("grid", 5, cols=1, gateways=(0,))
        assert ObservationScope("khop", k=1).hearers(-1, views_of(g, 1)) >> 0 & 1
        assert not ObservationScope("khop", k=1).hearers(-1, views_of(g, 1)) >> 2 & 1
        assert ObservationScope("khop", k=3).hearers(-1, views_of(g, 3)) >> 2 & 1


class TestFairness:
    def announce(self, store, ceiling, dist, incoming_promise, holder=3):
        store.apply(ev(0, 0, EventKind.AUCTION_ANNOUNCED, 0, holder, ceiling,
                       dest=9, dist=dist, prev=incoming_promise))

    def test_exactly_fair_announcement(self):
        store = ObserverStore()
        self.announce(store, 60, 3, incoming_promise=90)
        assert store.profile(3).fairness_deviation == 0

    def test_greedy_announcement(self):
        store = ObserverStore()
        self.announce(store, 30, 3, incoming_promise=90)
        assert store.profile(3).fairness_deviation == Fraction(1, 3)

    def test_keeping_everything(self):
        store = ObserverStore()
        self.announce(store, 0, 2, incoming_promise=100)
        assert store.profile(3).fairness_deviation == Fraction(1, 2)

    def test_deviation_accumulates(self):
        store = ObserverStore()
        self.announce(store, 30, 3, incoming_promise=90)
        self.announce(store, 0, 2, incoming_promise=100)
        assert store.profile(3).fairness_deviation == Fraction(1, 3) + Fraction(1, 2)

    def test_announcement_event_drives_update(self):
        store = ObserverStore()
        store.apply(ev(0, 0, EventKind.AUCTION_ANNOUNCED, 0, 3, 30,
                       dest=9, dist=3, prev=90))
        assert store.profile(3).fairness_deviation == Fraction(1, 3)

    def test_backbone_announcement_ignored(self):
        store = ObserverStore()
        store.apply(ev(0, 0, EventKind.AUCTION_ANNOUNCED, 0, -1, 100,
                       location=-1, dest=9, dist=3, prev=100))
        assert store.profiles == {}


class TestMergePack:
    def test_union_of_observations(self):
        a, b = ObserverStore(), ObserverStore()
        e1 = ev(0, 0, EventKind.PAYMENT, 0, 4, 30)
        e2 = ev(0, 1, EventKind.PAYMENT, 0, 5, 60)
        a.apply(e1)
        b.apply(e2)
        missed = [(e1, 1 << 2), (e2, 1 << 1)]
        merge_pack({1: a, 2: b}, missed)
        assert missed == []
        for store in (a, b):
            assert store.profiles[4].estimated_profit == 30
            assert store.profiles[5].estimated_profit == 60

    def test_shared_event_counted_once(self):
        a, b, c = ObserverStore(), ObserverStore(), ObserverStore()
        e1 = ev(0, 0, EventKind.PAYMENT, 0, 4, 30)
        a.apply(e1)
        c.apply(e1)
        merge_pack({1: a, 2: b, 3: c}, [(e1, 1 << 2)])
        for store in (a, b, c):
            assert store.profiles[4].estimated_profit == 30

    def test_idempotent_and_commutative(self):
        def build():
            a, b = ObserverStore(), ObserverStore()
            e1 = ev(0, 0, EventKind.PAYMENT, 0, 4, 30)
            e2 = ev(0, 1, EventKind.FINE_ASSESSED, 1, 5, 10)
            e3 = ev(0, 2, EventKind.PAYMENT, 0, 5, 60)
            a.apply(e1)
            a.apply(e2)
            b.apply(e3)
            return a, b, [(e1, 1 << 2), (e2, 1 << 2), (e3, 1 << 1)]

        a1, b1, missed = build()
        merge_pack({1: a1, 2: b1}, missed)
        snapshot = {s: p.estimated_profit for s, p in a1.profiles.items()}
        merge_pack({1: a1, 2: b1}, missed)  # the emptied list: idempotent
        assert {s: p.estimated_profit for s, p in a1.profiles.items()} == snapshot

        a2, b2, missed = build()
        merge_pack({2: b2, 1: a2}, missed)  # commutative
        assert {s: p.estimated_profit for s, p in b2.profiles.items()} == snapshot

    def test_pack_covers_more_than_either_member(self):
        # Two pack members at the ends of a 5-node path, hearing 1 hop each.
        g = generate("grid", 5, cols=1)
        stores = {0: ObserverStore(), 4: ObserverStore()}
        scope = ObservationScope("khop", k=1)
        pack = 1 << 0 | 1 << 4
        missed = []
        for seq, node in enumerate(range(5)):
            event = ev(0, seq, EventKind.PAYMENT, seq, node, 10)
            heard = sum(
                ingest(store, owner, event, scope, views_of(g, 1)) << owner
                for owner, store in stores.items()
            )
            if heard and heard != pack:
                missed.append((event, pack & ~heard))
        covered_a = set(stores[0].profiles)
        covered_b = set(stores[4].profiles)
        merge_pack(stores, missed)
        merged = set(stores[0].profiles)
        assert covered_a < merged and covered_b < merged
        assert merged == set(stores[4].profiles) == covered_a | covered_b == {0, 1, 3, 4}


LOCATIONS = st.sampled_from([BACKBONE, *range(6)])


@st.composite
def dealt_event(draw):
    """Event fields without an id, plus the store indexes it is dealt to."""
    kind = draw(st.sampled_from(list(EventKind)))
    typed = {}
    if kind is EventKind.AUCTION_ANNOUNCED:
        typed = dict(
            dest=draw(st.integers(0, 5)),
            dist=draw(st.none() | st.integers(0, 6)),
            prev=draw(st.integers(0, 200)),
        )
    elif kind is EventKind.DELIVERED:
        typed = dict(dest=draw(st.integers(0, 5)))
    elif kind is EventKind.DROPPED:
        typed = dict(reason=draw(st.sampled_from(["ttl", "no-winner", "deliberate"])))
    fields = (
        kind, draw(st.integers(0, 7)), draw(LOCATIONS), draw(st.integers(0, 200)),
        draw(LOCATIONS), typed,
    )
    return "event", fields, draw(st.sets(st.integers(0, 3), max_size=4))


MERGE = st.tuples(st.just("merge"), st.permutations(range(4)))


def sorted_paths(store):
    return {pid: sorted(path) for pid, path in store.packet_paths.items()}


def assert_same_state(store, reference):
    assert store.profiles == reference.profiles
    assert sorted_paths(store) == sorted_paths(reference)


class TestMergeMatchesRebuild:
    @settings(deadline=None)
    @given(n_stores=st.integers(2, 4), steps=st.lists(dealt_event() | MERGE, max_size=60))
    def test_members_equal_a_rebuild_from_the_union_after_every_merge(self, n_stores, steps):
        stores = [ObserverStore() for _ in range(n_stores)]
        pack = (1 << n_stores) - 1
        union: list[GameEvent] = []
        missed: list[tuple[GameEvent, int]] = []
        rnd = seq = 0

        def merge(order):
            nonlocal rnd, seq
            merge_pack({i: stores[i] for i in order if i < n_stores}, missed)
            assert missed == []
            rnd, seq = rnd + 1, 0  # the engine merges at the end of a round
            reference = ObserverStore()
            reference.rebuild(union)
            for store in stores:
                assert_same_state(store, reference)
            # A rebuild starts over: its old state does not leak in.
            stores[0].rebuild(reversed(union))
            assert_same_state(stores[0], reference)

        for step in steps:
            if step[0] == "merge":
                merge(step[1])
                continue
            _, (kind, pid, node, amount, location, typed), holders = step
            event = GameEvent(rnd, seq, kind, pid, node, amount, location, **typed)
            seq += 1
            heard = sum(1 << i for i in holders if i < n_stores)
            for i in members(heard):
                stores[i].apply(event)
            if heard:
                union.append(event)
                if heard != pack:
                    missed.append((event, pack & ~heard))
        merge(range(n_stores - 1, -1, -1))
        merge(range(n_stores))  # a repeated merge exchanges nothing and changes nothing


class TestProfilesCsv:
    def test_rows(self):
        store = ObserverStore()
        store.apply(ev(0, 0, EventKind.PAYMENT, 0, 4, 30))
        rows = profiles_csv([(1, store)], round_no=7)
        assert rows == ["7,1,4,30,0.000000,0.000000"]
