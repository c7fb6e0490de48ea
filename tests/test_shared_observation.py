"""Shared observer state equals per-subscriber state, under every scope.

Under ``global`` scope the engine keeps one ``ObserverStore`` for all
subscribers. Under ``khop`` scopes each subscriber keeps its own store.
Under every scope the engine hands each bid to the run's bid feed with the
packet's announcements and the mask of the history owners that hear it
(every owner, under ``global``); the feed records the bid once per group of
hearers with the same latest announcement, with the group's mask minus the
bidder, on the run's one tape that each owner's window reads through its
bit. The reference here is the per-subscriber model kept in the
tests: every subscriber folds every event it can hear into a private store,
and at the end of each round each pack member also folds every event of the
round that some member heard and it did not (the pack's union, built here
without ``merge_pack``), and keeps a private deque-based history that tracks
the announcements it heard and skips its own bids. The work tests count feed calls, points and records per bid;
the long run bounds the tape and the windows.
"""

import math
from collections import deque

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from bidforward.engine import GameConfig, Simulation
from bidforward.model import BACKBONE, EventKind
from bidforward.observation import ObserverStore
from bidforward.predictor import BidFeed, BidHistory, BidHistoryPoint, PredictorConfig
from bidforward.strategies import build_strategy
from bidforward.topology import generate
from helpers import window_size


class DequeHistory:
    """The per-owner history as a bounded deque with age eviction."""

    def __init__(self, owner, cfg):
        self.owner = owner
        self.cfg = cfg
        self.points = deque(maxlen=cfg.max_history)
        self.pending = {}

    def hear(self, event):
        if event.kind is EventKind.BID_PLACED:
            announced = self.pending.get(event.packet_id)
            if event.node != self.owner and announced is not None and announced[1] is not None:
                self.points.append(BidHistoryPoint(announced[0], announced[1], event.amount,
                                                   event.round))
                cutoff = event.round - self.cfg.max_age_rounds
                while self.points and self.points[0].round < cutoff:
                    self.points.popleft()
        elif event.kind is EventKind.AUCTION_ANNOUNCED:
            self.pending[event.packet_id] = (event.amount, event.dist, event.round)
        elif event.kind in (EventKind.DELIVERED, EventKind.DROPPED):
            self.pending.pop(event.packet_id, None)

    def live(self, now_round):
        return [p for p in self.points if p.round >= now_round - self.cfg.max_age_rounds]


def in_scope(graph, hops, subscriber, location, k):
    """Whether ``subscriber`` hears an event at ``location`` within ``k`` hops."""
    reach = hops.get(subscriber, {subscriber: 0})
    if location == BACKBONE:
        return min(reach.get(g, math.inf) for g in graph.gateways) + 1 <= k
    return reach.get(location, math.inf) <= k


ROLES = st.sampled_from(["fair", "sniper", "always_one", "random", "wolfpack"])


@st.composite
def setups(draw):
    kind = draw(st.sampled_from(["ring", "grid", "geometric"]))
    n = draw(st.integers(6, 13))
    if kind == "geometric":
        graph = generate("geometric", n, radius=0.5, seed=draw(st.integers(0, 50)))
    elif kind == "grid":
        n -= n % 3
        graph = generate("grid", n, cols=3, gateways=(0, n - 1))
    else:
        graph = generate("ring", n)
    packs = draw(st.sampled_from(["none", "one", "two"]))
    sabotage = draw(st.booleans())
    assignment = {}
    for node in range(n):
        role = draw(ROLES)
        if role == "wolfpack" and packs != "none":
            pack = "a" if packs == "one" or node % 2 else "b"
            params = {"pack": pack, "sabotage_enabled": sabotage and pack == "a"}
            assignment[node] = build_strategy("wolfpack", params)
        else:
            assignment[node] = build_strategy(role)
    config = GameConfig(
        packets_total=draw(st.integers(10, 60)),
        injection_rate=draw(st.integers(1, 3)),
        ttl=6,
        observation=draw(st.sampled_from(["global", "khop:1", "khop:2", "khop:3"])),
        churn_rate=draw(st.sampled_from([0.0, 0.05])),
        master_seed=draw(st.integers(0, 10_000)),
    )
    predictor = PredictorConfig(
        max_history=draw(st.integers(1, 6)),
        max_age_rounds=draw(st.integers(0, 6)),
    )
    return graph, assignment, config, predictor


class TestSharedStateMatchesPerSubscriberReference:
    @settings(max_examples=80, deadline=None)
    @given(setup=setups())
    def test_every_context_equals_its_private_reference_after_every_round(self, setup):
        graph, assignment, config, predictor = setup
        sim = Simulation(config, graph, assignment, predictor)
        k = graph.n if config.observation == "global" else int(config.observation[5:])
        stores, histories, packs = {}, {}, {}
        for node, strategy in sorted(assignment.items()):
            if strategy.uses_observation:
                stores[node] = ObserverStore()
                if strategy.pack is not None:
                    packs.setdefault(strategy.pack, []).append(node)
            if strategy.uses_bid_history:
                histories[node] = DequeHistory(node, predictor)
        subscribers = sorted(set(stores) | set(histories))
        seen = 0
        while True:
            graph = sim.graph
            round_no = sim.round
            if not sim.step_round():
                break
            hops = dict(nx.all_pairs_shortest_path_length(nx.Graph(graph.edges())))
            events = sim.events[seen:]
            seen = len(sim.events)
            for event in events:
                for node in subscribers:
                    if in_scope(graph, hops, node, event.location, k):
                        if node in stores:
                            stores[node].apply(event)
                        if node in histories:
                            histories[node].hear(event)
            for members in packs.values():
                for event in events:
                    deaf = [n for n in members if not in_scope(graph, hops, n, event.location, k)]
                    if len(deaf) < len(members):
                        for node in deaf:
                            stores[node].apply(event)
            for node, ctx in sim.contexts.items():
                if node in stores:
                    reference = stores[node]
                    assert ctx.observer.profiles == reference.profiles
                    for packet_id in range(config.packets_total):
                        assert ctx.observer.known_path(packet_id) == reference.known_path(packet_id)
                if node in histories:
                    reference = histories[node]
                    assert ctx.history.points(round_no) == reference.live(round_no)
                    assert ctx.history.points() == list(reference.points)
                    assert window_size(ctx.history) == len(reference.points)
                    reference.pending.clear()  # every packet ends within its round


def mixed_global_run(n, packets=150, seed=1, observation="global"):
    graph = generate("geometric", n, radius=0.3 * math.sqrt(40 / n), seed=seed)
    names = ["sniper", "always_one", "random", "fair", "fair"]
    assignment = {node: build_strategy(names[node % 5]) for node in range(n)}
    assignment[0] = build_strategy("fair")
    config = GameConfig(packets_total=packets, observation=observation, master_seed=seed)
    return Simulation(config, graph, assignment)


class TestSharedStateWork:
    """Per-event work under global scope does not grow with subscribers."""

    def test_apply_and_record_calls_per_event_do_not_depend_on_n(self, monkeypatch):
        calls = [0]

        def counting(real):
            def wrapper(*args, **kwargs):
                calls[0] += 1
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(ObserverStore, "apply", counting(ObserverStore.apply))
        monkeypatch.setattr(BidHistory, "record", counting(BidHistory.record))
        for n in (40, 160):
            calls[0] = 0
            result = mixed_global_run(n).run()
            # At most one shared apply and one shared record per event.
            assert calls[0] <= 2 * len(result.events), n

    def test_shared_tape_stays_bounded_over_long_runs(self):
        graph = generate("geometric", 20, radius=0.35, seed=11)
        assignment = {
            node: build_strategy("sniper" if 1 <= node <= 8 else "fair") for node in range(20)
        }
        config = GameConfig(
            packets_total=2000, injection_rate=2, observation="global", master_seed=5
        )
        sim = Simulation(config, graph, assignment)
        tape = sim.contexts[1].history.tape
        assert all(sim.contexts[node].history.tape is tape for node in range(1, 9))
        lengths = []
        while sim.step_round():
            lengths.append(len(tape.points))
        bound = 4 * sim.predictor_cfg.max_history
        recorded = sum(e.kind is EventKind.BID_PLACED and e.round < 250 for e in sim.events)
        # By 500 packets (two a round) far more bids than the bound have been
        # recorded; over all 2,000 the tape stays within the same bound.
        assert recorded > 4 * bound
        assert max(lengths[:250]) <= bound and max(lengths) <= bound


class TestFeedWorkUnderKhop:
    """Per-bid feed work under ``khop:2`` does not grow with hearers."""

    def test_one_feed_call_per_event_and_one_point_per_group(self, monkeypatch):
        counts = {"hear": 0, "built": 0, "record": 0}
        real_post_init = BidHistoryPoint.__post_init__
        real_record, real_hear = BidHistory.record, BidFeed.hear

        def counting_post_init(point):
            counts["built"] += 1
            real_post_init(point)

        def counting_record(history, point, hearers):
            counts["record"] += 1
            real_record(history, point, hearers)

        def counting_hear(feed, announced, bidder, amount, rnd, hearers):
            counts["hear"] += 1
            before = counts["record"]
            real_hear(feed, announced, bidder, amount, rnd, hearers)
            # Each group of hearers has a latest announcement of its own.
            assert counts["record"] - before <= len(announced)

        monkeypatch.setattr(BidHistoryPoint, "__post_init__", counting_post_init)
        monkeypatch.setattr(BidHistory, "record", counting_record)
        monkeypatch.setattr(BidFeed, "hear", counting_hear)
        for n in (40, 160):
            counts.update(dict.fromkeys(counts, 0))
            sim = mixed_global_run(n, observation="khop:2")
            result = sim.run()
            bids = sum(event.kind is EventKind.BID_PLACED for event in result.events)
            assert 0 < counts["hear"] <= bids, n
            # One point per record call, shared by the whole group it goes to.
            assert counts["built"] == counts["record"] > 0, n
            # One append per group: the run's tape took each record once.
            tape = sim._feed.tape
            assert len(tape.masks) + tape.dropped == counts["record"], n


class TestFeedBoundsUnderKhop:
    """Over a long churning run the run's tape and each window's heard points
    and chains stay bounded."""

    def test_tape_and_windows_stay_bounded_over_long_runs(self):
        graph = generate("geometric", 20, radius=0.35, seed=11)
        assignment = {
            node: build_strategy("sniper" if 1 <= node <= 8 else "fair") for node in range(20)
        }
        config = GameConfig(
            packets_total=2000, injection_rate=2, observation="khop:2",
            churn_rate=0.01, master_seed=5,
        )
        sim = Simulation(config, graph, assignment)
        tape = sim._feed.tape
        windows = [sim.contexts[node].history for node in range(1, 9)]
        assert all(window.tape is tape for window in windows)
        bound = 4 * sim.predictor_cfg.max_history
        while sim.step_round():
            assert len(tape.points) <= bound
            for window in windows:
                assert len(window.heard) <= bound
                assert sum(len(chain[2]) for chain in window.chains.values()) <= bound
        # Far more bids than the bound reached the tape over the run, and every
        # window, whether it queried or not, moved past each dropped record.
        assert tape.dropped > 4 * bound
        assert min(window.cursor for window in windows) >= tape.dropped
