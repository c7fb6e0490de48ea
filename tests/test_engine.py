import hashlib
import random

import networkx as nx
import pytest

from bidforward import engine, model, observation, strategies, topology
from bidforward.engine import (
    EngineError,
    GameConfig,
    Simulation,
    balances_csv,
    run_auction,
    run_simulation,
    settle_delivery,
    settle_drop,
)
from bidforward.model import (
    BACKBONE,
    AuctionRequest,
    Bid,
    EventKind,
    LedgerStatus,
    PathLedger,
    events_to_log,
)
from bidforward.observation import ObserverStore
from bidforward.predictor import BidFeed
from bidforward.strategies import Strategy, build_strategy
from bidforward.topology import generate, members, view_of


def ledger_of(*entries, status=LedgerStatus.IN_FLIGHT):
    ledger = PathLedger(0)
    for node, promise in entries:
        ledger = ledger.extended(node, promise)
    return ledger.closed(status)


def fair_assignment(n):
    return {node: build_strategy("fair") for node in range(n)}


class AbstainAll(Strategy):
    name = "abstain_all"

    def on_auction(self, request, ctx):
        return None


class GrabAndDrop(Strategy):
    """Wins custody at the ceiling, then drops on purpose."""

    name = "grab_and_drop"

    def on_auction(self, request, ctx):
        return request.ceiling

    def on_hold(self, packet, ledger, ctx):
        return True


class OverCeiling(Strategy):
    """Bids one point above every ceiling."""

    name = "over_ceiling"

    def on_auction(self, request, ctx):
        return request.ceiling + 1


class TestSettleDelivery:
    def test_two_hop_chain(self):
        result = settle_delivery(ledger_of((4, 90), (5, 60), status=LedgerStatus.DELIVERED))
        assert result.deltas == {4: 30, 5: 60}
        assert -sum(result.deltas.values()) == -90  # the backbone's change

    def test_single_hop(self):
        result = settle_delivery(ledger_of((4, 100), status=LedgerStatus.DELIVERED))
        assert result.deltas == {4: 100}
        assert -sum(result.deltas.values()) == -100

    def test_equal_split_pattern(self):
        result = settle_delivery(
            ledger_of((1, 99), (2, 66), (3, 33), status=LedgerStatus.DELIVERED)
        )
        assert result.deltas == {1: 33, 2: 33, 3: 33}
        assert sum(result.deltas.values()) == 99

    def test_needs_delivered_status(self):
        with pytest.raises(EngineError):
            settle_delivery(ledger_of((4, 90)))


class TestSettleDrop:
    def test_remainder_goes_to_dropper(self):
        result = settle_drop(
            ledger_of((1, 90), (2, 60), (3, 30), status=LedgerStatus.DROPPED), 200
        )
        assert result.deltas == {1: -66, 2: -66, 3: -68}
        assert list(result.deltas) == [1, 2, 3]  # path order
        assert -sum(result.deltas.values()) == 200

    def test_single_node_pays_all(self):
        result = settle_drop(ledger_of((1, 100), status=LedgerStatus.DROPPED), 200)
        assert result.deltas == {1: -200}

    def test_zero_fine_no_deltas(self):
        result = settle_drop(ledger_of((1, 90), (2, 60), status=LedgerStatus.DROPPED), 0)
        assert result.deltas == {}

    def test_dropper_only_mode(self):
        result = settle_drop(
            ledger_of((1, 90), (2, 60), status=LedgerStatus.DROPPED), 200, "dropper-only"
        )
        assert result.deltas == {2: -200}


class TestRunAuction:
    def request(self, ceiling=100):
        return AuctionRequest(0, 5, ceiling, 200, 3, BACKBONE, 2)

    def test_default_rule_min_amount_then_id(self):
        bids = [Bid(3, 55), Bid(1, 40), Bid(2, 40)]
        assert run_auction(self.request(), bids) == Bid(1, 40)

    def test_empty_is_no_winner(self):
        assert run_auction(self.request(), []) is None

    def test_chooser_delegation(self):
        bids = [Bid(1, 40), Bid(2, 55)]
        assert run_auction(self.request(), bids, lambda r, b: b[1]) == Bid(2, 55)

    def test_foreign_winner_rejected(self):
        with pytest.raises(EngineError):
            run_auction(self.request(), [Bid(1, 40)], lambda r, b: Bid(9, 1))


class TestSmallestGame:
    def test_one_auction_plus_direct_delivery(self):
        g = generate("grid", 2, cols=1, gateways=(0,))
        result = run_simulation(
            GameConfig(packets_total=1, injection_rate=1, master_seed=7),
            g, fair_assignment(2),
        )
        kinds = [e.kind for e in result.events]
        assert kinds == [
            EventKind.AUCTION_ANNOUNCED,
            EventKind.BID_PLACED,
            EventKind.BID_WON,
            EventKind.DELIVERED,
            EventKind.PAYMENT,
        ]
        assert result.balances == {0: 100, 1: 0}
        assert result.backbone_balance == -100


class TestTtlExhaustion:
    def test_far_destinations_always_drop(self):
        g = generate("grid", 4, cols=1, gateways=(0,))  # 0-1-2-3
        result = run_simulation(
            GameConfig(packets_total=12, injection_rate=3, ttl=1, master_seed=3),
            g, fair_assignment(4),
        )
        dest_of = {}
        for e in result.events:
            if e.kind is EventKind.AUCTION_ANNOUNCED and e.packet_id not in dest_of:
                dest_of[e.packet_id] = e.dest
        outcomes = {
            e.packet_id: e.kind for e in result.events
            if e.kind in (EventKind.DELIVERED, EventKind.DROPPED)
        }
        assert len(outcomes) == 12
        for pid, kind in outcomes.items():
            if dest_of[pid] == 1:  # adjacent to the only gateway
                assert kind is EventKind.DELIVERED
            else:
                assert kind is EventKind.DROPPED
        fined = [e for e in result.events if e.kind is EventKind.FINE_ASSESSED]
        dropped = [k for k in outcomes.values() if k is EventKind.DROPPED]
        assert dropped and len(fined) == len(dropped)  # path length is 1

    def test_enough_ttl_delivers_everything(self):
        g = generate("grid", 4, cols=1, gateways=(0,))
        result = run_simulation(
            GameConfig(packets_total=12, injection_rate=3, ttl=3, master_seed=3),
            g, fair_assignment(4),
        )
        assert all(s.status is LedgerStatus.DELIVERED for s in result.settlements)


class TestDeterminism:
    def test_same_seed_identical_logs(self):
        g = generate("geometric", 12, radius=0.45, seed=2)
        mixed = ["fair", "wolfpack", "always_one", "max_bid", "sniper", "random"]
        def build():
            return {n: build_strategy(mixed[n % len(mixed)]) for n in range(12)}
        config = GameConfig(packets_total=30, injection_rate=3, master_seed=11)
        r1 = run_simulation(config, g, build())
        r2 = run_simulation(config, g, build())
        assert r1.events == r2.events
        assert r1.balances == r2.balances

    def test_different_seed_differs(self):
        g = generate("geometric", 12, radius=0.45, seed=2)
        r1 = run_simulation(GameConfig(packets_total=20, master_seed=1), g, fair_assignment(12))
        r2 = run_simulation(GameConfig(packets_total=20, master_seed=2), g, fair_assignment(12))
        assert r1.events != r2.events


class TestAbstention:
    def test_always_abstaining_ends_at_zero(self):
        g = generate("ring", 6, gateways=(0,))
        assignment = {n: AbstainAll() for n in range(6)}
        result = run_simulation(GameConfig(packets_total=10, master_seed=5), g, assignment)
        assert all(balance == 0 for balance in result.balances.values())
        assert result.backbone_balance == 0  # cancelled packets carry no fine
        assert all(not s.deltas for s in result.settlements)
        reasons = {
            e.reason
            for e in result.events if e.kind is EventKind.DROPPED
        }
        assert reasons == {"cancelled"}

    def test_forced_mode_abstention_is_an_error(self):
        g = generate("ring", 6, gateways=(0,))
        assignment = {n: AbstainAll() for n in range(6)}
        config = GameConfig(packets_total=1, forced_bid_mode=True, master_seed=5)
        with pytest.raises(EngineError, match="abstained"):
            run_simulation(config, g, assignment)


class TestInvalidBids:
    def test_invalid_bid_is_an_error(self):
        g = generate("ring", 6, gateways=(0,))
        assignment = fair_assignment(6)
        assignment[1] = OverCeiling()
        config = GameConfig(packets_total=4, master_seed=5)
        with pytest.raises(EngineError, match=r"node 1 \(over_ceiling\).*over-ceiling"):
            run_simulation(config, g, assignment)


class TestDeliberateDrop:
    def test_drop_is_fined_like_ttl_exhaustion(self):
        g = generate("grid", 4, cols=1, gateways=(0,))  # 0-1-2-3
        assignment = fair_assignment(4)
        assignment[1] = GrabAndDrop()
        # Send everything to node 3 by seed hunting: instead, run many and filter.
        result = run_simulation(
            GameConfig(packets_total=12, injection_rate=2, master_seed=9), g, assignment
        )
        deliberate = [
            e for e in result.events
            if e.kind is EventKind.DROPPED and e.reason == "deliberate"
        ]
        assert deliberate, "saboteur never got to hold a far packet"
        assert all(e.node == 1 for e in deliberate)
        assert result.stats[1].dropped >= len(deliberate)
        # Fines sum to the configured fine on every deliberate drop.
        for e in deliberate:
            shares = [
                f.amount for f in result.events
                if f.kind is EventKind.FINE_ASSESSED and f.packet_id == e.packet_id
            ]
            assert sum(shares) == 200


class TestConservation:
    def test_fuzzed_runs_conserve_money(self):
        rng = random.Random(0)
        names = ["fair", "wolfpack", "always_one", "max_bid", "sniper", "random"]
        for trial in range(25):
            n = rng.randrange(6, 14)
            g = generate("geometric", n, radius=0.55, seed=trial)
            assignment = {node: build_strategy(rng.choice(names)) for node in range(n)}
            config = GameConfig(
                budget=rng.randrange(1, 200),
                fine=rng.randrange(0, 400),
                ttl=rng.randrange(1, 9),
                packets_total=rng.randrange(1, 6),
                injection_rate=rng.randrange(1, 4),
                forced_bid_mode=rng.random() < 0.5,
                fine_mode=rng.choice(["path-split", "dropper-only"]),
                churn_rate=rng.choice([0.0, 0.0, 0.1]),
                observation=rng.choice(["global", "khop:1", "khop:2"]),
                master_seed=trial,
            )
            result = run_simulation(config, g, assignment)
            paid = {
                e.packet_id: e.amount for e in result.events
                if e.kind in (EventKind.DELIVERED, EventKind.DROPPED)
            }
            for s in result.settlements:
                if s.status is LedgerStatus.DELIVERED:
                    # The backbone pays the first promise out as non-negative margins.
                    assert all(d >= 0 for d in s.deltas.values())
                    assert -sum(s.deltas.values()) == -paid[s.packet_id]
                else:
                    # Every fine share is a charge, and the backbone collects the fine.
                    assert all(d < 0 for d in s.deltas.values())
                    assert -sum(s.deltas.values()) == paid[s.packet_id]
            assert sum(result.balances.values()) + result.backbone_balance == 0

    def test_replay_equivalence(self):
        g = generate("geometric", 14, radius=0.4, seed=4)
        names = ["fair", "wolfpack", "always_one", "sniper", "random", "max_bid", "fair"]
        assignment = {n: build_strategy(names[n % len(names)]) for n in range(14)}
        result = run_simulation(
            GameConfig(packets_total=40, injection_rate=4, master_seed=21), g, assignment
        )
        replayed = {n: 0 for n in range(14)}
        for e in result.events:
            if e.kind is EventKind.PAYMENT:
                replayed[e.node] += e.amount
            elif e.kind is EventKind.FINE_ASSESSED:
                replayed[e.node] -= e.amount
        assert replayed == result.balances

    def test_path_length_bounded_by_ttl(self):
        g = generate("geometric", 14, radius=0.4, seed=4)
        config = GameConfig(packets_total=30, injection_rate=3, ttl=3, master_seed=2)
        result = run_simulation(config, g, fair_assignment(14))
        wins_per_packet = {}
        for e in result.events:
            if e.kind is EventKind.BID_WON:
                wins_per_packet[e.packet_id] = wins_per_packet.get(e.packet_id, 0) + 1
        assert wins_per_packet and all(v <= 3 for v in wins_per_packet.values())

    def test_event_log_totally_ordered(self):
        g = generate("ring", 8)
        result = run_simulation(GameConfig(packets_total=10, master_seed=1), g, fair_assignment(8))
        ids = [(e.round, e.seq) for e in result.events]
        assert ids == sorted(ids) and len(set(ids)) == len(ids)


class TestLongPackRuns:
    """Hundreds of packets with two packs, invariants checked after every round."""

    @pytest.mark.parametrize("churn_rate", [0.0, 0.02])
    @pytest.mark.parametrize("observation", ["global", "khop:1", "khop:2"])
    def test_invariants_hold_every_round(self, observation, churn_rate):
        rng = random.Random(f"{observation}/{churn_rate}")
        n = 14
        g = generate("geometric", n, radius=0.45, seed=rng.randrange(100))
        others = ["fair", "always_one", "sniper", "random"]
        assignment = {0: build_strategy("fair")}
        for node in range(1, n):
            if node <= 4:
                assignment[node] = build_strategy(
                    "wolfpack", {"pack": "a", "sabotage_enabled": True}
                )
            elif node <= 7:
                assignment[node] = build_strategy("wolfpack", {"pack": "b"})
            else:
                assignment[node] = build_strategy(rng.choice(others))
        config = GameConfig(
            packets_total=200, injection_rate=2, ttl=6, observation=observation,
            churn_rate=churn_rate, master_seed=rng.randrange(1000),
        )
        sim = Simulation(config, g, assignment)
        packs = [[1, 2, 3, 4], [5, 6, 7]]
        seen = 0
        while sim.step_round():
            assert sum(sim.balances.values()) + sim.backbone_balance == 0
            promises: dict[int, list[int]] = {}
            for e in sim.events[seen:]:
                if e.kind is EventKind.BID_WON:
                    promises.setdefault(e.packet_id, []).append(e.amount)
            seen = len(sim.events)
            for chain in promises.values():
                assert len(chain) <= config.ttl
                assert all(a >= b for a, b in zip(chain, chain[1:]))
            for pack in packs:
                first = sim.contexts[pack[0]].observer
                paths = {pid: set(path) for pid, path in first.packet_paths.items()}
                for node in pack[1:]:
                    store = sim.contexts[node].observer
                    assert store.profiles == first.profiles
                    assert {pid: set(path) for pid, path in store.packet_paths.items()} == paths
        assert sim.round == 100


class TestMergeWork:
    """Under ``khop:2`` on a churning graph with two packs, each pack member's
    store applies each observed event that some member of its pack heard
    exactly once, as it is heard or in the round's merge, and no other event."""

    def test_pack_stores_apply_each_event_their_pack_heard_exactly_once(self, monkeypatch):
        applied: dict[tuple[int, tuple[int, int]], int] = {}
        owner_of: dict[ObserverStore, int] = {}
        real_apply = ObserverStore.apply

        def counting_apply(store, event):
            key = (owner_of[store], event.event_id)
            applied[key] = applied.get(key, 0) + 1
            return real_apply(store, event)

        monkeypatch.setattr(ObserverStore, "apply", counting_apply)
        g = generate("geometric", 16, radius=0.4, seed=3, gateways=(0, 5))
        packs = {"a": [1, 2, 3, 4, 6], "b": [7, 9, 10, 12]}
        assignment = {n: build_strategy("sniper" if n % 4 == 3 else "fair") for n in range(16)}
        for pack, nodes in packs.items():
            for node in nodes:
                assignment[node] = build_strategy(
                    "wolfpack", {"pack": pack, "sabotage_enabled": pack == "a"}
                )
        config = GameConfig(
            packets_total=80, injection_rate=2, observation="khop:2",
            churn_rate=0.02, master_seed=7,
        )
        sim = Simulation(config, g, assignment)
        owner_of.update((ctx.observer, node) for node, ctx in sim.contexts.items())
        ignored = {EventKind.BID_PLACED, EventKind.DELIVERED}
        expected: dict[tuple[int, tuple[int, int]], int] = {}
        split = 0
        while True:
            graph = sim.graph
            first = len(sim.events)
            if not sim.step_round():
                break
            hops = dict(nx.all_pairs_shortest_path_length(nx.Graph(graph.edges())))

            def hears(node, location):
                reach = hops.get(node, {node: 0})
                if location == BACKBONE:
                    return 1 + min(reach.get(gw, 99) for gw in graph.gateways) <= 2
                return reach.get(location, 99) <= 2

            for event in sim.events[first:]:
                if event.kind in ignored:
                    continue
                for nodes in packs.values():
                    heard = [node for node in nodes if hears(node, event.location)]
                    if heard:
                        split += len(heard) < len(nodes)
                        expected.update(((node, event.event_id), 1) for node in nodes)
        assert split > 100
        assert applied == expected


class TestNoStringFieldsOnHotPaths:
    """A run never encodes or parses the log's extra column."""

    @pytest.mark.parametrize("observation_spec", ["global", "khop:2"])
    def test_run_without_extra_helpers(self, monkeypatch, observation_spec):
        g = generate("geometric", 14, radius=0.45, seed=4)
        names = ["fair", "wolfpack", "always_one", "sniper"]

        def build():
            return {
                node: build_strategy("wolfpack", {"pack": "a", "sabotage_enabled": True})
                if names[node % 4] == "wolfpack" else build_strategy(names[node % 4])
                for node in range(14)
            }

        config = GameConfig(
            packets_total=40, injection_rate=2, observation=observation_spec, master_seed=21
        )

        def digest(events):
            return hashlib.sha256(events_to_log(events).encode()).hexdigest()

        expected = digest(run_simulation(config, g, build()).events)

        def forbidden(*args, **kwargs):
            raise AssertionError("extra column helper called during a run")

        with monkeypatch.context() as patch:
            for module in (model, observation, strategies, engine):
                for name in ("parse_extra", "format_extra"):
                    patch.setattr(module, name, forbidden, raising=False)
            result = run_simulation(config, g, build())
        assert digest(result.events) == expected
        kinds = {e.kind for e in result.events}
        assert {EventKind.AUCTION_ANNOUNCED, EventKind.DELIVERED, EventKind.DROPPED} <= kinds


class TestAudienceUnderChurn:
    """Each event reaches exactly the stores in scope on that round's graph that
    act on its kind, each once. Each bid that some history owner in scope
    hears reaches the run's bid feed once, right after it is logged, told the
    mask of those owners; no other event reaches the feed. Under global scope
    the store is the shared one, and the mask holds every history owner."""

    @pytest.mark.parametrize("observation", ["khop:1", "khop:2", "global"])
    def test_every_event_reaches_exactly_the_subscribers_in_scope(self, observation, monkeypatch):
        n = 16
        g = generate("geometric", n, radius=0.4, seed=3, gateways=(0, 5))
        names = ["fair", "sniper", "wolfpack", "fair"]
        assignment = {node: build_strategy(names[node % 4]) for node in range(n)}
        store_kinds = set(EventKind) - {EventKind.BID_PLACED, EventKind.DELIVERED}
        # A sniper keeps a bid history only; a wolfpack in no pack keeps a
        # store, which ignores bids and deliveries, and a history.
        fed: dict[tuple[int, int], list[tuple[str, int | None]]] = {}
        owner_of: dict[ObserverStore, int] = {}

        def apply(real):
            def wrapper(store, event):
                fed.setdefault(event.event_id, []).append(("apply", owner_of.get(store)))
                return real(store, event)
            return wrapper

        def hear(real):
            def wrapper(feed, announced, bidder, amount, rnd, hearers):
                event = sim.events[-1]
                assert event.kind is EventKind.BID_PLACED
                assert (event.node, event.amount, event.round) == (bidder, amount, rnd)
                fed.setdefault(event.event_id, []).append(("hear", hearers))
                return real(feed, announced, bidder, amount, rnd, hearers)
            return wrapper

        monkeypatch.setattr(ObserverStore, "apply", apply(ObserverStore.apply))
        monkeypatch.setattr(BidFeed, "hear", hear(BidFeed.hear))
        subscribers = sorted(node for node in range(n) if names[node % 4] != "fair")
        owners = [s for s in subscribers if names[s % 4] == "wolfpack"]
        shared = observation == "global"
        config = GameConfig(
            packets_total=80, injection_rate=2, observation=observation,
            churn_rate=0.05, master_seed=7,
        )
        sim = Simulation(config, g, assignment)
        if not shared:
            owner_of.update((sim.contexts[node].observer, node) for node in owners)
        # Stores are deduplicated before any visibility test: under global
        # scope an audience build scans the one shared store only.
        assert len(sim._owned) == (1 if shared else len(owners))
        k = n if shared else int(observation.split(":")[1])
        backbone_events = 0
        graphs = set()
        while True:
            graph = sim.graph
            graphs.add(tuple(graph.edges()))
            first = len(sim.events)
            if not sim.step_round():
                break
            hops = dict(nx.all_pairs_shortest_path_length(nx.Graph(graph.edges())))
            for event in sim.events[first:]:
                if event.location == BACKBONE:
                    backbone_events += 1
                    reach = {s: 1 + min(hops[s][gw] for gw in graph.gateways) for s in subscribers}
                else:
                    reach = {s: hops[s][event.location] for s in subscribers}
                hearing = [s for s in subscribers if reach[s] <= k]
                expected = []
                if event.kind in store_kinds:
                    stores = [None] if shared else [s for s in owners if s in hearing]
                    expected += [("apply", owner) for owner in stores]
                hearers = sum(1 << s for s in hearing)
                if event.kind is EventKind.BID_PLACED and hearers:
                    expected.append(("hear", hearers))
                assert fed.pop(event.event_id, []) == expected, event
        assert not fed
        assert backbone_events > 0 and len(graphs) > 10


class TestAuctionInvitations:
    """Every auction asks exactly the holder's bidders on that round's graph, in
    ascending order: its neighbours, or the gateways for the backbone, minus
    the nodes already on the packet's path. The graph churns every round, so
    a bidder table kept past a graph change fails here."""

    def test_bidders_are_the_graph_neighbours_off_the_path(self, monkeypatch):
        n = 16
        g = generate("ring", n, gateways=(0, 5))
        names = ["fair", "sniper", "wolfpack", "random"]
        assignment = {node: build_strategy(names[node % 4]) for node in range(n)}
        asked: dict[tuple[int, int, int], list[int]] = {}

        def spy(real):
            def on_auction(strategy, request, ctx):
                key = (ctx.round, request.packet_id, request.holder)
                asked.setdefault(key, []).append(ctx.node)
                return real(strategy, request, ctx)
            return on_auction

        for cls in {type(s) for s in assignment.values()}:
            monkeypatch.setattr(cls, "on_auction", spy(cls.on_auction))
        config = GameConfig(
            packets_total=80, injection_rate=2, observation="khop:2",
            churn_rate=0.02, master_seed=7,
        )
        sim = Simulation(config, g, assignment)
        auctions = 0
        graphs = set()
        while True:
            graph = sim.graph
            graphs.add(tuple(graph.edges()))
            first = len(sim.events)
            if not sim.step_round():
                break
            oracle = nx.Graph(graph.edges())
            oracle.add_nodes_from(range(n))
            paths: dict[int, list[int]] = {}
            for event in sim.events[first:]:
                path = paths.setdefault(event.packet_id, [])
                if event.kind is EventKind.BID_WON:
                    path.append(event.node)
                elif event.kind is EventKind.AUCTION_ANNOUNCED:
                    auctions += 1
                    holder = event.node
                    near = graph.gateways if holder == BACKBONE else set(oracle[holder])
                    expected = sorted(near - set(path))
                    key = (event.round, event.packet_id, holder)
                    assert asked.pop(key, []) == expected, event
        assert not asked
        assert auctions > 100 and len(graphs) > 10


class TestLazyViewWork:
    """Views are taken once, re-pointed at the graph after every churn step, and
    grow no ball until they are queried."""

    def counting_searches(self, monkeypatch):
        """Count the runs of every graph search: view balls, churn's reach, level searches."""
        calls = [0]
        for name in ("_balls", "_reach", "_levels"):
            real = getattr(topology, name)

            def counting(*args, real=real, **kwargs):
                calls[0] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(topology, name, counting)
        return calls

    def test_taking_views_runs_no_bfs(self, monkeypatch):
        g = generate("geometric", 50, radius=0.3, seed=1)
        calls = self.counting_searches(monkeypatch)
        views = [view_of(g, node, 2) for node in range(g.n)]
        assert calls[0] == 0
        assert views[7].distance(7, 7) == 0 and calls[0] == 1

    def test_churn_run_bfs_count_below_one_per_node_and_round(self, monkeypatch):
        n = 50
        g = generate("geometric", n, radius=0.3, seed=1)
        assignment = {
            node: build_strategy("sniper" if node % 5 == 1 else "fair") for node in range(n)
        }
        config = GameConfig(
            packets_total=100, injection_rate=2, observation="khop:2",
            churn_rate=0.01, master_seed=1401,
        )
        calls = self.counting_searches(monkeypatch)
        result = Simulation(config, g, assignment).run()
        # A view that copied its part of the graph on every churn step would
        # cost (rounds + 1) * n searches.
        assert result.rounds == 50
        assert calls[0] < result.rounds * n


class TestViewsFollowTheGraph:
    """After every churn step each context's view reads the new graph and
    answers as a view freshly taken of it would: nothing read off an older
    graph survives the step."""

    def test_views_match_fresh_views_after_every_round(self):
        n, k = 20, 2
        g = generate("geometric", n, radius=0.35, seed=11)
        names = ["fair", "sniper", "wolfpack", "random"]
        assignment = {node: build_strategy(names[node % 4]) for node in range(n)}
        config = GameConfig(
            packets_total=80, injection_rate=2, observation=f"khop:{k}",
            churn_rate=0.05, master_seed=3,
        )
        sim = Simulation(config, g, assignment)
        views = [ctx.view for ctx in sim.contexts.values()]
        rng = random.Random(5)
        graphs = set()
        while sim.step_round():
            graphs.add(tuple(sim.graph.edges()))
            for node, ctx in sim.contexts.items():
                view, fresh = ctx.view, view_of(sim.graph, node, k)
                assert view is views[node] and view.graph is sim.graph
                assert (view.known(), view.inner()) == (fresh.known(), fresh.inner())
                known = members(fresh.known())
                for target in range(n):
                    assert view.distance(node, target) == fresh.distance(node, target)
                # These fill the view's caches, which the next step must drop.
                for a, b in (rng.sample(known, 2) for _ in range(10)):
                    assert view.distance(a, b) == fresh.distance(a, b)
        assert len(graphs) > 10

    def test_a_run_without_stores_builds_no_audience(self):
        g = generate("geometric", 30, radius=0.35, seed=2)
        assignment = {
            node: build_strategy("sniper" if node % 3 == 1 else "fair") for node in range(30)
        }
        # Without churn the tables built in the first round are never reset.
        config = GameConfig(
            packets_total=60, injection_rate=2, observation="khop:2", master_seed=4
        )
        sim = Simulation(config, g, assignment)
        result = sim.run()
        assert any(event.kind is EventKind.BID_PLACED for event in result.events)
        assert sim._feed.tape.dropped + len(sim._feed.tape.points) > 0
        assert sim._audience == {}


class TestUnloggedRun:
    """A run with ``log=False`` is the logged run without its log: the same
    money, the same stores and the same event ids, built only for stores."""

    @staticmethod
    def build(observation, churn_rate, forced, log):
        # A sparse graph, so that under khop some events reach no pack store,
        # and a short TTL, so that packets drop and fines are paid too.
        g = generate("geometric", 30, radius=0.25, seed=1)
        kinds = [
            ("always_one", {}), ("sniper", {}),
            ("wolfpack", {"pack": "a", "sabotage_enabled": True}), ("random", {}), ("fair", {}),
        ]
        assignment = {n: build_strategy(*kinds[n % len(kinds)]) for n in range(30)}
        assignment[0] = build_strategy("fair")
        config = GameConfig(
            packets_total=40, injection_rate=2, ttl=4, observation=observation,
            churn_rate=churn_rate, forced_bid_mode=forced, master_seed=6,
        )
        return Simulation(config, g, assignment, log=log)

    @pytest.mark.parametrize("observation, churn_rate, forced", [
        ("global", 0.0, False),
        ("khop:2", 0.05, False),
        ("khop:2", 0.05, True),
    ], ids=["global", "khop-churn", "khop-churn-forced"])
    def test_same_run_without_events(self, observation, churn_rate, forced, monkeypatch):
        applied = []  # (store, event) per apply, over both runs
        real_apply = ObserverStore.apply

        def recording_apply(store, event):
            applied.append((store, event))
            return real_apply(store, event)

        monkeypatch.setattr(ObserverStore, "apply", recording_apply)
        logged = self.build(observation, churn_rate, forced, log=True)
        unlogged = self.build(observation, churn_rate, forced, log=False)
        pack_stores = 0
        while True:
            more = logged.step_round()
            assert unlogged.step_round() == more
            assert unlogged.balances == logged.balances
            for node, ctx in logged.contexts.items():
                store, other = ctx.observer, unlogged.contexts[node].observer
                if store is None:
                    continue
                assert other.profiles == store.profiles
                assert other.packet_paths == store.packet_paths
                pack_stores += logged.strategies[node].pack is not None
            if not more:
                break
        assert pack_stores > 0
        # Both runs' stores were handed the same events, ids included, in order.
        mine = {ctx.observer for ctx in logged.contexts.values()}
        seen = [event for store, event in applied if store in mine]
        assert seen and [event for store, event in applied if store not in mine] == seen
        result, bare = logged.run(), unlogged.run()
        # Stores see gaps in the seqs, where events went unbuilt.
        assert {e.event_id for e in result.events} > {e.event_id for e in seen}
        assert bare.events == []
        assert {EventKind.FINE_ASSESSED, EventKind.BID_PLACED} <= {e.kind for e in result.events}
        assert bare.stats == result.stats and bare.settlements == result.settlements
        assert bare.backbone_balance == result.backbone_balance
        tape, other = logged._feed.tape, unlogged._feed.tape
        assert tape.points and other.points == tape.points and other.dropped == tape.dropped


class TestScopedObservation:
    def test_khop_store_never_sees_far_events(self, monkeypatch):
        applied: dict[int, set[tuple[int, int]]] = {}
        owner_of: dict[ObserverStore, int] = {}
        real_apply = ObserverStore.apply

        def recording_apply(store, event):
            applied.setdefault(owner_of[store], set()).add(event.event_id)
            return real_apply(store, event)

        monkeypatch.setattr(ObserverStore, "apply", recording_apply)
        g = generate("grid", 6, cols=1, gateways=(0,))  # a long line
        assignment = {n: build_strategy("wolfpack") for n in range(6)}
        config = GameConfig(
            packets_total=12, injection_rate=2, observation="khop:1", master_seed=13
        )
        sim = Simulation(config, g, assignment)
        owner_of.update((ctx.observer, node) for node, ctx in sim.contexts.items())
        result = sim.run()
        by_id = {e.event_id: e for e in result.events}
        for node, ctx in sim.contexts.items():
            for event_id in applied.get(node, ()):
                loc = by_id[event_id].location
                if loc == BACKBONE:
                    assert g.hop_distance(0, node) <= 0  # only the gateway hears it
                else:
                    assert g.hop_distance(loc, node) <= 1

    def test_global_store_tracks_true_balances(self):
        g = generate("geometric", 10, radius=0.5, seed=6)
        assignment = {n: build_strategy("wolfpack") for n in range(10)}
        sim = Simulation(GameConfig(packets_total=16, master_seed=3), g, assignment)
        while sim.step_round():
            for ctx in sim.contexts.values():
                profiles = ctx.observer.profiles
                for subject in range(10):
                    profit = profiles[subject].estimated_profit if subject in profiles else 0
                    assert profit == sim.balances[subject]


class TestValidationAndOutputs:
    def test_unassigned_node_detected(self):
        g = generate("ring", 4)
        with pytest.raises(EngineError, match="node 3"):
            Simulation(GameConfig(), g, {n: build_strategy("fair") for n in range(3)})

    def test_all_gateway_graph_rejected(self):
        g = generate("ring", 4, gateways=(0, 1, 2, 3))
        with pytest.raises(EngineError, match="gateway"):
            Simulation(GameConfig(), g, fair_assignment(4))

    def test_bad_config_values(self):
        with pytest.raises(EngineError):
            GameConfig(budget=0)
        with pytest.raises(EngineError):
            GameConfig(fine_mode="split")
        with pytest.raises(EngineError):
            GameConfig(observation="nearby")

    def test_balances_csv_format(self):
        g = generate("grid", 2, cols=1, gateways=(0,))
        result = run_simulation(
            GameConfig(packets_total=1, master_seed=7), g, fair_assignment(2)
        )
        lines = balances_csv(result).splitlines()
        assert lines[0] == "node,strategy,balance,delivered,dropped,fines_paid"
        assert lines[1] == "0,fair,100,1,0,0"
        assert lines[2] == "1,fair,0,0,0,0"
