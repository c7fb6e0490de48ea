"""Tracing for the benchmark's traced runs: spans and counts at layer boundaries.

``Tracer.install()`` wraps the public functions of each ``bidforward`` layer,
including the copies other modules imported by name, so that calls made
inside the engine are seen too. Calls that happen once per event or per bid
are only counted, because timing each of them would swamp what is measured;
the rest record a span ``(name, start, end, parent)`` in memory. Nothing
here is imported by an untraced run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import weakref
from collections import Counter

# Span name -> the (module, attribute) bindings it wraps. A class is given as
# "module:Class"; "bidforward.strategies:*" means every strategy class that
# defines the method itself.
SPANS = {
    "config.build": [
        ("bidforward.config", name)
        for name in (
            "load_config", "build_game_config", "build_graph", "build_mix",
            "build_predictor_config", "build_tournament",
        )
    ],
    "topology.generate": [("bidforward.topology", "generate"), ("bidforward.tournament", "generate")],
    "topology.view_of": [("bidforward.topology", "view_of"), ("bidforward.engine", "view_of")],
    "topology.churn": [("bidforward.topology", "churn"), ("bidforward.engine", "churn")],
    "observation.merge_pack": [
        ("bidforward.observation", "merge_pack"), ("bidforward.engine", "merge_pack"),
    ],
    "predictor.predict_bid": [
        ("bidforward.predictor", "predict_bid"), ("bidforward.strategies", "predict_bid"),
    ],
    "strategies.on_auction": [("bidforward.strategies:*", "on_auction")],
    "strategies.choose_winner": [("bidforward.strategies:*", "choose_winner")],
    "engine.round": [("bidforward.engine:Simulation", "step_round")],
    "model.events_to_log": [("bidforward.model", "events_to_log")],
    "tournament.task": [("bidforward.tournament", "run_cell_seed")],
}

# Count name -> bindings; these run per event or per bid, so they are not timed.
COUNTS = {
    "topology.hop_distance_calls": [("bidforward.topology:TopologyGraph", "hop_distance")],
    "topology.view_distance_calls": [("bidforward.topology:NodeView", "distance")],
    "observation.rebuild_calls": [("bidforward.observation:ObserverStore", "rebuild")],
    "predictor.record_calls": [("bidforward.predictor:BidHistory", "record")],
    "strategies.on_event_calls": [("bidforward.strategies:*", "on_event")],
    "engine.auctions": [("bidforward.engine", "run_auction")],
    "engine.settle_calls": [
        ("bidforward.engine", "settle_delivery"), ("bidforward.engine", "settle_drop"),
    ],
    "model.parse_extra_calls": [
        ("bidforward.model", "parse_extra"),
        ("bidforward.observation", "parse_extra"),
        ("bidforward.strategies", "parse_extra"),
    ],
}


def _owners(target: str, attr: str) -> list[object]:
    """The module, or the classes, on which ``attr`` is rebound."""
    module_name, _, cls_name = target.partition(":")
    module = importlib.import_module(module_name)
    if not cls_name:
        return [module]
    if cls_name == "*":
        classes = [module.Strategy, *module.STRATEGY_REGISTRY.values()]
        return [cls for cls in dict.fromkeys(classes) if attr in vars(cls)]
    return [getattr(module, cls_name)]


class Tracer:
    """Spans and counters for one traced process."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._applied: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._bfs_seen: set[tuple[object, int]] = set()

    # -- wrappers -------------------------------------------------------

    def span(self, name: str, fn):
        clock = time.perf_counter
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append((name, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, spans[index][3])

        return wrapper

    def count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Rebind every traced function in the imported ``bidforward`` modules."""
        for kind, table in ((self.span, SPANS), (self.count, COUNTS)):
            for name, bindings in table.items():
                for target, attr in bindings:
                    for owner in _owners(target, attr):
                        setattr(owner, attr, kind(name, vars(owner)[attr]))
        self._install_special()

    def _install_special(self) -> None:
        """Wrappers that look at arguments or results, not just at the call."""
        from bidforward import engine, observation, predictor, topology

        counts = self.counts

        def rebind(owner, attr, make):
            setattr(owner, attr, functools.wraps(vars(owner)[attr])(make(vars(owner)[attr])))

        def validate(fn):
            def wrapper(*args, **kwargs):
                reason = fn(*args, **kwargs)
                counts["engine.bids"] += 1
                counts["engine.bids_rejected"] += reason is not None
                return reason
            return wrapper

        rebind(engine, "validate_bid", validate)

        def run(fn):
            def wrapper(sim):
                result = fn(sim)
                counts["engine.events"] += len(result.events)
                counts["engine.packets"] += len(result.settlements)
                return result
            return wrapper

        rebind(engine.Simulation, "run", run)

        applied = self._applied

        def apply(fn):
            def wrapper(store, event):
                counts["observation.apply_calls"] += 1
                seen = applied.get(store)
                if seen is None:
                    seen = applied[store] = set()
                if event.event_id not in seen:
                    seen.add(event.event_id)
                    counts["observation.apply_first"] += 1
                return fn(store, event)
            return wrapper

        rebind(observation.ObserverStore, "apply", apply)

        bfs_seen = self._bfs_seen

        def distances_from(fn):
            def wrapper(graph, src):
                if (graph, src) not in bfs_seen:
                    bfs_seen.add((graph, src))
                    counts["topology.distances_from_misses"] += 1
                return fn(graph, src)
            return wrapper

        rebind(topology.TopologyGraph, "distances_from", distances_from)

        def points(fn):
            def wrapper(history, now_round=None):
                live = fn(history, now_round)
                counts["predictor.points_scanned"] += len(live)
                return live
            return wrapper

        rebind(predictor.BidHistory, "points", points)

        def on_hold(fn):
            def wrapper(*args, **kwargs):
                drop = fn(*args, **kwargs)
                counts["strategies.on_hold_drops"] += bool(drop)
                return drop
            return wrapper

        for owner in _owners("bidforward.strategies:*", "on_hold"):
            rebind(owner, "on_hold", on_hold)

    def write(self, path: str) -> None:
        """Write the spans and counts recorded so far as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def self_times(spans) -> dict[str, float]:
    """Total self time per span name.

    A span's self time is its duration minus the part of its interval that
    its direct child spans cover. ``spans`` holds ``(name, start, end,
    parent)`` tuples, with ``parent`` the index of the enclosing span or -1.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    totals: dict[str, float] = {}
    for index, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        totals[name] = totals.get(name, 0.0) + (end - start) - covered
    return totals
