import random

import pytest

from bidforward.model import Money
from bidforward.observation import ObserverStore
from bidforward.predictor import BidHistory, HeardWindow, PredictorConfig
from bidforward.strategies import StrategyContext
from bidforward.topology import TopologyGraph, view_of


def make_ctx(
    node: int,
    graph: TopologyGraph,
    *,
    k: int | None = None,
    seed: int = 0,
    forced: bool = False,
    observer: ObserverStore | None = None,
    history: BidHistory | None = None,
    budget: Money = 100,
    ttl: int = 8,
    fine_mode: str = "path-split",
) -> StrategyContext:
    """Strategy context over a real graph view, for driving strategies directly."""
    view = view_of(graph, node, k if k is not None else graph.n)
    return StrategyContext(
        node=node,
        view=view,
        rng=random.Random(seed),
        budget=budget,
        ttl=ttl,
        gateways=graph.gateways,
        forced_bid=forced,
        fine_mode=fine_mode,
        observer=observer,
        history=history,
    )


def window_size(history: BidHistory) -> int:
    """How many points a window holds, counted by a scan: off its tape's
    bidders from the tape's window start, or, for a ``HeardWindow``, over the
    last ``max_history`` points it heard, minus those too old."""
    if isinstance(history, HeardWindow):
        history.live_chains()  # catch the window up with its tape
        cfg, heard = history.cfg, history.heard
        recent = heard[-cfg.max_history :]
        return sum(p.round >= recent[-1].round - cfg.max_age_rounds for p in recent)
    tape = history.tape
    bidders = tape.bidders[tape.start(history.owner) :]
    return len(bidders) - (0 if history.owner is None else bidders.count(history.owner))


@pytest.fixture
def predictor_cfg():
    return PredictorConfig(budget_norm=100, ttl_norm=8)
