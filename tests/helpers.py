"""Helpers for driving strategies and bid histories directly in tests.

They live here rather than in ``conftest.py`` so that test modules can
import them by a name no other test tree's ``conftest`` shadows.
"""

import random

from bidforward.observation import ObserverStore
from bidforward.predictor import BidFeed, BidHistory, BidHistoryPoint, PredictorConfig
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
    fine_mode: str = "path-split",
) -> StrategyContext:
    """Strategy context over a real graph view, for driving strategies directly."""
    view = view_of(graph, node, k if k is not None else graph.n)
    return StrategyContext(
        node=node,
        view=view,
        rng=random.Random(seed),
        gateways=graph.gateways,
        forced_bid=forced,
        fine_mode=fine_mode,
        observer=observer,
        history=history,
    )


def heard_history(
    node: int, *points: BidHistoryPoint, cfg: PredictorConfig | None = None
) -> BidHistory:
    """``node``'s window onto a tape of its own, which recorded each of
    ``points`` as heard by ``node``."""
    cfg = cfg or PredictorConfig()
    history = BidHistory(cfg, node, BidFeed(cfg).tape)
    for point in points:
        history.record(point, history.bit)
    return history


def window_size(history: BidHistory) -> int:
    """How many points a window holds, counted by a scan over the last
    ``max_history`` points it heard, minus those too old."""
    history.live_chains()  # catch the window up with its tape
    cfg, heard = history.cfg, history.heard
    recent = heard[-cfg.max_history :]
    return sum(p.round >= recent[-1].round - cfg.max_age_rounds for p in recent)
