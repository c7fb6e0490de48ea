"""The benchmark's tracer still finds every name it rebinds.

``benches/spans.py`` wraps module attributes by name (``parse_extra`` in
``observation`` and ``strategies``, ``validate_bid`` in ``engine``, methods
of ``ObserverStore`` and ``BidHistory``, ...). A name removed from the
package makes ``Tracer.install()`` raise, and every traced benchmark
operation fails; this test makes that a tier-1 failure. The traced run
uses k-hop views on a churning graph, so a simulation that stops calling
``churn`` and ``view_of`` through the names the tracer wraps fails here
too, instead of reading zero topology time per layer, and so does one
whose graph and view distances stop going through ``hop_distance``,
``distances_from`` and ``NodeView.distance``, instead of reading zero
distance counts. The auction and bid counts must equal the announcements
and bids in the log, and both strategy methods must be seen, so a loop that
routes around ``run_auction``, ``validate_bid``, ``on_auction`` or
``choose_winner`` fails here instead of reading zero. A second run under
``global`` must count ``BidHistory.record`` calls too, so the bid feed
writes the tape through that name under both scopes.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
from collections import Counter

from spans import Tracer

from bidforward.engine import GameConfig, Simulation
from bidforward.model import EventKind
from bidforward.strategies import build_strategy
from bidforward.topology import generate

tracer = Tracer()
tracer.install()
graph = generate("geometric", 10, radius=0.5, seed=3)
names = ["fair", "wolfpack", "always_one", "sniper", "random"]
assignment = {n: build_strategy(names[n % len(names)]) for n in range(10)}
assignment[0] = build_strategy("fair")
config = GameConfig(
    packets_total=10, injection_rate=2, observation="khop:2", churn_rate=0.05, master_seed=1
)
result = Simulation(config, graph, assignment).run()
kinds = Counter(event.kind for event in result.events)
assert tracer.counts["engine.events"] == len(result.events) > 0
assert tracer.counts["engine.auctions"] == kinds[EventKind.AUCTION_ANNOUNCED] > 0
assert tracer.counts["engine.bids"] == kinds[EventKind.BID_PLACED] > 0
assert tracer.counts["predictor.record_calls"] > 0
assert tracer.counts["observation.apply_calls"] > 0
assert tracer.counts["engine.bids"] > 0
assert tracer.counts["topology.hop_distance_calls"] > 0
assert tracer.counts["topology.distances_from_misses"] > 0
assert tracer.counts["topology.view_distance_calls"] > 0
spans = {span[0] for span in tracer.spans}
assert {"topology.churn", "topology.view_of"} <= spans, spans
assert {"strategies.on_auction", "strategies.choose_winner"} <= spans, spans

tracer.counts.clear()
config = GameConfig(packets_total=10, injection_rate=2, observation="global", master_seed=1)
Simulation(config, graph, assignment).run()
assert tracer.counts["predictor.record_calls"] > 0
"""


def test_tracer_installs_and_traces_a_run():
    paths = [str(ROOT / "benches"), str(ROOT / "src")]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
