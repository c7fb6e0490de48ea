import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bidforward.seeding import derive_seed


def reference(*parts):
    """``derive_seed`` as first written, on ``hashlib.sha256``."""
    text = ":".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@pytest.mark.parametrize("parts", [
    (),
    (0,),
    (1401, "churn", 3),
    (-1,),
    (-(2**70), "node", -7),
    (2**64, 2**64 + 1, 2**200),
    ("a:b", "c"),
    ("a", "b:c"),
    (":", "::", ""),
    ("é", "nœud", "節点", "\U0001F4E6"),
    (7, "mix:ü", -3, 2**65),
], ids=repr)
def test_equals_hashlib_reference(parts):
    assert derive_seed(*parts) == reference(*parts)


@pytest.mark.parametrize("parts, seed", [
    ((1401, "churn", 3), 933040525431150773),
    ((0, "inject"), 8519935151297936800),
    ((1401, "node", 7), 8752439789345704626),
    ((), 8203414616412130826),
])
def test_pinned_values(parts, seed):
    assert derive_seed(*parts) == seed


FOOTPRINT = """
import sys

import bidforward
import bidforward.cli
from bidforward.engine import GameConfig, Simulation
from bidforward.strategies import build_strategy
from bidforward.topology import generate
from bidforward.tournament import (
    CellSpec, TopologySpec, TournamentSpec, make_mix_entry, run_tournament,
)

config = GameConfig(packets_total=20, injection_rate=2, churn_rate=0.1, master_seed=7)
graph = generate("geometric", 10, seed=3, radius=0.5)
sim = Simulation(config, graph, {n: build_strategy("fair", {}) for n in range(graph.n)})
assert sim.run().rounds > 0

cell = CellSpec(
    name="base",
    config=GameConfig(packets_total=6, injection_rate=2, churn_rate=0.1),
    topology=TopologySpec(kind="ring", n=6, radius=None, gateways=(0,)),
    mix=(make_mix_entry("fair"),),
)
table = run_tournament(TournamentSpec((cell,), seeds_per_cell=3, master_seed=1), workers=2)
assert not table.errors, table.errors
print("hashlib" in sys.modules, "_hashlib" in sys.modules)
"""


def test_runs_load_no_openssl_hash_module():
    """A run and a forked tournament in a fresh interpreter leave ``hashlib``
    (and the libcrypto it loads) unimported."""
    src = Path(__file__).resolve().parents[1] / "src"
    paths = [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]
