"""Golden-output gate: simulated latency sweeps write the same bytes.

``golden_sim_sha256.json`` holds the sha256 of ``results.csv`` for a fixed
set of simulated sweeps at seed 7, recorded before the per-graph memos in
``topology`` and ``backends`` were added.  A refactor of the simulated path
must leave every hash unchanged; a deliberate output change re-records the
file and says why.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from memchar.cli import main

GOLDEN = Path(__file__).with_name("golden_sim_sha256.json")
TOPOLOGY_STATES = {"rome_2s": "MOESI", "clx_2s": "MESIF"}

SWEEPS = [
    f"latency --topology {topo} --state {state} --level {level} --scope all_pairs --seed 7"
    for topo, states in TOPOLOGY_STATES.items()
    for state in states
    for level in ("L1", "L3", "RAM")
] + [
    f"latency --topology {topo} --state M --level L2 --scope {scope} --seed 7"
    for topo in TOPOLOGY_STATES
    for scope in ("intra_socket", "inter_socket")
] + [
    "latency --topology rome_2s --state M --level L2 --triples --seed 7",
]


def results_sha256(argv: str, out: Path) -> str:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv.split() + ["--out", str(out)]) == 0
    return hashlib.sha256((out / "results.csv").read_bytes()).hexdigest()


def test_golden_covers_every_sweep():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(SWEEPS)


@pytest.mark.parametrize("argv", SWEEPS)
def test_sweep_matches_golden(argv, tmp_path):
    assert results_sha256(argv, tmp_path) == json.loads(GOLDEN.read_text())[argv]
