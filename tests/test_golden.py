"""Golden-output gate: simulated sweeps write the same bytes.

``golden_sim_sha256.json`` holds the sha256 of the result CSV for a fixed
set of simulated runs at seed 7: latency sweeps (``results.csv``), with one
non-default sampling shape and, for points whose requester holds the line,
local and ``same_ccx`` sweeps, with one ``same_ccd`` sweep, and bandwidth
read ladders and triads (``bandwidth.csv``).  A refactor of the simulated
path must leave every hash unchanged; a deliberate output change
re-records the file and says why.
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
# One single-core set and one set spanning both sockets per topology.
CORE_SETS = {
    "rome_2s": ("0", "0,1,64,65 --cross-socket"),
    "clx_2s": ("0", "0,1,20,21 --cross-socket"),
}

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
    "latency --topology rome_2s --state O --level L3 --scope all_pairs --seed 7"
    " --outer 3 --inner 5 --sizes 2 --reducer max",
] + [
    f"latency --topology {topo} --state {state} --level {level} --scope local --seed 7"
    for topo in TOPOLOGY_STATES
    for state, level in (("M", "L1"), ("S", "L2"))
] + [
    "latency --topology rome_2s --state M --level L1 --scope same_ccx --seed 7",
    "latency --topology rome_2s --state M --level L2 --scope same_ccd --seed 7",
] + [
    f"bandwidth --topology {topo} --kernel {kernel} --level {level} --cores {cores}"
    for topo, core_sets in CORE_SETS.items()
    for kernel in ("read128", "read256", "read512")
    for level in ("L1", "RAM")
    for cores in core_sets
] + [
    f"triad --topology {topo} --cores 0,1 --bytes 1048576 {nt}"
    for topo in TOPOLOGY_STATES
    for nt in ("--nt", "--no-nt")
]


def results_sha256(argv: str, out: Path) -> str:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv.split() + ["--out", str(out)]) == 0
    name = "results.csv" if argv.startswith("latency") else "bandwidth.csv"
    return hashlib.sha256((out / name).read_bytes()).hexdigest()


def test_golden_covers_every_sweep():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(SWEEPS)


@pytest.mark.parametrize("argv", SWEEPS)
def test_sweep_matches_golden(argv, tmp_path):
    assert results_sha256(argv, tmp_path) == json.loads(GOLDEN.read_text())[argv]
