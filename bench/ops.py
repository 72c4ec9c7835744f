"""The op list of each workload, made from the seed alone.

An op is one ``memchar`` CLI invocation (argv without ``--out``) or, on
``native-host``, one public-API call.  One pass runs the whole list in
order; every pass of a run repeats the same list, so each pass does the
same work whatever the seed.  The seed picks the chain seeds, the cores of
each core-count rung, the host placements and the order of ops within a
phase.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("latency-near", "latency-far", "bandwidth-sim", "native-host")

STATES = {"rome_2s": "MOESI", "clx_2s": "MESIF"}
NEAR_SCOPES = {
    "rome_2s": ("local", "same_ccx", "intra_socket", "inter_socket", "all_pairs"),
    "clx_2s": ("local", "intra_socket", "inter_socket", "all_pairs"),
}
KERNELS = ("read128", "read256", "read512")
LEVELS = ("L1", "L2", "L3", "RAM")
RUNGS = ("core", "l3_domain", "socket", "both_sockets")
# Simulated triad array sizes: large enough that numpy array generation and
# verification dominate, small enough for a pass of a few seconds.
TRIAD_BYTES = (2 << 20, 8 << 20)
FIT_INPUTS = ("table2_rome.csv", "fig9a_rome_anchors.csv")
CHAIN_ALIGNMENT = 512
# Cap on native chain and triad sizes, so hosts with very large caches stay
# within a small memory budget.
NATIVE_CAP_BYTES = 256 << 20
NATIVE_PLACEMENTS = 4


@dataclass
class Op:
    kind: str  # "cli", or the native step: generate | materialize | calibrate | triad
    label: str
    # CLI argv; "{src}" is the out dir of op params["src"].  Without an --out
    # of its own the op writes to its own out dir.
    argv: tuple = ()
    check: str = ""  # latency | bandwidth | triad | replay | report | fit
    params: dict = field(default_factory=dict)


def _latency(topo: str, state: str, level: str, seed: int, scope: str | None) -> Op:
    argv = ["latency", "--topology", topo, "--backend", "sim", "--state", state,
            "--level", level, "--seed", str(seed)]
    argv += ["--triples"] if scope is None else ["--scope", scope]
    where = "triples" if scope is None else scope
    return Op("cli", f"latency {topo} {state}@{level} {where}", tuple(argv), "latency",
              {"topology": topo, "scope": scope, "state": state, "level": level,
               "seed": seed})


def latency_near(rng: random.Random) -> list[Op]:
    ops = [
        _latency(topo, state, level, rng.randrange(1 << 31), scope)
        for topo in ("rome_2s", "clx_2s")
        for state in STATES[topo]
        for scope in NEAR_SCOPES[topo]
        for level in ("L1", "L2")
    ]
    ops.append(_latency("rome_2s", "M", "L2", rng.randrange(1 << 31), None))
    rng.shuffle(ops)
    return ops


def latency_far(rng: random.Random) -> list[Op]:
    # clx_2s S@L3 is kept although it fails today: the benchmark counts it.
    ops = [
        _latency(topo, state, level, rng.randrange(1 << 31), "all_pairs")
        for topo in ("rome_2s", "clx_2s")
        for state in STATES[topo]
        for level in ("L3", "RAM")
    ]
    rng.shuffle(ops)
    return ops


def core_rungs(graph, rng: random.Random) -> dict[str, list[int]]:
    """1 core, its L3 domain, its socket, and both sockets."""
    core = rng.choice(graph.cores)
    socket = graph.core(core).socket
    return {
        "core": [core],
        "l3_domain": graph.cores_of_ccx(core),
        "socket": [c for c in graph.cores if graph.core(c).socket == socket],
        "both_sockets": list(graph.cores),
    }


def _cores_arg(cores) -> str:
    return ",".join(str(c) for c in cores)


def bandwidth_sim(rng: random.Random, graphs: dict) -> list[Op]:
    reads, triads = [], []
    for topo in ("rome_2s", "clx_2s"):
        rungs = core_rungs(graphs[topo], rng)
        for rung in RUNGS:
            cores = rungs[rung]
            cross = ["--cross-socket"] if rung == "both_sockets" else []
            for kernel in KERNELS:
                for level in LEVELS:
                    argv = ["bandwidth", "--topology", topo, "--backend", "sim",
                            "--kernel", kernel, "--cores", _cores_arg(cores),
                            "--level", level] + cross
                    reads.append(Op("cli", f"bandwidth {topo} {kernel} {level} {rung}",
                                    tuple(argv), "bandwidth",
                                    {"topology": topo, "kernel": kernel, "level": level,
                                     "cores": cores}))
            for nbytes in TRIAD_BYTES:
                for nt in (True, False):
                    argv = ["triad", "--topology", topo, "--cores", _cores_arg(cores),
                            "--bytes", str(nbytes), "--nt" if nt else "--no-nt"]
                    triads.append(Op("cli", f"triad {topo} {nbytes >> 20}MiB "
                                     f"{'nt' if nt else 'no-nt'} {rung}", tuple(argv),
                                     "triad", {"topology": topo, "bytes": nbytes,
                                               "nt": nt, "cores": cores}))
    rng.shuffle(reads)
    rng.shuffle(triads)
    ops = reads + triads
    # Read side: plot and replay what this pass wrote, and fit the model.
    side = []
    for src, op in enumerate(ops):
        side.append(Op("cli", f"replay {op.label}",
                       ("replay", "--manifest", "{src}/manifest.json"), "replay",
                       {"src": src}))
        if op.check == "bandwidth":
            side.append(Op("cli", f"report {op.label}",
                           ("report", "--input", "{src}/bandwidth.csv", "--kind",
                            "grouped_bars", "--x", "bytes", "--y", "kernel", "--value",
                            "bandwidth_gbps", "--name", "fig", "--out", "{src}"), "report",
                           {"src": src}))
    for name in FIT_INPUTS:
        side.append(Op("cli", f"model-fit rome_2s {name}",
                       ("model-fit", "--topology", "rome_2s", "--input", "{fixtures}/" + name,
                        "--template", "ram_hops"), "fit", {"input": name}))
    rng.shuffle(side)
    return ops + side


def native_sizes(caches: dict[str, int]) -> dict[str, dict[str, int]]:
    """Chain and triad array bytes per targeted level, from the host cache
    bytes per level.

    A chain fills half its level.  The three triad arrays fill 3/4 of L2 or
    3/8 of L3.  A beyond-LLC triad needs each array at least four times
    the LLC; it does not fit the memory budget, so there is none.
    """

    def fit(nbytes: int, unit: int) -> int:
        return max(unit, min(nbytes, NATIVE_CAP_BYTES) // unit * unit)

    return {
        "chain": {lv: fit(caches[lv] // 2, CHAIN_ALIGNMENT) for lv in ("L1", "L2", "L3")},
        "triad": {"L2": fit(caches["L2"] // 4, 8), "L3": fit(caches["L3"] // 8, 8)},
    }


def native_host(rng: random.Random, host: dict) -> list[Op]:
    """One native latency sweep's steps before its chase, then triads."""
    sizes = native_sizes(host["caches"])
    ops = []
    for level, nbytes in sizes["chain"].items():
        ops.append(Op("generate", f"generate_chain {level} {nbytes} B", params={
            "level": level, "bytes": nbytes, "seed": rng.randrange(1 << 31)}))
    cpus = host["cpus"]
    pairs = [(r, o) for r in cpus for o in cpus]
    placements = rng.sample(pairs, min(NATIVE_PLACEMENTS, len(pairs)))
    for requester, owner in placements:
        home = host["nodes"].get(owner, 0)
        for level in sizes["chain"]:
            ops.append(Op("materialize", f"materialize_chain {level} req={requester} "
                          f"owner={owner} home={home}", params={
                              "level": level, "requester": requester, "owner": owner,
                              "home": home}))
        ops.append(Op("calibrate", f"calibrate_overhead req={requester}",
                      params={"requester": requester}))
    core = rng.choice(cpus)
    for level, nbytes in sizes["triad"].items():
        for nt in (True, False):
            ops.append(Op("triad", f"run_triad {level} {nbytes} B {'nt' if nt else 'no-nt'} "
                          f"core={core}", params={"level": level, "bytes": nbytes,
                                                  "nt": nt, "core": core}))
    return ops


def build_ops(workload: str, seed: int, graphs: dict | None = None,
              host: dict | None = None) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "latency-near":
        return latency_near(rng)
    if workload == "latency-far":
        return latency_far(rng)
    if workload == "bandwidth-sim":
        return bandwidth_sim(rng, graphs)
    if workload == "native-host":
        return native_host(rng, host)
    raise ValueError(f"unknown workload {workload!r}")
