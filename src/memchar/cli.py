"""memchar command-line front end.

Subcommands mirror the toolkit's operations: ``topo`` validates and
summarizes a topology document, ``latency``/``bandwidth``/``triad`` run
measurements (simulated or native backend), ``model-fit``/``model-predict``
drive the analytic latency model, ``report`` renders result CSVs as SVG
figures, and ``replay`` re-executes a stored manifest.

A run is its argv: every setting is a flag, and the parser is the one
reader of configuration.  Every ``latency``, ``bandwidth``, ``triad`` and
``model-fit`` run writes a ``manifest.json`` next to its results holding
the subcommand's argv as parsed.  ``replay`` re-parses that argv with the
same parser; on the simulated backend it reproduces the CSVs byte for byte.
The environment variables that once set latency options are refused by
name, each pointing at the flag that replaced it.  Exit codes: 0 ok,
2 configuration, 3 pinning/affinity, 4 backend, 5 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import Optional

from . import chain as chain_mod
from . import harness
from .backends import BackendError, PinningError, SimulatedBackend
from .bandwidth import (
    BandwidthError,
    SimBandwidthBackend,
    TriadVerificationError,
    bandwidth_dataset_ladder,
    run_throughput,
    run_triad,
)
from .coherence import (
    HELPER_STATES,
    LEVELS,
    CoherenceError,
    CoherenceScript,
    CoherenceState,
    plan_state,
)
from .harness import MeasurementPolicy
from .model import (
    SWITCH_HOP_BASES,
    FitObservation,
    ModelError,
    fit,
    load_model_file,
    switch_hop_template,
)
from .plots import PlotError, emit_plot
from .results import ResultError, ResultSet, RunManifest, parse_cell, write_output
from .topology import (
    PlacementScope,
    TopologyError,
    enumerate_placements,
    enumerate_triples,
    fixture_path,
    load_topology_file,
)

# --state choices: every state's letter, in enum order (MOESFI).
_STATES = [s.value for s in CoherenceState]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PINNING = 3
EXIT_BACKEND = 4
EXIT_VERIFY = 5


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_CONFIG):
        super().__init__(message)
        self.code = code


def _resolve_input(name: str) -> Path:
    p = Path(name)
    if p.exists():
        return p
    try:
        return fixture_path(name if name.endswith(".json") else name + ".json")
    except FileNotFoundError:
        raise CliError(f"no such topology/model: {name}") from None


def _load_graph(args):
    return load_topology_file(_resolve_input(args.topology))


def _load_model(args, graph):
    """The latency model of ``--model``, or else the one next to the
    topology file; only the commands that predict load one."""
    if args.model:
        return load_model_file(_resolve_input(args.model), graph)
    topo_path = _resolve_input(args.topology)
    candidate = topo_path.with_name(topo_path.stem + "_latency_model.json")
    if not candidate.exists():
        raise CliError(f"no latency model given and {candidate.name} not found next to topology")
    return load_model_file(candidate, graph)


def _input_file(name: str) -> Path:
    """An existing ``--input`` file; anything else is a configuration error."""
    p = Path(name)
    if not p.is_file():
        raise CliError(f"no such input file: {name}")
    return p


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_cores(text: str) -> list[int]:
    try:
        return [int(c) for c in text.split(",") if c != ""]
    except ValueError:
        raise CliError(f"bad core list {text!r}") from None


# ---------------------------------------------------------------------------
# Subcommands


def cmd_topo(args) -> int:
    graph = _load_graph(args)
    print(f"kind: {graph.kind.value}")
    print(f"sockets: {graph.socket_count}")
    print(f"numa nodes: {graph.numa_nodes}")
    print(f"cores: {len(graph.cores)}")
    print(f"edges: {len(graph.edges)}")
    for scope in PlacementScope:
        try:
            n = len(enumerate_placements(graph, scope))
        except TopologyError:
            n = "n/a"
        print(f"placements[{scope.value}]: {n}")
    return EXIT_OK


# Environment variables that set latency options before those were flags,
# and the flag that replaced each.  A run that finds one set is refused, so
# that it cannot silently run with other settings than the variable asked.
_RETIRED_VARIABLES = {
    "MEMCHAR_ALIGNMENT": "--alignment",
    "MEMCHAR_HUGEPAGES": "--no-huge-pages",
    "MEMCHAR_FLUSH_L1": "--flush",
    "MEMCHAR_FLUSH_L2": "--flush",
    "MEMCHAR_FLUSH_L3": "--flush",
}


def _refuse_retired_variables() -> None:
    for name, flag in _RETIRED_VARIABLES.items():
        if name in os.environ:
            raise CliError(f"{name} is no longer read: a run's settings are its argv; "
                           f"unset it and pass {flag}")


def _policy_from_args(args) -> MeasurementPolicy:
    overrides = {
        name: value
        for name, value in (("outer_repeats", args.outer), ("inner_repeats", args.inner),
                            ("sizes_per_level", args.sizes), ("reducer", args.reducer))
        if value is not None
    }
    # MeasurementPolicy rejects a level other than L1, L2 and L3.
    flush = frozenset(level for level in args.flush.split(",") if level)
    return MeasurementPolicy(flush_levels=flush, **overrides)


def _latency_points(graph, placements, state: CoherenceState, level: str) -> list:
    """One ``(script, placement)`` point per placement under the graph's
    protocol, with the helper :func:`harness.auto_helper` picks for the
    states that need one.

    ``plan_state`` runs once per pattern of equal cores (requester = owner,
    helper = requester, helper = owner); the other placements with that
    pattern get its script on their own cores.
    """
    planned: dict[tuple, CoherenceScript] = {}
    points = []
    for placement in placements:
        requester, owner = placement.requester, placement.owner
        helper = None
        if state in HELPER_STATES:
            helper = harness.auto_helper(graph, owner, requester)
        pattern = (requester == owner, helper == requester, helper == owner)
        script = planned.get(pattern)
        if script is None:
            script = planned[pattern] = plan_state(state, graph.protocol, owner=owner,
                                                   helper=helper, level=level, requester=requester)
        else:
            script = script.on_cores(owner, requester, helper)
        points.append((script, placement))
    return points


def cmd_latency(args) -> int:
    _refuse_retired_variables()
    graph = _load_graph(args)
    policy = _policy_from_args(args)
    if args.reducer is None and args.level == "L1" and args.scope != "local":
        # Remote-L1 samples are noisy; the median coincides with the mode.
        policy = dataclasses.replace(policy, reducer="median")
    if args.backend == "sim":
        backend = SimulatedBackend(_load_model(args, graph))
    else:
        from .native import NativeBackend

        backend = NativeBackend(graph, frequency_mhz=args.freq)

    if args.triples:
        if args.state != "M" or args.level != "L2":
            raise CliError("the home/forwarder matrix is defined for --state M --level L2")
        placements = enumerate_triples(graph)
    else:
        placements = enumerate_placements(graph, args.scope)
    if not placements:
        raise CliError(f"scope {args.scope!r} yields no placements")

    sizes = harness.level_dataset_bytes(graph, args.level, policy.sizes_per_level)
    chains = [chain_mod.chain_spec(sz, args.alignment, args.seed, args.huge_pages)
              for sz in sizes]
    points = _latency_points(graph, placements, CoherenceState(args.state), args.level)
    records = harness.measure_sweep(chains, points, policy, backend)

    out = _out_dir(args)
    ResultSet(records=records).to_csv(out / "results.csv")
    print(f"{len(records)} records -> {out / 'results.csv'}")
    return EXIT_OK


def cmd_bandwidth(args) -> int:
    graph = _load_graph(args)
    if args.backend == "sim":
        backend = SimBandwidthBackend(graph)
    else:
        raise CliError("native bandwidth runs are driven via the API", EXIT_BACKEND)
    cores = _parse_cores(args.cores)
    if args.bytes is not None:
        sizes = [args.bytes]
    elif args.level is not None:
        sizes = bandwidth_dataset_ladder(graph, args.level)
    else:
        raise CliError("bandwidth needs --bytes or --level")
    records = [
        run_throughput(args.kernel, sz, cores, args.outer, backend,
                       allow_cross_socket=args.cross_socket)
        for sz in sizes
    ]
    out = _out_dir(args)
    ResultSet(records=records).to_csv(out / "bandwidth.csv")
    print(f"{len(records)} records -> {out / 'bandwidth.csv'}")
    return EXIT_OK


def cmd_triad(args) -> int:
    graph = _load_graph(args)
    backend = SimBandwidthBackend(graph)
    cores = _parse_cores(args.cores)
    record = run_triad(args.bytes, cores, args.nontemporal, backend)
    out = _out_dir(args)
    ResultSet(records=[record]).to_csv(out / "bandwidth.csv")
    print(
        f"triad {record.bandwidth_gbps:.1f} GB/s on {len(cores)} cores "
        f"-> {out / 'bandwidth.csv'}"
    )
    return EXIT_OK


def _observations_from_csv(path: Path, graph) -> list[FitObservation]:
    import csv as _csv

    with open(path, newline="", encoding="utf-8") as fh:
        try:
            rows = list(_csv.DictReader(fh))
        except UnicodeDecodeError as exc:
            raise CliError(f"{path}: not UTF-8 text: {exc}") from None
    if not rows:
        raise CliError(f"{path}: empty fit input")
    anchors = "requester_node" in rows[0]
    needed = ("home_node", "cycles") if anchors else ("level", "source_class", "cycles")
    missing = [c for c in needed if c not in rows[0]]
    if missing:
        raise CliError(f"{path}: fit input lacks column(s) {', '.join(missing)}")
    obs = []
    # Line 1 is the header.
    if anchors:
        for line, r in enumerate(rows, start=2):
            obs.append(
                FitObservation(
                    requester=graph.first_core_of_node(
                        parse_cell(int, r, "requester_node", line, path)
                    ),
                    home=parse_cell(int, r, "home_node", line, path),
                    cycles=parse_cell(float, r, "cycles", line, path),
                )
            )
        return obs
    # Published-table format: use the RAM rows of the local socket.
    class_to_home = {"local": 0, "numa1": 1, "numa2": 2, "numa3": 3}
    req = graph.first_core_of_node(graph.numa_nodes[0])
    for line, r in enumerate(rows, start=2):
        if r["level"] != "RAM" or r["source_class"] not in class_to_home:
            continue
        obs.append(
            FitObservation(
                requester=req,
                home=class_to_home[r["source_class"]],
                cycles=parse_cell(float, r, "cycles", line, path),
            )
        )
    if not obs:
        raise CliError(f"{path}: no usable RAM rows for fitting")
    return obs


def cmd_model_fit(args) -> int:
    graph = _load_graph(args)
    obs = _observations_from_csv(_input_file(args.input), graph)
    result = fit(switch_hop_template(graph, args.template), obs)
    out = _out_dir(args)
    write_output(out / "fitted_params.json",
                 json.dumps(result.params, indent=1, sort_keys=True) + "\n")
    write_output(out / "residuals.txt", result.report())
    print(result.report())
    return EXIT_OK


def cmd_model_predict(args) -> int:
    model = _load_model(args, _load_graph(args))
    cycles = model.predict(
        args.requester, args.home, args.forwarder, args.state, args.level
    )
    ns = harness.cycles_to_ns(cycles, model.core_mhz)
    print(f"{cycles!r} cycles ({ns!r} ns @ {model.core_mhz} MHz)")
    return EXIT_OK


def cmd_report(args) -> int:
    rs = ResultSet.from_csv(_input_file(args.input))
    svg, txt = emit_plot(
        rs.records,
        kind=args.kind,
        out_base=_out_dir(args) / args.name,
        x=args.x,
        y=args.y,
        value=args.value,
        title=args.title,
    )
    print(f"{svg}\n{txt}")
    return EXIT_OK


def cmd_replay(args) -> int:
    manifest = RunManifest.load(args.manifest)
    if manifest.command not in _REPLAYABLE:
        raise ResultError(f"manifest command {manifest.command!r} cannot be replayed")
    # argparse keeps the last --out, so an override is simply appended.
    argv = manifest.argv + (["--out", args.out] if args.out is not None else [])
    try:
        ns = _parser().parse_args(argv)
    except SystemExit:
        raise ResultError(f"{args.manifest}: stored argv does not parse") from None
    return _run(ns, argv)


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="memchar",
        description="memory-hierarchy characterization toolkit",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, model=True):
        p.add_argument("--topology", required=True, help="topology JSON file or fixture name")
        if model:
            p.add_argument("--model", help="latency model JSON, read by the simulated backend "
                                           "and model-predict (default: the topology's "
                                           "sibling NAME_latency_model.json)")
        p.add_argument("--out", default="results", help="output directory")

    p = sub.add_parser("topo", help="validate and summarize a topology")
    p.add_argument("--topology", required=True)
    p.set_defaults(func=cmd_topo)

    p = sub.add_parser("latency", help="coherence-state-controlled latency matrix")
    common(p)
    p.add_argument("--backend", choices=("sim", "native"), default="sim")
    p.add_argument("--scope", default="intra_socket",
                   choices=[s.value for s in PlacementScope])
    p.add_argument("--state", default="M", choices=_STATES)
    p.add_argument("--level", default="L2", choices=LEVELS)
    p.add_argument("--triples", action="store_true",
                   help="home/forwarder matrix instead of a scope")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alignment", type=int, default=512)
    p.add_argument("--no-huge-pages", dest="huge_pages", action="store_false",
                   help="back the chains with base pages (default: ask for huge pages)")
    p.add_argument("--flush", default="L1,L2,L3", metavar="LEVELS",
                   help="comma list of the cache levels flushed before each point's "
                        "chases, from L1, L2 and L3 (default: %(default)s; empty: none)")
    p.add_argument("--outer", type=int, default=None)
    p.add_argument("--inner", type=int, default=None)
    p.add_argument("--sizes", type=int, default=None)
    p.add_argument("--reducer", choices=("min", "max", "median"), default=None)
    p.add_argument("--freq", type=float, default=None,
                   help="operator-pinned core frequency (native backend)")
    p.set_defaults(func=cmd_latency)

    p = sub.add_parser("bandwidth", help="streaming read throughput")
    common(p, model=False)
    p.add_argument("--backend", choices=("sim", "native"), default="sim")
    p.add_argument("--kernel", default="read256",
                   choices=("read128", "read256", "read512"))
    p.add_argument("--cores", default="0")
    p.add_argument("--level", choices=LEVELS, default=None)
    p.add_argument("--bytes", type=int, default=None)
    p.add_argument("--cross-socket", dest="cross_socket", action="store_true")
    p.add_argument("--outer", type=int, default=1)
    p.set_defaults(func=cmd_bandwidth)

    p = sub.add_parser("triad", help="a[i] = b[i] + s*c[i] bandwidth")
    common(p, model=False)
    p.add_argument("--backend", choices=("sim",), default="sim")
    p.add_argument("--cores", default="0")
    p.add_argument("--bytes", type=int, required=True)
    p.add_argument("--nt", dest="nontemporal", action="store_true", default=True)
    p.add_argument("--no-nt", dest="nontemporal", action="store_false")
    p.set_defaults(func=cmd_triad)

    p = sub.add_parser("model-fit", help="least-squares hop-cost fit")
    common(p, model=False)
    p.add_argument("--input", required=True, help="anchor or published-table CSV")
    p.add_argument("--template", choices=tuple(SWITCH_HOP_BASES), default="ram_hops")
    p.set_defaults(func=cmd_model_fit)

    p = sub.add_parser("model-predict", help="one latency prediction")
    common(p)
    p.add_argument("--requester", type=int, required=True)
    p.add_argument("--home", type=int, required=True)
    p.add_argument("--forwarder", type=int, default=None,
                   help="core holding the line (default: the requester)")
    p.add_argument("--state", default="M", choices=_STATES)
    p.add_argument("--level", default="L2", choices=LEVELS)
    p.set_defaults(func=cmd_model_predict)

    p = sub.add_parser("report", help="render a result CSV as SVG + plot data")
    p.add_argument("--input", required=True)
    p.add_argument("--kind", choices=("heatmap", "grouped_bars"), default="heatmap")
    p.add_argument("--x", default="home")
    p.add_argument("--y", default="requester")
    p.add_argument("--value", default="latency_cycles")
    p.add_argument("--name", default="plot")
    p.add_argument("--title", default="")
    p.add_argument("--out", default="results")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("replay", help="re-run a stored manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_replay)

    return ap


# Failures of the run's inputs: exit 2 with "config error".  A failed triad
# check (TriadVerificationError, a BandwidthError) is caught before them.
_CONFIG_ERRORS = (
    TopologyError,
    ModelError,
    CoherenceError,
    PlotError,
    ResultError,
    BandwidthError,
    chain_mod.ChainError,
    harness.HarnessError,
)


# Subcommands whose argv is saved as ``manifest.json`` in their output
# directory, and the ones replay re-runs.
_RECORDED = ("latency", "bandwidth", "triad", "model-fit")
_REPLAYABLE = ("latency", "bandwidth", "triad")

_PARSER: Optional[argparse.ArgumentParser] = None


def _parser() -> argparse.ArgumentParser:
    """The one parser, built on first use.  Parsing fills a fresh namespace
    from the parser's defaults each time, so no state carries over."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


def _run(args, argv: list) -> int:
    """Run the parsed subcommand; a recorded one that succeeds saves its
    manifest."""
    code = args.func(args)
    if code == EXIT_OK and args.command in _RECORDED:
        RunManifest(list(argv)).save(Path(args.out) / "manifest.json")
    return code


def main(argv=None) -> int:
    """Run one subcommand."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser().parse_args(argv)
    try:
        return _run(args, argv)
    except TriadVerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except PinningError as exc:
        print(f"pinning/affinity error: {exc}", file=sys.stderr)
        return EXIT_PINNING
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except PermissionError as exc:
        print(f"pinning/affinity error: {exc}", file=sys.stderr)
        return EXIT_PINNING
    except OSError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND


if __name__ == "__main__":
    sys.exit(main())
