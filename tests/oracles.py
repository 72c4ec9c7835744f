"""Test oracles: fake clock backends, a synthetic protocol model, each
protocol's states, the single-owner invariant, the chain walk and its
generator, fabric routes with their switch count, the three-term hop-cost
fit template, and a latency record's CSV fields."""

import heapq
from array import array
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from memchar import chain, native
from memchar.coherence import OWNERSHIP_STATES, CoherenceState, ProtocolModel
from memchar.model import FitTemplate, FitTerm
from memchar.topology import ROUTE_WEIGHTS, LinkClass, NodeRole, extra_switch_hops


def protocol_model(protocol, cores, cores_per_domain=4) -> ProtocolModel:
    """Synthetic model: consecutive cores grouped into L3 domains."""
    cores = tuple(cores)
    domains = {c: f"d{i // cores_per_domain}" for i, c in enumerate(cores)}
    return ProtocolModel(protocol, cores, domains)


class SyntheticBackend:
    """Deterministic fake clock: `overhead + cost_per_access * n` per chase."""

    name = "synthetic"

    def __init__(self, cost_per_access=10.0, timer_overhead=0.0, frequency_mhz=1000.0):
        self.cost_per_access = cost_per_access
        self.timer_overhead = timer_overhead
        self.frequency_mhz = frequency_mhz

    def time_empty(self):
        return self.timer_overhead

    def run_sweep(self, chains, points, policy):
        n = np.array([c.element_count for c in chains], dtype=np.float64)[:, None]
        return np.broadcast_to(
            self.timer_overhead + self.cost_per_access * n,
            (len(points), policy.outer_repeats, len(chains), policy.inner_repeats),
        )


class ReplayBackend:
    """Backend whose sweep took the given elapsed cycles: ``elapsed`` is the
    (points, outer, sizes, inner) array ``run_sweep`` returns as is."""

    name = "replay"
    frequency_mhz = 1000.0

    def __init__(self, elapsed, overhead=0.0):
        self.elapsed = elapsed
        self.overhead = overhead

    def time_empty(self):
        return self.overhead

    def run_sweep(self, chains, points, policy):
        return self.elapsed


def protocol_states(protocol) -> tuple:
    """The states of ``protocol``: M, O, E, S, I for MOESI and M, E, S, F, I
    for MESIF."""
    return tuple(s for s in CoherenceState if s.valid_for(protocol))


def check_single_owner(state_map) -> bool:
    """At most one cache system-wide holds the line in M, E, O, or F."""
    return sum(k != "mem" and v.state in OWNERSHIP_STATES for k, v in state_map.items()) <= 1


class Xorshift64:
    """The chain generator stepped one state at a time: seeded as
    ``chain._seed_state``, then ``s ^= s << 13; s ^= s >> 7; s ^= s << 17``."""

    def __init__(self, seed: int):
        self.state = chain._seed_state(seed)

    def next(self) -> int:
        mask = (1 << 64) - 1
        s = self.state
        s = (s ^ (s << 13)) & mask
        s ^= s >> 7
        s = (s ^ (s << 17)) & mask
        self.state = s
        return s


@dataclass(frozen=True)
class ChainReport:
    """Validation result for a chain buffer."""

    element_count: int
    cycle_length: int
    first_revisit_index: int
    alignment_violations: int

    @property
    def ok(self) -> bool:
        return (
            self.cycle_length == self.element_count
            and self.first_revisit_index == self.element_count
            and self.alignment_violations == 0
        )


def verify_chain(buffer) -> ChainReport:
    """Traverse the successor table and report its cycle structure.

    A valid chain first revisits an element exactly at step ``element_count``
    (landing back on the start) having touched every element once.  The check
    is a plain walk, independent of how the chain was built: in C
    (``mc_chain_walk``) after a numpy range check when the native kernels
    load, else :func:`verify_chain_py`.
    """
    n = buffer.element_count
    succ = buffer.successors
    if n < 1 or len(succ) != n:
        # Sizes the C walk cannot take safely; the reference reports them.
        return verify_chain_py(buffer)
    try:
        lib = native.load_kernels()
    except native.BackendUnavailable:
        return verify_chain_py(buffer)
    s = np.frombuffer(succ, dtype=np.int64)
    violations = int(np.count_nonzero((s < 0) | (s >= n)))
    if violations:
        return ChainReport(n, 0, 0, violations)
    first_seen = array("q", [0]) * n
    cycle_length = array("Q", [0])
    step = lib.mc_chain_walk(
        succ.buffer_info()[0], n, first_seen.buffer_info()[0], cycle_length.buffer_info()[0]
    )
    return ChainReport(n, cycle_length[0], step, 0)


def verify_chain_py(buffer) -> ChainReport:
    """Reference walk: the same report as the C walk, one step at a time."""
    n = buffer.element_count
    succ = buffer.successors
    violations = sum(1 for s in succ if not 0 <= s < n)
    if violations:
        return ChainReport(n, 0, 0, violations)
    # first_seen[e] = walk step at which element e was first reached, -1 if
    # never.  A revisit must occur within n steps (pigeonhole).
    first_seen = array("q", [-1]) * n
    first_seen[0] = 0
    idx = 0
    step = 0
    while True:
        idx = succ[idx]
        step += 1
        if first_seen[idx] >= 0:
            return ChainReport(n, step - first_seen[idx], step, 0)
        first_seen[idx] = step


def route(graph, a: str, b: str) -> tuple:
    """``(nodes, link_classes)`` of the minimum-cost fabric route from node
    ``a`` to node ``b``: a fresh Dijkstra that stops at ``b`` and keeps
    nothing, with per-link-class costs, ties broken by lexicographic node id
    and fewer hops preferred on equal cost.  The reference the memoized
    route trees of ``memchar.topology`` must agree with."""
    if a == b:
        return (a,), ()
    adj = {n: [] for n in graph.nodes}
    for e in graph.edges:
        adj[e.a].append(e)
        adj[e.b].append(e)
    dist = {a: 0.0}
    prev = {}
    heap = [(0.0, a)]
    while heap:
        d, u = heapq.heappop(heap)
        if u == b:
            break
        if d > dist.get(u, float("inf")):
            continue
        for e in sorted(adj[u], key=lambda e: e.other(u)):
            v = e.other(u)
            nd = d + ROUTE_WEIGHTS[e.link_class] + 1e-9
            if nd < dist.get(v, float("inf")) - 1e-12:
                dist[v] = nd
                prev[v] = (u, e.link_class)
                heapq.heappush(heap, (nd, v))
    nodes, classes = [b], []
    while nodes[-1] != a:
        u, link_class = prev[nodes[-1]]
        nodes.append(u)
        classes.append(link_class)
    return tuple(reversed(nodes)), tuple(reversed(classes))


def switch_count(graph, nodes) -> int:
    """Interconnect-switch nodes among ``nodes`` (a route's node ids): the
    reference ``switch_hops_to_memory`` must equal."""
    return sum(1 for n in nodes if graph.nodes[n].role is NodeRole.IF_SWITCH)


def hop_cost_template(graph) -> FitTemplate:
    """Base plus switch and socket-link costs, the socket link counted per
    crossing of the :func:`route` from the requester to the home memory
    controller: cycles = base + 2 * (extra switches * switch_ns + xGMI
    crossings * xgmi_ns) * f_core."""
    ghz = graph.frequencies["core_mhz"] / 1000.0

    @lru_cache(maxsize=None)
    def xgmi_crossings(requester: int, home: int) -> int:
        _, classes = route(graph, graph.core(requester).id, graph.memory_controller(home).id)
        return classes.count(LinkClass.XGMI)

    return FitTemplate(
        name="hop_costs",
        terms=(
            FitTerm("base_cycles", lambda o: 1.0),
            FitTerm(
                "if_switch_ns",
                lambda o: 2.0 * extra_switch_hops(graph, o.requester, o.home) * ghz,
            ),
            FitTerm("xgmi_ns", lambda o: 2.0 * xgmi_crossings(o.requester, o.home) * ghz),
        ),
    )


def latency_csv_fields(r) -> list:
    """The 21 ``LATENCY_COLUMNS`` fields of record ``r``, each read off the
    record and formatted on its own: the row ``csv.writer`` is given."""
    p = r.placement
    return [
        r.backend,
        str(p.requester),
        str(p.owner),
        str(p.home_node),
        "" if p.forwarder_node is None else str(p.forwarder_node),
        r.state,
        r.level,
        str(r.dataset_bytes),
        ";".join(repr(float(v)) for v in r.samples),
        repr(float(r.min_cycles)),
        repr(float(r.max_cycles)),
        repr(float(r.median_cycles)),
        repr(float(r.frequency_mhz)),
        repr(float(r.latency_cycles)),
        r.reducer,
        ";".join(str(int(v)) for v in r.dataset_sizes),
        str(r.alignment),
        "1" if r.huge_pages else "0",
        str(r.seed),
        repr(float(r.overhead_cycles)),
        p.label,
    ]
