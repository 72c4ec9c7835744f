"""Topology loading, routing, and placement enumeration."""

import json
import pathlib
import typing

import pytest

from memchar import topology as topology_mod
from memchar.cli import main
from memchar.coherence import Protocol
from memchar.topology import (
    GraphKind,
    LinkClass,
    NodeRole,
    PlacementScope,
    RouteError,
    SchemaError,
    ScopeError,
    TopologyError,
    enumerate_placements,
    enumerate_triples,
    extra_switch_hops,
    fixture_path,
    load_topology,
    load_topology_file,
    mesh_hops,
    switch_hops_to_memory,
)
from oracles import route, switch_count


def fixture_doc(name):
    """A fresh copy of a shipped topology document."""
    return json.loads(fixture_path(f"{name}.json").read_text())


def set_field(*path):
    """An edit that sets the field at ``path`` (keys and list indices) of a
    document to the edit's value."""
    *parents, last = path

    def edit(doc, value):
        for key in parents:
            doc = doc[key]
        doc[last] = value

    return edit


@pytest.fixture(scope="module")
def rome():
    return load_topology_file(fixture_path("rome_2s.json"))


@pytest.fixture(scope="module")
def clx():
    return load_topology_file(fixture_path("clx_2s.json"))


@pytest.fixture(scope="module")
def single():
    return load_topology_file(fixture_path("single_core.json"))


class TestLoad:
    def test_rome_fixture_shape(self, rome):
        assert rome.kind is GraphKind.CHIPLET_IF
        assert len(rome.cores) == 2 * 64
        assert rome.numa_nodes == list(range(8))
        # 2 sockets x 4 nodes x 2 CCD x 2 CCX
        l3s = [n for n in rome.nodes.values() if n.role is NodeRole.L3_DOMAIN]
        assert len(l3s) == 32

    def test_file_graph_shared_until_the_file_changes(self, tmp_path):
        path = tmp_path / "topo.json"
        doc = json.loads(fixture_path("single_core.json").read_text())
        path.write_text(json.dumps(doc))
        first = load_topology_file(path)
        assert load_topology_file(path) is first
        doc["caches"]["l2_kib"] *= 2
        path.write_text(json.dumps(doc))
        edited = load_topology_file(path)
        assert edited is not first
        assert edited.caches["l2_kib"] == 2 * first.caches["l2_kib"]

    def test_cache_bytes_per_level(self, rome):
        sizes = [rome.cache_bytes(level) for level in ("L1", "L2", "L3")]
        assert sizes == [32 << 10, 512 << 10, 16 << 20]
        doc = fixture_doc("rome_2s")
        del doc["caches"]["l2_kib"]
        with pytest.raises(TopologyError, match="lacks cache size l2_kib"):
            load_topology(doc).cache_bytes("L2")

    def test_fixture_path_is_annotated_as_a_pathlib_path(self):
        # No name of the module shadows pathlib.Path in its annotations.
        assert typing.get_type_hints(fixture_path)["return"] is pathlib.Path
        assert isinstance(fixture_path("rome_2s.json"), pathlib.Path)

    def test_single_core_degenerate(self, single):
        assert len(single.cores) == 1
        interconnect = [
            e
            for e in single.edges
            if e.link_class in (LinkClass.IF_SWITCH_HOP, LinkClass.XGMI, LinkClass.UPI)
        ]
        assert interconnect == []

    def test_clx_fixture_counts(self, clx):
        for socket in (0, 1):
            cores = [
                n
                for n in clx.nodes.values()
                if n.role is NodeRole.CORE and n.socket == socket
            ]
            mcs = [
                n
                for n in clx.nodes.values()
                if n.role is NodeRole.MEMORY_CONTROLLER and n.socket == socket
            ]
            assert len(cores) == 20
            assert len(mcs) == 2

    def test_schema_violation_reports_field(self):
        with pytest.raises(SchemaError, match="kind"):
            load_topology({"socket_count": 1, "frequencies": {"core_mhz": 1000}})

    def test_duplicate_coordinates_rejected(self):
        doc = fixture_doc("clx_2s")
        doc["sockets"][0]["tiles"].append({"row": 1, "col": 0, "core": 99})
        with pytest.raises(SchemaError, match=r"duplicate grid coordinate"):
            load_topology(doc)

    def test_duplicate_core_rejected(self):
        doc = fixture_doc("rome_2s")
        doc["sockets"][0]["numa_nodes"][0]["ccds"][0]["ccxs"][0][0] = 5
        with pytest.raises(SchemaError, match="core id 5"):
            load_topology(doc)

    def test_disconnected_graph_reports_nodes(self):
        doc = fixture_doc("rome_2s")
        doc["xgmi_links"] = []
        with pytest.raises(SchemaError, match="disconnected"):
            load_topology(doc)

    def test_ccx_size_bounds(self):
        doc = fixture_doc("rome_2s")
        doc["sockets"][0]["numa_nodes"][0]["ccds"][0]["ccxs"][0] = list(range(200, 206))
        with pytest.raises(SchemaError, match="1-4 cores"):
            load_topology(doc)

    def test_switch_cost_floor(self):
        doc = fixture_doc("rome_2s")
        doc["link_costs"]["if_switch_hop"]["cycles"] = 1.0
        with pytest.raises(SchemaError, match=">= 2"):
            load_topology(doc)


    def test_fixtures_declare_their_protocol(self, rome, clx, single):
        assert [g.protocol for g in (rome, clx, single)] == [
            Protocol.MOESI, Protocol.MESIF, Protocol.MOESI
        ]

    @pytest.mark.parametrize("protocol, message", [
        (None, "topology: missing required field 'protocol'"),
        ("XYZ", "topology: field 'protocol' must be MOESI or MESIF, got 'XYZ'"),
        (["MOESI"], "topology: field 'protocol' must be MOESI or MESIF, got ['MOESI']"),
    ], ids=["missing", "unknown", "not-a-name"])
    def test_protocol_is_required_and_known(self, protocol, message, tmp_path, capsys):
        doc = fixture_doc("rome_2s")
        if protocol is None:
            del doc["protocol"]
        else:
            doc["protocol"] = protocol
        path = tmp_path / "topo.json"
        path.write_text(json.dumps(doc))
        assert main(["topo", "--topology", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    # (fixture, edit, value, what the message says)
    MALFORMED = [
        ("rome_2s", set_field("frequencies", "core_mhz"), "fast",
         "frequencies.core_mhz must be a number, got 'fast'"),
        ("clx_2s", set_field("frequencies"), [2500.0],
         "topology: field 'frequencies' must be an object, got [2500.0]"),
        ("rome_2s", set_field("sockets", 0, "xgmi_ports", 0), {"id": "xg1"},
         "xgmi port s0.xg1: missing required field 'switch'"),
        ("rome_2s", set_field("sockets", 0, "repeaters"), [{"id": "rp"}],
         "repeater s0.rp: missing required field 'between'"),
        ("clx_2s", set_field("sockets", 0, "grid"), {"cols": 6},
         "socket 0 grid: missing required field 'rows'"),
        ("clx_2s", set_field("sockets", 0, "tiles", 1, "row"), "x",
         "field 'row' must be an integer, got 'x'"),
        ("rome_2s", set_field("sockets", 0, "numa_nodes", 0, "ccds", 0, "ccxs", 0, 0), "a",
         "node 0 ccd 0 ccx 0: core id must be an integer, got 'a'"),
        ("rome_2s", set_field("socket_count"), "two",
         "topology: field 'socket_count' must be an integer, got 'two'"),
        ("rome_2s", set_field("sockets", 0, "switch_links", 0), ["sw_a", "sw_zz"],
         "if_switch_hop link s0.sw_a - s0.sw_zz names unknown node 's0.sw_zz'"),
        ("rome_2s", set_field("sockets"), 5,
         "topology: field 'sockets' must be a list, got 5"),
        ("clx_2s", set_field("sockets"), 5,
         "topology: field 'sockets' must be a list, got 5"),
        ("rome_2s", set_field("sockets", 1), 5,
         "topology: sockets entry must be an object, got 5"),
        ("clx_2s", set_field("sockets", 1), 5,
         "topology: sockets entry must be an object, got 5"),
        ("rome_2s", set_field("sockets", 0, "switches", 0), 5,
         "socket 0: switches entry must be a string, got 5"),
        ("rome_2s", set_field("sockets", 0, "switch_links", 0), ["sw_a", "sw_b", "sw_c"],
         "socket 0: switch_links entry must be a list of two names, "
         "got ['sw_a', 'sw_b', 'sw_c']"),
        ("rome_2s", set_field("sockets", 0, "numa_nodes", 0, "ccds", 0, "ccxs"), 5,
         "node 0 ccd 0: field 'ccxs' must be a list, got 5"),
        ("rome_2s", set_field("link_costs"), [1, 2],
         "topology: field 'link_costs' must be an object, got [1, 2]"),
        ("clx_2s", set_field("link_costs"), [1, 2],
         "topology: field 'link_costs' must be an object, got [1, 2]"),
        ("clx_2s", set_field("sockets", 0, "snc_cols", "0"), 5,
         "socket 0: snc_cols '0' must be a list, got 5"),
    ]

    @pytest.mark.parametrize("fixture, edit, value, message", MALFORMED, ids=[
        "core-mhz-not-a-number", "frequencies-a-list", "xgmi-port-without-switch",
        "repeater-without-between", "grid-without-rows", "tile-row-not-a-number",
        "core-id-not-a-number", "socket-count-not-a-number", "switch-link-unknown-switch",
        "chiplet-sockets-a-number", "mesh-sockets-a-number", "chiplet-socket-a-number",
        "mesh-socket-a-number", "switch-a-number", "switch-link-of-three",
        "ccxs-a-number", "chiplet-link-costs-a-list", "mesh-link-costs-a-list",
        "snc-cols-value-a-number",
    ])
    def test_malformed_document_is_config_error(self, fixture, edit, value, message, tmp_path,
                                                capsys):
        doc = fixture_doc(fixture)
        edit(doc, value)
        path = tmp_path / "topo.json"
        path.write_text(json.dumps(doc))
        assert main(["topo", "--topology", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err, err


    @pytest.mark.parametrize("size, message", [
        ("x", "caches.l2_kib must be a number, got 'x'"),
        ([512], "caches.l2_kib must be a number, got [512]"),
        (0, "caches.l2_kib must be a positive number, got 0.0"),
    ], ids=["a-string", "a-list", "zero"])
    def test_cache_size_must_be_a_positive_number(self, size, message, tmp_path, capsys):
        doc = fixture_doc("rome_2s")
        doc["caches"]["l2_kib"] = size
        path = tmp_path / "topo.json"
        path.write_text(json.dumps(doc))
        for argv in (["topo"], ["bandwidth", "--level", "L2", "--out", str(tmp_path / "bw")]):
            assert main([*argv, "--topology", str(path)]) == 2
            assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("fixture, edit, value, message", [
        ("clx_2s", set_field("sockets", 0, "tiles", 1, "row"), 1.9,
         "field 'row' must be an integer, got 1.9"),
        ("rome_2s", set_field("socket_count"), True,
         "topology: field 'socket_count' must be an integer, got True"),
        ("rome_2s", set_field("sockets", 0, "numa_nodes", 0, "ccds", 0, "ccxs", 0, 0), False,
         "node 0 ccd 0 ccx 0: core id must be an integer, got False"),
        ("rome_2s", set_field("caches", "l1_kib"), True,
         "caches.l1_kib must be a number, got True"),
        ("clx_2s", set_field("frequencies", "core_mhz"), True,
         "frequencies.core_mhz must be a number, got True"),
        ("rome_2s", set_field("link_costs", "xgmi", "cycles"), True,
         "link_costs entry 'xgmi' must be an object with a numeric 'cycles'"),
    ], ids=["tile-row-a-fraction", "socket-count-a-bool", "core-id-a-bool",
            "cache-size-a-bool", "core-mhz-a-bool", "link-cycles-a-bool"])
    def test_numbers_are_not_truncated_and_booleans_not_numbers(
        self, fixture, edit, value, message, tmp_path, capsys
    ):
        doc = fixture_doc(fixture)
        edit(doc, value)
        path = tmp_path / "topo.json"
        path.write_text(json.dumps(doc))
        assert main(["topo", "--topology", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err, err
        # The shipped document, whose snc_cols keys are integer strings, loads.
        assert load_topology(fixture_doc(fixture)).socket_count == 2


class TestMeshRoute:
    def test_identity_is_empty(self, clx):
        a = clx.core(0)
        assert mesh_hops(clx, a, a) == 0

    def test_corner_to_corner_is_nine_hops(self, clx):
        # (0,0) -> (4,5) on the 6x6 grid
        upi = next(
            n for n in clx.nodes.values() if n.role is NodeRole.UPI_PORT and n.socket == 0
        )
        target = next(
            n for n in clx.nodes.values() if n.socket == 0 and n.row == 4 and n.col == 5
        )
        assert (upi.row, upi.col) == (0, 0)
        assert mesh_hops(clx, upi, target) == 9

    def test_cross_socket_rejected(self, clx):
        with pytest.raises(RouteError, match="different sockets"):
            mesh_hops(clx, clx.core(0), clx.core(20))

    def test_requires_mesh_graph(self, rome):
        with pytest.raises(ScopeError):
            mesh_hops(rome, rome.core(0), rome.core(1))

    def test_all_pairs_match_manhattan_bfs_oracle(self, clx):
        # Independent oracle: BFS over the full grid graph; on a complete
        # grid the shortest path length is the Manhattan distance, and the
        # hop count must equal it.
        from collections import deque

        def bfs(start, goal, rows=6, cols=6):
            seen = {start}
            q = deque([(start, 0)])
            while q:
                (r, c), d = q.popleft()
                if (r, c) == goal:
                    return d
                for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                    if 0 <= rr < rows and 0 <= cc < cols and (rr, cc) not in seen:
                        seen.add((rr, cc))
                        q.append(((rr, cc), d + 1))
            raise AssertionError("unreachable")

        tiles = [n for n in clx.nodes.values() if n.socket == 0 and n.row is not None]
        for a in tiles:
            for b in tiles:
                got = mesh_hops(clx, a, b)
                assert got == bfs((a.row, a.col), (b.row, b.col))
                assert got == abs(a.row - b.row) + abs(a.col - b.col)


def tree_route(graph, a: str, b: str) -> tuple:
    """``(nodes, link_classes)`` from ``a`` to ``b`` as read off the memoized
    route tree of ``a``, in the form of :func:`oracles.route`."""
    prev = topology_mod._route_tree(graph, a, b)
    nodes, classes = [b], []
    while nodes[-1] != a:
        u, link_class = prev[nodes[-1]]
        nodes.append(u)
        classes.append(link_class)
    return tuple(reversed(nodes)), tuple(reversed(classes))


class TestFabricRoutes:
    def test_local_ccx_path_has_no_interconnect(self, rome):
        core = rome.core(0)
        l3 = rome.l3_domain_of_core(0)
        nodes, classes = route(rome, core.id, l3)
        assert switch_count(rome, nodes) == 0
        assert classes.count(LinkClass.XGMI) == 0

    def test_fixture_hop_set(self, rome):
        assert [extra_switch_hops(rome, 0, n) for n in range(4)] == [0, 1, 3, 4]

    def test_cross_socket_uses_one_xgmi(self, rome):
        for home in range(4, 8):
            _, classes = route(rome, rome.core(0).id, rome.memory_controller(home).id)
            assert classes.count(LinkClass.XGMI) == 1

    def test_node0_to_node6_is_minimal(self, rome):
        hops = {
            (i, j): extra_switch_hops(rome, rome.first_core_of_node(i), j)
            for i in range(4)
            for j in range(4, 8)
        }
        best = min(hops.values())
        assert {k for k, v in hops.items() if v == best} == {(0, 6), (2, 4)}

    def test_ccx_to_ccx_passes_io_die(self, rome):
        # No CCX reaches another CCX without a switch traversal.
        for owner in (4, 8, 16, 48):
            nodes, _ = route(rome, rome.core(0).id, rome.core(owner).id)
            assert switch_count(rome, nodes) >= 1

    def test_hop_symmetry(self, rome, clx):
        pairs = [(0, 20), (0, 70), (16, 112)]
        for a, b in pairs:
            ab, _ = route(rome, rome.core(a).id, rome.core(b).id)
            ba, _ = route(rome, rome.core(b).id, rome.core(a).id)
            assert switch_count(rome, ab) == switch_count(rome, ba)
        for a, b in ((0, 12), (1, 16), (5, 11)):
            assert mesh_hops(clx, clx.core(a), clx.core(b)) == mesh_hops(
                clx, clx.core(b), clx.core(a)
            )

    def test_repeater_links_costed(self):
        # Synthetic two-node graph with a repeater between the switches.
        doc = {
            "kind": "chiplet_if",
            "protocol": "MOESI",
            "socket_count": 1,
            "frequencies": {"core_mhz": 2000.0, "fclk_mhz": 1467.0},
            "sockets": [
                {
                    "id": 0,
                    "switches": ["swl", "swr"],
                    "switch_links": [],
                    "repeaters": [{"id": "rp", "between": ["swl", "swr"]}],
                    "xgmi_ports": [],
                    "numa_nodes": [
                        {"id": 0, "switch": "swl", "ccds": [{"ccxs": [[0, 1]]}]},
                        {"id": 1, "switch": "swr", "ccds": [{"ccxs": [[2, 3]]}]},
                    ],
                }
            ],
            "xgmi_links": [],
        }
        g = load_topology(doc)
        nodes, classes = route(g, g.core(0).id, g.memory_controller(1).id)
        assert classes.count(LinkClass.IF_REPEATER_HOP) == 2
        assert switch_count(g, nodes) == switch_hops_to_memory(g, 0, 1) == 2
        for c in g.cores:
            for n in g.numa_nodes:
                a, b = g.core(c).id, g.memory_controller(n).id
                assert tree_route(g, a, b) == route(g, a, b), (a, b)

    def test_memoized_routes_equal_a_fresh_search(self, rome):
        for c in rome.cores:
            for n in rome.numa_nodes:
                a, b = rome.core(c).id, rome.memory_controller(n).id
                assert tree_route(rome, a, b) == route(rome, a, b), (a, b)

    def test_switch_hops_equal_the_route_s_switch_count(self, rome, clx):
        for c in rome.cores:
            for n in rome.numa_nodes:
                nodes, _ = route(rome, rome.core(c).id, rome.memory_controller(n).id)
                assert switch_hops_to_memory(rome, c, n) == switch_count(rome, nodes), (c, n)
        with pytest.raises(ScopeError, match="chiplet_if"):
            switch_hops_to_memory(clx, 0, 0)

    def test_one_tree_search_per_source(self, monkeypatch):
        g = load_topology(json.loads(fixture_path("rome_2s.json").read_text()))
        searched = []
        search = topology_mod._shortest_path_tree

        def counting(graph, source):
            searched.append(source)
            return search(graph, source)

        monkeypatch.setattr(topology_mod, "_shortest_path_tree", counting)
        for _ in range(2):
            for n in g.numa_nodes:
                extra_switch_hops(g, 0, n)
                extra_switch_hops(g, 5, n)
        assert searched == ["core0", "core5"]


class TestIndexedQueries:
    @pytest.mark.parametrize("name", ["rome_2s", "clx_2s"])
    def test_every_query_equals_its_definition(self, name):
        g = load_topology_file(fixture_path(f"{name}.json"))
        core_nodes = {n.core_index: n for n in g.nodes.values() if n.role is NodeRole.CORE}
        assert g.cores == sorted(core_nodes)
        for node in g.numa_nodes:
            cores = sorted(c for c, n in core_nodes.items() if n.numa_node == node)
            assert g.cores_of_node(node) == cores
            assert g.first_core_of_node(node) == cores[0]
            assert g.memory_controller(node) == next(
                n for n in g.nodes.values()
                if n.role is NodeRole.MEMORY_CONTROLLER and n.numa_node == node
            )
        for c, me in core_nodes.items():
            if g.kind is GraphKind.CHIPLET_IF:
                def domain(n):
                    return (n.socket, n.numa_node, n.ccd, n.ccx)
                (l3,) = [
                    e.other(me.id) for e in g.edges
                    if me.id in (e.a, e.b)
                    and g.nodes[e.other(me.id)].role is NodeRole.L3_DOMAIN
                ]
            else:
                def domain(n):
                    return n.numa_node
                l3 = f"l3.snc{me.numa_node}"
            assert g.cores_of_ccx(c) == sorted(
                d for d, n in core_nodes.items() if domain(n) == domain(me)
            )
            assert g.l3_domain_of_core(c) == l3
        absent = max(g.numa_nodes) + 1
        assert g.cores_of_node(absent) == []
        for query in (g.first_core_of_node, g.memory_controller):
            with pytest.raises(TopologyError):
                query(absent)
        for query in (g.cores_of_ccx, g.l3_domain_of_core):
            with pytest.raises(TopologyError):
                query(max(g.cores) + 1)

    def test_returned_lists_are_copies(self):
        g = load_topology_file(fixture_path("rome_2s.json"))
        before = (g.cores, g.cores_of_node(1), g.cores_of_ccx(4), g.first_core_of_node(1))
        for got in (g.cores, g.cores_of_node(1), g.cores_of_ccx(4)):
            got.reverse()
            got.append(-1)
        assert (g.cores, g.cores_of_node(1), g.cores_of_ccx(4), g.first_core_of_node(1)) == before


class TestPlacements:
    def test_same_ccx_is_four_by_four(self, rome):
        ps = enumerate_placements(rome, PlacementScope.SAME_CCX)
        assert len(ps) == 16
        assert {(p.requester, p.owner) for p in ps} == {
            (i, j) for i in range(4) for j in range(4)
        }

    def test_local_pairs_have_requester_equal_owner(self, rome):
        ps = enumerate_placements(rome, "local")
        assert len(ps) == len(rome.cores)
        assert all(p.requester == p.owner for p in ps)

    def test_all_pairs_is_node_matrix(self, rome):
        ps = enumerate_placements(rome, PlacementScope.ALL_PAIRS)
        assert len(ps) == 64
        assert ps[0].requester == rome.first_core_of_node(0)
        homes = [p.home_node for p in ps[:8]]
        assert homes == list(range(8))

    def test_deterministic_ordering(self, rome):
        a = enumerate_placements(rome, PlacementScope.INTRA_SOCKET)
        b = enumerate_placements(rome, PlacementScope.INTRA_SOCKET)
        assert a == b

    def test_scope_invalid_for_mesh(self, clx):
        with pytest.raises(ScopeError):
            enumerate_placements(clx, PlacementScope.SAME_CCX)

    def test_triples_cover_node_matrix(self, rome):
        ts = enumerate_triples(rome)
        assert len(ts) == 16
        assert {(t.home_node, t.forwarder_node) for t in ts} == {
            (h, f) for h in range(4) for f in range(4)
        }
        # When node 0 forwards, the owner must sit outside the requester CCX.
        own_ccx = set(rome.cores_of_ccx(0))
        for t in ts:
            if t.forwarder_node == 0:
                assert t.owner not in own_ccx
