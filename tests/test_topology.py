"""Topology loading, routing, and placement enumeration."""

import json
import pathlib
import typing

import pytest

from memchar.cli import main
from memchar.coherence import Protocol
from memchar.topology import (
    GraphKind,
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
from oracles import fabric, route, switch_count


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


def rename_field(*path):
    """An edit that renames the field at ``path`` of a document to the
    edit's value."""
    *parents, last = path

    def edit(doc, value):
        for key in parents:
            doc = doc[key]
        doc[value] = doc.pop(last)

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
        assert len(set(rome.l3_domains.values())) == 32

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
        # One core on a node without a switch: a read crosses no switch.
        assert len(single.cores) == 1
        assert switch_hops_to_memory(single, 0, 0) == 0

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
            load_topology({"frequencies": {"core_mhz": 1000}})

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

    @pytest.mark.parametrize("field, value, message", [
        (("xgmi_links",), [], "no route from NUMA node 0 to NUMA node 4's memory"),
        (("sockets", 0, "numa_nodes", 0, "switch"), None,
         "no route from NUMA node 0 to NUMA node 1's memory"),
        (("sockets", 0, "switches"), ["sw_a", "sw_b", "sw_c", "sw_d", "sw_x", "sw_y", "sw_q"],
         "unreachable nodes: ['s0.sw_q']"),
    ], ids=["no-xgmi-link", "node-without-a-switch", "switch-without-a-link"])
    def test_disconnected_graph_reports_nodes(self, field, value, message):
        doc = fixture_doc("rome_2s")
        set_field(*field)(doc, value)
        with pytest.raises(SchemaError, match="disconnected") as raised:
            load_topology(doc)
        assert message in str(raised.value)

    def test_socket_joined_only_through_the_other_socket_is_refused(self, tmp_path, capsys):
        # Without sw_x - sw_y, node 0 reaches node 2 only by crossing xGMI
        # three times; a socket's switches are joined by its own links.
        doc = fixture_doc("rome_2s")
        doc["sockets"][0]["switch_links"].remove(["sw_x", "sw_y"])
        path = tmp_path / "topo.json"
        path.write_text(json.dumps(doc))
        assert main(["topo", "--topology", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "disconnected" in err, err

    @pytest.mark.parametrize("link, message", [
        (["s0.xg1", "s0.xg2"], "both ends are ports of socket 0"),
        (["s1.xg3", "s1.xg3"], "both ends are ports of socket 1"),
        (["s0.xg1", "s1.xg4"], "port 's0.xg1' is already linked"),
    ], ids=["one-socket", "port-to-itself", "port-linked-twice"])
    def test_xgmi_link_that_cannot_route_is_refused(self, link, message, tmp_path, capsys):
        doc = fixture_doc("rome_2s")
        doc["xgmi_links"].append(link)
        path = tmp_path / "topo.json"
        path.write_text(json.dumps(doc))
        assert main(["topo", "--topology", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: xgmi_links entry {link}: {message}"), err

    def test_ccx_size_bounds(self):
        doc = fixture_doc("rome_2s")
        doc["sockets"][0]["numa_nodes"][0]["ccds"][0]["ccxs"][0] = list(range(200, 206))
        with pytest.raises(SchemaError, match="1-4 cores"):
            load_topology(doc)


    def test_fixtures_declare_their_protocol(self, rome, clx, single):
        assert [g.protocol for g in (rome, clx, single)] == [
            Protocol.MOESI, Protocol.MESIF, Protocol.MOESI
        ]

    def test_every_fixture_and_the_host_document_load(self):
        """No shipped topology carries a key its loader does not read, nor
        does a host document: the single-core fixture with its name and
        cache sizes rewritten."""
        shipped = sorted(p.stem for p in fixture_path("rome_2s.json").parent.glob("*.json")
                         if not p.stem.endswith("_latency_model"))
        assert shipped == ["clx_2s", "rome_2s", "single_core"]
        for name in shipped:
            load_topology(fixture_doc(name))
        host = fixture_doc("single_core")
        host["name"] = "host"
        host["caches"] = {"l1_kib": 48.0, "l2_kib": 2048.0, "l3_mib": 300.0}
        assert load_topology(host).cache_bytes("L3") == 300 << 20

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
        ("clx_2s", set_field("sockets", 0, "grid"), {"cols": 6},
         "socket 0 grid: missing required field 'rows'"),
        ("clx_2s", set_field("sockets", 0, "tiles", 1, "row"), "x",
         "field 'row' must be an integer, got 'x'"),
        ("rome_2s", set_field("sockets", 0, "numa_nodes", 0, "ccds", 0, "ccxs", 0, 0), "a",
         "node 0 ccd 0 ccx 0: core id must be an integer, got 'a'"),
        ("rome_2s", set_field("link_costs"), {"if_switch_hop": {"cycles": 2.0}},
         "topology document carries 'link_costs', which is not read; the keys read are kind, "),
        ("rome_2s", set_field("sockets", 0, "switch_links", 0), ["sw_a", "sw_zz"],
         "socket 0: switch_links entry ['sw_a', 'sw_zz'] names undeclared switch 's0.sw_zz'"),
        ("rome_2s", set_field("sockets", 0, "numa_nodes", 0, "switch"), "sw_nope",
         "numa_node 0 names undeclared switch 's0.sw_nope'"),
        ("rome_2s", set_field("sockets", 0, "xgmi_ports", 0, "switch"), "sw_nope",
         "xgmi port s0.xg1 names undeclared switch 's0.sw_nope'"),
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
        ("clx_2s", set_field("socket_count"), 2,
         "topology document carries 'socket_count', which is not read; the keys read are "
         "kind, name, protocol, frequencies, caches, bandwidth, sockets"),
        ("clx_2s", set_field("sockets", 0, "snc_cols", "0"), 5,
         "socket 0: snc_cols '0' must be a list, got 5"),
        ("clx_2s", set_field("frequencies", "uncore_mhz"), 0,
         "frequencies.uncore_mhz must be a positive number, got 0.0"),
        ("clx_2s", set_field("frequencies", "uncore_mhz"), -2400,
         "frequencies.uncore_mhz must be a positive number, got -2400.0"),
        ("rome_2s", set_field("frequencies", "fclk_mhz"), 1467.0,
         "frequencies carries 'fclk_mhz', which is not read; the keys read are core_mhz, "
         "uncore_mhz"),
        ("rome_2s", rename_field("caches"), "caches_x",
         "topology document carries 'caches_x', which is not read; the keys read are kind, "
         "name, protocol, frequencies, caches, bandwidth, sockets, xgmi_links"),
        ("clx_2s", set_field("xgmi_links"), [],
         "topology document carries 'xgmi_links', which is not read; the keys read are kind, "
         "name, protocol, frequencies, caches, bandwidth, sockets"),
        ("rome_2s", rename_field("sockets", 1, "switch_links"), "switch_link",
         "socket 1 carries 'switch_link', which is not read; the keys read are id, switches, "
         "switch_links, xgmi_ports, numa_nodes"),
        ("clx_2s", rename_field("sockets", 1, "numa_base"), "numa_bse",
         "socket 1 carries 'numa_bse', which is not read; the keys read are id, grid, "
         "snc_cols, numa_base, tiles"),
        ("clx_2s", set_field("sockets", 0, "grid", "layers"), 2,
         "socket 0 grid carries 'layers', which is not read; the keys read are rows, cols"),
        ("rome_2s", rename_field("sockets", 0, "numa_nodes", 1, "switch"), "swtich",
         "numa_node 1 carries 'swtich', which is not read; the keys read are id, switch, ccds"),
        ("rome_2s", set_field("sockets", 0, "numa_nodes", 0, "ccds", 0, "die"), 0,
         "node 0 ccd 0 carries 'die', which is not read; the keys read are ccxs"),
        ("rome_2s", rename_field("sockets", 0, "xgmi_ports", 0, "switch"), "sw",
         "xgmi port s0.xg1 carries 'sw', which is not read; the keys read are id, switch"),
        ("clx_2s", set_field("sockets", 0, "tiles", 0, "cha"), 1,
         "carries 'cha', which is not read; the keys read are row, col, core, mc, upi"),
    ]

    @pytest.mark.parametrize("fixture, edit, value, message", MALFORMED, ids=[
        "core-mhz-not-a-number", "frequencies-a-list", "xgmi-port-without-switch",
        "grid-without-rows", "tile-row-not-a-number",
        "core-id-not-a-number", "chiplet-carries-link-costs", "switch-link-unknown-switch",
        "numa-node-unknown-switch", "xgmi-port-unknown-switch",
        "chiplet-sockets-a-number", "mesh-sockets-a-number", "chiplet-socket-a-number",
        "mesh-socket-a-number", "switch-a-number", "switch-link-of-three",
        "ccxs-a-number", "mesh-carries-socket-count",
        "snc-cols-value-a-number", "uncore-mhz-zero", "uncore-mhz-negative",
        "frequencies-unread-key", "chiplet-unread-key", "mesh-unread-key",
        "chiplet-socket-unread-key", "mesh-socket-unread-key", "grid-unread-key",
        "numa-node-unread-key", "ccd-unread-key", "xgmi-port-unread-key", "tile-unread-key",
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


    @pytest.mark.parametrize("fixture, edit, value, message", [
        ("rome_2s", set_field("socket_count"), 1,
         "topology document carries 'socket_count', which is not read"),
        ("rome_2s", set_field("link_costs"), {"xgmi": {"cycles": 90.0}},
         "topology document carries 'link_costs', which is not read"),
        ("single_core", set_field("sockets", 0, "id"), 1,
         "socket id 1: the ids of 1 socket entries must be [0], each once"),
        ("clx_2s", set_field("sockets", 1, "id"), 0,
         "socket id 0: the ids of 2 socket entries must be [0, 1], each once"),
    ], ids=["socket-count", "link-costs", "socket-id-out-of-range", "socket-id-twice"])
    def test_retired_field_or_bad_socket_id_fails_every_command(
        self, fixture, edit, value, message, tmp_path, capsys
    ):
        doc = fixture_doc(fixture)
        edit(doc, value)
        path = tmp_path / "topo.json"
        path.write_text(json.dumps(doc))
        for argv in (["topo"], ["latency", "--scope", "all_pairs", "--out", str(tmp_path / "l")],
                     ["bandwidth", "--level", "L2", "--out", str(tmp_path / "bw")]):
            assert main([*argv, "--topology", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"config error: {message}"), err

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
        ("rome_2s", set_field("sockets", 0, "numa_nodes", 0, "ccds", 0, "ccxs", 0, 0), False,
         "node 0 ccd 0 ccx 0: core id must be an integer, got False"),
        ("rome_2s", set_field("caches", "l1_kib"), True,
         "caches.l1_kib must be a number, got True"),
        ("clx_2s", set_field("frequencies", "core_mhz"), True,
         "frequencies.core_mhz must be a number, got True"),
    ], ids=["tile-row-a-fraction", "core-id-a-bool", "cache-size-a-bool", "core-mhz-a-bool"])
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


# (fixture, indices of the xgmi_links entries removed from it, switch hops
# of core 0 to each node): documents on which the switch table must agree
# with the oracle's routes.  Without both sw_x links (0 and 1), every
# crossing is through sw_y.
ROUTED = [
    ("rome_2s", (), [1, 2, 4, 5, 5, 6, 4, 5]),
    ("single_core", (), [0]),
    *[("rome_2s", (i,), [1, 2, 4, 5, 5, 6, 4, 5]) for i in range(4)],
    ("rome_2s", (0, 1), [1, 2, 4, 5, 5, 6, 6, 7]),
]


@pytest.fixture(scope="module")
def rome_fabric():
    return fabric(fixture_doc("rome_2s"))


class TestFabricRoutes:
    def test_local_ccx_path_has_no_interconnect(self, rome, rome_fabric):
        nodes, classes = route(rome_fabric, rome.core(0).id, rome.l3_domain_of_core(0))
        assert switch_count(rome_fabric, nodes) == 0
        assert classes.count("xgmi") == 0

    def test_fixture_hop_set(self, rome):
        assert [extra_switch_hops(rome, 0, n) for n in range(4)] == [0, 1, 3, 4]

    def test_cross_socket_uses_one_xgmi(self, rome, rome_fabric):
        for home in range(4, 8):
            _, classes = route(rome_fabric, rome.core(0).id, rome.memory_controller(home).id)
            assert classes.count("xgmi") == 1

    def test_node0_to_node6_is_minimal(self, rome):
        hops = {
            (i, j): extra_switch_hops(rome, rome.first_core_of_node(i), j)
            for i in range(4)
            for j in range(4, 8)
        }
        best = min(hops.values())
        assert {k for k, v in hops.items() if v == best} == {(0, 6), (2, 4)}

    def test_ccx_to_ccx_passes_io_die(self, rome, rome_fabric):
        # No CCX reaches another CCX without a switch traversal.
        for owner in (4, 8, 16, 48):
            nodes, _ = route(rome_fabric, rome.core(0).id, rome.core(owner).id)
            assert switch_count(rome_fabric, nodes) >= 1

    def test_hop_symmetry(self, rome, rome_fabric, clx):
        pairs = [(0, 20), (0, 70), (16, 112)]
        for a, b in pairs:
            ab, _ = route(rome_fabric, rome.core(a).id, rome.core(b).id)
            ba, _ = route(rome_fabric, rome.core(b).id, rome.core(a).id)
            assert switch_count(rome_fabric, ab) == switch_count(rome_fabric, ba)
        for a, b in ((0, 12), (1, 16), (5, 11)):
            assert mesh_hops(clx, clx.core(a), clx.core(b)) == mesh_hops(
                clx, clx.core(b), clx.core(a)
            )

    @pytest.mark.parametrize("name, removed, core0_hops", ROUTED, ids=[
        "-".join([name, *(f"without-xgmi-link-{i}" for i in removed)])
        for name, removed, _ in ROUTED
    ])
    def test_switch_hops_equal_the_route_s_switch_count(self, name, removed, core0_hops):
        doc = fixture_doc(name)
        doc["xgmi_links"] = [link for i, link in enumerate(doc["xgmi_links"]) if i not in removed]
        g, oracle = load_topology(doc), fabric(doc)
        for c in g.cores:
            for n in g.numa_nodes:
                nodes, _ = route(oracle, g.core(c).id, g.memory_controller(n).id)
                assert switch_hops_to_memory(g, c, n) == switch_count(oracle, nodes), (c, n)
        assert [switch_hops_to_memory(g, 0, n) for n in g.numa_nodes] == core0_hops

    def test_switch_hops_need_a_chiplet_graph_and_a_known_node(self, rome, clx):
        with pytest.raises(ScopeError, match="chiplet_if"):
            switch_hops_to_memory(clx, 0, 0)
        with pytest.raises(TopologyError, match="no memory controller for NUMA node 8"):
            switch_hops_to_memory(rome, 0, 8)


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
                l3 = f"l3.n{me.numa_node}d{me.ccd}x{me.ccx}"
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
