"""Latency model: prediction, fitting, comparison."""

import csv
import json
import math

import numpy as np
import pytest

from memchar.model import (
    SWITCH_HOP_BASES,
    FitError,
    FitObservation,
    FitTerm,
    FitTemplate,
    ModelError,
    classify_values,
    compare,
    fit,
    LatencyModel,
    load_fixture_model,
    switch_hop_template,
)
from memchar.cli import main
from memchar.coherence import Protocol
from memchar.topology import extra_switch_hops, fixture_path, load_topology_file
from oracles import fabric, hop_cost_template


@pytest.fixture(scope="module")
def rome():
    return load_fixture_model("rome_2s")


@pytest.fixture(scope="module")
def clx():
    return load_fixture_model("clx_2s")


def predict_with(system, doc, tmp_path, *args):
    """Exit code of ``model-predict`` on ``system`` with ``doc`` as its model."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return main(["model-predict", "--topology", system, "--model", str(path), *args])


def read_table(name):
    with open(fixture_path(name), newline="") as fh:
        return list(csv.DictReader(fh))


class TestPredict:
    def test_local_l1_is_four_cycles_on_both_systems(self, rome, clx):
        for model, state in ((rome, "M"), (rome, "E"), (clx, "M"), (clx, "E")):
            assert model.predict(0, 0, None, state, "L1") == 4.0

    def test_rome_numa1_modified_l2(self, rome):
        owner = rome.graph.first_core_of_node(1)
        assert rome.predict(0, 1, owner, "M", "L2") == 263.0

    def test_triple_is_decided_by_home_node(self, rome):
        g = rome.graph
        p2 = rome.predict(0, 1, g.first_core_of_node(2), "M", "L2")
        p3 = rome.predict(0, 1, g.first_core_of_node(3), "M", "L2")
        assert p2 == p3
        assert 322 - 3 <= p2 <= 324 + 3

    def test_triple_diagonal_equals_plain_remote(self, rome):
        owner = rome.graph.first_core_of_node(1)
        diag = rome.predict(0, 1, owner, "M", "L2")
        assert diag == 263.0

    def test_forwarder_for_local_access_is_illegal(self, rome):
        with pytest.raises(ModelError, match="forwarder"):
            rome.predict(0, 0, 0, "M", "L2")

    def test_forwarder_only_for_dirty_lines(self, rome):
        fwd = rome.graph.first_core_of_node(2)
        with pytest.raises(ModelError, match="dirty-remote"):
            rome.predict(0, 1, fwd, "E", "L2")

    def test_invalid_lines_fetch_from_ram_at_all_levels(self, rome):
        owner = rome.graph.first_core_of_node(1)
        for level in ("L1", "L2", "L3", "RAM"):
            assert rome.predict(0, 1, owner, "I", level) == 230.0

    def test_clean_shared_beyond_ccx_reads_ram(self, rome):
        # S on another CCX: home memory answers; O still forwards.
        assert rome.predict(0, 0, 4, "S", "L1") == 220.0
        assert rome.predict(0, 0, 4, "O", "L1") == 205.0
        # Within the CCX the shared line is served from the sibling cache.
        assert rome.predict(0, 0, 1, "S", "L1") == 72.0

    def test_ccx_core3_penalty_carried_as_data(self, rome):
        assert rome.predict(0, 0, 3, "M", "L1") == 78.0 + 6.0
        assert rome.predict(0, 0, 1, "M", "L1") == 78.0
        assert rome.predict(0, 0, 3, "M", "L3") == 39.0  # L3 stays uniform

    def test_remote_socket_ram_anchors(self, rome):
        g = rome.graph
        assert rome.predict(0, 6, None, "I", "RAM") == 407.0
        assert rome.predict(g.first_core_of_node(2), 4, None, "I", "RAM") == 407.0
        assert rome.predict(g.first_core_of_node(1), 5, None, "I", "RAM") == pytest.approx(436.0)
        assert rome.predict(g.first_core_of_node(3), 7, None, "I", "RAM") == pytest.approx(436.0)

    def test_clx_snc_classes(self, clx):
        assert clx.predict(0, 0, None, "I", "RAM") == 200.0
        assert clx.predict(0, 1, None, "I", "RAM") == 216.0
        near = clx.predict(0, 2, None, "I", "RAM")
        far = clx.predict(0, 3, None, "I", "RAM")
        assert far - near == 25.0  # 10 ns at 2.5 GHz

    def test_clx_mesh_gradient_on_private_caches(self, clx):
        # core 0 at (1,0); core 8 at (1,1) is 1 hop; core 16 at (1,5)
        # is 5 hops but in the other SNC; use core 4 at (1,2): 2 hops.
        ratio = 2500.0 / 2400.0
        assert clx.predict(0, 0, 8, "M", "L1") == 125.0 + 2 * 1 * ratio
        assert clx.predict(0, 0, 4, "M", "L1") == 125.0 + 2 * 2 * ratio
        # Shared/Forward lines come from L3: flat.
        assert clx.predict(0, 0, 8, "F", "L1") == 50.0
        assert clx.predict(0, 0, 8, "S", "L2") == 50.0

    def test_mesh_worst_case_in_uncore_cycles(self, clx):
        from memchar.topology import mesh_hops

        g = clx.graph
        tiles = [n for n in g.nodes.values() if n.socket == 0 and n.row is not None]
        worst = max(
            mesh_hops(g, a.id, b.id) for a in tiles for b in tiles
        )
        assert worst == 9
        doc = json.loads(fixture_path("clx_2s_latency_model.json").read_text())
        per_hop_round_trip = 2.0 * doc["mesh_hop_uncore_cycles"]
        assert worst * per_hop_round_trip == 18.0

    def test_class_ordering_matches_published_tables(self, rome, clx):
        # Predicted latencies must be non-decreasing along the published
        # distance ladder for every state and level.
        g = rome.graph
        ladders = {
            "rome": (
                rome,
                [0, 1, 4, g.first_core_of_node(1), g.first_core_of_node(2),
                 g.first_core_of_node(3), g.first_core_of_node(6)],
                ("M", "O", "E", "S"),
            ),
            "clx": (
                clx,
                [0, 8, clx.graph.first_core_of_node(1), clx.graph.first_core_of_node(2)],
                ("M", "E", "S", "F"),
            ),
        }
        for name, (model, owners, states) in ladders.items():
            for state in states:
                for level in ("L1", "L2", "L3"):
                    values = []
                    for owner in owners:
                        fwd = None if owner == 0 else owner
                        values.append(
                            model.predict(0, model.graph.node_of_core(owner), fwd, state, level)
                        )
                    assert values == sorted(values), (name, state, level, values)

    def test_conversion_factors_reported(self, rome, clx):
        # Hop costs in core cycles: ns at 2 GHz on rome, uncore cycles at
        # 2.4 GHz uncore and 2.5 GHz core on clx.
        assert rome.core_mhz == 2000.0
        assert rome.hop_cycles == pytest.approx(29 / 12 * 2.0)
        assert (clx.core_mhz, clx.hop_cycles) == (2500.0, 1.0 * 2500.0 / 2400.0)


class TestLoadModel:
    RETIRED = {
        "protocol": "MESIF",
        "frequencies": {"core_mhz": 3000.0, "uncore_mhz": 2400.0},
        "mesh_gradient_levels": ["L1", "L2"],
        "mesh_gradient_classes": ["M", "E", "ME"],
    }

    @pytest.mark.parametrize("key", sorted(RETIRED))
    def test_retired_key_is_rejected(self, key, clx):
        doc = json.loads(fixture_path("clx_2s_latency_model.json").read_text())
        doc[key] = self.RETIRED[key]
        with pytest.raises(ModelError, match=f"'{key}'"):
            LatencyModel(doc, clx.graph)

    def test_retired_key_exits_2_from_the_cli(self, tmp_path, capsys):
        from memchar.cli import main

        doc = json.loads(fixture_path("rome_2s_latency_model.json").read_text())
        doc["frequencies"] = {"core_mhz": 3000.0}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code = main(["model-predict", "--topology", "rome_2s", "--model", str(path),
                     "--requester", "0", "--home", "1"])
        assert code == 2
        assert ("config error: a chiplet_if model document carries 'frequencies', which is "
                "not read" in capsys.readouterr().err)

    @pytest.mark.parametrize("doc", [7, [{"a": 1}], "x"], ids=["number", "list", "string"])
    def test_document_that_is_not_an_object_exits_2_from_the_cli(self, doc, tmp_path, capsys):
        assert predict_with("rome_2s", doc, tmp_path, "--requester", "0", "--home", "1") == 2
        assert capsys.readouterr().err.startswith(
            f"config error: a chiplet_if model document must be an object, got {doc!r}")

    def test_protocol_comes_from_the_topology(self, rome, clx, tmp_path, capsys):
        assert (rome.protocol, clx.protocol) == (Protocol.MOESI, Protocol.MESIF)
        assert rome.protocol is rome.graph.protocol
        doc = json.loads(fixture_path("rome_2s_latency_model.json").read_text())
        doc["protocol"] = "MOESI"
        assert predict_with("rome_2s", doc, tmp_path, "--requester", "0", "--home", "1") == 2
        assert capsys.readouterr().err.startswith(
            "config error: a chiplet_if model document carries 'protocol', which is not read")

    def test_every_fixture_model_loads_against_its_sibling_topology(self):
        fixtures = fixture_path("rome_2s.json").parent
        models = sorted(fixtures.glob("*_latency_model.json"))
        topologies = sorted(set(fixtures.glob("*.json")) - set(models))
        assert [p.name for p in models] == ["clx_2s_latency_model.json",
                                            "rome_2s_latency_model.json"]
        for path in topologies:
            assert json.loads(path.read_text())["protocol"] in ("MOESI", "MESIF"), path
        for path in models:
            graph = load_topology_file(path.with_name(path.name.replace("_latency_model", "")))
            assert LatencyModel(json.loads(path.read_text()), graph).protocol is graph.protocol

    # (topology, model key, the value it is given, what the message says);
    # "NAME without CLOCK" is the NAME fixture without frequencies.CLOCK, read
    # with its own model when the key is None.
    MALFORMED = [
        ("rome_2s", "base_cycles", {"L1/ME/local": "x"},
         "model base_cycles entry 'L1/ME/local' must be a number, got 'x'"),
        ("rome_2s", "base_cycles", [4.0], "model base_cycles must be an object, got list"),
        ("rome_2s", "numa_class_by_extra_hops", {"a": "numa1"},
         "model numa_class_by_extra_hops entry 'a' must be a class name under an integer key"),
        ("rome_2s", "remote_anchor_extra_hops", "x",
         "model remote_anchor_extra_hops must be an integer, got 'x'"),
        ("rome_2s", "state_classes", [{"M": "ME"}],
         "model state_classes must be an object, got list"),
        ("rome_2s", "triple_base_cycles", [323.0],
         "model triple_base_cycles must be an object, got list"),
        ("rome_2s", "ccx_penalty_cycles", [[0]],
         "model ccx_penalty_cycles must be rows of numbers covering the 4 core positions of "
         "the largest CCX, got [[0]]"),
        ("rome_2s", "ccx_penalty_cycles", "x",
         "model ccx_penalty_cycles must be rows of numbers covering the 4 core positions of "
         "the largest CCX, got 'x'"),
        ("rome_2s", "clean_shared_ram_beyond", "same_ccx",
         "a chiplet_if model document carries 'clean_shared_ram_beyond', which is not read; "
         "the keys read are base_cycles, state_classes, if_switch_ns, "
         "numa_class_by_extra_hops, remote_anchor_extra_hops, triple_base_cycles, "
         "ccx_penalty_cycles"),
        ("rome_2s", "remote_anchor_extra_hops", True,
         "model remote_anchor_extra_hops must be an integer, got True"),
        ("rome_2s", "base_cycles", {"L1/ME/local": True},
         "model base_cycles entry 'L1/ME/local' must be a number, got True"),
        ("rome_2s", "state_classes", {"L1": {"M": "ME", "E": "ME", "O": "OS", "S": "OS",
                                             "I": "I"}},
         "model lacks state_classes.default, and state_classes has no L2 entry"),
        ("clx_2s without uncore_mhz", None, None,
         "model mesh_hop_uncore_cycles counts uncore cycles, but topology 'clx_2s' has no "
         "frequencies.uncore_mhz"),
        ("rome_2s", "if_switch_ns", "fast", "model if_switch_ns must be a number, got 'fast'"),
        ("clx_2s", "mesh_hop_uncore_cycles", True,
         "model mesh_hop_uncore_cycles must be a number, got True"),
        ("rome_2s", "name", "rome_2s",
         "a chiplet_if model document carries 'name', which is not read"),
        ("clx_2s", "name", "clx_2s",
         "a mesh_2d model document carries 'name', which is not read; the keys read are "
         "base_cycles, state_classes, mesh_hop_uncore_cycles"),
    ]

    @pytest.mark.parametrize("topology, key, value, message", MALFORMED, ids=[
        "base-cycles-value", "base-cycles-a-list", "numa-class-key", "remote-anchor",
        "state-classes-a-list", "triple-base-cycles-a-list", "ccx-penalty-too-small",
        "ccx-penalty-a-string", "clean-shared-a-number", "remote-anchor-a-bool",
        "base-cycles-a-bool", "state-classes-without-default", "priced-clock-missing",
        "switch-cost-a-string", "mesh-cost-a-bool", "chiplet-name", "mesh-name",
    ])
    def test_malformed_document_is_config_error(self, topology, key, value, message, tmp_path,
                                                capsys):
        system, _, clock = topology.partition(" without ")
        doc = json.loads(fixture_path(f"{system}_latency_model.json").read_text())
        if key is not None:
            doc[key] = value
        if clock:
            topo = json.loads(fixture_path(f"{system}.json").read_text())
            del topo["frequencies"][clock]
            system = tmp_path / f"{system}.json"
            system.write_text(json.dumps(topo))
        assert predict_with(str(system), doc, tmp_path, "--requester", "0", "--home", "1") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}"), err


class TestHopCost:
    """A model's one hop cost is the one its graph's kind prices, in the
    unit its key names; a key the kind does not read is refused."""

    @pytest.mark.parametrize("system, key, value", [
        ("rome_2s", "mesh_hop_uncore_cycles", 1.0),
        ("rome_2s", "link_costs", {"if_switch_hop": {"value": 2.4, "unit": "ns"}}),
        ("clx_2s", "if_switch_ns", 2.4),
        ("clx_2s", "ccx_penalty_cycles", [[0.0]]),
    ])
    def test_a_key_of_another_kind_is_refused(self, system, key, value, tmp_path, capsys):
        doc = json.loads(fixture_path(f"{system}_latency_model.json").read_text())
        doc[key] = value
        assert predict_with(system, doc, tmp_path, "--requester", "0", "--home", "0") == 2
        kind = "chiplet_if" if system == "rome_2s" else "mesh_2d"
        assert capsys.readouterr().err.startswith(
            f"config error: a {kind} model document carries '{key}', which is not read; "
            "the keys read are base_cycles, state_classes, ")

    def test_a_missing_cost_is_config_error(self, clx, tmp_path, capsys):
        other_snc = clx.graph.first_core_of_node(1)
        for system, key, args in (
            ("rome_2s", "if_switch_ns", ["--home", "7", "--state", "M", "--level", "RAM"]),
            ("clx_2s", "mesh_hop_uncore_cycles", ["--home", "1", "--forwarder", str(other_snc),
                                                  "--state", "M", "--level", "L2"]),
        ):
            doc = json.loads(fixture_path(f"{system}_latency_model.json").read_text())
            assert predict_with(system, doc, tmp_path, "--requester", "0", *args) == 0
            del doc[key]
            capsys.readouterr()
            assert predict_with(system, doc, tmp_path, "--requester", "0", *args) == 2
            assert capsys.readouterr().err == (
                f"config error: model document lacks key(s) {key}\n")

    def test_a_misspelled_key_is_refused_not_ignored(self, tmp_path, capsys):
        doc = json.loads(fixture_path("rome_2s_latency_model.json").read_text())
        args = ["--requester", "0", "--home", "0", "--forwarder", "3", "--state", "M",
                "--level", "L1"]
        assert predict_with("rome_2s", doc, tmp_path, *args) == 0
        assert capsys.readouterr().out.startswith("84.0 cycles")
        doc["ccx_penalty_cycle"] = doc.pop("ccx_penalty_cycles")
        assert predict_with("rome_2s", doc, tmp_path, *args) == 2
        assert capsys.readouterr().err.startswith(
            "config error: a chiplet_if model document carries 'ccx_penalty_cycle', which is "
            "not read")

    def test_fitted_switch_cost_is_the_model_input(self, rome, tmp_path, capsys):
        # model-fit writes if_switch_ns under the name the model reads it by.
        fit_dir = tmp_path / "fit"
        assert main(["model-fit", "--topology", "rome_2s",
                     "--input", str(fixture_path("table2_rome.csv")),
                     "--template", "ram_hops", "--out", str(fit_dir)]) == 0
        fitted = json.loads((fit_dir / "fitted_params.json").read_text())["if_switch_ns"]
        doc = json.loads(fixture_path("rome_2s_latency_model.json").read_text())
        assert fitted != doc.get("if_switch_ns")
        doc["if_switch_ns"] = fitted
        capsys.readouterr()
        # Core 0 to socket 1's node 7: past the remote anchor's switches.
        assert predict_with("rome_2s", doc, tmp_path, "--requester", "0", "--home", "7",
                            "--state", "I", "--level", "RAM") == 0
        extra = extra_switch_hops(rome.graph, 0, 7) - doc["remote_anchor_extra_hops"]
        assert extra != 0
        cycles = doc["base_cycles"]["RAM/any/remote_socket"] + extra * (
            2.0 * (fitted * 2000.0 / 1000.0))
        assert capsys.readouterr().out.startswith(f"{cycles!r} cycles")


class TestFit:
    def test_ram_row_recovers_switch_cost_in_band(self, rome):
        rows = [r for r in read_table("table2_rome.csv") if r["level"] == "RAM"]
        homes = {"local": 0, "numa1": 1, "numa2": 2, "numa3": 3}
        obs = [
            FitObservation(requester=0, home=homes[r["source_class"]], cycles=float(r["cycles"]))
            for r in rows
            if r["source_class"] in homes
        ]
        assert sorted(o.cycles for o in obs) == [220, 230, 248, 255]
        result = fit(switch_hop_template(rome.graph, "ram_hops"), obs)
        assert 2.0 <= result.params["if_switch_ns"] <= 2.5
        assert result.params["if_switch_ns"] == pytest.approx(2.2)

    @pytest.mark.parametrize("name", sorted(SWITCH_HOP_BASES))
    def test_switch_hop_templates_differ_only_in_their_base_name(self, rome, name):
        template = switch_hop_template(rome.graph, name)
        assert template.name == name
        assert [t.name for t in template.terms] == [SWITCH_HOP_BASES[name], "if_switch_ns"]
        o = FitObservation(0, 3, cycles=0.0)
        assert template.design_row(o) == switch_hop_template(rome.graph, "ram_hops").design_row(o)

    def test_single_observation_interpolates_exactly(self, rome):
        template = FitTemplate("base_only", (FitTerm("base", lambda o: 1.0),))
        result = fit(template, [FitObservation(0, 0, cycles=123.0)])
        assert result.params["base"] == 123.0
        assert result.max_abs_residual == 0.0

    def test_rank_deficiency_names_parameters(self, rome):
        template = FitTemplate(
            "degenerate",
            (
                FitTerm("a", lambda o: 1.0),
                FitTerm("b", lambda o: 2.0),  # collinear with a
            ),
        )
        obs = [FitObservation(0, 0, cycles=10.0), FitObservation(0, 1, cycles=10.0)]
        with pytest.raises(FitError, match=r"unidentifiable.*'a'"):
            fit(template, obs)

    def test_underdetermined_rejected(self, rome):
        with pytest.raises(FitError, match="observations"):
            fit(switch_hop_template(rome.graph, "ram_hops"),
                [FitObservation(0, 0, cycles=1.0)])

    def test_synthetic_round_trip(self, rome):
        rng = np.random.default_rng(5)
        g = rome.graph
        doc = json.loads(fixture_path("rome_2s.json").read_text())
        template = hop_cost_template(g, fabric(doc))
        pairs = [(i, j) for i in range(8) for j in range(8)]
        for _ in range(10):
            base = float(rng.uniform(150, 300))
            c_sw = float(rng.uniform(1.0, 5.0))
            c_x = float(rng.uniform(10.0, 80.0))
            truth = {"base_cycles": base, "if_switch_ns": c_sw, "xgmi_ns": c_x}
            obs = []
            for i, j in pairs:
                o = FitObservation(g.first_core_of_node(i), j, cycles=0.0)
                cycles = sum(truth[t.name] * t.coeff(o) for t in template.terms)
                obs.append(FitObservation(o.requester, o.home, cycles=cycles))
            result = fit(template, obs)
            for name, value in truth.items():
                assert abs(result.params[name] - value) <= 1e-6 * abs(value)

    def test_linearity_finite_difference(self, rome):
        # predict is affine in each link cost: the finite-difference slope
        # equals the analytic coefficient.
        g = rome.graph
        obs = FitObservation(0, 3, cycles=0.0)
        template = switch_hop_template(g, "ram_hops")
        coeff = template.terms[1].coeff(obs)
        base = {"base_ram_cycles": 220.0, "if_switch_ns": 2.0}
        bumped = {"base_ram_cycles": 220.0, "if_switch_ns": 3.0}

        def predict(params):
            return sum(params[t.name] * t.coeff(obs) for t in template.terms)

        assert predict(bumped) - predict(base) == coeff

    def test_fit_report_discloses_ridge_and_residuals(self, rome):
        obs = [
            FitObservation(0, h, cycles=c)
            for h, c in ((0, 220.0), (1, 230.0), (2, 248.0), (3, 255.0))
        ]
        result = fit(switch_hop_template(rome.graph, "ram_hops"), obs)
        text = result.report()
        assert "if_switch_ns" in text
        assert "residual" in text
        assert not result.ridge_used


class TestCompare:
    def test_model_vs_itself_has_zero_error(self, rome):
        obs = []
        for home in range(4):
            obs.append(
                FitObservation(
                    0, home, cycles=rome.predict(0, home, None, "I", "RAM"),
                    state="I", level="RAM",
                )
            )
        report = compare(rome, obs)
        assert report.max_abs == 0.0
        assert report.ordering_consistent

    def test_intersocket_classes_from_anchor_fit(self, rome):
        g = rome.graph
        anchors = []
        with open(fixture_path("fig9a_rome_anchors.csv"), newline="") as fh:
            for row in csv.DictReader(fh):
                anchors.append(
                    FitObservation(
                        requester=g.first_core_of_node(int(row["requester_node"])),
                        home=int(row["home_node"]),
                        cycles=float(row["cycles"]),
                    )
                )
        result = fit(switch_hop_template(g, "remote_socket"), anchors)
        preds = {
            (i, j): result.predict_observation(
                FitObservation(g.first_core_of_node(i), j, cycles=0.0)
            )
            for i in range(4)
            for j in range(4, 8)
        }
        classes = classify_values(preds, tolerance=1.0)
        assert set(classes[0][1]) == {(0, 6), (2, 4)}
        assert 406 <= classes[0][0] <= 408
        assert set(classes[-1][1]) == {(1, 5), (3, 7)}
        assert 430 <= classes[-1][0] <= 440

    def test_clx_remote_snc_delta_is_ten_ns(self, clx):
        near = clx.predict(0, 2, None, "I", "RAM")
        far = clx.predict(0, 3, None, "I", "RAM")
        delta_ns = (far - near) * 1000.0 / clx.core_mhz
        assert delta_ns == pytest.approx(10.0)

    def test_argmin_invariant_under_cost_scaling(self, rome):
        # Uniform scaling of all link costs keeps the fastest pair fastest.
        g = rome.graph
        template = switch_hop_template(g, "remote_socket")
        pairs = [(i, j) for i in range(4) for j in range(4, 8)]

        def argmin_for(scale):
            params = {"base_remote_cycles": 378.0, "if_switch_ns": 2.4 * scale}
            vals = {}
            for i, j in pairs:
                o = FitObservation(g.first_core_of_node(i), j, cycles=0.0)
                vals[(i, j)] = sum(params[t.name] * t.coeff(o) for t in template.terms)
            best = min(vals.values())
            return {k for k, v in vals.items() if v == best}

        assert argmin_for(1.0) == argmin_for(4.0) == {(0, 6), (2, 4)}
