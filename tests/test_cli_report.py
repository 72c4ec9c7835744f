"""Result persistence, plot emission, and the command-line front end."""

import argparse
import csv
import dataclasses
import io
import json
import os
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memchar import cli
from memchar.backends import BackendError, ScriptPlacementError, SimulatedBackend
from memchar.bandwidth import BandwidthError, BandwidthRecord, TriadVerificationError
from memchar.chain import generate_chain
from memchar.cli import CliError, main
from memchar.coherence import plan_state
from memchar.harness import ENV_VARS, MeasurementPolicy, measure_latency
from memchar.model import load_fixture_model
from memchar.native import PinningError
from memchar.plots import PlotError, build_plot_data, emit_plot
from memchar.results import (
    BANDWIDTH_COLUMNS,
    LATENCY_COLUMNS,
    ResultError,
    ResultSet,
    RunManifest,
)
from memchar.topology import Placement, TopologyError, enumerate_placements, fixture_path

ONE = MeasurementPolicy(inner_repeats=1, outer_repeats=1, sizes_per_level=1)
# Text fields csv.writer must quote, and the empty field.
_AWKWARD = st.lists(st.sampled_from([",", '"', "\r\n", "\n", "a", " "]), max_size=5).map("".join)


@pytest.fixture(scope="module")
def rome_records():
    model = load_fixture_model("rome_2s")
    be = SimulatedBackend(model)
    chain = generate_chain(16 * 1024, 512, seed=3)
    records = []
    for placement in enumerate_placements(model.graph, "all_pairs")[:8]:
        script = plan_state(
            "M", "MOESI", owner=placement.owner, requester=placement.requester, level="L2"
        )
        local = placement.requester == placement.owner
        p = placement if not local else Placement(
            placement.requester, placement.owner, placement.home_node, label="local"
        )
        records.append(measure_latency([chain], script, p, ONE, be))
    return records


def _awkward_result_sets(records, texts):
    """A latency and a bandwidth result set whose text fields are ``texts``:
    (label, backend, reducer) per record."""
    latency = [
        dataclasses.replace(
            r, backend=backend, reducer=reducer,
            placement=dataclasses.replace(r.placement, label=label),
        )
        for r, (label, backend, reducer) in zip(records, texts)
    ]
    bandwidth = [
        BandwidthRecord.from_rate("read256", 16384, (0, 1), "L1", 128.0, 2000.0, backend)
        for _, backend, _ in texts
    ]
    return ResultSet(latency), ResultSet(bandwidth)


def _written_like_csv_writer(rs, path) -> bool:
    rs.to_csv(path)
    cols, row = (
        (BANDWIDTH_COLUMNS, ResultSet._bandwidth_row) if rs.kind == "bandwidth"
        else (LATENCY_COLUMNS, ResultSet._latency_row)
    )
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(cols)
    writer.writerows(map(row, rs.records))
    return path.read_bytes() == expected.getvalue().encode()


class TestResultSet:
    def test_csv_round_trip_is_identity(self, rome_records, tmp_path):
        rs = ResultSet(records=list(rome_records))
        path = tmp_path / "r.csv"
        rs.to_csv(path)
        again = ResultSet.from_csv(path)
        assert again.records == rs.records

    def test_joined_floats_equal_per_value_reprs(self):
        from memchar.results import _join_f

        cases = [
            (),
            (7.5,) * 120,
            (0.1, 0.2, 0.1, 1e300, float("inf"), 0.2),
            (0.0, -0.0, 3.0, -0.0, 0.0),
            (float("nan"), 1.0, float("nan")),
        ]
        for values in cases:
            assert _join_f(values) == ";".join(repr(float(v)) for v in values)

    def test_joined_floats_keep_zero_signs_apart(self):
        from memchar.results import _join_f

        assert _join_f((0.0,) * 3) == "0.0;0.0;0.0"
        assert _join_f((-0.0,) * 3) == "-0.0;-0.0;-0.0"
        assert _join_f((0.0, -0.0, -0.0, 0.0)) == "0.0;-0.0;-0.0;0.0"
        assert _join_f((-0.0, 2.5, 0.0)) == "-0.0;2.5;0.0"

    @settings(max_examples=80, deadline=None)
    @given(texts=st.lists(st.tuples(_AWKWARD, _AWKWARD, _AWKWARD), min_size=1, max_size=5))
    def test_csv_bytes_equal_csv_writer_bytes(self, rome_records, tmp_path_factory, texts):
        path = tmp_path_factory.mktemp("csv") / "r.csv"
        for rs in _awkward_result_sets(rome_records, texts):
            assert _written_like_csv_writer(rs, path)
            assert ResultSet.from_csv(path).records == rs.records

    def test_lone_carriage_return_is_written_like_csv_writer(self, rome_records, tmp_path):
        # csv.writer leaves a lone \r unquoted and csv.reader reads it as a
        # line end, so these files are not read back.
        for rs in _awkward_result_sets(rome_records, [("\r", "a\rb", "\r,")]):
            assert _written_like_csv_writer(rs, tmp_path / "r.csv")

    def test_schema_header_is_fixed(self, rome_records, tmp_path):
        rs = ResultSet(records=list(rome_records))
        path = tmp_path / "r.csv"
        rs.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == ",".join(LATENCY_COLUMNS)

    def test_bandwidth_round_trip(self, tmp_path):
        rec = BandwidthRecord.from_rate(
            "read256", 16384, (0, 1), "L1", 128.0, 2000.0, "simulated"
        )
        rs = ResultSet(records=[rec])
        path = tmp_path / "b.csv"
        rs.to_csv(path)
        assert ResultSet.from_csv(path).records == [rec]

    def test_unknown_schema_rejected(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ResultError, match="schema"):
            ResultSet.from_csv(p)

    def test_manifest_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MEMCHAR_ALIGNMENT", "1024")
        monkeypatch.delenv("MEMCHAR_HUGEPAGES", raising=False)
        m = RunManifest.record([
            "latency", "--topology", "rome_2s", "--scope", "same_ccx", "--seed", "9",
            "--outer", "2",
        ])
        assert m.command == "latency"
        assert m.environment["MEMCHAR_ALIGNMENT"] == "1024"
        assert m.environment["MEMCHAR_HUGEPAGES"] is None
        p = tmp_path / "manifest.json"
        m.save(p)
        assert RunManifest.load(p) == m

    def test_manifest_command_validated(self, tmp_path):
        # The parser owns the subcommand names: a manifest of any command
        # loads, and replay refuses one it cannot re-run.
        path = tmp_path / "manifest.json"
        RunManifest(["destroy", "--topology", "x"], dict.fromkeys(ENV_VARS)).save(path)
        with pytest.raises(ResultError, match="'destroy' cannot be replayed"):
            cli.cmd_replay(argparse.Namespace(manifest=str(path), out=None))


class TestPlots:
    def test_single_record_single_cell(self, rome_records, tmp_path):
        svg, txt = emit_plot(
            rome_records[:1], "heatmap", tmp_path / "one", x="home", y="requester"
        )
        data = txt.read_text()
        assert str(rome_records[0].latency_cycles) in data
        ET.parse(svg)  # well-formed XML

    def test_plot_data_contains_exactly_plotted_numbers(self, rome_records, tmp_path):
        data = build_plot_data(rome_records, "heatmap", x="home", y="requester")
        source_numbers = {r.latency_cycles for r in rome_records}
        source_numbers |= {r.min_cycles for r in rome_records}
        source_numbers |= {r.max_cycles for r in rome_records}
        grids = [data.values, data.lows or [], data.highs or []]
        for v in (v for grid in grids for row in grid for v in row):
            assert v in source_numbers

    def test_heatmap_has_per_cell_annotations(self, rome_records, tmp_path):
        svg, txt = emit_plot(
            rome_records, "heatmap", tmp_path / "hm", x="home", y="requester"
        )
        text = svg.read_text()
        for r in rome_records:
            assert f">{r.latency_cycles:g}<" in text

    def test_grouped_bars_draw_error_bars(self, rome_records, tmp_path):
        svg, txt = emit_plot(
            rome_records, "grouped_bars", tmp_path / "bars",
            x="home", y="state", value="latency_cycles",
        )
        content = svg.read_text()
        assert "<line" in content
        assert "error bars" in txt.read_text()

    def test_mismatched_axes_rejected(self, rome_records):
        import dataclasses

        # Two requester rows but a hole in the grid: (16, home=1) missing.
        moved = dataclasses.replace(
            rome_records[2],
            placement=dataclasses.replace(rome_records[2].placement, requester=16),
        )
        with pytest.raises(PlotError, match="mismatched"):
            build_plot_data(
                [rome_records[0], rome_records[1], moved], "heatmap",
                x="home", y="requester",
            )

    def test_mixed_record_types_rejected(self, rome_records):
        bw = BandwidthRecord.from_rate(
            "read256", 16384, (0,), "L1", 128.0, 2000.0, "simulated"
        )
        with pytest.raises(PlotError, match="mixed"):
            build_plot_data([rome_records[0], bw], "heatmap", x="home", y="requester")

    def test_unknown_kind_rejected(self, rome_records, tmp_path):
        with pytest.raises(PlotError, match="kind"):
            emit_plot(rome_records, "pie", tmp_path / "p", x="home", y="requester")


class TestCli:
    def test_topo_summary(self, capsys):
        assert main(["topo", "--topology", "rome_2s"]) == 0
        out = capsys.readouterr().out
        assert "cores: 128" in out
        assert "placements[same_ccx]: 16" in out

    def test_latency_same_ccx_writes_16_rows(self, tmp_path, capsys):
        code = main([
            "latency", "--topology", "rome_2s", "--backend", "sim",
            "--scope", "same_ccx", "--state", "M", "--level", "L2",
            "--outer", "2", "--inner", "1", "--sizes", "2",
            "--out", str(tmp_path / "run"),
        ])
        assert code == 0
        rs = ResultSet.from_csv(tmp_path / "run" / "results.csv")
        assert len(rs.records) == 16
        assert (tmp_path / "run" / "manifest.json").exists()

    def test_clx_shared_l3_all_pairs_matches_model(self, tmp_path):
        # MESIF S@L3 with the helper in the owner's L3 domain.
        code = main([
            "latency", "--topology", "clx_2s", "--backend", "sim",
            "--scope", "all_pairs", "--state", "S", "--level", "L3",
            "--out", str(tmp_path / "run"),
        ])
        assert code == 0
        rs = ResultSet.from_csv(tmp_path / "run" / "results.csv")
        assert len(rs.records) == 16
        be = SimulatedBackend(load_fixture_model("clx_2s"))
        for r in rs.records:
            assert r.latency_cycles == be.predict_placement(r.placement, "S", "L3")

    def test_sim_sweep_never_builds_successor_tables(self, tmp_path, monkeypatch):
        import memchar.chain

        def no_shuffle(n, seed):
            raise AssertionError("the simulated backend built a successor table")

        monkeypatch.setattr(memchar.chain, "_sattolo", no_shuffle)
        code = main([
            "latency", "--topology", "rome_2s", "--backend", "sim",
            "--scope", "intra_socket", "--state", "M", "--level", "RAM",
            "--out", str(tmp_path / "run"),
        ])
        assert code == 0
        rs = ResultSet.from_csv(tmp_path / "run" / "results.csv")
        assert len(rs.records) == len(
            enumerate_placements(load_fixture_model("rome_2s").graph, "intra_socket")
        )

    def test_config_error_leaves_no_partial_files(self, tmp_path, capsys):
        out = tmp_path / "bad"
        code = main([
            "latency", "--topology", "clx_2s", "--backend", "sim",
            "--scope", "same_ccx", "--state", "M", "--level", "L2",
            "--out", str(out),
        ])
        assert code == 2
        assert not (out / "results.csv").exists()
        code = main([
            "latency", "--topology", "rome_2s", "--scope", "local", "--level", "L1",
            "--sizes", "5", "--out", str(out),
        ])
        assert code == 2
        assert "at most 4 dataset sizes per level" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    def test_failing_point_stops_the_sweep_without_output(self, tmp_path, monkeypatch, capsys):
        prepare = SimulatedBackend.prepare
        calls = []

        def failing_third(self, script, placement):
            calls.append(placement)
            if len(calls) == 3:
                raise ScriptPlacementError("state preparation failed: planted")
            return prepare(self, script, placement)

        monkeypatch.setattr(SimulatedBackend, "prepare", failing_third)
        out = tmp_path / "run"
        code = main([
            "latency", "--topology", "rome_2s", "--backend", "sim",
            "--scope", "same_ccx", "--state", "M", "--level", "L2", "--out", str(out),
        ])
        assert code == 4
        assert len(calls) == 3
        assert "state preparation failed: planted" in capsys.readouterr().err
        assert not (out / "results.csv").exists()
        assert not (out / "manifest.json").exists()

    def test_one_parser_and_no_state_between_calls(self, tmp_path, monkeypatch):
        import memchar.cli

        built = []
        build = memchar.cli.build_parser
        monkeypatch.setattr(memchar.cli, "_PARSER", None)
        monkeypatch.setattr(memchar.cli, "build_parser", lambda: built.append(1) or build())
        base = ["latency", "--topology", "rome_2s", "--scope", "same_ccx", "--level", "L2",
                "--outer", "1", "--inner", "1", "--sizes", "1"]
        assert main(base + ["--reducer", "max", "--out", str(tmp_path / "a")]) == 0
        assert main(base + ["--out", str(tmp_path / "b")]) == 0
        assert built == [1]
        reducers = [
            {r.reducer for r in ResultSet.from_csv(tmp_path / run / "results.csv").records}
            for run in "ab"
        ]
        assert reducers == [{"max"}, {"min"}]

    def test_unknown_topology_is_config_error(self, tmp_path):
        assert main(["topo", "--topology", "no_such_system"]) == 2

    @pytest.mark.parametrize("argv", [
        ["latency", "--model", "rome_2s_latency_model", "--level", "L2"],
        ["bandwidth", "--level", "L1"],
        ["bandwidth", "--bytes", "4096"],
    ], ids=["latency", "bandwidth-level", "bandwidth-bytes"])
    def test_topology_without_cache_sizes_is_config_error(self, argv, tmp_path, capsys):
        doc = json.loads(fixture_path("rome_2s.json").read_text())
        del doc["caches"]
        topo = tmp_path / "no_caches.json"
        topo.write_text(json.dumps(doc))
        assert main(argv + ["--topology", str(topo), "--out", str(tmp_path / "run")]) == 2
        assert "lacks cache size" in capsys.readouterr().err

    def test_report_unknown_field_is_config_error(self, rome_records, tmp_path, capsys):
        ResultSet(records=list(rome_records)).to_csv(tmp_path / "r.csv")
        code = main(["report", "--input", str(tmp_path / "r.csv"), "--x", "nosuchfield",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "nosuchfield" in capsys.readouterr().err

    def test_bad_alignment_variable_is_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MEMCHAR_ALIGNMENT", "abc")
        code = main(["latency", "--topology", "rome_2s", "--scope", "local", "--level", "L1",
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert "MEMCHAR_ALIGNMENT='abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("header, missing", [
        ("source_class,cycles", "level"),
        ("requester_node,cycles", "home_node"),
        ("a,b", "level, source_class, cycles"),
    ])
    def test_fit_input_without_its_columns_is_config_error(self, header, missing, tmp_path,
                                                           capsys):
        path = tmp_path / "fit.csv"
        path.write_text(header + "\n" + ",".join("1" for _ in header.split(",")) + "\n")
        code = main(["model-fit", "--topology", "rome_2s", "--input", str(path),
                     "--out", str(tmp_path / "fit")])
        assert code == 2
        assert f"lacks column(s) {missing}" in capsys.readouterr().err

    @pytest.mark.parametrize("text, where", [
        ("level,source_class,cycles\nRAM,local,abc\n", "line 2, column cycles: 'abc'"),
        ("requester_node,home_node,cycles\n0,1,300\n0,x,310\n", "line 3, column home_node: 'x'"),
        ("requester_node,home_node,cycles\n1.5,0,300\n", "line 2, column requester_node: '1.5'"),
        ("requester_node,home_node,cycles\n0,1\n", "line 2, column cycles: None"),
    ], ids=["table-cycles", "anchor-home", "anchor-requester", "anchor-short-row"])
    def test_fit_input_cell_that_is_not_a_number_is_config_error(self, text, where, tmp_path,
                                                                 capsys):
        path = tmp_path / "fit.csv"
        path.write_text(text)
        code = main(["model-fit", "--topology", "rome_2s", "--input", str(path),
                     "--out", str(tmp_path / "fit")])
        assert code == 2
        assert f"{where} is not a number" in capsys.readouterr().err
        assert not (tmp_path / "fit").exists()

    def test_model_predict_rejects_an_unknown_state_or_level(self, capsys):
        for option, value in (("--state", "X"), ("--level", "L4")):
            with pytest.raises(SystemExit) as exc:
                main(["model-predict", "--topology", "rome_2s", "--requester", "0",
                      "--home", "1", option, value])
            assert exc.value.code == 2
            assert f"argument {option}: invalid choice: '{value}'" in capsys.readouterr().err

    FAILURES = [
        (TriadVerificationError(3, 9.0, 8.0), 5, "verification failure: "),
        (PinningError("core 9"), 3, "pinning/affinity error: "),
        (CliError("bad", 4), 4, "error: "),
        (TopologyError("t"), 2, "config error: "),
        (BandwidthError("b"), 2, "config error: "),
        (ResultError("r"), 2, "config error: "),
        (BackendError("be"), 4, "backend error: "),
        (ScriptPlacementError("sp"), 4, "backend error: "),
        (PermissionError("perm"), 3, "pinning/affinity error: "),
        (OSError("os"), 4, "backend error: "),
    ]

    @pytest.mark.parametrize("exc, code, prefix", FAILURES,
                             ids=[type(exc).__name__ for exc, _, _ in FAILURES])
    def test_exit_code_of_each_failure(self, exc, code, prefix, monkeypatch, capsys):
        def fail(args, argv):
            raise exc

        monkeypatch.setattr(cli, "_run", fail)
        assert main(["topo", "--topology", "rome_2s"]) == code
        assert capsys.readouterr().err == f"{prefix}{exc}\n"

    @pytest.mark.parametrize("argv", [["report"], ["model-fit", "--topology", "rome_2s"]],
                             ids=["report", "model-fit"])
    def test_missing_input_file_is_config_error(self, argv, tmp_path, capsys):
        code = main(argv + ["--input", str(tmp_path / "absent.csv"), "--out", str(tmp_path)])
        assert code == 2
        assert "no such input file" in capsys.readouterr().err

    def test_non_positive_bandwidth_repeats_is_config_error(self, tmp_path, capsys):
        code = main(["bandwidth", "--topology", "rome_2s", "--level", "L1", "--outer", "-2",
                     "--out", str(tmp_path / "bw")])
        assert code == 2
        assert "repeats must be positive" in capsys.readouterr().err
        assert not (tmp_path / "bw" / "bandwidth.csv").exists()

    def test_replay_reproduces_csv_byte_identical(self, tmp_path):
        first = tmp_path / "a"
        again = tmp_path / "b"
        args = [
            "latency", "--topology", "rome_2s", "--backend", "sim",
            "--scope", "intra_socket", "--state", "O", "--level", "L3",
            "--outer", "2", "--inner", "2", "--sizes", "2", "--seed", "7",
            "--out", str(first),
        ]
        assert main(args) == 0
        assert main(["replay", "--manifest", str(first / "manifest.json"),
                     "--out", str(again)]) == 0
        assert (first / "results.csv").read_bytes() == (again / "results.csv").read_bytes()

    def test_replay_keeps_the_operator_frequency(self, tmp_path, monkeypatch):
        import memchar.cli

        first = tmp_path / "a"
        assert main([
            "latency", "--topology", "rome_2s", "--backend", "sim",
            "--scope", "local", "--state", "M", "--level", "L1",
            "--freq", "2250", "--out", str(first),
        ]) == 0
        replayed = []
        latency = memchar.cli.cmd_latency
        # A parser built after the patch dispatches to the capturing command.
        monkeypatch.setattr(memchar.cli, "_PARSER", None)
        monkeypatch.setattr(memchar.cli, "cmd_latency",
                            lambda ns: replayed.append(ns) or latency(ns))
        assert main(["replay", "--manifest", str(first / "manifest.json"),
                     "--out", str(tmp_path / "b")]) == 0
        assert [ns.freq for ns in replayed] == [2250.0]

    def test_replay_runs_under_the_recorded_environment(self, tmp_path, monkeypatch):
        first, again = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("MEMCHAR_HUGEPAGES", "0")
        monkeypatch.setenv("MEMCHAR_ALIGNMENT", "1024")
        assert main([
            "latency", "--topology", "rome_2s", "--scope", "same_ccx", "--level", "L3",
            "--outer", "1", "--inner", "1", "--sizes", "2", "--out", str(first),
        ]) == 0
        monkeypatch.delenv("MEMCHAR_HUGEPAGES")
        monkeypatch.delenv("MEMCHAR_ALIGNMENT")
        assert main(["replay", "--manifest", str(first / "manifest.json"),
                     "--out", str(again)]) == 0
        records = ResultSet.from_csv(first / "results.csv").records
        assert {(r.huge_pages, r.alignment) for r in records} == {(False, 1024)}
        assert (first / "results.csv").read_bytes() == (again / "results.csv").read_bytes()
        assert "MEMCHAR_HUGEPAGES" not in os.environ
        assert "MEMCHAR_ALIGNMENT" not in os.environ

    @pytest.mark.parametrize("argv", [
        ["bandwidth", "--topology", "clx_2s", "--kernel", "read512", "--cores", "0,1",
         "--level", "L1"],
        ["triad", "--topology", "rome_2s", "--cores", "0,4", "--bytes", str(1 << 20),
         "--no-nt"],
    ], ids=["bandwidth-L1", "triad-no-nt"])
    def test_bandwidth_replay_is_byte_identical(self, argv, tmp_path):
        first, again = tmp_path / "a", tmp_path / "b"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(["replay", "--manifest", str(first / "manifest.json"),
                     "--out", str(again)]) == 0
        assert (first / "bandwidth.csv").read_bytes() == (again / "bandwidth.csv").read_bytes()

    def test_replay_without_out_rewrites_the_recorded_directory(self, tmp_path):
        run = tmp_path / "run"
        argv = ["triad", "--topology", "rome_2s", "--bytes", str(1 << 20), "--out", str(run)]
        assert main(argv) == 0
        before = (run / "bandwidth.csv").read_bytes()
        (run / "bandwidth.csv").unlink()
        assert main(["replay", "--manifest", str(run / "manifest.json")]) == 0
        assert (run / "bandwidth.csv").read_bytes() == before
        assert RunManifest.load(run / "manifest.json").argv == argv

    OLD_MANIFEST = {
        "command": "latency", "topology": "rome_2s", "backend": "sim", "out_dir": "x",
        "model": None, "seed": 0, "scope": "same_ccx", "state": "M", "level": "L2",
        "alignment": 512, "huge_pages": True, "policy": {}, "args": {},
        "schema_version": 1,
    }
    UNSET = dict.fromkeys(ENV_VARS)

    @pytest.mark.parametrize("text", [
        "{not json",
        "[]",
        json.dumps({"argv": ["latency", "--topology", "rome_2s"]}),
        json.dumps({"argv": ["triad"], "environment": UNSET, "extra": 1}),
        json.dumps(OLD_MANIFEST),
        json.dumps({"argv": "latency --topology rome_2s", "environment": UNSET}),
        json.dumps({"argv": [], "environment": UNSET}),
        json.dumps({"argv": ["latency", 7], "environment": UNSET}),
        json.dumps({"argv": ["destroy"], "environment": UNSET}),
        json.dumps({"argv": ["triad", "--bytes", "64", "--bogus"], "environment": UNSET}),
        json.dumps({"argv": ["triad", "--topology", "rome_2s", "--bytes", "64"],
                    "environment": {"MEMCHAR_HUGEPAGES": "0"}}),
        None,
    ], ids=["invalid-json", "not-an-object", "missing-key", "unknown-key", "pre-argv-format",
            "argv-string", "argv-empty", "argv-non-string", "unknown-command",
            "argv-does-not-parse", "environment-incomplete", "no-file"])
    def test_malformed_manifest_is_config_error(self, text, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        if text is not None:
            path.write_text(text)
        assert main(["replay", "--manifest", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_only_measurement_manifests_replay(self, tmp_path, capsys):
        from memchar.topology import fixture_path

        run = tmp_path / "fit"
        assert main(["model-fit", "--topology", "rome_2s",
                     "--input", str(fixture_path("table2_rome.csv")), "--out", str(run)]) == 0
        assert RunManifest.load(run / "manifest.json").command == "model-fit"
        assert main(["replay", "--manifest", str(run / "manifest.json")]) == 2
        assert "cannot be replayed" in capsys.readouterr().err

    def test_bandwidth_cli(self, tmp_path):
        code = main([
            "bandwidth", "--topology", "rome_2s", "--kernel", "read256",
            "--cores", "0", "--level", "L1", "--out", str(tmp_path / "bw"),
        ])
        assert code == 0
        rs = ResultSet.from_csv(tmp_path / "bw" / "bandwidth.csv")
        assert len(rs.records) == 4  # the four ladder sizes
        assert rs.records[1].bytes_per_cycle == 64.0

    def test_triad_cli(self, tmp_path):
        code = main([
            "triad", "--topology", "rome_2s", "--cores", "0,4,8,12",
            "--bytes", str(8 << 20), "--out", str(tmp_path / "triad"),
        ])
        assert code == 0
        rs = ResultSet.from_csv(tmp_path / "triad" / "bandwidth.csv")
        assert rs.records[0].bandwidth_gbps == 42.9

    def test_model_fit_cli(self, tmp_path):
        from memchar.topology import fixture_path

        code = main([
            "model-fit", "--topology", "rome_2s",
            "--input", str(fixture_path("table2_rome.csv")),
            "--template", "ram_hops", "--out", str(tmp_path / "fit"),
        ])
        assert code == 0
        params = json.loads((tmp_path / "fit" / "fitted_params.json").read_text())
        assert 2.0 <= params["if_switch_ns"] <= 2.5
        assert (tmp_path / "fit" / "residuals.txt").read_text().startswith("fit template")

    def test_model_predict_cli(self, capsys):
        code = main([
            "model-predict", "--topology", "rome_2s",
            "--requester", "0", "--home", "1", "--forwarder", "16",
            "--state", "M", "--level", "L2",
        ])
        assert code == 0
        assert "263.0 cycles" in capsys.readouterr().out

    def test_report_cli(self, tmp_path):
        run = tmp_path / "run"
        main([
            "latency", "--topology", "rome_2s", "--backend", "sim",
            "--scope", "all_pairs", "--state", "M", "--level", "RAM",
            "--outer", "1", "--inner", "1", "--sizes", "1",
            "--out", str(run),
        ])
        code = main([
            "report", "--input", str(run / "results.csv"),
            "--kind", "heatmap", "--x", "home", "--y", "requester",
            "--name", "fig", "--out", str(run),
        ])
        assert code == 0
        assert (run / "fig.svg").exists()
        assert (run / "fig.txt").exists()

    def test_triples_cli_matches_request_flow_matrix(self, tmp_path):
        code = main([
            "latency", "--topology", "rome_2s", "--backend", "sim",
            "--triples", "--state", "M", "--level", "L2",
            "--outer", "1", "--inner", "1", "--sizes", "1",
            "--out", str(tmp_path / "t"),
        ])
        assert code == 0
        rs = ResultSet.from_csv(tmp_path / "t" / "results.csv")
        assert len(rs.records) == 16
        by_pair = {
            (r.placement.home_node, r.placement.forwarder_node): r.latency_cycles
            for r in rs.records
        }
        assert by_pair[(1, 2)] == by_pair[(1, 3)] == 323.0
        assert by_pair[(1, 1)] == 263.0
