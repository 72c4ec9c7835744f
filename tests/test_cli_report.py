"""Result persistence, plot emission, and the command-line front end."""

import argparse
import contextlib
import csv
import dataclasses
import io
import itertools
import json
import os
import shutil
import stat
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memchar import cli, harness
from memchar.backends import BackendError, ScriptPlacementError, SimulatedBackend
from memchar.bandwidth import BandwidthError, BandwidthRecord, TriadVerificationError
from memchar.chain import chain_spec, generate_chain
from memchar.cli import CliError, main
from memchar.coherence import LEVELS, CoherenceState, plan_state
from memchar.harness import MeasurementPolicy, level_dataset_bytes, measure_latency, measure_sweep
from memchar.model import load_fixture_model
from memchar.native import PinningError
from memchar.plots import PlotError, build_plot_data, emit_plot
from memchar.results import (
    BANDWIDTH_COLUMNS,
    LATENCY_COLUMNS,
    ResultError,
    ResultSet,
    RunManifest,
    write_output,
)
from memchar.topology import (
    Placement, PlacementScope, TopologyError, enumerate_placements, fixture_path,
)
from oracles import ReplayBackend, latency_csv_fields, protocol_states

ONE = MeasurementPolicy(inner_repeats=1, outer_repeats=1, sizes_per_level=1)
# Text fields csv.writer must quote, and the empty field.
_AWKWARD = st.lists(st.sampled_from([",", '"', "\r\n", "\n", "a", " "]), max_size=5).map("".join)

# Sample rows: one value repeated, among them values whose reprs are easy to
# get wrong, or any floats.
_ROW_VALUES = st.sampled_from([0.0, -0.0, float("nan"), float("inf"), 5e-324, 220.0])
_SAMPLE_ROWS = st.one_of(
    st.builds(lambda v, n: (v,) * n, _ROW_VALUES, st.integers(1, 130)),
    st.lists(st.one_of(_ROW_VALUES, st.floats()), min_size=1, max_size=130).map(tuple),
)


_MODEL_DOC = fixture_path("rome_2s_latency_model.json").read_text()


def _write_utf8_inputs(directory: Path) -> None:
    """Write a file for each reader of outside text into ``directory``:
    ``results.csv``, a fit input ``fit.csv``, a latency model
    ``model.json`` and ``manifest.json``, each valid UTF-8 holding one
    non-ASCII ``é``."""
    point = (plan_state("M", "MOESI", owner=0, requester=0), Placement(0, 0, 0, label="café"))
    records = measure_sweep([chain_spec(64, 64)], [point], ONE,
                            ReplayBackend(np.full((1, 1, 1, 1), 5.0)))
    ResultSet(records).to_csv(directory / "results.csv")
    (directory / "fit.csv").write_text("requester_node,home_node,cycles,note\n0,1,300,café\n",
                                       encoding="utf-8")
    model = {**json.loads(_MODEL_DOC), "comment": "café"}
    (directory / "model.json").write_text(json.dumps(model, ensure_ascii=False),
                                          encoding="utf-8")
    manifest = {"argv": ["latency", "--out", "café"]}
    (directory / "manifest.json").write_text(json.dumps(manifest, ensure_ascii=False),
                                             encoding="utf-8")


# model-predict on a --model file, for the readers of model documents.
PREDICT = ["model-predict", "--topology", "rome_2s", "--model", "{file}", "--requester", "0",
           "--home", "1", "--state", "M", "--level", "L1"]


def _argv(argv, file, out) -> list:
    return [{"{file}": str(file), "{out}": str(out)}.get(a, a) for a in argv]


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


@pytest.fixture(scope="module")
def sweep_records():
    """One simulated ``measure_sweep`` at the default policy: 120 samples a
    row, one samples tuple per distinct value, local and remote points."""
    model = load_fixture_model("rome_2s")
    chains = [chain_spec(sz, 512, 7) for sz in level_dataset_bytes(model.graph, "L2")]
    placements = enumerate_placements(model.graph, "all_pairs")[:12]
    placements += enumerate_placements(model.graph, "local")[:4]
    points = cli._latency_points(model.graph, placements, CoherenceState.M, "L2")
    records = measure_sweep(chains, points, MeasurementPolicy(), SimulatedBackend(model))
    values = {r.samples[0] for r in records}
    assert len({id(r.samples) for r in records}) == len(values) > 1
    return records


_ZERO = st.sampled_from([0.0, -0.0])


@st.composite
def _edited_sweep(draw, records):
    """``records`` with some rows edited: a samples tuple equal to the one
    shared but another object, another record's tuple, a non-constant row,
    a constant 0.0 or -0.0 row with each of min, max, median and latency
    either zero, a constant row whose latency is another value, or another
    overhead or frequency (a field the sweep shares); and some labels
    awkward."""
    out = []
    for r in draw(st.lists(st.sampled_from(records), min_size=1, max_size=12)):
        edit = draw(st.integers(0, 6))
        if edit == 1:
            r = dataclasses.replace(r, samples=tuple(list(r.samples)))
        elif edit == 2 and out:
            r = dataclasses.replace(r, samples=draw(st.sampled_from(out)).samples)
        elif edit == 3:
            r = dataclasses.replace(r, samples=draw(_SAMPLE_ROWS))
        elif edit == 4:
            zeros = {k: draw(_ZERO) for k in ("min_cycles", "max_cycles", "median_cycles",
                                               "latency_cycles")}
            r = dataclasses.replace(r, samples=(draw(_ZERO),) * len(r.samples), **zeros)
        elif edit == 5:
            r = dataclasses.replace(r, latency_cycles=r.latency_cycles + 1.0)
        elif edit == 6:
            field = draw(st.sampled_from(["overhead_cycles", "frequency_mhz"]))
            r = dataclasses.replace(r, **{field: draw(st.sampled_from([0.0, -0.0, 2500.5]))})
        if draw(st.booleans()):
            r = dataclasses.replace(r, placement=dataclasses.replace(r.placement,
                                                                     label=draw(_AWKWARD)))
        out.append(r)
    return out


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


def _csv_writer_bytes(rs) -> bytes:
    """The bytes ``csv.writer`` gives for the header and the records' fields."""
    cols, rows = (
        (BANDWIDTH_COLUMNS, map(ResultSet._bandwidth_row, rs.records))
        if rs.kind == "bandwidth"
        else (LATENCY_COLUMNS, map(latency_csv_fields, rs.records))
    )
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(cols)
    writer.writerows(rows)
    return expected.getvalue().encode()


def _written_like_csv_writer(rs, path) -> bool:
    rs.to_csv(path)
    return path.read_bytes() == _csv_writer_bytes(rs)


def _written_by_open(path, text):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)


class TestWriteOutput:
    """``write_output`` leaves the bytes a truncating text-mode write leaves."""

    CASES = {
        "new-file": (None, "backend,requester\nsim,0\n"),
        "longer-file-before": ("x" * 5000 + "\n", "short\r\n"),
        "shorter-file-before": ("a\n", "a longer line of text\n" * 300),
        "equal-length-other-bytes": ("abcdef\n", "ghijkl\n"),
        "empty-text": ("old contents\n", ""),
        "non-ascii": ("some old text\n", "\u00b5s \u2264 1\n"),
    }

    @pytest.mark.parametrize("before, text", CASES.values(), ids=CASES.keys())
    def test_bytes_equal_a_truncating_write(self, before, text, tmp_path):
        ours, ref = tmp_path / "ours", tmp_path / "ref"
        if before is not None:
            ours.write_bytes(before.encode())
            ref.write_bytes(before.encode())
        write_output(ours, text)
        _written_by_open(ref, text)
        assert ours.read_bytes() == ref.read_bytes() == text.encode("utf-8")

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002, 0o000], ids=oct)
    def test_mode_bits_equal_open_s(self, umask, tmp_path):
        old = os.umask(umask)
        try:
            write_output(tmp_path / "ours", "x\n")
            _written_by_open(tmp_path / "ref", "x\n")
        finally:
            os.umask(old)
        modes = {stat.S_IMODE((tmp_path / n).stat().st_mode) for n in ("ours", "ref")}
        assert modes == {0o666 & ~umask}
        # An existing file keeps its mode.
        (tmp_path / "ours").chmod(0o640)
        write_output(tmp_path / "ours", "longer text\n")
        assert stat.S_IMODE((tmp_path / "ours").stat().st_mode) == 0o640

    def test_writes_through_a_symlink(self, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("the old and longer contents\n")
        link.symlink_to(target)
        write_output(link, "new\n")
        assert link.is_symlink()
        assert target.read_bytes() == b"new\n"
        dangling = tmp_path / "dangling.csv"
        dangling.symlink_to(tmp_path / "created.csv")
        write_output(dangling, "made\n")
        assert (tmp_path / "created.csv").read_bytes() == b"made\n"

    @pytest.mark.parametrize("name, error", [
        ("a-directory", IsADirectoryError), ("absent/out.csv", FileNotFoundError),
    ], ids=["directory", "missing-parent"])
    def test_errors_equal_open_s(self, name, error, tmp_path):
        (tmp_path / "a-directory").mkdir()
        with pytest.raises(error):
            _written_by_open(tmp_path / name, "x")
        with pytest.raises(error):
            write_output(tmp_path / name, "x")


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
    @given(rows=st.lists(_SAMPLE_ROWS, min_size=1, max_size=6))
    def test_sample_rows_write_each_value_s_repr(self, rome_records, tmp_path_factory, rows):
        records = [dataclasses.replace(r, samples=row) for r, row in zip(rome_records, rows)]
        path = tmp_path_factory.mktemp("csv") / "r.csv"
        ResultSet(records).to_csv(path)
        with open(path, newline="") as fh:
            written = [line["samples"] for line in csv.DictReader(fh)]
        assert written == [";".join(map(repr, row)) for row in rows]
        back = ResultSet.from_csv(path).records
        assert [list(map(repr, r.samples)) for r in back] == [list(map(repr, row)) for row in rows]

    def test_sweep_fields_are_each_record_s_own(self, rome_records, tmp_path):
        # Consecutive records whose shared fields differ, 0.0 against -0.0
        # included, or are equal but other objects.
        changes = [
            {},
            {"overhead_cycles": -0.0},
            {"overhead_cycles": 0.0, "frequency_mhz": float("2500.5")},
            {"frequency_mhz": float("2500.5"), "seed": 8, "reducer": "median"},
            {"backend": "other", "state": "E", "level": "L3", "alignment": 64},
            {"dataset_bytes": 4096, "dataset_sizes": (4096,), "huge_pages": False},
            {},
        ]
        records = [dataclasses.replace(r, **c) for r, c in zip(rome_records, changes)]
        path = tmp_path / "r.csv"
        ResultSet(records).to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row, r in zip(rows, records, strict=True):
            assert row["overhead_cycles"] == repr(r.overhead_cycles)
            assert row["freq_mhz"] == repr(r.frequency_mhz)
            assert (row["backend"], row["state"], row["level"], row["reducer"]) == (
                r.backend, r.state, r.level, r.reducer)
            assert (row["bytes"], row["sizes"], row["alignment"], row["huge_pages"],
                    row["seed"]) == (str(r.dataset_bytes), ";".join(map(str, r.dataset_sizes)),
                                     str(r.alignment), "1" if r.huge_pages else "0",
                                     str(r.seed))
        assert ResultSet.from_csv(path).records == records

    @settings(max_examples=80, deadline=None)
    @given(texts=st.lists(st.tuples(_AWKWARD, _AWKWARD, _AWKWARD), min_size=1, max_size=5))
    def test_csv_bytes_equal_csv_writer_bytes(self, rome_records, tmp_path_factory, texts):
        path = tmp_path_factory.mktemp("csv") / "r.csv"
        for rs in _awkward_result_sets(rome_records, texts):
            assert _written_like_csv_writer(rs, path)
            assert ResultSet.from_csv(path).records == rs.records

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_sweep_rows_equal_csv_writer_bytes(self, sweep_records, tmp_path_factory, data):
        records = data.draw(_edited_sweep(sweep_records))
        path = tmp_path_factory.mktemp("csv") / "r.csv"
        rs = ResultSet(records)
        assert _written_like_csv_writer(rs, path)
        assert list(map(repr, ResultSet.from_csv(path).records)) == list(map(repr, records))

    @pytest.mark.parametrize("text", ["\r", "a\rb", "\r,", "x\r\ry"])
    def test_lone_carriage_return_round_trips_or_is_refused(self, rome_records, tmp_path,
                                                           text):
        # csv.writer leaves a lone \r unquoted, and csv.reader reads it as a
        # line end: such a field is quoted, or the file is refused unwritten.
        latency, bandwidth = _awkward_result_sets(rome_records, [(text, text, text)])
        for i, rs in enumerate((latency, bandwidth)):
            path = tmp_path / f"r{i}.csv"
            try:
                rs.to_csv(path)
            except ResultError:
                assert not path.exists()
            else:
                assert ResultSet.from_csv(path).records == rs.records

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

    def test_manifest_round_trip(self, tmp_path):
        argv = [
            "latency", "--topology", "rome_2s", "--scope", "same_ccx", "--seed", "9",
            "--outer", "2", "--alignment", "1024", "--no-huge-pages", "--flush", "",
        ]
        m = RunManifest(argv)
        assert m.command == "latency"
        p = tmp_path / "manifest.json"
        m.save(p)
        # The settings are in the argv; the file holds nothing else.
        assert json.loads(p.read_text()) == {"argv": argv}
        assert RunManifest.load(p) == m

    def test_manifest_command_validated(self, tmp_path):
        # The parser owns the subcommand names: a manifest of any command
        # loads, and replay refuses one it cannot re-run.
        path = tmp_path / "manifest.json"
        RunManifest(["destroy", "--topology", "x"]).save(path)
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

    @pytest.mark.parametrize("topology", ["rome_2s", "clx_2s"])
    def test_every_local_point_reads_core_0s_latency(self, topology, tmp_path):
        # A line the requester holds costs the same on every core: each
        # --scope local record, each diagonal point of the rome_2s same_ccx
        # matrix and each prediction without a forwarder.
        model = load_fixture_model(topology)
        graph = model.graph

        def sweep(scope, state, level):
            out = tmp_path / f"{scope}-{state}-{level}"
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["latency", "--topology", topology, "--scope", scope,
                             "--state", state, "--level", level, "--out", str(out)]) == 0
            return ResultSet.from_csv(out / "results.csv").records

        for state in protocol_states(model.protocol):
            for level in ("L1", "L2", "L3"):
                where = (state.value, level)
                local = {r.placement.requester: r.latency_cycles
                         for r in sweep("local", state.value, level)}
                assert sorted(local) == sorted(graph.cores)
                assert set(local.values()) == {local[0]}, where
                if topology == "rome_2s":
                    diagonal = [r.latency_cycles for r in sweep("same_ccx", state.value, level)
                                if r.placement.requester == r.placement.owner]
                    assert diagonal and set(diagonal) == {local[0]}, where
                predicted = {model.predict(c, graph.node_of_core(c), None, state, level)
                             for c in graph.cores}
                assert predicted == {local[0]}, where

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

    @pytest.mark.parametrize("kind, edit, where", [
        ("latency", lambda row: row[:5], "line 3: 5 fields, the header has 21"),
        ("latency", lambda row: row + ["x"], "line 3: 22 fields, the header has 21"),
        ("latency", lambda row: [row[0], "zero", *row[2:]],
         "line 3, column requester: 'zero' is not a number"),
        ("latency", lambda row: [*row[:8], "1.0;x", *row[9:]],
         "line 3, column samples: '1.0;x' is not a number"),
        ("bandwidth", lambda row: row[:4], "line 3: 4 fields, the header has 12"),
        ("bandwidth", lambda row: row + [""], "line 3: 13 fields, the header has 12"),
        ("bandwidth", lambda row: [*row[:4], "1e3", *row[5:]],
         "line 3, column bytes: '1e3' is not a number"),
        ("bandwidth", lambda row: [*row[:2], "0;a", *row[3:]],
         "line 3, column cores: '0;a' is not a number"),
    ], ids=["latency-short", "latency-long", "latency-requester", "latency-samples",
            "bandwidth-short", "bandwidth-long", "bandwidth-bytes", "bandwidth-cores"])
    def test_malformed_result_row_is_config_error(self, kind, edit, where, rome_records,
                                                  tmp_path, capsys):
        records = list(rome_records[:3]) if kind == "latency" else [
            BandwidthRecord.from_rate("read256", 16384, (0, 1), "L1", 128.0, 2000.0, "sim")
        ] * 3
        path = tmp_path / "r.csv"
        ResultSet(records).to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[2] = edit(rows[2])
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        with pytest.raises(ResultError) as err:
            ResultSet.from_csv(path)
        assert str(err.value) == f"{path}: {where}"
        code = main(["report", "--input", str(path), "--out", str(tmp_path / "fig")])
        assert code == 2
        assert capsys.readouterr().err == f"config error: {path}: {where}\n"

    def test_a_field_past_the_csv_module_s_limit_reads_back(self, tmp_path, capsys):
        # --outer 100 --inner 100 --sizes 4: one field of 40,000 distinct
        # samples, past the csv module's default limit of 131072 characters.
        policy = MeasurementPolicy(outer_repeats=100, inner_repeats=100, sizes_per_level=4)
        elapsed = np.arange(40000.0).reshape(1, 100, 4, 100) + 1000.0
        point = (plan_state("M", "MOESI", owner=0, requester=0), Placement(0, 0, 0, label="local"))
        records = measure_sweep([chain_spec(64, 64)] * 4, [point], policy, ReplayBackend(elapsed))
        assert len(set(records[0].samples)) == 40000
        path = tmp_path / "r.csv"
        ResultSet(records).to_csv(path)
        limit = csv.field_size_limit()
        assert len(path.read_text().splitlines()[1]) > limit
        assert ResultSet.from_csv(path).records == records
        assert csv.field_size_limit() == limit
        assert main(["report", "--input", str(path), "--out", str(tmp_path / "fig")]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("file, argv", [
        ("results.csv", ["report", "--input", "{file}", "--out", "{out}"]),
        ("fit.csv", ["model-fit", "--topology", "rome_2s", "--input", "{file}", "--out", "{out}"]),
        ("model.json", PREDICT),
        ("manifest.json", ["replay", "--manifest", "{file}", "--out", "{out}"]),
    ], ids=["results", "fit-input", "model", "manifest"])
    def test_input_that_is_not_utf8_is_config_error(self, file, argv, tmp_path, capsys):
        _write_utf8_inputs(tmp_path)
        path = tmp_path / file
        path.write_bytes(path.read_bytes().replace("é".encode(), b"\xff\xfe"))
        limit = csv.field_size_limit()
        assert main(_argv(argv, path, tmp_path / "out")) == 2
        assert "'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert csv.field_size_limit() == limit

    def test_readers_decode_utf8_under_an_ascii_locale(self, tmp_path):
        # The C locale with UTF-8 mode and locale coercion off makes open()'s
        # default encoding ASCII.
        _write_utf8_inputs(tmp_path)
        script = (
            "import sys\n"
            "from pathlib import Path\n"
            "from memchar import cli, model, results, topology\n"
            "d = Path(sys.argv[1])\n"
            "g = topology.load_topology_file(topology.fixture_path('rome_2s.json'))\n"
            "print(results.ResultSet.from_csv(d / 'results.csv').records[0].placement.label)\n"
            "print(len(cli._observations_from_csv(d / 'fit.csv', g)))\n"
            "print(model.load_model_file(d / 'model.json', g).protocol.value)\n"
            "print(results.RunManifest.load(d / 'manifest.json').argv[-1])\n"
        )
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
               "PYTHONIOENCODING": "utf-8",
               "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)}
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                              capture_output=True)
        assert done.stderr.decode() == ""
        assert done.stdout.decode() == "café\n1\nMOESI\ncafé\n"

    @pytest.mark.parametrize("file, text, argv, message", [
        ("model.json", _MODEL_DOC[:200], PREDICT, "model.json: not a JSON document"),
        ("model.json", _MODEL_DOC[:200],
         ["latency", "--topology", "rome_2s", "--model", "{file}", "--out", "{out}"],
         "model.json: not a JSON document"),
        ("topo.json", fixture_path("rome_2s.json").read_text()[:200],
         ["topo", "--topology", "{file}"], "topo.json: not a JSON document"),
        ("model.json", "{}", PREDICT, "model document lacks key(s) base_cycles, state_classes"),
        ("topo.json", json.dumps({**json.loads(fixture_path("rome_2s.json").read_text()),
                                  "protocol": "XYZ"}),
         ["topo", "--topology", "{file}"],
         "topology: field 'protocol' must be MOESI or MESIF, got 'XYZ'"),
    ], ids=["truncated-model-predict", "truncated-model-latency", "truncated-topology",
            "model-empty", "topology-protocol"])
    def test_malformed_topology_or_model_file_is_config_error(self, file, text, argv, message,
                                                              tmp_path, capsys):
        path = tmp_path / file
        path.write_text(text)
        assert main(_argv(argv, path, tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err, err
        assert not (tmp_path / "out").exists()

    # (loader, the command that loads it, the fixture whose entry is edited)
    LINK_COST_LOADERS = {
        "model": (PREDICT, "rome_2s_latency_model.json"),
        "topology": (["topo", "--topology", "{file}"], "rome_2s.json"),
    }

    @pytest.mark.parametrize("loader, entry, message", [
        ("model", {"unit": "ns"}, "must be an object with a numeric 'value' and a 'unit'"),
        ("model", {"value": "fast", "unit": "ns"}, "with a numeric 'value'"),
        ("model", {"value": 61.35}, "with a numeric 'value' and a 'unit'"),
        ("model", 61.35, "with a numeric 'value' and a 'unit', got 61.35"),
        ("topology", {"domain": "fclk"}, "must be an object with a numeric 'cycles'"),
        ("topology", {"cycles": "fast", "domain": "fclk"}, "with a numeric 'cycles'"),
        ("topology", {"cycles": None, "domain": "fclk"}, "with a numeric 'cycles'"),
        ("topology", [90.0], "with a numeric 'cycles', got [90.0]"),
    ], ids=["model-no-value", "model-value-not-a-number", "model-no-unit", "model-not-an-object",
            "topology-no-cycles", "topology-cycles-not-a-number", "topology-cycles-null",
            "topology-not-an-object"])
    def test_malformed_link_cost_entry_is_config_error(self, loader, entry, message, tmp_path,
                                                       capsys):
        argv, fixture = self.LINK_COST_LOADERS[loader]
        doc = json.loads(fixture_path(fixture).read_text())
        doc["link_costs"]["if_switch_hop"] = entry
        path = tmp_path / fixture
        path.write_text(json.dumps(doc))
        assert main(_argv(argv, path, tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "entry 'if_switch_hop' " in err, err
        assert message in err, err

    def test_bad_alignment_is_config_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["latency", "--topology", "rome_2s", "--scope", "local", "--level", "L1",
                  "--alignment", "abc", "--out", str(tmp_path / "run")])
        assert exc.value.code == 2
        assert "argument --alignment: invalid int value: 'abc'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("levels", [
        frozenset(c) for n in range(4) for c in itertools.combinations(("L1", "L2", "L3"), n)
    ], ids=lambda levels: ",".join(sorted(levels)) or "none")
    def test_flush_flag_sets_the_policy_s_flush_levels(self, levels, tmp_path, monkeypatch):
        policies = []
        sweep = harness.measure_sweep
        monkeypatch.setattr(harness, "measure_sweep",
                            lambda c, pts, policy, be: policies.append(policy) or sweep(
                                c, pts, policy, be))
        assert main(["latency", "--topology", "rome_2s", "--scope", "local", "--level", "L1",
                     "--flush", ",".join(sorted(levels)), "--out", str(tmp_path / "run")]) == 0
        assert [p.flush_levels for p in policies] == [levels]

    @pytest.mark.parametrize("value, levels", [
        ("L4", "['L4']"), ("L1,RAM", "['L1', 'RAM']"), ("l1", "['l1']"),
        ("L1 L2", "['L1 L2']"),
    ])
    def test_unknown_flush_level_is_config_error(self, value, levels, tmp_path, capsys):
        assert main(["latency", "--topology", "rome_2s", "--flush", value,
                     "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == (
            f"config error: flush levels must be within L1/L2/L3, got {levels}\n"
        )
        assert not (tmp_path / "run").exists()

    RETIRED = [("MEMCHAR_ALIGNMENT", "--alignment"), ("MEMCHAR_HUGEPAGES", "--no-huge-pages"),
               ("MEMCHAR_FLUSH_L1", "--flush"), ("MEMCHAR_FLUSH_L2", "--flush"),
               ("MEMCHAR_FLUSH_L3", "--flush")]

    @pytest.mark.parametrize("variable, flag", RETIRED, ids=[v for v, _ in RETIRED])
    def test_a_retired_variable_is_refused_with_its_flag(self, variable, flag, tmp_path,
                                                         monkeypatch, capsys):
        argv = ["latency", "--topology", "rome_2s", "--scope", "local", "--level", "L1",
                "--out", str(tmp_path / "run")]
        assert main(argv) == 0
        capsys.readouterr()
        # Set, even to the value that once meant the default, it is refused.
        monkeypatch.setenv(variable, "1")
        for command in (argv, ["replay", "--manifest", str(tmp_path / "run" / "manifest.json"),
                               "--out", str(tmp_path / "again")]):
            assert main(command) == 2
            err = capsys.readouterr().err
            assert variable in err and f"pass {flag}" in err, err
        assert not (tmp_path / "again").exists()

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

    def test_simulated_run_does_not_load_the_native_backend(self, tmp_path):
        # A fresh interpreter, since this one has loaded every module.
        script = (
            "import sys\n"
            "from memchar.cli import main\n"
            "code = main(['latency', '--topology', 'rome_2s', '--scope', 'local',\n"
            "             '--level', 'L1', '--outer', '1', '--inner', '1', '--sizes', '1',\n"
            "             '--out', sys.argv[1]])\n"
            "print(code, sorted(m for m in ('memchar.native', 'mmap', 'subprocess')\n"
            "                   if m in sys.modules))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)}
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "run")], env=env,
                              capture_output=True, text=True)
        assert done.stderr == ""
        assert done.stdout.splitlines()[-1] == "0 []"

    @pytest.mark.parametrize("argv", [["report"], ["model-fit", "--topology", "rome_2s"]],
                             ids=["report", "model-fit"])
    def test_missing_input_file_is_config_error(self, argv, tmp_path, capsys):
        code = main(argv + ["--input", str(tmp_path / "absent.csv"), "--out", str(tmp_path)])
        assert code == 2
        assert "no such input file" in capsys.readouterr().err

    def test_non_positive_bandwidth_repeats_is_config_error(self, tmp_path, capsys):
        for outer in ("0", "-2"):
            code = main(["bandwidth", "--topology", "rome_2s", "--level", "L1",
                         "--outer", outer, "--out", str(tmp_path / "bw")])
            assert code == 2
            assert f"repeats must be positive, got {outer}" in capsys.readouterr().err
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

    def test_replay_runs_with_the_recorded_flags(self, tmp_path):
        first, again = tmp_path / "a", tmp_path / "b"
        assert main([
            "latency", "--topology", "rome_2s", "--scope", "same_ccx", "--level", "L3",
            "--outer", "1", "--inner", "1", "--sizes", "2", "--alignment", "1024",
            "--no-huge-pages", "--out", str(first),
        ]) == 0
        with open(first / "results.csv", newline="") as fh:
            cells = {(row["alignment"], row["huge_pages"]) for row in csv.DictReader(fh)}
        assert cells == {("1024", "0")}
        environment = dict(os.environ)
        assert main(["replay", "--manifest", str(first / "manifest.json"),
                     "--out", str(again)]) == 0
        assert (first / "results.csv").read_bytes() == (again / "results.csv").read_bytes()
        assert dict(os.environ) == environment

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
    # What an older memchar wrote: the argv and the MEMCHAR_* variables.
    ENVIRONMENT_MANIFEST = {
        "argv": ["triad", "--topology", "rome_2s", "--bytes", "64"],
        "environment": {"MEMCHAR_ALIGNMENT": None, "MEMCHAR_HUGEPAGES": "0",
                        "MEMCHAR_FLUSH_L1": None, "MEMCHAR_FLUSH_L2": None,
                        "MEMCHAR_FLUSH_L3": None},
    }

    @pytest.mark.parametrize("text", [
        "{not json",
        "[]",
        json.dumps({}),
        json.dumps({"argv": ["triad"], "extra": 1}),
        json.dumps(OLD_MANIFEST),
        json.dumps({"argv": "latency --topology rome_2s"}),
        json.dumps({"argv": []}),
        json.dumps({"argv": ["latency", 7]}),
        json.dumps({"argv": ["destroy"]}),
        json.dumps({"argv": ["triad", "--bytes", "64", "--bogus"]}),
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

    def test_manifest_holding_an_environment_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(self.ENVIRONMENT_MANIFEST))
        assert main(["replay", "--manifest", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "an older memchar wrote this manifest" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_only_measurement_manifests_replay(self, tmp_path, capsys):
        from memchar.topology import fixture_path

        run = tmp_path / "fit"
        assert main(["model-fit", "--topology", "rome_2s",
                     "--input", str(fixture_path("table2_rome.csv")), "--out", str(run)]) == 0
        assert RunManifest.load(run / "manifest.json").command == "model-fit"
        assert main(["replay", "--manifest", str(run / "manifest.json")]) == 2
        assert "cannot be replayed" in capsys.readouterr().err

    LATENCY = ("latency --topology rome_2s --scope {} --state M --level L2 "
               "--outer 1 --inner 1 --sizes 1 --out {{out}}")
    LADDER = "bandwidth --topology rome_2s --kernel read256 --cores 0,1,2,3 --level L1 --out {out}"
    # (subcommand, a run giving longer files, a run giving shorter files of
    # the same names); {in} holds an all_pairs and a same_ccx latency run.
    RERUNS = [
        ("latency", LATENCY.format("all_pairs"), LATENCY.format("same_ccx")),
        ("bandwidth", LADDER, "bandwidth --topology rome_2s --cores 0 --bytes 16384 --out {out}"),
        ("triad", LADDER, "triad --topology rome_2s --bytes 1048576 --out {out}"),
        ("report",
         "report --input {in}/all_pairs/results.csv --name fig --title a-longer-title "
         "--out {out}",
         "report --input {in}/same_ccx/results.csv --x owner --name fig --out {out}"),
        ("replay",
         "replay --manifest {in}/all_pairs/manifest.json --out {out}",
         "replay --manifest {in}/same_ccx/manifest.json --out {out}"),
        ("model-fit",
         "model-fit --topology rome_2s --input {fixtures}/fig9a_rome_anchors.csv "
         "--template remote_socket --out {out}",
         "model-fit --topology rome_2s --input {fixtures}/table2_rome.csv --out {out}"),
    ]

    @pytest.mark.parametrize("long, short", [r[1:] for r in RERUNS],
                             ids=[r[0] for r in RERUNS])
    def test_rerun_into_the_same_directory_equals_a_fresh_run(self, long, short, tmp_path):
        inputs, out = tmp_path / "in", tmp_path / "out"
        for scope in ("all_pairs", "same_ccx"):
            assert main(self.LATENCY.format(scope).format(out=inputs / scope).split()) == 0
        names = {"in": inputs, "out": out, "fixtures": fixture_path("rome_2s.json").parent}

        def run(argv):
            out.mkdir(exist_ok=True)
            assert main(argv.format(**names).split()) == 0
            return {p.name: p.read_bytes() for p in out.iterdir()}

        before = run(long)
        rerun = run(short)
        shutil.rmtree(out)
        fresh = run(short)
        assert rerun == fresh
        # Every file shrank, so a stale tail of the first run would show.
        assert all(len(fresh[name]) < len(before[name]) for name in fresh)

    @pytest.mark.parametrize("argv, name", [
        ("triad --topology rome_2s --bytes 1048576", "bandwidth.csv"),
        ("triad --topology rome_2s --bytes 1048576", "manifest.json"),
        ("model-fit --topology rome_2s --input {fixtures}/table2_rome.csv", "residuals.txt"),
    ], ids=["csv", "manifest", "fit"])
    def test_output_path_that_is_a_directory_is_backend_error(self, argv, name, tmp_path,
                                                              capsys):
        (tmp_path / name).mkdir()
        argv = argv.format(fixtures=fixture_path("rome_2s.json").parent).split()
        assert main(argv + ["--out", str(tmp_path)]) == 4
        assert capsys.readouterr().err.startswith("backend error: [Errno 21] Is a directory")

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

    def test_native_latency_loads_no_model(self, tmp_path):
        # No latency model lies next to this topology: native latency plans
        # its states under the protocol the topology declares.  No timing is
        # asserted.
        from memchar import native

        try:
            native.load_kernels()
        except native.BackendUnavailable as exc:
            pytest.skip(f"native kernels unavailable: {exc}")
        topo = tmp_path / "host.json"
        shutil.copy(fixture_path("single_core.json"), topo)
        assert main(["latency", "--backend", "native", "--topology", str(topo),
                     "--scope", "local", "--state", "M", "--level", "L1", "--outer", "1",
                     "--inner", "1", "--sizes", "1", "--out", str(tmp_path / "run")]) == 0
        records = ResultSet.from_csv(tmp_path / "run" / "results.csv").records
        assert [r.backend for r in records] == ["native"]

    def test_model_fit_loads_no_model(self, tmp_path, capsys):
        topo = tmp_path / "rome.json"
        shutil.copy(fixture_path("rome_2s.json"), topo)
        assert main(["model-fit", "--topology", str(topo),
                     "--input", str(fixture_path("fig9a_rome_anchors.csv")),
                     "--out", str(tmp_path / "fit")]) == 0
        assert (tmp_path / "fit" / "fitted_params.json").read_text() == (
            '{\n "base_ram_cycles": 378.0000000000002,\n "if_switch_ns": 2.416666666666655\n}\n')
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["model-fit", "--topology", str(topo), "--model", "rome_2s_latency_model",
                  "--input", str(fixture_path("fig9a_rome_anchors.csv"))])
        assert "unrecognized arguments: --model" in capsys.readouterr().err

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

    def _report(self, tmp_path, *args):
        run = tmp_path / "run"
        if not run.exists():
            main(["latency", "--topology", "rome_2s", "--scope", "all_pairs", "--state", "M",
                  "--level", "RAM", "--outer", "1", "--inner", "1", "--sizes", "1",
                  "--out", str(run)])
        return main(["report", "--input", str(run / "results.csv"), "--kind", "heatmap",
                     "--x", "home", "--y", "requester", *args])

    def test_report_creates_a_fresh_nested_out(self, tmp_path, capsys):
        out = tmp_path / "not" / "yet" / "there"
        assert self._report(tmp_path, "--out", str(out)) == 0
        assert sorted(p.name for p in out.iterdir()) == ["plot.svg", "plot.txt"]
        assert capsys.readouterr().out.split()[-2:] == [str(out / "plot.svg"),
                                                        str(out / "plot.txt")]

    def test_report_names_with_dots_keep_them(self, tmp_path):
        out = tmp_path / "figs"
        for name in ("fig.a", "fig.b"):
            assert self._report(tmp_path, "--name", name, "--out", str(out)) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "fig.a.svg", "fig.a.txt", "fig.b.svg", "fig.b.txt"]
        texts = {p.name: p.read_text() for p in out.iterdir()}
        assert texts["fig.a.svg"] == texts["fig.b.svg"]
        assert texts["fig.a.txt"] == texts["fig.b.txt"]

    @pytest.mark.parametrize("topology", ["rome_2s", "clx_2s"])
    def test_every_latency_sweep_writes_csv_writer_bytes(self, topology, tmp_path,
                                                         monkeypatch):
        # Every scope the topology allows x every state x every level, and
        # the triples matrix: each results.csv is the bytes csv.writer gives
        # for the fields of the records the sweep built, and reads back as
        # those records.
        built = []
        real = harness.measure_sweep
        monkeypatch.setattr(harness, "measure_sweep", lambda *a: built.append(real(*a))
                            or built[-1])
        model = load_fixture_model(topology)
        chiplet = topology == "rome_2s"
        scopes = [s.value for s in PlacementScope
                  if chiplet or s not in (PlacementScope.SAME_CCX, PlacementScope.SAME_CCD)]
        runs = [["--scope", scope, "--state", state.value, "--level", level]
                for scope in scopes
                for state in protocol_states(model.protocol)
                for level in LEVELS]
        if chiplet:
            runs.append(["--triples", "--state", "M", "--level", "L2"])
        for i, args in enumerate(runs):
            out = tmp_path / str(i)
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["latency", "--topology", topology, *args, "--seed", "7",
                             "--out", str(out)]) == 0, args
            path = out / "results.csv"
            records = built.pop()
            assert path.read_bytes() == _csv_writer_bytes(ResultSet(records)), args
            assert ResultSet.from_csv(path).records == records, args

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
