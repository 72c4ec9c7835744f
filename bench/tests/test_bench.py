"""Tests of the benchmark's own logic: span self time, output checks, op
lists and the latency percentiles."""

import csv
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from memchar.cli import main  # noqa: E402
from memchar.model import load_fixture_model  # noqa: E402
from memchar.topology import fixture_path, load_topology_file  # noqa: E402


# -- spans ---------------------------------------------------------------------


def _span(name, start, end, parent, counts=None, failed=False):
    return [name, start, end, parent, counts, failed]


def test_self_time_on_synthetic_span_tree():
    tree = [
        _span("op", 0.0, 10.0, -1),             # 0
        _span("a", 1.0, 4.0, 0, {"n": 2}),      # 1
        _span("b", 2.0, 3.0, 1),                # 2
        _span("a", 5.0, 6.0, 0, {"n": 3}),      # 3
        _span("c", 7.0, 9.5, 0, failed=True),   # 4
        _span("c", 7.5, 8.0, 4),                # 5: nested in a span of its own name
        _span("setup", 20.0, 21.0, -1),         # 6
        _span("a", 20.0, 20.5, 6),              # 7
    ]
    s = spans.summarize(tree, root="op")
    assert s["op"]["self_s"] == pytest.approx(10.0 - 3.0 - 1.0 - 2.5)
    assert s["a"] == pytest.approx({"busy_s": 4.0, "self_s": 3.0, "calls": 2, "failed": 0, "n": 5})
    assert s["b"]["self_s"] == pytest.approx(1.0)
    # The nested "c" adds self time but neither busy time nor a call.
    assert s["c"] == pytest.approx({"busy_s": 2.5, "self_s": 2.5, "calls": 1, "failed": 1})
    assert "setup" not in s
    assert spans.summarize(tree, root="setup")["a"]["busy_s"] == pytest.approx(0.5)


def test_self_time_counts_overlapping_children_once():
    tree = [_span("p", 0.0, 10.0, -1), _span("x", 1.0, 5.0, 0), _span("y", 3.0, 6.0, 0)]
    assert spans.summarize(tree)["p"]["self_s"] == pytest.approx(5.0)


def test_tracer_records_parent_and_suspends():
    tracer = spans.Tracer()
    traced = spans.wrap(tracer, "f", lambda x: x * 2, lambda a, k, r: {"out": r})
    with tracer.span("op"):
        assert traced(3) == 6
        with tracer.suspended():
            traced(4)
    assert [(s[spans.NAME], s[spans.PARENT], s[spans.COUNTS]) for s in tracer.spans] == [
        ("op", -1, None), ("f", 0, {"out": 6})]


# -- output checks --------------------------------------------------------------


def _rewrite(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
        fields = list(rows[0])
    edit(rows)
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
        w.writeheader()
        w.writerows(rows)


@pytest.fixture(scope="module")
def rome():
    return load_fixture_model("rome_2s")


@pytest.fixture
def latency_csv(tmp_path):
    assert main(["latency", "--topology", "rome_2s", "--scope", "same_ccx", "--state", "M",
                 "--level", "L1", "--outer", "1", "--inner", "1", "--sizes", "1",
                 "--seed", "5", "--out", str(tmp_path)]) == 0
    return tmp_path / "results.csv"


def _check_latency(path, model):
    return checks.check_latency(path, model, 16, "M", "L1", 5)


def test_latency_check_accepts_program_output(latency_csv, rome):
    assert _check_latency(latency_csv, rome) == 16


@pytest.mark.parametrize("edit", [
    lambda rows: rows[3].update(latency_cycles=repr(float(rows[3]["latency_cycles"]) + 1.0)),
    lambda rows: rows[0].update(requester="x"),
    lambda rows: rows[5].update(state="E"),
    lambda rows: rows.pop(),
], ids=["wrong_cycles", "garbled_row", "wrong_state", "missing_row"])
def test_latency_check_rejects_corruption(latency_csv, rome, edit):
    _rewrite(latency_csv, edit)
    with pytest.raises(checks.CheckError):
        _check_latency(latency_csv, rome)


def test_latency_check_rejects_missing_column(latency_csv, rome):
    header, rest = latency_csv.read_text().split("\n", 1)
    latency_csv.write_text(header.replace("latency_cycles", "latency") + "\n" + rest)
    with pytest.raises(checks.CheckError):
        _check_latency(latency_csv, rome)


@pytest.fixture
def bandwidth_run(tmp_path):
    out = tmp_path / "bw"
    assert main(["bandwidth", "--topology", "clx_2s", "--kernel", "read512", "--cores", "0,1",
                 "--level", "L2", "--out", str(out)]) == 0
    return out


def test_bandwidth_checks_accept_program_output(bandwidth_run, tmp_path):
    caches = load_topology_file(fixture_path("clx_2s.json")).caches
    csv_path = bandwidth_run / "bandwidth.csv"
    assert checks.check_bandwidth(csv_path, caches, "read512", "L2", [0, 1]) == 4
    again = tmp_path / "again"
    assert main(["replay", "--manifest", str(bandwidth_run / "manifest.json"),
                 "--out", str(again)]) == 0
    assert checks.check_replay(csv_path, again / "bandwidth.csv") == 4
    assert main(["report", "--input", str(csv_path), "--kind", "grouped_bars", "--x", "bytes",
                 "--y", "kernel", "--value", "bandwidth_gbps", "--name", "fig",
                 "--out", str(bandwidth_run)]) == 0
    assert checks.check_report(bandwidth_run / "fig.txt", bandwidth_run / "fig.svg", csv_path) == 0


@pytest.mark.parametrize("edit", [
    lambda rows: rows[1].update(bandwidth_gbps=repr(float(rows[1]["bandwidth_gbps"]) * 1.01)),
    lambda rows: rows[2].update(bytes_moved=str(int(rows[2]["bytes_moved"]) + 64)),
    lambda rows: rows[0].update(cores="0"),
    lambda rows: rows[3].update(kernel="read128"),
], ids=["broken_rate", "broken_bytes", "wrong_cores", "wrong_kernel"])
def test_bandwidth_check_rejects_corruption(bandwidth_run, edit):
    caches = load_topology_file(fixture_path("clx_2s.json")).caches
    csv_path = bandwidth_run / "bandwidth.csv"
    _rewrite(csv_path, edit)
    with pytest.raises(checks.CheckError):
        checks.check_bandwidth(csv_path, caches, "read512", "L2", [0, 1])


def test_triad_check(tmp_path):
    assert main(["triad", "--topology", "rome_2s", "--cores", "0,4", "--bytes", str(1 << 20),
                 "--no-nt", "--out", str(tmp_path)]) == 0
    path = tmp_path / "bandwidth.csv"
    assert checks.check_triad(path, 1 << 20, False, [0, 4]) == 1
    with pytest.raises(checks.CheckError):
        checks.check_triad(path, 1 << 20, True, [0, 4])
    _rewrite(path, lambda rows: rows[0].update(bytes_moved=str(3 << 20)))
    with pytest.raises(checks.CheckError):
        checks.check_triad(path, 1 << 20, False, [0, 4])


def test_replay_and_report_checks_reject_differences(bandwidth_run, tmp_path):
    csv_path = bandwidth_run / "bandwidth.csv"
    copy = tmp_path / "copy.csv"
    copy.write_bytes(csv_path.read_bytes().replace(b"\n", b"\r\n"))
    with pytest.raises(checks.CheckError):
        checks.check_replay(csv_path, copy)
    assert main(["report", "--input", str(csv_path), "--kind", "grouped_bars", "--x", "bytes",
                 "--y", "kernel", "--value", "bandwidth_gbps", "--name", "fig",
                 "--out", str(bandwidth_run)]) == 0
    txt = bandwidth_run / "fig.txt"
    lines = txt.read_text().splitlines()
    cells = lines[-1].split("\t")
    cells[1] = repr(float(cells[1]) + 0.5)
    txt.write_text("\n".join(lines[:-1] + ["\t".join(cells)]) + "\n")
    with pytest.raises(checks.CheckError):
        checks.check_report(txt, bandwidth_run / "fig.svg", csv_path)


def test_fit_check(tmp_path):
    (tmp_path / "residuals.txt").write_text("max_abs_residual = 0.5\n")
    (tmp_path / "fitted_params.json").write_text(json.dumps({"a": 1.0, "b": 2.5}))
    assert checks.check_fit(tmp_path, ("a", "b"))
    (tmp_path / "fitted_params.json").write_text('{"a": 1.0, "b": NaN}')
    with pytest.raises(checks.CheckError):
        checks.check_fit(tmp_path, ("a", "b"))


def test_chain_memory_checks():
    base, align = 1 << 20, 512
    succ = [3, 0, 1, 2]  # 0 -> 3 -> 2 -> 1 -> 0
    words = [base + s * align for s in succ]
    checks.check_chain_words(words, base, align, succ, range(4))
    checks.walk_chain(words, base, align, 4)
    two_cycles = [base + s * align for s in (1, 0, 3, 2)]
    with pytest.raises(checks.CheckError):
        checks.walk_chain(two_cycles, base, align, 4)
    with pytest.raises(checks.CheckError):
        checks.walk_chain(words[:3] + [base + 4 * align], base, align, 4)
    with pytest.raises(checks.CheckError):
        checks.check_chain_words(two_cycles, base, align, succ, [2])


# -- op lists and percentiles ------------------------------------------------------


HOST = {"caches": {"L1": 48 << 10, "L2": 2 << 20, "L3": 300 << 20},
        "cpus": [0, 1], "nodes": {0: 0, 1: 0}}


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_op_list_is_deterministic_for_a_seed(workload):
    graphs = {t: load_topology_file(fixture_path(f"{t}.json")) for t in ("rome_2s", "clx_2s")}
    first = ops.build_ops(workload, 3, graphs=graphs, host=HOST)
    assert first == ops.build_ops(workload, 3, graphs=graphs, host=HOST)
    assert first != ops.build_ops(workload, 4, graphs=graphs, host=HOST)
    # Every seed runs the same work: the same multiset of op labels.
    other = ops.build_ops(workload, 4, graphs=graphs, host=HOST)
    if workload != "bandwidth-sim":  # there the seed also picks the cores in a label
        assert sorted(o.label for o in first) == sorted(o.label for o in other)


def test_op_list_sizes():
    graphs = {t: load_topology_file(fixture_path(f"{t}.json")) for t in ("rome_2s", "clx_2s")}
    assert len(ops.build_ops("latency-near", 0)) == 91
    assert len(ops.build_ops("latency-far", 0)) == 20
    bw = ops.build_ops("bandwidth-sim", 0, graphs=graphs)
    assert sum(o.check == "replay" for o in bw) == sum(o.check in ("bandwidth", "triad") for o in bw)
    assert sum(o.check == "report" for o in bw) == sum(o.check == "bandwidth" for o in bw) == 96


def test_tail_has_ten_ops_beyond_it():
    values = [float(i) for i in range(1, 101)]
    assert run.tail(values, 100) == (90.0, "p90")
    assert run.tail(values[:40], 40) == (30.0, "p75")
    assert run.tail(values[:15], 15)[1] == "max"
    # A longer run keeps the percentile a minimal run allows.
    assert run.tail(values, 40) == (75.0, "p75")


def test_failed_ops_rank_above_completed_ones():
    ranked = run.ranked_op_times([1.0, 5.0, 2.0], failed=[1])
    assert ranked == [1.0, 2.0, 8.0]
