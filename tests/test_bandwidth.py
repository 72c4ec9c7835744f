"""Throughput kernels, triad, scaling/saturation analysis."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memchar import bandwidth
from memchar.bandwidth import (
    KERNELS,
    BandwidthError,
    BandwidthRecord,
    SimBandwidthBackend,
    TriadVerificationError,
    bandwidth_dataset_ladder,
    resolve_kernel,
    run_throughput,
    run_triad,
    scaling_series,
    verify_triad,
)
from memchar.cli import main
from memchar.topology import fixture_path, load_topology_file
from oracles import triad_operands


@pytest.fixture(scope="module")
def rome_bw():
    return SimBandwidthBackend(load_topology_file(fixture_path("rome_2s.json")))


@pytest.fixture(scope="module")
def clx_bw():
    return SimBandwidthBackend(load_topology_file(fixture_path("clx_2s.json")))


class TestResolveKernel:
    def test_kernels_are_listed_once_widest_first(self):
        assert KERNELS == ("read512", "read256", "read128")

    @pytest.mark.parametrize("requested, supported, resolved", [
        ("read512", KERNELS, ("read512", None)),
        ("read512", ("read128", "read256"), ("read256", "read512")),
        ("read256", ("read128",), ("read128", "read256")),
        ("read128", ("read512", "read128"), ("read128", None)),
    ])
    def test_widest_supported_at_or_below_the_request(self, requested, supported, resolved):
        assert resolve_kernel(requested, supported) == resolved

    def test_unknown_kernel_rejected(self):
        with pytest.raises(BandwidthError, match="unknown kernel"):
            resolve_kernel("read1024", KERNELS)

    def test_nothing_narrow_enough_rejected(self):
        with pytest.raises(BandwidthError, match="at or below read256"):
            resolve_kernel("read256", ("read512",))


class TestReadThroughput:
    def test_rome_l1_avx_is_64_bytes_per_cycle(self, rome_bw):
        rec = run_throughput("read256", 16 * 1024, [0], 1, rome_bw)
        assert rec.level == "L1"
        assert rec.bytes_per_cycle == 64.0
        assert rec.bandwidth_gbps == 128.0

    def test_clx_l1_avx512_is_116_25(self, clx_bw):
        rec = run_throughput("read512", 16 * 1024, [0], 1, clx_bw)
        assert rec.bytes_per_cycle == 116.25
        assert rec.bandwidth_gbps == 186.0

    def test_fastest_of_the_repeats_is_reported(self, rome_bw, monkeypatch):
        rates = iter([10.0, 30.0, 20.0])
        runs = []

        def run_read(kernel, dataset_bytes, cores):
            runs.append(kernel)
            return BandwidthRecord.from_rate(kernel, dataset_bytes, cores, "L1",
                                             next(rates), 1000.0, "fake")

        monkeypatch.setattr(rome_bw, "run_read", run_read)
        rec = run_throughput("read256", 16 * 1024, [0], 3, rome_bw)
        assert runs == ["read256"] * 3
        assert rec.bandwidth_gbps == 30.0

    def test_zero_dataset_is_an_error(self, rome_bw):
        with pytest.raises(BandwidthError, match="non-empty"):
            run_throughput("read256", 0, [0], 1, rome_bw)

    def test_cross_socket_rejected_in_single_node_mode(self, rome_bw):
        with pytest.raises(BandwidthError, match="crossing sockets"):
            run_throughput("read256", 16 * 1024, [0, 64], 1, rome_bw)
        rec = run_throughput(
            "read256", 16 * 1024, [0, 64], 1, rome_bw, allow_cross_socket=True
        )
        assert rec.bandwidth_gbps == 256.0

    def test_width_degrades_with_flag(self, rome_bw):
        rec = run_throughput("read512", 16 * 1024, [0], 1, rome_bw)
        assert rec.kernel == "read256"
        assert rec.degraded_from == "read512"
        assert "width_degraded" in rec.flags

    def test_l3_domain_cap_binds(self, rome_bw):
        # 4 cores of one CCX: 4 x 46 GB/s capped at 151 GB/s.
        rec = run_throughput("read256", 2 << 20, [0, 1, 2, 3], 1, rome_bw)
        assert rec.level == "L3"
        assert rec.bandwidth_gbps == 151.0
        assert rec.bytes_per_cycle / 4 == pytest.approx(18.875)

    def test_ram_ccd_saturates_at_three_cores(self, rome_bw):
        rates = {
            n: run_throughput("read256", 64 << 20, list(range(n)), 1, rome_bw).bandwidth_gbps
            for n in (1, 2, 3, 4)
        }
        assert rates[1] == 13.0
        assert rates[2] == 26.0
        assert rates[3] == 38.0  # capped
        assert rates[4] == 38.0

    def test_second_ccd_raises_node_bandwidth_slightly(self, rome_bw):
        one_ccd = run_throughput("read256", 64 << 20, list(range(8)), 1, rome_bw)
        two_ccds = run_throughput("read256", 64 << 20, list(range(16)), 1, rome_bw)
        assert one_ccd.bandwidth_gbps == 38.0
        assert two_ccds.bandwidth_gbps == 40.0

    def test_aggregate_never_exceeds_caps(self, rome_bw):
        rng = np.random.default_rng(0)
        cores = list(range(64))
        for _ in range(20):
            picked = sorted(rng.choice(cores, size=rng.integers(1, 12), replace=False).tolist())
            rec = run_throughput("read256", 64 << 20, picked, 1, rome_bw)
            per_core = 6.5 * 2.0  # B/cycle x GHz
            assert rec.bandwidth_gbps <= per_core * len(picked) + 1e-9
            assert rec.bandwidth_gbps <= 160.0 + 1e-9


def set_table(*path):
    """An edit that sets the field at ``path`` of a topology's ``bandwidth``
    object to the edit's value (None deletes it)."""
    *parents, last = path

    def edit(doc, value):
        table = doc
        for key in ("bandwidth", *parents):
            table = table[key]
        if value is None:
            del table[last]
        else:
            table[last] = value

    return edit


class TestTablesReader:
    @pytest.mark.parametrize("edit, value, message", [
        (lambda doc, value: doc.update(bandwidth=value), [1],
         "topology: field 'bandwidth' must be an object, got [1]"),
        (set_table("triad_gbps"), None, "bandwidth: missing required field 'triad_gbps'"),
        (set_table("read_b_per_cycle", "L2"), None,
         "bandwidth.read_b_per_cycle: missing required field 'L2'"),
        (set_table("read_b_per_cycle", "RAM", "read256"), None,
         "bandwidth.read_b_per_cycle.RAM: missing required field 'read256'"),
        (set_table("shared_caps_gbps"), [151.0],
         "bandwidth: field 'shared_caps_gbps' must be an object, got [151.0]"),
        (set_table("frequency_mhz"), 0,
         "bandwidth.frequency_mhz must be a positive number, got 0.0"),
        (set_table("frequency_mhz"), True, "bandwidth.frequency_mhz must be a number, got True"),
        (set_table("read_b_per_cycle", "L2", "read256"), -31.4,
         "bandwidth.read_b_per_cycle.L2.read256 must be a positive number, got -31.4"),
        (set_table("shared_caps_gbps", "ram_node"), -40.0,
         "bandwidth.shared_caps_gbps.ram_node must be a positive number, got -40.0"),
        (set_table("triad_gbps", "socket_cap"), float("inf"),
         "bandwidth.triad_gbps.socket_cap must be a positive number, got inf"),
        (set_table("supported_kernels"), ["read1024"],
         "bandwidth.supported_kernels: unknown kernel 'read1024'"),
        (set_table("frequency_hz"), 2e9,
         "bandwidth carries 'frequency_hz', which is not read; the keys read are "
         "frequency_mhz, supported_kernels, read_b_per_cycle, shared_caps_gbps, triad_gbps"),
        (set_table("shared_caps_gbps", "ram_nodes"), 40.0,
         "bandwidth.shared_caps_gbps carries 'ram_nodes', which is not read; the keys read "
         "are l3_domain, ram_node, ram_ccd, ram_socket"),
        (set_table("triad_gbps", "ccd_cp"), 21.7,
         "bandwidth.triad_gbps carries 'ccd_cp', which is not read; the keys read are "
         "per_core, node_cap, ccd_cap, socket_cap"),
        (set_table("read_b_per_cycle", "L1", "read512"), 128.0,
         "bandwidth.read_b_per_cycle.L1 carries 'read512', which is not read; the keys read "
         "are read128, read256"),
        (set_table("read_b_per_cycle", "L4"), {"read128": 1.0, "read256": 1.0},
         "bandwidth.read_b_per_cycle carries 'L4', which is not read; the keys read are L1, "
         "L2, L3, RAM"),
    ], ids=["not-an-object", "no-triad", "no-level", "no-kernel-rate", "caps-a-list",
            "frequency-zero", "frequency-a-bool", "rate-negative", "cap-negative",
            "cap-infinite", "unknown-kernel", "unread-table-name", "unread-cap-name",
            "unread-triad-name", "unread-kernel-rate", "unread-level"])
    def test_malformed_table_fails_bandwidth_and_triad(self, edit, value, message, tmp_path,
                                                       capsys):
        doc = json.loads(fixture_path("rome_2s.json").read_text())
        edit(doc, value)
        path = tmp_path / "topo.json"
        path.write_text(json.dumps(doc))
        for argv in (["bandwidth", "--level", "L2"], ["triad", "--bytes", str(1 << 20)]):
            assert main([*argv, "--topology", str(path), "--out", str(tmp_path / "out")]) == 2
            assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not (tmp_path / "out").exists()


class TestTriad:
    def test_single_element(self, rome_bw):
        rec = run_triad(8, [0], nontemporal=True, backend=rome_bw)
        assert rec.bandwidth_gbps > 0
        assert rec.bytes_moved == 24

    def test_verify_catches_first_failing_index(self):
        b = np.arange(10.0)
        c = np.ones(10)
        a = b + 3.0 * c
        a[7] = -1.0
        with pytest.raises(TriadVerificationError) as err:
            verify_triad(a, b, c, 3.0)
        assert (err.value.array, err.value.index) == ("a", 7)
        assert str(err.value) == "triad verification failed at a[7]: expected 10.0, got -1.0"

    @pytest.mark.parametrize("step,first_bad", [(1, 250), (100, 700)])
    def test_verify_reports_first_checked_bad_index(self, step, first_bad):
        # A sampled check reads every 100th element: 250 and 301 are skipped.
        b = np.arange(1000.0)
        c = np.ones(1000)
        a = b + 3.0 * c
        a[[250, 301, 700, 900]] = -1.0
        with pytest.raises(TriadVerificationError, match="expected") as err:
            verify_triad(a, b, c, 3.0, step)
        assert err.value.index == first_bad
        assert f"expected {b[first_bad] + 3.0}, got -1.0" in str(err.value)

    def test_sampled_verification(self):
        n = 1000
        b = np.zeros(n)
        c = np.zeros(n)
        a = np.zeros(n)
        checked = verify_triad(a, b, c, 3.0, step=100)
        assert checked == 10

    def test_rome_node_plateau(self, rome_bw):
        # Two CCDs, two cores each: the published node plateau.
        rec = run_triad(8 << 20, [0, 4, 8, 12], nontemporal=True, backend=rome_bw)
        assert rec.bandwidth_gbps == 42.9
        # One core per CCD sits just below it.
        rec1 = run_triad(8 << 20, [0, 8], nontemporal=True, backend=rome_bw)
        assert rec1.bandwidth_gbps == 42.3

    def test_rome_full_socket(self, rome_bw):
        cores = []
        for node in range(4):
            base = 16 * node
            cores += [base, base + 4, base + 8, base + 12]
        rec = run_triad(8 << 20, cores, nontemporal=True, backend=rome_bw)
        assert rec.bandwidth_gbps == pytest.approx(4 * 42.9)

    def test_non_temporal_beats_regular_stores(self, rome_bw):
        nt = run_triad(8 << 20, [0], nontemporal=True, backend=rome_bw)
        reg = run_triad(8 << 20, [0], nontemporal=False, backend=rome_bw)
        assert nt.bandwidth_gbps > reg.bandwidth_gbps

    def test_triad_arrays_must_hold_an_element(self, rome_bw):
        with pytest.raises(BandwidthError):
            run_triad(4, [0], nontemporal=True, backend=rome_bw)

    @pytest.mark.parametrize("cores", [[], [0, 0]], ids=["empty", "duplicate"])
    def test_core_set_is_checked_before_pricing(self, rome_bw, cores):
        with pytest.raises(BandwidthError, match="core set"):
            run_triad(8 << 20, cores, nontemporal=True, backend=rome_bw)

    def test_prices_its_record_without_computing(self, rome_bw, monkeypatch):
        """No field of a simulated record depends on triad arithmetic, so
        none is done: a gigabyte triad runs without touching numpy."""

        class NoNumpy:
            def __getattr__(self, name):
                raise AssertionError(f"the simulated triad reads numpy.{name}")

        monkeypatch.setattr(bandwidth, "np", NoNumpy())
        rec = run_triad(1 << 30, [0, 4], nontemporal=True, backend=rome_bw)
        assert rec.bytes_moved == 2 * 3 * (1 << 30)


class TestTriadOperands:
    @pytest.mark.parametrize("n", [1, 2, 7, 32769, (1 << 20) - 1, 1 << 20])
    def test_closed_form_is_exact_and_distinct(self, n):
        # Filled over stale values, as a recycled native mapping holds them.
        b, c = np.full(n, -1.0), np.full(n, 7.5)
        triad_operands(b, c)
        i = np.arange(n)
        assert b.dtype == c.dtype == np.float64
        a = b + 3.0 * c
        assert np.array_equal(a, 3 * n - 2 * i)
        for values in (b, c, a):
            assert len(np.unique(values)) == n


class TestScalingSeries:
    def test_constant_series_saturates_at_first_rung(self, rome_bw):
        ladder = [("1", [0]), ("2", [0, 1])]
        # L1 is private: per-core bandwidth, but relative to max the first
        # rung of a constant per-core series is NOT within 5%; use a truly
        # constant series instead: repeated identical core sets.
        series = scaling_series(
            [("a", [0]), ("b", [0]), ("c", [0])],
            rome_bw,
            kernel="read256",
            dataset_bytes=16 * 1024,
        )
        assert series.saturation_index == 0

    def test_rome_ram_ladder_saturates_at_one_core_per_ccd(self, rome_bw):
        ladder = [
            ("1c", [0]),
            ("2c_ccx", [0, 1]),
            ("4c_ccx", [0, 1, 2, 3]),
            ("2ccd_1c", [0, 8]),
            ("2ccd_2c", [0, 4, 8, 12]),
        ]
        series = scaling_series(ladder, rome_bw, triad_bytes=8 << 20)
        assert series.saturation_label == "2ccd_1c"
        assert series.records[-1].bandwidth_gbps == 42.9

    def test_clx_snc_ram_saturates_at_eight_cores(self, clx_bw):
        snc0 = [c for c in clx_bw.topology.cores_of_node(0)]
        ladder = [(str(n), snc0[:n]) for n in range(1, 11)]
        series = scaling_series(ladder, clx_bw, kernel="read512", dataset_bytes=256 << 20)
        assert series.saturation_label == "8"

    def test_empty_ladder_rejected(self, rome_bw):
        with pytest.raises(BandwidthError):
            scaling_series([], rome_bw, kernel="read256", dataset_bytes=1024)

    @pytest.mark.parametrize("dataset_bytes", [0, -1024])
    def test_a_rung_without_bytes_is_rejected_as_a_single_run_is(self, rome_bw, dataset_bytes):
        with pytest.raises(BandwidthError, match="dataset must be non-empty"):
            run_throughput("read256", dataset_bytes, [0], 1, rome_bw)
        with pytest.raises(BandwidthError, match="dataset must be non-empty"):
            scaling_series([("1", [0])], rome_bw, kernel="read256", dataset_bytes=dataset_bytes)

    def test_a_single_socket_series_rejects_a_cross_socket_rung(self, rome_bw):
        for workload in ({"kernel": "read256", "dataset_bytes": 1 << 20},
                         {"triad_bytes": 1 << 20}):
            assert len(scaling_series([("2", [0, 64])], rome_bw, **workload).records) == 1
            with pytest.raises(BandwidthError, match="crossing sockets"):
                scaling_series([("2", [0, 64])], rome_bw, allow_cross_socket=False, **workload)


class TestRecordArithmetic:
    @given(
        bytes_moved=st.integers(min_value=1, max_value=2**40),
        cycles=st.floats(min_value=1.0, max_value=1e12, allow_nan=False),
        freq=st.floats(min_value=100.0, max_value=5000.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_defining_relations_exact(self, bytes_moved, cycles, freq):
        rec = BandwidthRecord.from_raw(
            "read128", bytes_moved, [0], "L1", bytes_moved, cycles, freq, "test"
        )
        assert rec.bytes_per_cycle == bytes_moved / cycles
        assert rec.bandwidth_gbps == bytes_moved / (cycles / (freq * 1e6)) / 1e9

    def test_ladder_presets(self, rome_bw):
        topo = rome_bw.topology
        assert bandwidth_dataset_ladder(topo, "L1") == [8192, 16384, 32768, 65536]
        assert bandwidth_dataset_ladder(topo, "RAM")[0] == 32 << 20
