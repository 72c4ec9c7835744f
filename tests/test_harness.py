"""Measurement harness: calibration, aggregation, flushing, records."""

import contextlib
import dataclasses
import io
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memchar import cli, harness
from memchar.backends import ScriptPlacementError, SimulatedBackend
from memchar.chain import chain_spec, generate_chain
from memchar.coherence import (
    Action, CacheEvent, CoherenceState, ProtocolModel, WorkerRole, apply_event, plan_state,
    verify_script,
)
from memchar.harness import (
    CALIBRATION_REPEATS,
    LEVELS,
    AggregationError,
    HarnessError,
    MeasurementPolicy,
    MeasurementRecord,
    PolicyError,
    auto_helper,
    calibrate_overhead,
    cycles_to_ns,
    flush_scratch_bytes,
    level_dataset_bytes,
    measure_latency,
    measure_sweep,
    policy_from_env,
)
from memchar.model import load_fixture_model
from memchar.results import ResultSet
from memchar.topology import (
    Placement, PlacementScope, ScopeError, TopologyError, enumerate_placements,
    enumerate_triples, fixture_path, load_topology_file,
)
from oracles import ReplayBackend, SyntheticBackend
from test_golden import SWEEPS

ONE = MeasurementPolicy(inner_repeats=1, outer_repeats=1, sizes_per_level=1)


@pytest.fixture(scope="module")
def rome_model():
    return load_fixture_model("rome_2s")


@pytest.fixture(scope="module")
def rome(rome_model):
    return rome_model.graph


class TestCyclesToNs:
    def test_zero(self):
        assert cycles_to_ns(0, 1234.5) == 0.0

    def test_paper_values(self):
        assert cycles_to_ns(220, 2000.0) == 110.0
        assert cycles_to_ns(54, 2500.0) == 21.6

    def test_frequency_must_be_positive(self):
        with pytest.raises(HarnessError):
            cycles_to_ns(10, 0)


class TestCalibration:
    def test_simulated_backend_has_zero_overhead(self, rome_model):
        assert calibrate_overhead(SimulatedBackend(rome_model)) == 0.0

    def test_synthetic_timer_overhead_recovered(self):
        be = SyntheticBackend(cost_per_access=1.0, timer_overhead=30.0)
        assert calibrate_overhead(be) == 30.0


def reduce_grids(grids, policy=MeasurementPolicy()):
    """measure_sweep's records for ``grids``, one sample grid per point, taken
    as the elapsed cycles of 1-element chains with no timer overhead, so every
    sample is its grid value."""
    chains = [chain_spec(64, 64, seed=0)] * policy.sizes_per_level
    script = plan_state("M", "MOESI", owner=0, requester=0)
    points = [(script, Placement(0, 0, 0, label="local"))] * len(grids)
    return measure_sweep(chains, points, policy, ReplayBackend(grids))


class TestAggregate:
    def test_all_equal(self):
        [rec] = reduce_grids([[[[7.0] * 3 for _ in range(4)] for _ in range(10)]])
        assert (rec.min_cycles, rec.max_cycles, rec.median_cycles) == (7.0, 7.0, 7.0)
        assert len(rec.samples) == 120

    def test_single_outlier(self):
        samples = [[[10.0] * 3 for _ in range(4)] for _ in range(10)]
        samples[3][2][1] = 100.0
        [rec] = reduce_grids([samples])
        assert rec.min_cycles == 10.0
        assert rec.max_cycles == 100.0

    def test_bimodal_median_is_dominant_mode(self):
        # 80 samples at the mode, 40 high: the median lands on the mode.
        flat = [50.0] * 80 + [90.0] * 40
        random.Random(3).shuffle(flat)
        samples = [
            [[flat[o * 12 + s * 3 + i] for i in range(3)] for s in range(4)]
            for o in range(10)
        ]
        [rec] = reduce_grids([samples])
        assert rec.median_cycles == 50.0

    def test_lower_of_two_middles(self):
        pol = MeasurementPolicy(inner_repeats=1, outer_repeats=2, sizes_per_level=1)
        [rec] = reduce_grids([[[[1.0]], [[2.0]]]], pol)
        assert rec.median_cycles == 1.0

    def test_empty_rejected(self):
        script = plan_state("M", "MOESI", owner=0, requester=0)
        with pytest.raises(AggregationError, match="empty"):
            measure_latency([chain_spec(64, 64, seed=0)], script,
                            Placement(0, 0, 0, label="local"), ONE, ReplayBackend([]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(AggregationError, match="outer"):
            reduce_grids([[[[1.0]]]])

    def test_matches_brute_force_on_random_matrices(self):
        rng = random.Random(99)
        grids = [
            [[[rng.uniform(1, 1000) for _ in range(3)] for _ in range(4)] for _ in range(10)]
            for _ in range(50)
        ]
        for samples, rec in zip(grids, reduce_grids(grids)):
            flat = sorted(v for o in samples for row in o for v in row)
            assert rec.min_cycles == flat[0]
            assert rec.max_cycles == flat[-1]
            assert rec.median_cycles == flat[(len(flat) - 1) // 2]

    def test_total_samples_invariant(self):
        [rec] = reduce_grids(np.ones((1, 10, 4, 3)))
        assert len(rec.samples) == 120


class TestSyntheticOracle:
    def test_cost_recovered_for_any_overhead(self):
        chain = generate_chain(1000 * 64, 64, seed=1)
        assert chain.element_count == 1000
        placement = Placement(0, 0, 0, label="local")
        script = plan_state("M", "MOESI", owner=0, requester=0)
        for overhead in (0.0, 1.0, 500.0, 10_000.0):
            be = SyntheticBackend(cost_per_access=17.0, timer_overhead=overhead)
            rec = measure_latency([chain], script, placement, ONE, be)
            assert rec.latency_cycles == 17.0
            assert rec.overhead_cycles == overhead

    @given(overhead=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_subtraction_never_negative(self, overhead):
        chain = generate_chain(64 * 64, 64, seed=2)
        placement = Placement(0, 0, 0, label="local")
        script = plan_state("M", "MOESI", owner=0, requester=0)
        be = SyntheticBackend(cost_per_access=3.0, timer_overhead=float(overhead))
        rec = measure_latency([chain], script, placement, ONE, be)
        assert rec.latency_cycles >= 0.0
        assert rec.latency_cycles == 3.0


class TestSampleArray:
    POLICY = MeasurementPolicy(inner_repeats=3, outer_repeats=4, sizes_per_level=2)
    CHAINS = [chain_spec(64 * 7, 64, seed=1), chain_spec(64 * 13, 64, seed=1)]
    SCRIPT = plan_state("M", "MOESI", owner=0, requester=0)
    LOCAL = Placement(0, 0, 0, label="local")

    def test_samples_equal_the_per_sample_loop(self):
        # Reference: max(0, e - o) / n per sample, as plain Python floats;
        # elapsed at, below and just above the overhead, and a -0.0.
        rng = random.Random(5)
        for _ in range(20):
            overhead = rng.choice((0.0, 50.0))
            elapsed = [
                [[rng.choice((overhead, -0.0, 49.0, 50.5, rng.uniform(0, 3000)))
                  for _ in range(3)] for _ in range(2)]
                for _ in range(4)
            ]
            rec = measure_latency(self.CHAINS, self.SCRIPT, self.LOCAL, self.POLICY,
                                  ReplayBackend([elapsed], overhead))
            want = [
                max(0.0, e - overhead) / c.element_count
                for outer in elapsed for c, row in zip(self.CHAINS, outer) for e in row
            ]
            assert list(map(repr, rec.samples)) == list(map(repr, want))
            ordered = sorted(want)
            assert (rec.min_cycles, rec.max_cycles, rec.median_cycles) == (
                ordered[0], ordered[-1], ordered[(len(ordered) - 1) // 2]
            )

    def test_constant_and_mixed_rows_are_tuples_of_python_floats(self):
        # A point whose every chase took v cycles per access, for values
        # whose reprs are easy to get wrong, then a point with mixed samples.
        values = (0.0, 5e-324, 220.0, float("inf"))
        counts = [c.element_count for c in self.CHAINS]
        constant = [[[[v * n] * 3 for n in counts]] * 4 for v in values]
        mixed = [[[[1.0 + i + j for j in range(3)] for i in range(2)]] * 4]
        points = [(self.SCRIPT, self.LOCAL)] * (len(values) + 1)
        records = measure_sweep(self.CHAINS, points, self.POLICY,
                                ReplayBackend(constant + mixed))
        for rec, v in zip(records, values):
            assert type(rec.samples) is tuple and len(rec.samples) == 24
            assert all(type(x) is float for x in rec.samples)
            assert list(map(repr, rec.samples)) == [repr(v)] * 24
            assert (rec.min_cycles, rec.max_cycles, rec.median_cycles) == (v, v, v)
        last = records[-1].samples
        assert type(last) is tuple and all(type(x) is float for x in last)
        assert last == tuple((1.0 + i + j) / n for i, n in enumerate(counts)
                             for j in range(3)) * 4

    @pytest.mark.parametrize("shape", [(4, 1, 3), (4, 2), (1, 4, 2, 3), (3, 2, 4)])
    def test_misshapen_backend_grid_rejected(self, shape):
        # (4, 1, 3) would broadcast against the two chains' access counts.
        with pytest.raises(AggregationError, match="shape"):
            measure_latency(self.CHAINS, self.SCRIPT, self.LOCAL, self.POLICY,
                            ReplayBackend([np.ones(shape)]))

    def test_ragged_samples_rejected(self):
        with pytest.raises(AggregationError, match="ragged"):
            measure_latency(self.CHAINS[:1], self.SCRIPT, self.LOCAL, ONE,
                            ReplayBackend([[[[1.0]], [[2.0, 3.0]]]]))


class TestSimulatedMeasurements:
    def test_local_l1_is_four_cycles(self, rome_model):
        be = SimulatedBackend(rome_model)
        chain = generate_chain(16 * 1024, 512, seed=0)
        script = plan_state("M", "MOESI", owner=0, requester=0, level="L1")
        rec = measure_latency([chain], script, Placement(0, 0, 0, label="local"), ONE, be)
        assert rec.latency_cycles == 4.0
        assert cycles_to_ns(rec.latency_cycles, rec.frequency_mhz) == 2.0

    def test_local_ram_is_220_cycles(self, rome_model):
        be = SimulatedBackend(rome_model)
        chain = generate_chain(32 << 20, 512, seed=0)
        script = plan_state("I", "MOESI", owner=0, requester=0, level="RAM")
        rec = measure_latency([chain], script, Placement(0, 0, 0, label="local"), ONE, be)
        assert rec.latency_cycles == 220.0
        assert cycles_to_ns(rec.latency_cycles, rec.frequency_mhz) == 110.0

    def test_record_metadata_round(self, rome_model):
        be = SimulatedBackend(rome_model)
        pol = MeasurementPolicy(inner_repeats=2, outer_repeats=2, sizes_per_level=2)
        chains = [generate_chain(sz, 512, seed=5) for sz in (8192, 16384)]
        script = plan_state("E", "MOESI", owner=16, requester=0, level="L1")
        rec = measure_latency(chains, script, Placement(0, 16, 1, label="numa_h1"), pol, be)
        assert rec.dataset_sizes == (8192, 16384)
        assert rec.dataset_bytes == 16384
        assert len(rec.samples) == pol.outer_repeats * pol.sizes_per_level * pol.inner_repeats
        assert rec.alignment == 512
        assert rec.seed == 5
        assert rec.backend == "simulated"
        # ns/cycles relation is exact
        ns = cycles_to_ns(rec.latency_cycles, rec.frequency_mhz)
        assert ns == rec.latency_cycles * 1000.0 / rec.frequency_mhz

    def test_script_placement_mismatch_rejected(self, rome_model):
        be = SimulatedBackend(rome_model)
        chain = generate_chain(8192, 512, seed=0)
        script = plan_state("M", "MOESI", owner=3, requester=0)
        with pytest.raises(HarnessError, match="targets core 3"):
            measure_latency([chain], script, Placement(0, 16, 1), ONE, be)

    def test_script_for_another_requester_rejected(self, rome_model):
        # The script flushes core 0 and prepares the line for it; core 64
        # would read.
        be = SimulatedBackend(rome_model)
        chain = generate_chain(8192, 512, seed=0)
        script = plan_state("M", "MOESI", owner=1, level="L2", requester=0)
        with pytest.raises(HarnessError, match="requester 0, placement requester is 64"):
            measure_latency([chain], script, Placement(64, 1, 0), ONE, be)
        with pytest.raises(HarnessError, match="requester 0, placement requester is 1"):
            measure_latency([chain], script, Placement(1, 1, 0, label="local"), ONE, be)

    def test_policy_chain_count_must_match(self, rome_model):
        be = SimulatedBackend(rome_model)
        chain = generate_chain(8192, 512, seed=0)
        with pytest.raises(PolicyError, match="sizes_per_level"):
            measure_latency(
                [chain],
                plan_state("M", "MOESI", owner=0, requester=0),
                Placement(0, 0, 0, label="local"),
                MeasurementPolicy(),
                be,
            )

    def test_backend_equivalence_sample(self, rome_model):
        # Spot version of the acceptance sweep: reduced value equals the
        # model prediction bitwise.
        be = SimulatedBackend(rome_model)
        chain = generate_chain(256 << 10, 512, seed=0)
        cases = [
            ("M", "L2", Placement(0, 16, 1, label="numa_h1")),
            ("O", "L3", Placement(0, 4, 0, label="same_ccd")),
            ("S", "L1", Placement(0, 1, 0, label="same_ccx")),
            ("E", "RAM", Placement(0, 48, 3, label="numa_h4")),
        ]
        for state, level, placement in cases:
            helper = auto_helper(rome_model.graph, placement.owner, placement.requester) \
                if state in ("O", "S") else None
            script = plan_state(state, "MOESI", owner=placement.owner,
                                helper=helper, requester=0, level=level)
            rec = measure_latency([chain], script, placement, ONE, be)
            assert rec.latency_cycles == be.predict_placement(placement, state, level)

    @pytest.mark.parametrize(
        "topology,state,level",
        [
            ("rome_2s", "M", "L3"),
            ("rome_2s", "O", "L2"),
            ("clx_2s", "S", "L3"),
            ("clx_2s", "F", "L1"),
            ("rome_2s", "E", "RAM"),
        ],
    )
    def test_one_backend_in_any_order_equals_a_fresh_backend_per_point(
        self, topology, state, level
    ):
        # The backend keeps one protocol model per home node; reusing it in
        # any order must not change a record.
        model = load_fixture_model(topology)
        chain = chain_spec(16 * 1024, 512, seed=2)
        placements = enumerate_placements(model.graph, "all_pairs")
        random.Random(9).shuffle(placements)
        shared = SimulatedBackend(model)

        def record(backend, p):
            helper = auto_helper(model.graph, p.owner, p.requester) if state in "OSF" else None
            script = plan_state(state, model.protocol, owner=p.owner, helper=helper,
                                level=level, requester=p.requester)
            return measure_latency([chain], script, p, ONE, backend)

        for p in placements:
            assert record(shared, p) == record(SimulatedBackend(model), p), p


def _sweeps(model):
    """(state, level, placements) of every sweep the CLI can ask for on
    ``model``'s graph: each protocol state x level x scope that enumerates,
    plus the home/forwarder triples where the graph has them."""
    scopes = []
    for scope in PlacementScope:
        try:
            scopes.append(enumerate_placements(model.graph, scope))
        except ScopeError:
            pass
    for placements in scopes:
        for state in model.protocol.value:
            for level in LEVELS:
                yield state, level, placements
    try:
        yield "M", "L2", enumerate_triples(model.graph)
    except ScopeError:
        pass


def _points(model, state, level, placements):
    points = []
    for p in placements:
        helper = auto_helper(model.graph, p.owner, p.requester) if state in "OSF" else None
        script = plan_state(state, model.protocol, owner=p.owner, helper=helper,
                            level=level, requester=p.requester)
        points.append((script, p))
    return points


class TestSweep:
    @pytest.mark.parametrize("topology", ["rome_2s", "clx_2s"])
    def test_sweep_records_equal_per_point_records(self, topology):
        model = load_fixture_model(topology)
        sweeps = list(_sweeps(model))
        assert len(sweeps) >= 80
        for state, level, placements in sweeps:
            points = _points(model, state, level, placements)
            local = all(p.requester == p.owner for _, p in points)
            policy = MeasurementPolicy(reducer="median" if level == "L1" and not local else "min")
            chains = [chain_spec(sz, 512, seed=7) for sz in level_dataset_bytes(model.graph, level)]
            per_point = SimulatedBackend(model)
            expected = [measure_latency(chains, s, p, policy, per_point) for s, p in points]
            got = measure_sweep(chains, points, policy, SimulatedBackend(model))
            assert got == expected, (state, level, placements[0].label)

    def test_each_point_subtracts_its_own_calibration(self):
        class Stepping:
            """Calibration block i reads 100*i + 0..9; every chase 1000."""

            name = "stepping"
            frequency_mhz = 1000.0
            calls = 0

            def time_empty(self):
                block, k = divmod(self.calls, CALIBRATION_REPEATS)
                self.calls += 1
                return 100.0 * block + k

            def run_sweep(self, chains, points, policy):
                return np.full((len(points), 1, 1, 1), 1000.0)

        chain = chain_spec(64 * 10, 64, seed=1)
        points = [(plan_state("M", "MOESI", owner=0, requester=0), Placement(0, 0, 0))] * 3
        records = measure_sweep([chain], points, ONE, Stepping())
        assert [r.overhead_cycles for r in records] == [0.0, 100.0, 200.0]
        assert [r.samples for r in records] == [(100.0,), (90.0,), (80.0,)]

    def test_empty_sweep_has_no_records(self, rome_model):
        assert measure_sweep([chain_spec(8192, 512, seed=0)], [], ONE,
                             SimulatedBackend(rome_model)) == []


def _golden_latency_records(monkeypatch, tmp_path) -> dict:
    """argv -> the records ``measure_sweep`` built, for every latency sweep
    of the golden gate."""
    built = []
    real = harness.measure_sweep

    def capture(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(harness, "measure_sweep", capture)
    records = {}
    for i, argv in enumerate(a for a in SWEEPS if a.startswith("latency")):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv.split() + ["--out", str(tmp_path / str(i))]) == 0
        records[argv] = built.pop()
    return records


def _assert_built_like_the_constructor(record):
    ref = MeasurementRecord(**{f.name: getattr(record, f.name)
                               for f in dataclasses.fields(MeasurementRecord)})
    assert type(record) is MeasurementRecord
    assert record == ref and hash(record) == hash(ref) and repr(record) == repr(ref)
    assert list(vars(record)) == list(vars(ref))
    assert dataclasses.replace(record) == ref
    assert dataclasses.replace(record, seed=1) == dataclasses.replace(ref, seed=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.latency_cycles = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del record.samples


class TestRecordsBuiltInOneStep:
    """``measure_sweep`` fills each record's fields in one step; the record
    is the one the keyword constructor gives."""

    def test_golden_sweeps_equal_constructed_records(self, monkeypatch, tmp_path):
        sweeps = _golden_latency_records(monkeypatch, tmp_path)
        assert len(sweeps) >= 40
        for argv, records in sweeps.items():
            assert records, argv
            for r in records:
                _assert_built_like_the_constructor(r)

    def test_non_constant_sweep_equals_constructed_records(self):
        rng = random.Random(11)
        policy = MeasurementPolicy(inner_repeats=3, outer_repeats=2, sizes_per_level=2)
        chains = [chain_spec(64 * 7, 64, seed=1), chain_spec(64 * 13, 64, seed=1)]
        points = [(plan_state("M", "MOESI", owner=c, requester=0), Placement(0, c, 0))
                  for c in range(6)]
        elapsed = [[[[rng.uniform(0, 3000) for _ in range(3)] for _ in range(2)]
                    for _ in range(2)] for _ in points]
        records = measure_sweep(chains, points, policy, ReplayBackend(elapsed, 40.0))
        assert all(len(set(r.samples)) > 1 for r in records)
        for r in records:
            _assert_built_like_the_constructor(r)

    def test_negative_latency_is_rejected_as_the_constructor_rejects_it(self):
        # Only a chain with a negative access count gets a sample below 0.
        chain = dataclasses.replace(chain_spec(64 * 10, 64, seed=1), element_count=-10)
        points = [(plan_state("M", "MOESI", owner=0, requester=0), Placement(0, 0, 0))]
        with pytest.raises(HarnessError, match="non-negative"):
            measure_sweep([chain], points, ONE, ReplayBackend([[[[100.0]]]]))

    def test_negative_latency_read_back_is_rejected(self, rome_model, tmp_path):
        script = plan_state("M", "MOESI", owner=0, requester=0, level="L1")
        [record] = measure_sweep([chain_spec(8192, 512, seed=0)],
                                 [(script, Placement(0, 0, 0, label="local"))], ONE,
                                 SimulatedBackend(rome_model))
        path = tmp_path / "r.csv"
        ResultSet([record]).to_csv(path)
        header, row = path.read_text().splitlines()
        cells = row.split(",")
        cells[header.split(",").index("latency_cycles")] = "-1.0"
        path.write_text(f"{header}\n{','.join(cells)}\n")
        with pytest.raises(HarnessError, match="non-negative"):
            ResultSet.from_csv(path)

    @pytest.mark.parametrize("topology", ["rome_2s", "clx_2s"])
    def test_equal_values_share_one_samples_tuple(self, topology):
        # Guards the sharing the CSV writer's per-object caches rely on.
        model = load_fixture_model(topology)
        chains = [chain_spec(sz, 512, seed=7) for sz in level_dataset_bytes(model.graph, "L2")]
        for scope in ("local", "all_pairs"):
            points = _points(model, "M", "L2", enumerate_placements(model.graph, scope))
            records = measure_sweep(chains, points, MeasurementPolicy(),
                                    SimulatedBackend(model))
            by_value = {}
            for r in records:
                assert r.samples.count(r.samples[0]) == len(r.samples) == 120
                assert by_value.setdefault(r.samples[0], r.samples) is r.samples
            assert len({id(r.samples) for r in records}) == len(by_value)
            if scope == "all_pairs":
                assert len(by_value) > 1


def _replay_fresh(model, script, placement):
    """The simulator's answer for one point on a fresh protocol model: the
    probe read's source kind and the final map before that read."""
    pmodel = ProtocolModel.from_topology(model.graph, model.protocol)
    final = verify_script(script, pmodel).state_map
    _, source, _ = apply_event(pmodel, final, CacheEvent(placement.requester, Action.READ))
    return source.kind, final


def _relabel(state_map, cores, to_cores, l3_domain_of):
    """``state_map`` with each of ``cores`` renamed to the matching one of
    ``to_cores``, and each of their L3 domains likewise; both renamings
    must be one-to-one."""
    core_to = dict(zip(cores, to_cores))
    dom_to = {l3_domain_of[a]: l3_domain_of[b] for a, b in zip(cores, to_cores)}
    for mapping in (core_to, dom_to):
        assert len(set(mapping.values())) == len(mapping)
    assert [core_to[c] for c in cores] == list(to_cores)
    assert [dom_to[l3_domain_of[c]] for c in cores] == [l3_domain_of[c] for c in to_cores]
    renamed = {"core": core_to, "l3": dom_to}
    return {k if k == "mem" else (k[0], renamed[k[0]][k[1]]): v for k, v in state_map.items()}


class TestCoherenceClassMemo:
    @pytest.mark.parametrize("topology", ["rome_2s", "clx_2s"])
    def test_every_point_replays_like_the_first_of_its_class(self, topology):
        model = load_fixture_model(topology)
        backend = SimulatedBackend(model)
        l3_domain_of = model.graph.l3_domains
        first = {}
        points = 0
        for state, level, placements in _sweeps(model):
            for script, p in _points(model, state, level, placements):
                points += 1
                kind, final = _replay_fresh(model, script, p)
                cores = (p.requester, *script.worker_cores.values())
                key = backend._class_key(script, p)
                assert key is not None
                if key not in first:
                    first[key] = kind, final, cores
                    continue
                kind0, final0, cores0 = first[key]
                assert kind == kind0, (state, level, p)
                assert _relabel(final, cores, cores0, l3_domain_of) == final0, (state, level, p)
        assert len(first) < points / 10

    def test_a_sweep_replays_each_class_once(self, rome_model, monkeypatch):
        import memchar.backends

        replays = []
        verify = memchar.backends.verify_script
        monkeypatch.setattr(memchar.backends, "verify_script",
                            lambda *a: replays.append(1) or verify(*a))
        backend = SimulatedBackend(rome_model)
        chains = [chain_spec(8192, 512, seed=0)]
        for state in "MOS":
            points = _points(rome_model, state, "L2",
                             enumerate_placements(rome_model.graph, "all_pairs"))
            del replays[:]
            measure_sweep(chains, points, ONE, backend)
            classes = {backend._class_key(s, p) for s, p in points}
            assert len(replays) == len(classes) < len(points)
            measure_sweep(chains, points, ONE, backend)
            assert len(replays) == len(classes)

    @pytest.mark.parametrize("topology, state", [("rome_2s", "O"), ("clx_2s", "S")])
    def test_a_sweep_planned_again_replays_nothing(self, topology, state, monkeypatch):
        # Equal steps from separate plans share a class: a second sweep of
        # the same topology, state, level and scope, planned afresh, hits
        # the classes the first replayed.
        import memchar.backends

        replays = []
        verify = memchar.backends.verify_script
        monkeypatch.setattr(memchar.backends, "verify_script",
                            lambda *a: replays.append(1) or verify(*a))
        model = load_fixture_model(topology)
        backend = SimulatedBackend(model)
        chains = [chain_spec(8192, 512, seed=0)]
        placements = enumerate_placements(model.graph, "all_pairs")
        sweeps = [cli._latency_points(model.graph, placements, CoherenceState(state),
                                      model.protocol, "L2") for _ in range(2)]
        assert sweeps[0][0][0].steps is not sweeps[1][0][0].steps
        measure_sweep(chains, sweeps[0], ONE, backend)
        assert replays
        del replays[:]
        measure_sweep(chains, sweeps[1], ONE, backend)
        assert replays == []

    def test_same_cores_other_steps_are_replayed(self, rome_model):
        backend = SimulatedBackend(rome_model)
        placement = Placement(0, 1, 0)
        script = plan_state("M", "MOESI", owner=1, level="L2", requester=0)
        backend.prepare(script, placement)
        no_write = dataclasses.replace(
            script, steps=tuple(s for s in script.steps if s.action is not Action.WRITE)
        )
        assert backend._class_key(no_write, placement) != backend._class_key(script, placement)
        for _ in range(2):
            with pytest.raises(ScriptPlacementError, match="state preparation failed"):
                backend.prepare(no_write, placement)

    def test_same_steps_other_core_pattern_are_replayed(self):
        # Requester 2 finds the shared line in the SNC's L3; the same steps
        # with the requester on the owner's core hit its own L1.
        model = load_fixture_model("clx_2s")
        backend = SimulatedBackend(model)
        script = plan_state("S", "MESIF", owner=0, helper=1, level="L1", requester=2)
        backend.prepare(script, Placement(2, 0, 0))
        local = dataclasses.replace(
            script, worker_cores={**script.worker_cores, WorkerRole.REQUESTER_0: 0}
        )
        backend.prepare(local, Placement(0, 0, 0))
        assert sorted(backend._source_kinds.values()) == ["cache", "l3"]

    def test_a_failing_point_is_not_remembered(self):
        model = load_fixture_model("rome_2s")
        backend = SimulatedBackend(model)
        placement = Placement(0, 1, 0)
        script = plan_state("M", "MOESI", owner=1, level="L2", requester=0)
        model.expected_source_kind = lambda *a: "l3"
        with pytest.raises(ScriptPlacementError, match="from cache, model expects l3"):
            backend.prepare(script, placement)
        assert backend._source_kinds == {}
        del model.expected_source_kind
        backend.prepare(script, placement)
        assert list(backend._source_kinds.values()) == ["cache"]

    def test_a_core_outside_the_graph_is_reported_by_the_replay(self, rome_model):
        backend = SimulatedBackend(rome_model)
        script = plan_state("M", "MOESI", owner=999, level="L2", requester=0)
        placement = Placement(0, 999, 0)
        assert backend._class_key(script, placement) is None
        with pytest.raises(ScriptPlacementError, match="core 999 not in model"):
            backend.prepare(script, placement)


def _direct_script(model, state, level, p):
    helper = auto_helper(model.graph, p.owner, p.requester) if state in "OSF" else None
    return plan_state(state, model.protocol, owner=p.owner, helper=helper, level=level,
                      requester=p.requester)


def _oracle_per_access(topology, state, level, placements):
    """Each point's cycles per access, every point worked out alone: its own
    plan_state script, a replay on a fresh protocol model, and the source
    kind and prediction of a freshly loaded model; or, at the first point
    that fails, (values so far, that point's error message)."""
    values = []
    for p in placements:
        model = load_fixture_model(topology)
        script = _direct_script(model, state, level, p)
        try:
            kind, _ = _replay_fresh(model, script, p)
        except Exception as exc:
            return values, f"state preparation failed: {exc}"
        forwarder = None if p.owner == p.requester else p.owner
        expected = model.expected_source_kind(p.requester, forwarder, script.target_state, level)
        if kind != expected:
            return values, (f"simulator sourced {state}@{level} from {kind}, "
                            f"model expects {expected}")
        values.append(model.predict(p.requester, p.home_node, forwarder, state, level))
    return values, None


class TestPerClassSweep:
    POLICY = MeasurementPolicy(inner_repeats=2, outer_repeats=1, sizes_per_level=2)
    CHAINS = [chain_spec(64 * 7, 64, seed=1), chain_spec(64 * 13, 64, seed=1)]

    @pytest.mark.parametrize("topology", ["rome_2s", "clx_2s"])
    def test_reused_scripts_equal_plan_state_scripts(self, topology):
        model = load_fixture_model(topology)
        for state, level, placements in _sweeps(model):
            points = cli._latency_points(model.graph, placements, CoherenceState(state),
                                         model.protocol, level)
            assert [p for _, p in points] == placements
            for script, p in points:
                direct = _direct_script(model, state, level, p)
                assert script == direct, (state, level, p)
                assert list(script.worker_cores.items()) == list(direct.worker_cores.items())

    @pytest.mark.parametrize("topology", ["rome_2s", "clx_2s"])
    def test_sweep_values_equal_a_per_point_oracle(self, topology):
        # One backend for every sweep, as if one run made them all.
        model = load_fixture_model(topology)
        backend = SimulatedBackend(model)
        counts = [c.element_count for c in self.CHAINS]
        for state, level, placements in _sweeps(model):
            points = cli._latency_points(model.graph, placements, CoherenceState(state),
                                         model.protocol, level)
            values, failure = _oracle_per_access(topology, state, level, placements)
            if failure is not None:
                with pytest.raises(ScriptPlacementError) as err:
                    backend.run_sweep(self.CHAINS, points, self.POLICY)
                assert str(err.value) == failure
                continue
            got = backend.run_sweep(self.CHAINS, points, self.POLICY).tolist()
            want = [[[[v * n] * 2 for n in counts]] for v in values]
            assert got == want, (state, level, placements[0].label)

    def test_a_known_class_is_checked_again_for_another_holder_locality(self):
        # clx_2s M@L2: a holder in another SNC and one on the other socket
        # are the same coherence class; the model disagrees on the second.
        model = load_fixture_model("clx_2s")
        backend = SimulatedBackend(model)
        placements = [Placement(0, 10, 1), Placement(0, 20, 2)]
        (first, p1), (second, p2) = cli._latency_points(
            model.graph, placements, CoherenceState.M, model.protocol, "L2")
        assert backend._class_key(first, p1) == backend._class_key(second, p2)
        expected = model.expected_source_kind
        model.expected_source_kind = lambda r, f, s, lv: (
            "l3" if model.locality_class(r, f) == "remote_socket" else expected(r, f, s, lv))
        backend.prepare(first, p1)
        backend.prepare(first, p1)
        with pytest.raises(ScriptPlacementError, match="from cache, model expects l3"):
            backend.prepare(second, p2)

    @pytest.mark.parametrize("topology", ["rome_2s", "clx_2s"])
    def test_a_run_plans_and_replays_at_most_once_per_class(self, topology, tmp_path,
                                                             monkeypatch):
        import memchar.backends

        calls = {"plan": 0, "verify": 0, "prepare": 0}

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(cli, "plan_state", counted("plan", cli.plan_state))
        monkeypatch.setattr(memchar.backends, "verify_script",
                            counted("verify", memchar.backends.verify_script))
        monkeypatch.setattr(SimulatedBackend, "prepare",
                            counted("prepare", SimulatedBackend.prepare))
        model = load_fixture_model(topology)
        placements = enumerate_placements(model.graph, "all_pairs")
        keys = SimulatedBackend(model)
        for state in model.protocol.value:
            for level in LEVELS:
                classes = {keys._class_key(_direct_script(model, state, level, p), p)
                           for p in placements}
                calls.update(plan=0, verify=0, prepare=0)
                assert cli.main(["latency", "--topology", topology, "--state", state,
                                 "--level", level, "--scope", "all_pairs",
                                 "--out", str(tmp_path)]) == 0
                assert 0 < calls["plan"] <= len(classes) < len(placements)
                assert 0 < calls["verify"] <= len(classes)
                assert calls["prepare"] == len(placements)


class TestFlushPlan:
    def test_empty_levels_empty_plan(self, rome):
        assert flush_scratch_bytes(rome, set()) == 0

    def test_rome_full_flush_size(self, rome):
        floor = 2 * (32 * 1024 + 512 * 1024 + 16 * 1024 * 1024)
        assert flush_scratch_bytes(rome, {"L1", "L2", "L3"}) >= floor

    def test_unknown_cache_sizes_rejected(self):
        doc = json.loads(fixture_path("rome_2s.json").read_text())
        del doc["caches"]
        from memchar.topology import load_topology

        bare = load_topology(doc)
        with pytest.raises(TopologyError, match="cache size"):
            flush_scratch_bytes(bare, {"L1"})

    def test_bad_level_rejected(self, rome):
        with pytest.raises(HarnessError):
            flush_scratch_bytes(rome, {"L4"})


class TestEnvAndLadders:
    def test_policy_from_env(self, monkeypatch):
        monkeypatch.setenv("MEMCHAR_ALIGNMENT", "64")
        monkeypatch.setenv("MEMCHAR_FLUSH_L3", "0")
        monkeypatch.setenv("MEMCHAR_HUGEPAGES", "0")
        policy, alignment, huge = policy_from_env()
        assert alignment == 64
        assert not huge
        assert policy.flush_levels == frozenset({"L1", "L2"})

    def test_env_defaults(self, monkeypatch):
        for var in ("MEMCHAR_ALIGNMENT", "MEMCHAR_HUGEPAGES", "MEMCHAR_FLUSH_L1"):
            monkeypatch.delenv(var, raising=False)
        policy, alignment, huge = policy_from_env()
        assert alignment == 512
        assert huge
        assert policy.flush_levels == frozenset({"L1", "L2", "L3"})

    def test_level_ladders_fit_their_level(self, rome):
        assert level_dataset_bytes(rome, "L1") == [4096, 8192, 16384, 32768]
        assert level_dataset_bytes(rome, "L2")[-1] == 512 * 1024
        assert level_dataset_bytes(rome, "RAM")[0] == 32 << 20

    def test_auto_helper_prefers_owner_ccx(self, rome):
        assert auto_helper(rome, owner=0, requester=1) == 2
        assert auto_helper(rome, owner=4, requester=0) == 5

    def test_auto_helper_needs_third_core(self):
        single = load_topology_file(fixture_path("single_core.json"))
        with pytest.raises(HarnessError):
            auto_helper(single, owner=0, requester=0)
