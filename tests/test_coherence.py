"""Protocol simulator and state-preparation scripts.

The two-cache transition assertions are an independent oracle: the expected
table below is written out by hand from the protocol definitions, then the
simulator is checked against it configuration by configuration.
"""

import dataclasses
import functools
import itertools
import random

import pytest

from memchar.coherence import (
    HELPER_STATES,
    LEVELS,
    Action,
    CoherenceError,
    CoherenceState,
    Protocol,
    ProtocolModel,
    ReadSource,
    ScriptStep,
    WorkerRole,
    initial_state_map,
    plan_state,
    apply_event,
    simulate,
    state_at,
    verify_script,
)
from oracles import check_single_owner, protocol_model, protocol_states

M, O, E, S, F, I = (
    CoherenceState.M,
    CoherenceState.O,
    CoherenceState.E,
    CoherenceState.S,
    CoherenceState.F,
    CoherenceState.I,
)

MOESI = protocol_model(Protocol.MOESI, cores=range(4), cores_per_domain=2)
MESIF = protocol_model(Protocol.MESIF, cores=range(4), cores_per_domain=2)
# Separate L3 domains per core: pure two-party protocol behavior.
MOESI_SPLIT = protocol_model(Protocol.MOESI, cores=range(4), cores_per_domain=1)
MESIF_SPLIT = protocol_model(Protocol.MESIF, cores=range(4), cores_per_domain=1)


def states_of(state_map, cores=(0, 1)):
    out = []
    for c in cores:
        e = state_map.get(("core", c))
        out.append(e.state if e is not None else I)
    return tuple(out)


def uses_helper(script):
    return any(s.worker is WorkerRole.HELPER_M for s in script.steps)


def run_events(model, events, state=None):
    m = state if state is not None else initial_state_map()
    for core, action in events:
        m = apply_event(model, m, core, action)[0]
    return m


def _without(script, action):
    """``script`` minus its ``action`` steps."""
    return dataclasses.replace(
        script, steps=tuple(s for s in script.steps if s.action is not action)
    )


def _with_requester_read(script):
    """``script`` followed by a read of the requester."""
    return dataclasses.replace(
        script, steps=script.steps + (ScriptStep(WorkerRole.REQUESTER_0, Action.READ),)
    )


class TestPlanState:
    def test_exclusive_script_shape(self):
        script = plan_state(E, Protocol.MESIF, owner=1, requester=0)
        actions = [(s.worker, s.action) for s in script.steps]
        # flush everywhere first, then the owner read
        assert actions[-1] == (WorkerRole.OWNER_N, Action.READ)
        assert all(a is Action.FLUSH for _, a in actions[:-1])
        m = verify_script(script, MESIF_SPLIT)
        assert m.get(("core", 1)).state is E

    def test_modified_is_one_write(self):
        script = plan_state(M, Protocol.MOESI, owner=2, requester=0)
        prep = [s for s in script.steps if s.action is not Action.FLUSH]
        assert [(s.worker, s.action) for s in prep] == [(WorkerRole.OWNER_N, Action.WRITE)]
        assert verify_script(script, MOESI)[("core", 2)].state is M

    def test_owned_leaves_helper_shared(self):
        script = plan_state(O, Protocol.MOESI, owner=1, helper=3, requester=0)
        m = verify_script(script, MOESI)
        assert m.get(("core", 1)).state is O
        assert m.get(("core", 3)).state is S

    def test_forward_goes_to_most_recent_reader(self):
        script = plan_state(F, Protocol.MESIF, owner=1, helper=3, requester=0)
        m = verify_script(script, MESIF)
        assert m.get(("core", 1)).state is F
        assert m.get(("core", 3)).state is S

    @pytest.mark.parametrize("script, error", [
        (_without(plan_state(I, Protocol.MOESI, owner=1, level="L1", requester=0),
                  Action.FLUSH),
         r"I@L1: line still cached at \[\('core', 1\)\]"),
        (_without(plan_state(M, Protocol.MOESI, owner=1, level="L2", requester=0),
                  Action.WRITE),
         "target M@L2 on core 1, simulator says I"),
        (_with_requester_read(plan_state(S, Protocol.MOESI, owner=1, helper=2, level="L1",
                                         requester=0)),
         "line leaked into requester core 0"),
    ], ids=["still-cached", "wrong-state", "requester-leak"])
    def test_verify_refuses_a_script_that_misses_its_target(self, script, error):
        with pytest.raises(CoherenceError, match=error):
            verify_script(script, MOESI)

    def test_helper_required_for_shared_class(self):
        with pytest.raises(CoherenceError, match="helper"):
            plan_state(S, Protocol.MOESI, owner=1)
        with pytest.raises(CoherenceError, match="helper"):
            plan_state(F, Protocol.MESIF, owner=1, helper=1)

    def test_state_protocol_mismatch(self):
        with pytest.raises(CoherenceError, match="not part of"):
            plan_state(O, Protocol.MESIF, owner=1, helper=2)
        with pytest.raises(CoherenceError, match="not part of"):
            plan_state(F, Protocol.MOESI, owner=1, helper=2)

    def test_worker_usage_invariant(self):
        # E, M, I scripts use requester/owner only; S, F, O add the helper.
        for st in (E, M, I):
            script = plan_state(st, Protocol.MESIF, owner=1, requester=0,
                                helper=2 if st in (S, F, O) else None)
            assert not uses_helper(script)
        for proto, states in ((Protocol.MOESI, (O, S)), (Protocol.MESIF, (S, F))):
            for st in states:
                script = plan_state(st, proto, owner=1, helper=2, requester=0)
                assert uses_helper(script)

    @pytest.mark.parametrize("protocol,model", [(Protocol.MOESI, MOESI), (Protocol.MESIF, MESIF)])
    @pytest.mark.parametrize("level", ["L1", "L2", "L3", "RAM"])
    def test_totality_all_states_all_levels(self, protocol, model, level):
        for state in protocol_states(protocol):
            helper = 3 if state in (O, S, F) else None
            script = plan_state(state, protocol, owner=1, helper=helper,
                                requester=0, level=level)
            m = verify_script(script, model)
            if state is I or level == "RAM":
                assert all(k == "mem" for k in m)
            else:
                assert state_at(model, m, 1, level) is state
            assert m.get(("core", 0)) is None  # absent from requester caches

    @pytest.mark.parametrize("protocol", [Protocol.MOESI, Protocol.MESIF])
    @pytest.mark.parametrize("helper", [1, 2], ids=["helper_same_l3", "helper_other_l3"])
    @pytest.mark.parametrize("requester", [0, 4], ids=["requester_is_owner", "requester_apart"])
    def test_every_helper_and_requester_placement(self, protocol, helper, requester):
        # Owner 0 shares domain d0 with core 1; core 2 sits in d1, core 4 in d2.
        model = protocol_model(protocol, cores=range(6), cores_per_domain=2)
        failures = []
        for state, level in itertools.product(protocol_states(protocol), ("L1", "L2", "L3", "RAM")):
            script = plan_state(state, protocol, owner=0, requester=requester,
                                helper=helper if state in (O, S, F) else None,
                                level=level)
            try:
                m = verify_script(script, model)
            except CoherenceError as exc:
                failures.append((state.value, level, str(exc)))
                continue
            if state is I or level == "RAM":
                reached = all(k == "mem" for k in m)
            else:
                reached = state_at(model, m, 0, level) is state
            if not reached:
                failures.append((state.value, level, "target not reached"))
        assert failures == []

    def test_level_demotion_places_line(self):
        script = plan_state(M, Protocol.MOESI, owner=1, requester=0, level="L2")
        m = verify_script(script, MOESI)
        assert m.get(("core", 1)).level == "L2"
        script = plan_state(E, Protocol.MOESI, owner=1, requester=0, level="L3")
        m = verify_script(script, MOESI)
        assert m.get(("core", 1)) is None
        assert m.get(("l3", MOESI.l3_domain_of[1])).state is E


class TestProtocolStep:
    def test_write_from_invalid_gives_modified(self):
        for model in (MOESI_SPLIT, MESIF_SPLIT):
            m = run_events(model, [(0, Action.WRITE)])
            assert states_of(m) == (M, I)

    def test_moesi_remote_read_of_modified(self):
        m = run_events(MOESI_SPLIT, [(0, Action.WRITE), (1, Action.READ)])
        assert states_of(m) == (O, S)

    def test_mesif_forward_migrates_to_newest_reader(self):
        # S in core 0 with the F designation; read by core 2 takes F over.
        state = {
            "mem": 0,
            ("core", 0): _entry(F, 7),
            ("core", 1): _entry(S, 7),
        }
        m = apply_event(MESIF_SPLIT, state, 2, Action.READ)[0]
        assert states_of(m, (0, 1, 2)) == (S, S, F)

    def test_total_over_event_alphabet(self):
        random.seed(7)
        for model in (MOESI, MESIF):
            m = initial_state_map()
            for _ in range(200):
                core = random.choice(list(model.l3_domain_of))
                action = random.choice(list(Action))
                m = apply_event(model, m, core, action)[0]
                assert check_single_owner(m)

    def test_unknown_core_rejected(self):
        with pytest.raises(CoherenceError, match="core 9"):
            apply_event(MOESI, initial_state_map(), 9, Action.READ)[0]

    def test_victim_eviction_moves_line_to_l3(self):
        m = run_events(MOESI, [(0, Action.READ), (0, Action.EVICT_L2)])
        assert ("core", 0) not in m
        assert m[("l3", MOESI.l3_domain_of[0])].state is E

    def test_l1_eviction_keeps_inclusive_l2(self):
        m = run_events(MOESI, [(0, Action.WRITE), (0, Action.EVICT_L1)])
        assert m[("core", 0)].level == "L2"
        assert m[("core", 0)].state is M

    def test_flush_writes_back_dirty(self):
        m = run_events(MOESI, [(0, Action.WRITE)])
        value = m[("core", 0)].value
        m = apply_event(MOESI, m, 0, Action.FLUSH)[0]
        assert m == {"mem": value}

    def test_two_cache_transitions_match_hand_table(self):
        # Independent oracle: expected (A,B) outcomes written by hand per
        # protocol definition, for every reachable seed configuration.
        R, W = Action.READ, Action.WRITE
        cases_moesi = [
            # seed events         action  expected (A, B)
            ([], (0, R), (E, I)),
            ([], (0, W), (M, I)),
            ([(1, R)], (0, R), (S, S)),
            ([(1, R)], (0, W), (M, I)),
            ([(1, W)], (0, R), (S, O)),
            ([(1, W)], (0, W), (M, I)),
            ([(0, W), (1, R)], (0, R), (O, S)),  # read hit on O
            ([(0, W), (1, R)], (0, W), (M, I)),
            ([(0, R)], (0, W), (M, I)),  # E upgrade on write hit
        ]
        for seed, (core, action), expected in cases_moesi:
            m = run_events(MOESI_SPLIT, seed)
            m = apply_event(MOESI_SPLIT, m, core, action)[0]
            assert states_of(m) == expected, (seed, action)
        cases_mesif = [
            ([], (0, R), (E, I)),
            ([], (0, W), (M, I)),
            ([(1, R)], (0, R), (F, S)),
            ([(1, R)], (0, W), (M, I)),
            ([(1, W)], (0, R), (F, S)),  # M writes back, reader takes F
            ([(1, W)], (0, W), (M, I)),
            ([(0, R)], (0, W), (M, I)),
        ]
        for seed, (core, action), expected in cases_mesif:
            m = run_events(MESIF_SPLIT, seed)
            m = apply_event(MESIF_SPLIT, m, core, action)[0]
            assert states_of(m) == expected, (seed, action)

    def test_mesif_read_of_modified_updates_memory(self):
        m = run_events(MESIF_SPLIT, [(0, Action.WRITE)])
        value = m[("core", 0)].value
        m = apply_event(MESIF_SPLIT, m, 1, Action.READ)[0]
        assert m["mem"] == value

    def test_moesi_read_of_modified_keeps_memory_stale(self):
        m = run_events(MOESI_SPLIT, [(0, Action.WRITE)])
        value = m[("core", 0)].value
        m = apply_event(MOESI_SPLIT, m, 1, Action.READ)[0]
        assert m["mem"] != value
        assert m[("core", 0)].state is O


def _entry(state, value, level="L1"):
    from memchar.coherence import CacheEntry

    return CacheEntry(state, level, value)


class TestSimulate:
    def test_empty_script_is_all_invalid(self):
        from memchar.coherence import CoherenceScript

        script = CoherenceScript(
            steps=(), target_state=I, target_level="RAM",
            protocol=Protocol.MOESI, worker_cores={WorkerRole.OWNER_N: 0},
        )
        m = simulate(script, MOESI)
        assert m == {"mem": 0}

    def test_victim_read_then_capacity_evict(self):
        script = plan_state(E, Protocol.MOESI, owner=0, level="L3")
        m = verify_script(script, MOESI)
        assert m.get(("core", 0)) is None
        assert m.get(("l3", MOESI.l3_domain_of[0])).state is E

    def test_trace_records_data_source(self):
        script = plan_state(M, Protocol.MOESI, owner=1, requester=0)
        m = simulate(script, MOESI)
        new, source, value = apply_event(MOESI, m, 0, Action.READ)
        assert source.kind == "cache"
        assert source.supplier == 1

    def test_mesif_shared_lines_supplied_by_l3(self):
        for st, helper_first in ((S, False), (F, True)):
            script = plan_state(st, Protocol.MESIF, owner=1, helper=3, requester=0)
            m = simulate(script, MESIF)
            new, source, _ = apply_event(MESIF, m, 0, Action.READ)
            assert source.kind == "l3", st

    def test_moesi_clean_shared_cross_domain_reads_ram(self):
        # Cores 0,1 share domain d0; 2,3 share d1.  Shared line held only in
        # d1 is served by memory for a d0 requester.
        script = plan_state(S, Protocol.MOESI, owner=2, helper=3, requester=0)
        m = simulate(script, MOESI)
        _, source, _ = apply_event(MOESI, m, 0, Action.READ)
        assert source.kind == "ram"

    def test_moesi_shared_same_domain_from_l2(self):
        script = plan_state(S, Protocol.MOESI, owner=1, helper=0, requester=2)
        m = simulate(script, MOESI)
        # Requester core 2 shares no domain with 0/1 -> RAM; core 1's
        # domain-mate (core 0) holds the line too, so ask from core 1 side.
        _, source, _ = apply_event(MOESI, m, 2, Action.READ)
        assert source.kind == "ram"
        script = plan_state(S, Protocol.MOESI, owner=1, helper=3, requester=0)
        m = simulate(script, MOESI)
        _, source, _ = apply_event(MOESI, m, 0, Action.READ)
        assert source.kind == "cache"

    @pytest.mark.parametrize("protocol,model", [(Protocol.MOESI, MOESI), (Protocol.MESIF, MESIF)])
    def test_simulate_folds_apply_event_over_the_steps(self, protocol, model):
        for state, level in itertools.product(protocol_states(protocol), LEVELS):
            script = plan_state(state, protocol, owner=1, requester=0, level=level,
                                helper=3 if state in HELPER_STATES else None)
            folded = functools.reduce(
                lambda m, step: apply_event(
                    model, m, script.worker_cores[step.worker], step.action)[0],
                script.steps, initial_state_map())
            assert simulate(script, model) == folded, (state, level)

    def test_script_worker_must_exist(self):
        script = plan_state(M, Protocol.MOESI, owner=77)
        with pytest.raises(CoherenceError, match="core 77"):
            simulate(script, MOESI)


class TestInvariantFuzz:
    def test_quick_fuzz_single_owner_and_raw(self):
        # Abbreviated version of the acceptance fuzz: both protocols.
        rng = random.Random(1234)
        actions = list(Action)
        for model in (MOESI, MESIF):
            last_write = 0
            m = initial_state_map()
            for _ in range(5000):
                core = rng.randrange(4)
                action = rng.choice(actions)
                value = None
                if action is Action.WRITE:
                    last_write += 1
                    value = last_write
                m, source, value_read = apply_event(
                    model, m, core, action, value
                )
                assert check_single_owner(m)
                if action is Action.READ:
                    assert value_read == last_write


class TestNameIndependence:
    """The simulator compares cores and L3 domains only for equality, so a
    run on renamed cores and domains gives the renamed answers.  The
    simulated backend's coherence-class key relies on this."""

    DOMAINS = ("l3.a", "l3.b", "l3.c")

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_renamed_run_maps_onto_the_original(self, protocol):
        rng = random.Random(33)
        cores = tuple(range(6))
        model = ProtocolModel(protocol, {c: self.DOMAINS[c // 2] for c in cores})
        actions = list(Action)
        for _ in range(50):
            # Domains renamed in reverse str order, core ids permuted.
            to = dict(zip(self.DOMAINS, ("l3.z", "l3.y", "l3.x")), mem="mem")
            to.update(zip(cores, rng.sample(range(10, 16), len(cores))))
            renamed = ProtocolModel(protocol,
                                    {to[c]: to[d] for c, d in model.l3_domain_of.items()})
            m = m2 = initial_state_map()
            for _ in range(40):
                core, action = rng.choice(cores), rng.choice(actions)
                m, source, value = apply_event(model, m, core, action)
                m2, source2, value2 = apply_event(renamed, m2, to[core], action)
                if source is not None:
                    source = dataclasses.replace(source, supplier=to[source.supplier])
                assert {k if k == "mem" else (k[0], to[k[1]]): v for k, v in m.items()} == m2
                assert (source2, value2) == (source, value)
                assert all(v.state is not I for k, v in m.items() if k != "mem")

    def test_mesif_answers_from_the_first_other_domain_copy(self):
        # Cores 0, 1 and 2 each in their own domain; reads of 0 and 1 leave
        # L3 copies in core 0's domain, then core 1's.  Whichever names the
        # domains carry, core 2 is answered from core 0's.
        events = [(0, Action.READ), (1, Action.READ), (1, Action.EVICT_L2), (2, Action.READ)]
        for names in (self.DOMAINS, ("l3.b", "l3.a", "l3.c")):
            model = ProtocolModel(Protocol.MESIF, dict(enumerate(names)))
            m = run_events(model, events[:-1])
            source = apply_event(model, m, 2, Action.READ)[1]
            assert source == ReadSource("l3", names[0])
