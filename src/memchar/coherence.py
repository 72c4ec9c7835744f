"""Cache-coherence protocol simulator and state-preparation scripts.

The simulator tracks a single cache line across per-core private caches
(an inclusive L1/L2 pair), shared L3 domains, and home memory.  It serves
two roles:

* oracle for :func:`plan_state` -- every generated access script is proven
  to leave the line in the requested state at the requested level;
* data-source model for the simulated measurement backend -- each read
  returns which agent (core, L3 domain or home memory) and which level
  supplied the data.

Two protocols are modeled: MOESI over a victim-exclusive L3 (writebacks
populate L3, dirty-shared lines stay dirty under Owned) and MESIF over a
non-inclusive L3 (reads fill L2 without forcing L3 residency; downgraded
shared lines leave a copy in the supplier's L3, which then answers
Shared/Forward requests).  The Forward designation follows the most recent
reader.

A :class:`ProtocolModel` comes from a topology
(:meth:`ProtocolModel.from_topology`: one L3 domain per CCX, or per SNC on
the mesh).  :func:`apply_event` is the one transition function: it returns
the new state map together with the read's source and the value read or
written.  :func:`simulate` runs a script through it from the all-Invalid
map and keeps only the final map, and :func:`verify_script` checks that
the script reached its target.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

__all__ = [
    "CoherenceState",
    "Protocol",
    "Action",
    "WorkerRole",
    "CoherenceError",
    "ProtocolModel",
    "CacheEntry",
    "CacheEvent",
    "ReadSource",
    "SimResult",
    "CoherenceScript",
    "ScriptStep",
    "initial_state_map",
    "apply_event",
    "simulate",
    "plan_state",
]


class CoherenceError(Exception):
    pass


class CoherenceState(str, Enum):
    M = "M"
    O = "O"
    E = "E"
    S = "S"
    F = "F"
    I = "I"

    def valid_for(self, protocol: "Protocol") -> bool:
        if self is CoherenceState.O:
            return protocol is Protocol.MOESI
        if self is CoherenceState.F:
            return protocol is Protocol.MESIF
        return True


class Protocol(str, Enum):
    MOESI = "MOESI"
    MESIF = "MESIF"


class Action(str, Enum):
    READ = "read"
    WRITE = "write"
    FLUSH = "flush"
    EVICT_L1 = "evict_l1"
    EVICT_L2 = "evict_l2"


class WorkerRole(str, Enum):
    REQUESTER_0 = "requester_0"
    OWNER_N = "owner_N"
    HELPER_M = "helper_M"


# States that confer exclusive responsibility; at most one holder system-wide.
OWNERSHIP_STATES = frozenset(
    {CoherenceState.M, CoherenceState.E, CoherenceState.O, CoherenceState.F}
)
_DIRTY_STATES = frozenset({CoherenceState.M, CoherenceState.O})
_STATE_STRENGTH = {
    CoherenceState.M: 5,
    CoherenceState.O: 4,
    CoherenceState.E: 3,
    CoherenceState.F: 2,
    CoherenceState.S: 1,
    CoherenceState.I: 0,
}


@dataclass(frozen=True)
class ProtocolModel:
    """Protocol plus the cache hierarchy it runs over.

    ``l3_domain_of`` maps core id to its shared-L3 domain id (a CCX on the
    chiplet design, an SNC on the mesh).  The L2 is inclusive of L1, and the
    protocol, given as a :class:`Protocol` or its name, fixes the L3 policy:
    MOESI runs over a victim-exclusive L3, MESIF over a non-inclusive one.
    """

    protocol: Protocol
    cores: tuple[int, ...]
    l3_domain_of: dict[int, str]
    home_node: int = 0

    def __post_init__(self):
        object.__setattr__(self, "protocol", Protocol(self.protocol))
        missing = [c for c in self.cores if c not in self.l3_domain_of]
        if missing:
            raise CoherenceError(f"cores without an L3 domain: {missing}")

    @classmethod
    def from_topology(cls, graph, protocol: Protocol | str, home_node: int = 0):
        domains = graph.l3_domains
        return cls(protocol, tuple(graph.cores), domains, home_node)


@dataclass(frozen=True)
class CacheEntry:
    state: CoherenceState
    levels: frozenset[str]  # subset of {"L1","L2"} for cores, {"L3"} for domains
    value: int

    @property
    def innermost(self) -> str:
        for lv in ("L1", "L2", "L3"):
            if lv in self.levels:
                return lv
        raise CoherenceError("entry holds no level")


@dataclass(frozen=True)
class CacheEvent:
    core: int
    action: Action
    value: Optional[int] = None  # only writes carry a value


@dataclass(frozen=True)
class ReadSource:
    kind: str  # "cache" | "l3" | "ram"
    supplier: object  # core id, domain id, or home node
    level: str  # L1 | L2 | L3 | RAM


StateMap = dict  # {"mem": int, ("core", c): CacheEntry, ("l3", d): CacheEntry}


def initial_state_map(mem_value: int = 0) -> StateMap:
    """All-Invalid map: the line exists only in home memory."""
    return {"mem": mem_value}


def _holders(state_map: StateMap):
    return [(k, v) for k, v in state_map.items() if k != "mem"]


def _ownership_holder(state_map: StateMap):
    for k, v in _holders(state_map):
        if v.state in OWNERSHIP_STATES:
            return k, v
    return None


def _next_value(state_map: StateMap) -> int:
    vals = [state_map["mem"]] + [v.value for _, v in _holders(state_map)]
    return max(vals) + 1


def _core_domain(model: ProtocolModel, core: int) -> str:
    try:
        return model.l3_domain_of[core]
    except KeyError:
        raise CoherenceError(f"event core {core} not in model") from None


def _source_for_supplier(model, key, entry: CacheEntry) -> ReadSource:
    if key[0] == "l3":
        return ReadSource("l3", key[1], "L3")
    core = key[1]
    if model.protocol is Protocol.MOESI and entry.state in (
        CoherenceState.O,
        CoherenceState.S,
    ):
        level = "L2"  # dirty-shared / shared lines answer from the inclusive L2
    elif model.protocol is Protocol.MESIF and entry.state is CoherenceState.E:
        level = "L2"  # clean-exclusive lines are fetched from the inclusive L2
    else:
        level = entry.innermost
    return ReadSource("cache", core, level)


def _install_shared_l3_copy(new: StateMap, model, supplier_core: int, value: int):
    """A line downgraded to shared leaves a copy in the supplier's L3 domain."""
    dkey = ("l3", _core_domain(model, supplier_core))
    cur = new.get(dkey)
    if cur is None or _STATE_STRENGTH[cur.state] < _STATE_STRENGTH[CoherenceState.S]:
        new[dkey] = CacheEntry(CoherenceState.S, frozenset({"L3"}), value)


def _read(model: ProtocolModel, state_map: StateMap, core: int):
    if model.protocol is Protocol.MOESI:
        return _read_moesi(model, state_map, core)
    return _read_mesif(model, state_map, core)


def _read_moesi(model: ProtocolModel, state_map: StateMap, core: int):
    new = dict(state_map)
    own_key = ("core", core)
    own = new.get(own_key)
    if own is not None and own.state is not CoherenceState.I:
        return new, ReadSource("cache", core, own.innermost), own.value

    dkey = ("l3", _core_domain(model, core))
    l3 = new.get(dkey)
    if l3 is not None and l3.state is not CoherenceState.I:
        if l3.state in (CoherenceState.M, CoherenceState.E):
            # Victim hit on an exclusive line: it moves back up.
            del new[dkey]
            new[own_key] = CacheEntry(l3.state, frozenset({"L1", "L2"}), l3.value)
        else:
            new[own_key] = CacheEntry(
                CoherenceState.S, frozenset({"L1", "L2"}), l3.value
            )
        return new, ReadSource("l3", dkey[1], "L3"), l3.value

    owner = _ownership_holder(new)
    if owner is not None:
        key, entry = owner
        source = _source_for_supplier(model, key, entry)
        value = entry.value
        if entry.state in (CoherenceState.M, CoherenceState.O):
            # Dirty data stays dirty: the supplier keeps it as Owned.
            new[key] = replace(entry, state=CoherenceState.O)
        else:  # E: clean line; both end up Shared, no L3 copy is made
            new[key] = replace(entry, state=CoherenceState.S)
        new[own_key] = CacheEntry(CoherenceState.S, frozenset({"L1", "L2"}), value)
        return new, source, value

    # Only clean shared copies (or nothing) remain.  Sharers inside the
    # requester's L3 domain answer from their inclusive L2; clean copies
    # beyond the domain are not forwarded -- home memory answers.
    for k, v in _holders(new):
        if (
            v.state is CoherenceState.S
            and k[0] == "core"
            and _core_domain(model, k[1]) == _core_domain(model, core)
        ):
            new[own_key] = CacheEntry(CoherenceState.S, frozenset({"L1", "L2"}), v.value)
            return new, _source_for_supplier(model, k, v), v.value
    value = new["mem"]
    shared_somewhere = any(v.state is CoherenceState.S for _, v in _holders(new))
    fill = CoherenceState.S if shared_somewhere else CoherenceState.E
    new[own_key] = CacheEntry(fill, frozenset({"L1", "L2"}), value)
    return new, ReadSource("ram", model.home_node, "RAM"), value


def _read_mesif(model: ProtocolModel, state_map: StateMap, core: int):
    new = dict(state_map)
    own_key = ("core", core)
    own = new.get(own_key)
    if own is not None and own.state is not CoherenceState.I:
        return new, ReadSource("cache", core, own.innermost), own.value

    dkey = ("l3", _core_domain(model, core))
    l3 = new.get(dkey)
    if l3 is not None and l3.state in (CoherenceState.M, CoherenceState.E):
        # Victim hit on an exclusive line: it moves back up.
        del new[dkey]
        new[own_key] = CacheEntry(l3.state, frozenset({"L1", "L2"}), l3.value)
        return new, ReadSource("l3", dkey[1], "L3"), l3.value

    owner = _ownership_holder(new)
    if owner is not None and owner[1].state in (CoherenceState.M, CoherenceState.E):
        key, entry = owner
        source = _source_for_supplier(model, key, entry)
        value = entry.value
        if entry.state is CoherenceState.M:
            new["mem"] = value  # dirty data written back on downgrade
        new[key] = replace(entry, state=CoherenceState.S)
        if key[0] == "core":
            # Non-inclusive L3 picks up a copy of the now-shared line; it
            # answers subsequent Shared/Forward requests.
            _install_shared_l3_copy(new, model, key[1], value)
        new[own_key] = CacheEntry(CoherenceState.F, frozenset({"L1", "L2"}), value)
        return new, source, value

    # Shared line (level copies in L3, an F holder, or plain S copies).
    # The Forward designation migrates to the most recent reader.
    def demote_forward_holder():
        for k, v in _holders(new):
            if v.state is CoherenceState.F:
                new[k] = replace(v, state=CoherenceState.S)

    l3_copies = sorted(
        (k for k, v in _holders(new) if k[0] == "l3" and v.state is not CoherenceState.I),
        key=lambda k: (k[1] != _core_domain(model, core), str(k[1])),
    )
    if l3_copies:
        k = l3_copies[0]
        value = new[k].value
        if new[k].state is CoherenceState.F:
            new[k] = replace(new[k], state=CoherenceState.S)
        demote_forward_holder()
        new[own_key] = CacheEntry(CoherenceState.F, frozenset({"L1", "L2"}), value)
        return new, ReadSource("l3", k[1], "L3"), value

    holders = _holders(new)
    fwd = next((kv for kv in holders if kv[1].state is CoherenceState.F), None)
    if fwd is not None:
        key, entry = fwd
        value = entry.value
        source = _source_for_supplier(model, key, entry)
        demote_forward_holder()
        new[own_key] = CacheEntry(CoherenceState.F, frozenset({"L1", "L2"}), value)
        return new, source, value

    if any(v.state is CoherenceState.S for _, v in holders):
        value = new["mem"]
        new[own_key] = CacheEntry(CoherenceState.F, frozenset({"L1", "L2"}), value)
        return new, ReadSource("ram", model.home_node, "RAM"), value

    # Nobody holds it: exclusive fill from home memory.
    value = new["mem"]
    new[own_key] = CacheEntry(CoherenceState.E, frozenset({"L1", "L2"}), value)
    return new, ReadSource("ram", model.home_node, "RAM"), value


def _write(model: ProtocolModel, state_map: StateMap, core: int, value: int):
    new = {"mem": state_map["mem"]}
    new[("core", core)] = CacheEntry(CoherenceState.M, frozenset({"L1", "L2"}), value)
    return new


def _flush(model: ProtocolModel, state_map: StateMap, core: int):
    new = dict(state_map)
    for key in (("core", core), ("l3", _core_domain(model, core))):
        entry = new.get(key)
        if entry is None:
            continue
        if entry.state in _DIRTY_STATES:
            new["mem"] = entry.value
        del new[key]
    return new


def _evict_l1(model: ProtocolModel, state_map: StateMap, core: int):
    new = dict(state_map)
    key = ("core", core)
    entry = new.get(key)
    if entry is not None and "L1" in entry.levels:
        # L2 is inclusive of L1, so the line survives in L2.
        new[key] = replace(entry, levels=frozenset({"L2"}))
    return new


def _evict_l2(model: ProtocolModel, state_map: StateMap, core: int):
    new = dict(state_map)
    key = ("core", core)
    entry = new.pop(key, None)
    if entry is None:
        return new
    # Both L3 policies install the victim; the non-inclusive L3 "appears as
    # a victim cache" on this path.
    dkey = ("l3", _core_domain(model, core))
    cur = new.get(dkey)
    if cur is None or _STATE_STRENGTH[cur.state] <= _STATE_STRENGTH[entry.state]:
        new[dkey] = CacheEntry(entry.state, frozenset({"L3"}), entry.value)
    return new


def apply_event(
    model: ProtocolModel, state_map: StateMap, event: CacheEvent
) -> tuple[StateMap, Optional[ReadSource], Optional[int]]:
    """One transition; returns (new map, read source, value read/written)."""
    if event.core not in model.l3_domain_of:
        raise CoherenceError(f"event core {event.core} not in model")
    if event.action is Action.READ:
        return _read(model, state_map, event.core)
    if event.action is Action.WRITE:
        value = event.value if event.value is not None else _next_value(state_map)
        return _write(model, state_map, event.core, value), None, value
    if event.action is Action.FLUSH:
        return _flush(model, state_map, event.core), None, None
    if event.action is Action.EVICT_L1:
        return _evict_l1(model, state_map, event.core), None, None
    if event.action is Action.EVICT_L2:
        return _evict_l2(model, state_map, event.core), None, None
    raise CoherenceError(f"unknown action {event.action}")


# ---------------------------------------------------------------------------
# Scripts


@dataclass(frozen=True)
class ScriptStep:
    worker: WorkerRole
    action: Action


@dataclass(frozen=True)
class CoherenceScript:
    """Ordered worker actions that drive a line into a target state/level."""

    steps: tuple[ScriptStep, ...]
    target_state: CoherenceState
    target_level: str
    protocol: Protocol
    worker_cores: dict[WorkerRole, int]

    @property
    def owner(self) -> int:
        return self.worker_cores[WorkerRole.OWNER_N]

    @property
    def helper(self) -> Optional[int]:
        return self.worker_cores.get(WorkerRole.HELPER_M)


_HELPER_STATES = frozenset({CoherenceState.S, CoherenceState.F, CoherenceState.O})


def plan_state(
    state: CoherenceState | str,
    protocol: Protocol | str,
    owner: int,
    helper: Optional[int] = None,
    level: str = "L1",
    requester: Optional[int] = None,
) -> CoherenceScript:
    """Script that leaves the line in ``state`` in the owner's cache at
    ``level`` (and in home memory only, for level RAM).

    Shared-class states (S, F, O) need a distinct helper core; Exclusive,
    Modified, and Invalid use the owner alone.  The generated script starts
    by flushing every participating worker so it is also correct on a
    non-fresh model.

    MESIF S at L3 evicts only the owner's L2: the owner's L3 domain holds
    the line in S and the helper keeps its F copy in L2.  Evicting the
    helper too would, for a helper in the owner's L3 domain, leave one
    copy alone in that shared L3, and a lone copy cannot be Shared (the
    simulator reports F).  The paper's text (PAPER.md carries only the
    abstract) does not fix how S is prepared on Cascade Lake, and the
    Table 3 fixture gives one L3 latency for every state, so the predicted
    value is the same either way.
    """
    state = CoherenceState(state)
    protocol = Protocol(protocol)
    if not state.valid_for(protocol):
        raise CoherenceError(f"state {state.value} is not part of {protocol.value}")
    if level not in ("L1", "L2", "L3", "RAM"):
        raise CoherenceError(f"unknown level {level!r}")
    needs_helper = state in _HELPER_STATES
    if needs_helper and helper is None:
        raise CoherenceError(f"state {state.value} requires a helper worker")
    if needs_helper and helper == owner:
        raise CoherenceError("helper must differ from owner")

    cores: dict[WorkerRole, int] = {WorkerRole.OWNER_N: owner}
    if requester is not None:
        cores[WorkerRole.REQUESTER_0] = requester
    if needs_helper:
        cores[WorkerRole.HELPER_M] = helper

    O, H = WorkerRole.OWNER_N, WorkerRole.HELPER_M
    steps: list[ScriptStep] = []
    flushed: set[int] = set()
    for role in (WorkerRole.REQUESTER_0, O, H):
        core = cores.get(role)
        if core is not None and core not in flushed:
            steps.append(ScriptStep(role, Action.FLUSH))
            flushed.add(core)

    if state is CoherenceState.M:
        steps.append(ScriptStep(O, Action.WRITE))
    elif state is CoherenceState.E:
        steps.append(ScriptStep(O, Action.READ))
    elif state is CoherenceState.O:
        steps += [ScriptStep(O, Action.WRITE), ScriptStep(H, Action.READ)]
    elif state is CoherenceState.S:
        if protocol is Protocol.MOESI:
            steps += [ScriptStep(H, Action.READ), ScriptStep(O, Action.READ)]
        else:
            # MESIF: the most recent reader takes F, so the owner reads first.
            steps += [ScriptStep(O, Action.READ), ScriptStep(H, Action.READ)]
    elif state is CoherenceState.F:
        steps += [ScriptStep(H, Action.READ), ScriptStep(O, Action.READ)]
    elif state is CoherenceState.I:
        steps += [ScriptStep(O, Action.WRITE), ScriptStep(O, Action.FLUSH)]

    participants = [O] + ([H] if needs_helper else [])
    if state is not CoherenceState.I:
        if level == "L2":
            steps += [ScriptStep(w, Action.EVICT_L1) for w in participants]
        elif level == "L3":
            if protocol is Protocol.MESIF and state is CoherenceState.S:
                participants = [O]
            steps += [ScriptStep(w, Action.EVICT_L2) for w in participants]
        elif level == "RAM":
            steps += [ScriptStep(w, Action.FLUSH) for w in participants]
    return CoherenceScript(
        steps=tuple(steps),
        target_state=state,
        target_level=level,
        protocol=protocol,
        worker_cores=cores,
    )


@dataclass(frozen=True)
class SimResult:
    """The line's state map after a script."""

    state_map: StateMap

    def entry(self, core: int) -> Optional[CacheEntry]:
        return self.state_map.get(("core", core))

    def l3_entry(self, domain: str) -> Optional[CacheEntry]:
        return self.state_map.get(("l3", domain))

    def state_at(self, model: ProtocolModel, core: int, level: str) -> CoherenceState:
        """Line state as seen at (core, level); I when absent."""
        if level in ("L1", "L2"):
            e = self.entry(core)
            if e is not None and level in e.levels:
                return e.state
            return CoherenceState.I
        if level == "L3":
            e = self.l3_entry(model.l3_domain_of[core])
            return e.state if e is not None else CoherenceState.I
        return CoherenceState.I


def simulate(script: CoherenceScript, model: ProtocolModel) -> SimResult:
    """Run a script on the model from the all-I map; empty scripts leave it."""
    for role, core in script.worker_cores.items():
        if core not in model.l3_domain_of:
            raise CoherenceError(f"script worker {role.value} -> core {core} not in model")
    if script.protocol is not model.protocol:
        raise CoherenceError(
            f"script protocol {script.protocol.value} != model {model.protocol.value}"
        )
    state = initial_state_map()
    for step in script.steps:
        core = script.worker_cores.get(step.worker)
        if core is None:
            raise CoherenceError(f"script references unmapped worker {step.worker.value}")
        state = apply_event(model, state, CacheEvent(core, step.action))[0]
    return SimResult(state)


def verify_script(script: CoherenceScript, model: ProtocolModel) -> SimResult:
    """Oracle check: the script reaches its target on a fresh model.

    Raises :class:`CoherenceError` when the final map disagrees with the
    script's target state/level or the line leaked into the requester cache.
    """
    result = simulate(script, model)
    owner = script.owner
    target, level = script.target_state, script.target_level
    if target is CoherenceState.I or level == "RAM":
        leftovers = [k for k, _ in _holders(result.state_map)]
        if leftovers:
            raise CoherenceError(
                f"{target.value}@{level}: line still cached at {leftovers}"
            )
    else:
        got = result.state_at(model, owner, level)
        if got is not target:
            raise CoherenceError(
                f"target {target.value}@{level} on core {owner}, simulator says {got.value}"
            )
    req = script.worker_cores.get(WorkerRole.REQUESTER_0)
    if req is not None and req != owner and result.entry(req) is not None:
        raise CoherenceError(f"line leaked into requester core {req}")
    return result
