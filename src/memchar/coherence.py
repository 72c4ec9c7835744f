"""Cache-coherence protocol simulator and state-preparation scripts.

The simulator tracks a single cache line across per-core private caches
(an inclusive L1/L2 pair), shared L3 domains, and home memory.  It serves
two roles:

* oracle for :func:`plan_state` -- every generated access script is proven
  to leave the line in the requested state at the requested level;
* data-source model for the simulated measurement backend -- each read
  returns the agent that supplied the data: a core's private caches, an
  L3 domain or home memory.

Two protocols are modeled: MOESI over a victim-exclusive L3 (writebacks
populate L3, dirty-shared lines stay dirty under Owned) and MESIF over a
non-inclusive L3 (reads fill L2 without forcing L3 residency; downgraded
shared lines leave a copy in the supplier's L3, which then answers
Shared/Forward requests).  The Forward designation follows the most recent
reader.

A state map's keys are the line's holders: home memory ``"mem"``, each
core whose private caches hold a valid copy and each L3 domain that does.
A cache without a key holds the line Invalid, so no entry is ever I.

A :class:`ProtocolModel` comes from a topology
(:meth:`ProtocolModel.from_topology`: the protocol the topology declares,
and one L3 domain per CCX, or per SNC on the mesh, for each core).  One
model serves every home node: to the simulator, home memory is the one
agent ``"mem"``, which supplies every RAM read.

The state map is the simulator's interface.  :func:`apply_event` is the
one transition function: it returns the new state map together with the
read's source and the value read or written.  :func:`simulate` runs a
script through it from the all-Invalid map and returns the final map,
:func:`verify_script` also checks that the map holds the script's target,
and :func:`state_at` reads the state a core sees at a level.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple, Optional

__all__ = [
    "LEVELS",
    "HELPER_STATES",
    "CoherenceState",
    "Protocol",
    "Action",
    "WorkerRole",
    "CoherenceError",
    "ProtocolModel",
    "CacheEntry",
    "ReadSource",
    "CoherenceScript",
    "ScriptStep",
    "initial_state_map",
    "apply_event",
    "simulate",
    "state_at",
    "plan_state",
]


LEVELS = ("L1", "L2", "L3", "RAM")


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
}


@dataclass(frozen=True)
class ProtocolModel:
    """Protocol plus the cache hierarchy it runs over.

    ``l3_domain_of`` maps each core id of the model to its shared-L3 domain
    id (a CCX on the chiplet design, an SNC on the mesh); its keys are the
    model's cores.  The L2 is inclusive of L1, and the protocol, given as a
    :class:`Protocol` or its name, fixes the L3 policy: MOESI runs over a
    victim-exclusive L3, MESIF over a non-inclusive one.
    Home memory is one agent whatever the home node: a RAM read's supplier
    is the state map's ``"mem"`` key.  :meth:`from_topology` takes both
    from a :class:`~memchar.topology.TopologyGraph`, whose document
    declares the protocol.
    """

    protocol: Protocol
    l3_domain_of: dict[int, str]

    def __post_init__(self):
        object.__setattr__(self, "protocol", Protocol(self.protocol))

    @classmethod
    def from_topology(cls, graph):
        return cls(graph.protocol, graph.l3_domains)


@dataclass(frozen=True)
class CacheEntry:
    state: CoherenceState  # never I: an Invalid copy has no entry
    level: str  # the level nearest the core holding it: L1 or L2 (inclusive of L1), or L3
    value: int


@dataclass(frozen=True)
class ReadSource:
    kind: str  # "cache" | "l3" | "ram"
    supplier: object  # core id, domain id, or "mem" (home memory)


# {"mem": int, ("core", c): CacheEntry, ("l3", d): CacheEntry}: one key per
# valid copy; a cache without a key holds the line Invalid.
StateMap = dict

# Home memory answering a read.
_RAM_SOURCE = ReadSource("ram", "mem")


def initial_state_map() -> StateMap:
    """All-Invalid map: the line exists only in home memory."""
    return {"mem": 0}


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


def _source(key) -> ReadSource:
    """The read source of the holder at state-map ``key``."""
    return ReadSource("cache" if key[0] == "core" else "l3", key[1])


def _fill(new: StateMap, core: int, state: CoherenceState, source: ReadSource, value: int):
    """The requester takes the line into its L1 (and so its L2); the read's
    result."""
    new[("core", core)] = CacheEntry(state, "L1", value)
    return new, source, value


def _read(model: ProtocolModel, state_map: StateMap, core: int):
    """A hit in the requester's own cache, or a victim hit on an exclusive
    line in its L3 domain, which moves the line back up; otherwise the
    protocol decides who answers."""
    new = dict(state_map)
    own = new.get(("core", core))
    if own is not None:
        return new, ReadSource("cache", core), own.value
    domain = model.l3_domain_of[core]
    l3 = new.get(("l3", domain))
    if l3 is not None and l3.state in (CoherenceState.M, CoherenceState.E):
        del new[("l3", domain)]
        return _fill(new, core, l3.state, ReadSource("l3", domain), l3.value)
    if model.protocol is Protocol.MOESI:
        return _read_moesi(model, new, core, domain)
    return _read_mesif(model, new, core, domain)


def _read_moesi(model: ProtocolModel, new: StateMap, core: int, domain: str):
    l3 = new.get(("l3", domain))
    if l3 is not None:
        return _fill(new, core, CoherenceState.S, ReadSource("l3", domain), l3.value)

    owner = _ownership_holder(new)
    if owner is not None:
        key, entry = owner
        if entry.state in (CoherenceState.M, CoherenceState.O):
            # Dirty data stays dirty: the supplier keeps it as Owned.
            new[key] = replace(entry, state=CoherenceState.O)
        else:  # E: clean line; both end up Shared, no L3 copy is made
            new[key] = replace(entry, state=CoherenceState.S)
        return _fill(new, core, CoherenceState.S, _source(key), entry.value)

    # Only clean shared copies (or nothing) remain.  Sharers inside the
    # requester's L3 domain answer from their inclusive L2; clean copies
    # beyond the domain are not forwarded -- home memory answers.
    for k, v in _holders(new):
        if k[0] == "core" and model.l3_domain_of[k[1]] == domain:
            return _fill(new, core, CoherenceState.S, _source(k), v.value)
    fill = CoherenceState.S if _holders(new) else CoherenceState.E
    return _fill(new, core, fill, _RAM_SOURCE, new["mem"])


def _read_mesif(model: ProtocolModel, new: StateMap, core: int, domain: str):
    owner = _ownership_holder(new)
    if owner is not None and owner[1].state in (CoherenceState.M, CoherenceState.E):
        key, entry = owner
        if entry.state is CoherenceState.M:
            new["mem"] = entry.value  # dirty data written back on downgrade
        new[key] = replace(entry, state=CoherenceState.S)
        if key[0] == "core":
            # Non-inclusive L3 picks up a copy of the now-shared line; it
            # answers subsequent Shared/Forward requests.
            dkey = ("l3", model.l3_domain_of[key[1]])
            new.setdefault(dkey, CacheEntry(CoherenceState.S, "L3", entry.value))
        return _fill(new, core, CoherenceState.F, _source(key), entry.value)

    holders = _holders(new)
    if not holders:  # nobody holds it: exclusive fill from home memory
        return _fill(new, core, CoherenceState.E, _RAM_SOURCE, new["mem"])
    # Shared line: an L3 copy answers, the requester's own domain's if it
    # has one, else the F holder, else home memory.  The Forward
    # designation migrates to the most recent reader.
    l3_copies = [k for k, _ in holders if k[0] == "l3"]
    forwarders = [k for k, v in holders if v.state is CoherenceState.F]
    key = ("l3", domain) if ("l3", domain) in new else next(iter(l3_copies + forwarders), None)
    source = _RAM_SOURCE if key is None else _source(key)
    value = new["mem"] if key is None else new[key].value
    for k in forwarders:
        new[k] = replace(new[k], state=CoherenceState.S)
    return _fill(new, core, CoherenceState.F, source, value)


def _write(model: ProtocolModel, state_map: StateMap, core: int, value: int):
    new = {"mem": state_map["mem"]}
    new[("core", core)] = CacheEntry(CoherenceState.M, "L1", value)
    return new


def _flush(model: ProtocolModel, state_map: StateMap, core: int):
    new = dict(state_map)
    for key in (("core", core), ("l3", model.l3_domain_of[core])):
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
    if entry is not None:
        # L2 is inclusive of L1, so the line survives in L2.
        new[key] = replace(entry, level="L2")
    return new


def _evict_l2(model: ProtocolModel, state_map: StateMap, core: int):
    new = dict(state_map)
    key = ("core", core)
    entry = new.pop(key, None)
    if entry is None:
        return new
    # Both L3 policies install the victim; the non-inclusive L3 "appears as
    # a victim cache" on this path.
    dkey = ("l3", model.l3_domain_of[core])
    cur = new.get(dkey)
    if cur is None or _STATE_STRENGTH[cur.state] <= _STATE_STRENGTH[entry.state]:
        new[dkey] = CacheEntry(entry.state, "L3", entry.value)
    return new


def apply_event(
    model: ProtocolModel,
    state_map: StateMap,
    core: int,
    action: Action,
    value: Optional[int] = None,
) -> tuple[StateMap, Optional[ReadSource], Optional[int]]:
    """``core`` performs ``action``, a write storing ``value`` (by default
    one above every value the line holds); returns (new map, read source,
    value read/written)."""
    if core not in model.l3_domain_of:
        raise CoherenceError(f"event core {core} not in model")
    if action is Action.READ:
        return _read(model, state_map, core)
    if action is Action.WRITE:
        value = value if value is not None else _next_value(state_map)
        return _write(model, state_map, core, value), None, value
    if action is Action.FLUSH:
        return _flush(model, state_map, core), None, None
    if action is Action.EVICT_L1:
        return _evict_l1(model, state_map, core), None, None
    if action is Action.EVICT_L2:
        return _evict_l2(model, state_map, core), None, None
    raise CoherenceError(f"unknown action {action}")


# ---------------------------------------------------------------------------
# Scripts


class ScriptStep(NamedTuple):
    """One worker action.  A tuple, not a frozen dataclass: the simulated
    backend keys its class memo by a script's steps, and a tuple hashes
    without calling a generated ``__hash__`` per step."""

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

    def on_cores(
        self, owner: int, requester: Optional[int], helper: Optional[int]
    ) -> "CoherenceScript":
        """This script's steps and target on other workers.  :func:`plan_state`'s
        steps depend only on which of the requester, owner and helper are
        the same core, so for workers with this script's pattern of equal
        cores (and a helper just where it has one) this is the script
        ``plan_state`` gives for them."""
        return CoherenceScript(
            self.steps,
            self.target_state,
            self.target_level,
            self.protocol,
            _worker_cores(owner, requester, helper),
        )


def _worker_cores(
    owner: int, requester: Optional[int], helper: Optional[int]
) -> dict[WorkerRole, int]:
    """Role -> core: the owner, then the requester and the helper where
    given."""
    cores = {WorkerRole.OWNER_N: owner}
    if requester is not None:
        cores[WorkerRole.REQUESTER_0] = requester
    if helper is not None:
        cores[WorkerRole.HELPER_M] = helper
    return cores


# States plan_state prepares with a helper core next to the owner.
HELPER_STATES = frozenset({CoherenceState.S, CoherenceState.F, CoherenceState.O})


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
    if level not in LEVELS:
        raise CoherenceError(f"unknown level {level!r}")
    needs_helper = state in HELPER_STATES
    if needs_helper and helper is None:
        raise CoherenceError(f"state {state.value} requires a helper worker")
    if needs_helper and helper == owner:
        raise CoherenceError("helper must differ from owner")

    cores = _worker_cores(owner, requester, helper if needs_helper else None)

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


def state_at(
    model: ProtocolModel, state_map: StateMap, core: int, level: str
) -> CoherenceState:
    """Line state as seen at (core, level); I when absent.  A core's copy
    is in its L2 as well, whichever level it is at."""
    if level == "L3":
        e = state_map.get(("l3", model.l3_domain_of[core]))
    else:
        e = state_map.get(("core", core))
        if e is not None and level not in ("L2", e.level):
            e = None
    return e.state if e is not None else CoherenceState.I


def simulate(script: CoherenceScript, model: ProtocolModel) -> StateMap:
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
        state = apply_event(model, state, core, step.action)[0]
    return state


def verify_script(script: CoherenceScript, model: ProtocolModel) -> StateMap:
    """Oracle check: the script reaches its target on a fresh model.

    Raises :class:`CoherenceError` when the final map disagrees with the
    script's target state/level or the line leaked into the requester cache.
    """
    state_map = simulate(script, model)
    owner = script.owner
    target, level = script.target_state, script.target_level
    if target is CoherenceState.I or level == "RAM":
        leftovers = [k for k, _ in _holders(state_map)]
        if leftovers:
            raise CoherenceError(
                f"{target.value}@{level}: line still cached at {leftovers}"
            )
    else:
        got = state_at(model, state_map, owner, level)
        if got is not target:
            raise CoherenceError(
                f"target {target.value}@{level} on core {owner}, simulator says {got.value}"
            )
    req = script.worker_cores.get(WorkerRole.REQUESTER_0)
    if req is not None and req != owner and ("core", req) in state_map:
        raise CoherenceError(f"line leaked into requester core {req}")
    return state_map
