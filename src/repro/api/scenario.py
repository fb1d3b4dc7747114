"""The declarative :class:`Scenario`: one data object per deployment run.

A scenario captures *everything* that previously lived in divergent
``MiddlewareSystem(...)`` keyword arguments spread over examples and
experiment modules: the workload (explicit or generated-by-recipe), the
strategy combination (by registry name), duration, seed, cost model,
delay model, disturbance hooks, and the execution engine (centralized
middleware, distributed-AC prototype, or analytic trace replay).

Scenarios are frozen, validated on construction, picklable (so the
multiprocessing experiment runner can fan them out), and JSON-round-trip
serializable (so grids can be exported, diffed, and re-run exactly).
Unknown or conflicting fields raise
:class:`~repro.errors.ConfigurationError` — a scenario either fully
describes a runnable deployment or refuses to exist.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.api.registry import default_registry
from repro.core.cost_model import CostModel
from repro.core.strategies import StrategyCombo
from repro.errors import ConfigurationError
from repro.json_checks import reject_unknown
from repro.net.latency import (
    ConstantDelay,
    DelayModel,
    NormalDelay,
    TriangularDelay,
    UniformDelay,
)
from repro.sched.task import SubtaskSpec, TaskKind, TaskSpec
from repro.sim.rng import RngRegistry
from repro.workloads.generator import RandomWorkloadParams, generate_random_workload
from repro.workloads.imbalanced import (
    ImbalancedWorkloadParams,
    generate_imbalanced_workload,
)
from repro.workloads.model import Workload

#: Execution engines a scenario can target.
ENGINE_MIDDLEWARE = "middleware"
ENGINE_DISTRIBUTED = "distributed"
ENGINE_REPLAY = "replay"
ENGINES = (ENGINE_MIDDLEWARE, ENGINE_DISTRIBUTED, ENGINE_REPLAY)

#: Workload source kinds.
SOURCE_EXPLICIT = "explicit"
SOURCE_RANDOM = "random"
SOURCE_IMBALANCED = "imbalanced"
SOURCE_KINDS = (SOURCE_EXPLICIT, SOURCE_RANDOM, SOURCE_IMBALANCED)


# ----------------------------------------------------------------------
# JSON codecs for the embedded value objects
# ----------------------------------------------------------------------
def workload_to_json(workload: Workload) -> Dict[str, Any]:
    """Serialize an explicit :class:`Workload` (tasks + topology)."""
    return {
        "manager_node": workload.manager_node,
        "app_nodes": list(workload.app_nodes),
        "tasks": [
            {
                "task_id": task.task_id,
                "kind": task.kind.value,
                "deadline": task.deadline,
                "period": task.period,
                "phase": task.phase,
                "subtasks": [
                    {
                        "index": s.index,
                        "execution_time": s.execution_time,
                        "home": s.home,
                        "replicas": list(s.replicas),
                    }
                    for s in task.subtasks
                ],
            }
            for task in workload.tasks
        ],
    }


def workload_from_json(data: Dict[str, Any]) -> Workload:
    """Rebuild a :class:`Workload` from :func:`workload_to_json` output."""
    reject_unknown(data, ("manager_node", "app_nodes", "tasks"), "workload")
    tasks: List[TaskSpec] = []
    for t in data.get("tasks", ()):
        reject_unknown(
            t,
            ("task_id", "kind", "deadline", "period", "phase", "subtasks"),
            "task",
        )
        subtasks: List[SubtaskSpec] = []
        for s in t.get("subtasks", ()):
            reject_unknown(
                s, ("index", "execution_time", "home", "replicas"), "subtask"
            )
            subtasks.append(
                SubtaskSpec(
                    index=s["index"],
                    execution_time=s["execution_time"],
                    home=s["home"],
                    replicas=tuple(s.get("replicas", ())),
                )
            )
        tasks.append(
            TaskSpec(
                task_id=t["task_id"],
                kind=TaskKind(t["kind"]),
                deadline=t["deadline"],
                subtasks=tuple(subtasks),
                period=t.get("period"),
                phase=t.get("phase", 0.0),
            )
        )
    return Workload(
        tasks=tuple(tasks),
        app_nodes=tuple(data["app_nodes"]),
        manager_node=data.get("manager_node", "task_manager"),
    )


def cost_model_to_json(model: Optional[CostModel]) -> Optional[Dict[str, Any]]:
    if model is None:
        return None
    return dataclasses.asdict(model)


def cost_model_from_json(data: Optional[Dict[str, Any]]) -> Optional[CostModel]:
    if data is None:
        return None
    allowed = {f.name for f in fields(CostModel)}
    reject_unknown(data, allowed, "cost model")
    return CostModel(**data)


#: Delay-model type tag -> (class, constructor-argument attribute names).
_DELAY_TYPES: Dict[str, Tuple[Any, Tuple[str, ...]]] = {
    "constant": (ConstantDelay, ("delay",)),
    "uniform": (UniformDelay, ("low", "high")),
    "triangular": (TriangularDelay, ("low", "mode", "high")),
    "normal": (NormalDelay, ("mu", "sigma", "floor")),
}


def delay_model_to_json(model: Optional[DelayModel]) -> Optional[Dict[str, Any]]:
    if model is None:
        return None
    for tag, (cls, attrs) in _DELAY_TYPES.items():
        if type(model) is cls:
            spec: Dict[str, Any] = {"type": tag}
            spec.update({a: getattr(model, a) for a in attrs})
            return spec
    raise ConfigurationError(
        f"delay model {model!r} has no JSON representation; use one of "
        f"{', '.join(sorted(_DELAY_TYPES))}"
    )


def delay_model_from_json(data: Optional[Dict[str, Any]]) -> Optional[DelayModel]:
    if data is None:
        return None
    tag = data.get("type")
    if tag not in _DELAY_TYPES:
        raise ConfigurationError(
            f"unknown delay model type {tag!r}; known types: "
            f"{', '.join(sorted(_DELAY_TYPES))}"
        )
    cls, attrs = _DELAY_TYPES[tag]
    reject_unknown(data, ("type",) + attrs, "delay model")
    try:
        return cls(**{a: data[a] for a in attrs if a in data})
    except TypeError as exc:
        raise ConfigurationError(
            f"incomplete {tag} delay model: {exc}"
        ) from None


# ----------------------------------------------------------------------
# Workload source
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadSource:
    """Where a scenario's workload comes from.

    ``explicit`` embeds a concrete :class:`Workload`; ``random`` and
    ``imbalanced`` carry the generator recipe (seed, RNG stream name,
    draw index, parameters) so workers — or a rerun months later —
    regenerate the *identical* task set.  ``index`` reproduces shared-
    stream draws: set *i* of an experiment grid is the (i+1)-th workload
    drawn from the named stream.
    """

    kind: str
    workload: Optional[Workload] = None
    seed: Optional[int] = None
    index: int = 0
    stream: str = "task_sets"
    params: Optional[Union[RandomWorkloadParams, ImbalancedWorkloadParams]] = None

    def __post_init__(self) -> None:
        if self.kind not in SOURCE_KINDS:
            raise ConfigurationError(
                f"unknown workload source kind {self.kind!r}; "
                f"expected one of {', '.join(SOURCE_KINDS)}"
            )
        if self.kind == SOURCE_EXPLICIT:
            if self.workload is None:
                raise ConfigurationError(
                    "explicit workload source needs a workload"
                )
            if (
                self.seed is not None
                or self.params is not None
                or self.index != 0
                or self.stream != "task_sets"
            ):
                raise ConfigurationError(
                    "explicit workload source must not carry generator "
                    "seed/params/index/stream (conflicting fields)"
                )
        else:
            if self.workload is not None:
                raise ConfigurationError(
                    f"{self.kind} workload source must not embed an explicit "
                    "workload (conflicting fields)"
                )
            if self.seed is None:
                raise ConfigurationError(
                    f"{self.kind} workload source needs a generator seed"
                )
            if self.index < 0:
                raise ConfigurationError("workload index must be >= 0")
            expected = (
                RandomWorkloadParams
                if self.kind == SOURCE_RANDOM
                else ImbalancedWorkloadParams
            )
            if self.params is not None and not isinstance(self.params, expected):
                raise ConfigurationError(
                    f"{self.kind} workload source needs {expected.__name__}, "
                    f"got {type(self.params).__name__}"
                )

    # -- constructors ---------------------------------------------------
    @classmethod
    def explicit(cls, workload: Workload) -> "WorkloadSource":
        return cls(kind=SOURCE_EXPLICIT, workload=workload)

    @classmethod
    def random(
        cls,
        seed: int,
        index: int = 0,
        params: Optional[RandomWorkloadParams] = None,
        stream: str = "task_sets",
    ) -> "WorkloadSource":
        return cls(
            kind=SOURCE_RANDOM, seed=seed, index=index, params=params, stream=stream
        )

    @classmethod
    def imbalanced(
        cls,
        seed: int,
        index: int = 0,
        params: Optional[ImbalancedWorkloadParams] = None,
        stream: str = "task_sets",
    ) -> "WorkloadSource":
        return cls(
            kind=SOURCE_IMBALANCED,
            seed=seed,
            index=index,
            params=params,
            stream=stream,
        )

    # -- materialization ------------------------------------------------
    def materialize(self) -> Workload:
        """The concrete workload this source denotes."""
        if self.kind == SOURCE_EXPLICIT:
            assert self.workload is not None  # enforced by __post_init__
            return self.workload
        return self._generate()

    @functools.lru_cache(maxsize=32)
    def _generate(self) -> Workload:
        """Memoized by the recipe (kind, seed, index, stream, params) for
        the 32 most recent: a grid's cells share one frozen task set."""
        assert self.seed is not None  # enforced by __post_init__
        rng = RngRegistry(self.seed).stream(self.stream)
        generate = (
            generate_random_workload
            if self.kind == SOURCE_RANDOM
            else generate_imbalanced_workload
        )
        # Draw index+1 workloads so shared-stream grids reproduce exactly.
        for _ in range(self.index):
            generate(rng, self.params)
        return generate(rng, self.params)

    # -- JSON ------------------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"kind": self.kind}
        if self.kind == SOURCE_EXPLICIT:
            assert self.workload is not None  # enforced by __post_init__
            data["workload"] = workload_to_json(self.workload)
        else:
            data["seed"] = self.seed
            data["index"] = self.index
            data["stream"] = self.stream
            if self.params is not None:
                data["params"] = dataclasses.asdict(self.params)
        return data

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "WorkloadSource":
        reject_unknown(
            data,
            ("kind", "workload", "seed", "index", "stream", "params"),
            "workload source",
        )
        kind = data.get("kind")
        if kind == SOURCE_EXPLICIT:
            if "workload" not in data:
                raise ConfigurationError("explicit workload source needs a workload")
            return cls.explicit(workload_from_json(data["workload"]))
        if kind not in SOURCE_KINDS:
            raise ConfigurationError(
                f"unknown workload source kind {kind!r}; "
                f"expected one of {', '.join(SOURCE_KINDS)}"
            )
        params = None
        if data.get("params") is not None:
            params_cls = (
                RandomWorkloadParams
                if kind == SOURCE_RANDOM
                else ImbalancedWorkloadParams
            )
            allowed = {f.name for f in fields(params_cls)}
            reject_unknown(data["params"], allowed, "workload params")
            params = params_cls(**data["params"])
        return cls(
            kind=kind,
            seed=data.get("seed"),
            index=data.get("index", 0),
            stream=data.get("stream", "task_sets"),
            params=params,
        )


# ----------------------------------------------------------------------
# Disturbances
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Burst:
    """A dense burst of aperiodic arrivals injected mid-run.

    ``task_id`` selects the task to burst (default: the workload's first
    aperiodic task); job indices start at ``base_index`` to stay clear of
    the generated arrival plan's numbering.
    """

    time: float
    jobs: int
    task_id: Optional[str] = None
    spacing: float = 1e-3
    base_index: int = 100_000

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigurationError("burst time must be >= 0")
        if self.jobs < 0:
            raise ConfigurationError("burst job count must be >= 0")
        if self.spacing <= 0:
            raise ConfigurationError("burst spacing must be > 0")

    def to_json(self) -> Dict[str, Any]:
        return {
            "type": "burst",
            "time": self.time,
            "jobs": self.jobs,
            "task_id": self.task_id,
            "spacing": self.spacing,
            "base_index": self.base_index,
        }


@dataclass(frozen=True)
class Slowdown:
    """Throttle processors to ``factor`` x nominal speed at ``time``.

    An empty ``nodes`` tuple means every application processor — the
    paper's known-WCET-assumption violation.
    """

    time: float
    factor: float
    nodes: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigurationError("slowdown time must be >= 0")
        if self.factor <= 0:
            raise ConfigurationError("slowdown factor must be > 0")

    def to_json(self) -> Dict[str, Any]:
        return {
            "type": "slowdown",
            "time": self.time,
            "factor": self.factor,
            "nodes": list(self.nodes),
        }


@dataclass(frozen=True)
class NodeCrash:
    """Fail-silent crash of one node at ``time``.

    While crashed the node neither sends nor receives network messages,
    its distributed-AC shard rejects every arrival immediately, and its
    ledger entries are quarantined (in-flight transactions it coordinates
    abort; locks it holds for remote coordinators are released by their
    expiry backstop).  ``recovery`` (``None`` = never) re-admits the node
    with an empty ledger shard.
    """

    node: str
    time: float
    recovery: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.node:
            raise ConfigurationError("node crash needs a node name")
        if self.time < 0:
            raise ConfigurationError("node crash time must be >= 0")
        if self.recovery is not None and self.recovery <= self.time:
            raise ConfigurationError(
                "node crash recovery must be after the crash time"
            )

    def to_json(self) -> Dict[str, Any]:
        return {
            "type": "node_crash",
            "node": self.node,
            "time": self.time,
            "recovery": self.recovery,
        }


@dataclass(frozen=True)
class Partition:
    """A network partition separating two node groups until ``heal``.

    Messages crossing the cut in either direction are dropped at send
    time for ``time <= now < heal``.  Messages within a group — and to
    or from nodes in neither group — are unaffected.  In-flight messages
    sent before the partition started still deliver (the fault model
    decides at send time, matching a LAN switch losing a segment).
    """

    time: float
    heal: float
    group_a: Tuple[str, ...] = ()
    group_b: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigurationError("partition time must be >= 0")
        if self.heal <= self.time:
            raise ConfigurationError(
                "partition heal must be after the partition time"
            )
        if not self.group_a or not self.group_b:
            raise ConfigurationError(
                "partition needs two non-empty node groups"
            )
        overlap = set(self.group_a) & set(self.group_b)
        if overlap:
            raise ConfigurationError(
                "partition groups must be disjoint; both sides contain "
                f"{sorted(overlap)}"
            )

    def to_json(self) -> Dict[str, Any]:
        return {
            "type": "partition",
            "time": self.time,
            "heal": self.heal,
            "group_a": list(self.group_a),
            "group_b": list(self.group_b),
        }


@dataclass(frozen=True)
class DelaySpike:
    """Multiply every sampled link delay by ``factor`` during a window.

    Overlapping spikes compound (factors multiply).  The spike scales the
    scenario's delay model's samples, so relative link jitter is
    preserved — it models congestion, not a different network.
    """

    time: float
    until: float
    factor: float

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigurationError("delay spike time must be >= 0")
        if self.until <= self.time:
            raise ConfigurationError(
                "delay spike until must be after its start time"
            )
        if self.factor <= 0:
            raise ConfigurationError("delay spike factor must be > 0")

    def to_json(self) -> Dict[str, Any]:
        return {
            "type": "delay_spike",
            "time": self.time,
            "until": self.until,
            "factor": self.factor,
        }


@dataclass(frozen=True)
class MessageLoss:
    """Drop each remote message independently with ``probability``.

    Drops draw from a named :class:`~repro.sim.rng.RngRegistry` stream,
    one per directed link (``"<stream>:<src>-><dst>"``), so loss on one
    link never perturbs the draws — or the behavior — of another and
    runs stay bit-identical for a fixed seed.  ``until`` ``None`` means
    the window never closes.
    """

    probability: float
    time: float = 0.0
    until: Optional[float] = None
    stream: str = "message_loss"

    def __post_init__(self) -> None:
        if not 0.0 < self.probability <= 1.0:
            raise ConfigurationError(
                "message loss probability must be in (0, 1], got "
                f"{self.probability}"
            )
        if self.time < 0:
            raise ConfigurationError("message loss time must be >= 0")
        if self.until is not None and self.until <= self.time:
            raise ConfigurationError(
                "message loss until must be after its start time"
            )
        if not self.stream:
            raise ConfigurationError("message loss needs an RNG stream name")

    def to_json(self) -> Dict[str, Any]:
        return {
            "type": "message_loss",
            "probability": self.probability,
            "time": self.time,
            "until": self.until,
            "stream": self.stream,
        }


Disturbance = Union[Burst, Slowdown, NodeCrash, Partition, DelaySpike, MessageLoss]

#: Disturbances that inject faults through the network layer (the
#: chaos-engineering set, as opposed to the workload-shaping set).
FAULT_DISTURBANCE_TYPES = (NodeCrash, Partition, DelaySpike, MessageLoss)


def disturbance_from_json(data: Dict[str, Any]) -> Disturbance:
    tag = data.get("type")
    if tag == "burst":
        reject_unknown(
            data,
            ("type", "time", "jobs", "task_id", "spacing", "base_index"),
            "burst",
        )
        return Burst(
            time=data["time"],
            jobs=data["jobs"],
            task_id=data.get("task_id"),
            spacing=data.get("spacing", 1e-3),
            base_index=data.get("base_index", 100_000),
        )
    if tag == "slowdown":
        reject_unknown(data, ("type", "time", "factor", "nodes"), "slowdown")
        return Slowdown(
            time=data["time"],
            factor=data["factor"],
            nodes=tuple(data.get("nodes", ())),
        )
    if tag == "node_crash":
        reject_unknown(data, ("type", "node", "time", "recovery"), "node crash")
        return NodeCrash(
            node=data["node"],
            time=data["time"],
            recovery=data.get("recovery"),
        )
    if tag == "partition":
        reject_unknown(
            data, ("type", "time", "heal", "group_a", "group_b"), "partition"
        )
        return Partition(
            time=data["time"],
            heal=data["heal"],
            group_a=tuple(data.get("group_a", ())),
            group_b=tuple(data.get("group_b", ())),
        )
    if tag == "delay_spike":
        reject_unknown(data, ("type", "time", "until", "factor"), "delay spike")
        return DelaySpike(
            time=data["time"],
            until=data["until"],
            factor=data["factor"],
        )
    if tag == "message_loss":
        reject_unknown(
            data,
            ("type", "probability", "time", "until", "stream"),
            "message loss",
        )
        return MessageLoss(
            probability=data["probability"],
            time=data.get("time", 0.0),
            until=data.get("until"),
            stream=data.get("stream", "message_loss"),
        )
    raise ConfigurationError(
        f"unknown disturbance type {tag!r}; expected one of 'burst', "
        "'slowdown', 'node_crash', 'partition', 'delay_spike', 'message_loss'"
    )


# ----------------------------------------------------------------------
# Scenario
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Scenario:
    """A complete, validated description of one deployment run."""

    workload: WorkloadSource
    combo: str = "default"
    duration: float = 60.0
    seed: int = 0
    engine: str = ENGINE_MIDDLEWARE
    policy: Optional[str] = None
    policy_params: Tuple[Tuple[str, float], ...] = ()
    cost_model: Optional[CostModel] = None
    delay_model: Optional[DelayModel] = None
    aperiodic_interarrival_factor: float = 2.0
    arrival_stream: str = "arrivals"
    #: Batched hot path: deliver simultaneous arrivals as kernel batches
    #: and let the admission layer drain its arrival queue through one
    #: batched decision pass per burst (Burst disturbances exercise it).
    #: Composes with every strategy combo — load-balanced combos plan
    #: placements through a batch session, and the distributed engine
    #: piggybacks the burst onto one coordination round — and with both
    #: engines that have an admission controller.
    arrival_batching: bool = False
    disturbances: Tuple[Disturbance, ...] = ()
    trace: bool = False
    drain: bool = True
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.workload, WorkloadSource):
            raise ConfigurationError(
                "scenario workload must be a WorkloadSource "
                "(use WorkloadSource.explicit/random/imbalanced)"
            )
        if self.duration <= 0:
            raise ConfigurationError(
                f"scenario duration must be > 0, got {self.duration}"
            )
        if self.aperiodic_interarrival_factor <= 0:
            raise ConfigurationError(
                "aperiodic_interarrival_factor must be > 0, got "
                f"{self.aperiodic_interarrival_factor}"
            )
        if self.engine not in ENGINES:
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; expected one of "
                f"{', '.join(ENGINES)}"
            )
        # Normalize policy params to a canonical sorted tuple so equal
        # scenarios compare (and JSON-round-trip) equal regardless of the
        # order the caller supplied; duplicate names are ambiguous.
        params = tuple(tuple(p) for p in self.policy_params)
        names = [name for name, _value in params]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"duplicate policy parameter name(s): "
                f"{sorted(n for n in names if names.count(n) > 1)}"
            )
        object.__setattr__(self, "policy_params", tuple(sorted(params)))
        # Resolving eagerly surfaces unknown-combo errors at build time.
        combo = default_registry().combo(self.combo)
        if self.engine == ENGINE_REPLAY:
            if self.policy is None:
                raise ConfigurationError(
                    "replay scenarios need an admission policy name "
                    "(e.g. 'aub' or 'deferrable_server')"
                )
            if self.disturbances:
                raise ConfigurationError(
                    "replay scenarios are analytic: disturbances conflict "
                    "with the replay engine"
                )
            if self.trace:
                raise ConfigurationError(
                    "replay scenarios have no tracer: trace=True conflicts "
                    "with the replay engine"
                )
            if self.cost_model is not None or self.delay_model is not None:
                raise ConfigurationError(
                    "replay scenarios are overhead-free: cost/delay models "
                    "conflict with the replay engine"
                )
            if self.arrival_batching:
                raise ConfigurationError(
                    "replay scenarios have no admission controller: "
                    "arrival_batching conflicts with the replay engine"
                )
        else:
            if self.policy is not None or self.policy_params:
                raise ConfigurationError(
                    f"admission policies only apply to the replay engine, "
                    f"not {self.engine!r} (conflicting fields)"
                )
            if self.arrival_stream != "arrivals":
                raise ConfigurationError(
                    f"the {self.engine} engine draws arrivals from the "
                    "fixed 'arrivals' RNG stream; a custom arrival_stream "
                    "only applies to the replay engine (conflicting fields)"
                )
        if self.engine == ENGINE_DISTRIBUTED:
            if combo.label != "J_N_N":
                raise ConfigurationError(
                    "the distributed-AC prototype supports only the J_N_N "
                    f"configuration, got {combo.label!r}"
                )
            if any(isinstance(d, (Burst, Slowdown)) for d in self.disturbances):
                raise ConfigurationError(
                    "burst/slowdown disturbances are not supported by the "
                    "distributed engine"
                )
            if self.trace:
                raise ConfigurationError(
                    "tracing is not supported by the distributed engine"
                )
        if self.engine == ENGINE_MIDDLEWARE:
            # The centralized accept/reject round trip has no timeout: a
            # dropped decision would strand the job at its effector
            # forever, so only the delay-shaping fault is meaningful here.
            blocked = [
                d for d in self.disturbances
                if isinstance(d, (NodeCrash, Partition, MessageLoss))
            ]
            if blocked:
                raise ConfigurationError(
                    "node crash/partition/message loss disturbances require "
                    "the distributed engine (the centralized middleware "
                    "protocol has no timeout to recover from a lost message)"
                )
        for disturbance in self.disturbances:
            if not isinstance(
                disturbance,
                (Burst, Slowdown) + FAULT_DISTURBANCE_TYPES,
            ):
                raise ConfigurationError(
                    f"unknown disturbance object {disturbance!r}"
                )
        self._check_burst_index_overlap()

    def _check_burst_index_overlap(self) -> None:
        # Burst jobs are keyed (task_id, base_index + i); overlapping index
        # ranges on the same task would collide in the admission registry
        # (re-registering a job key replaces the previous entry), silently
        # corrupting the AUB bookkeeping.
        ranges: Dict[Optional[str], List[Tuple[int, int]]] = {}
        for disturbance in self.disturbances:
            if not isinstance(disturbance, Burst) or disturbance.jobs == 0:
                continue
            span = (disturbance.base_index,
                    disturbance.base_index + disturbance.jobs)
            for other in ranges.get(disturbance.task_id, ()):
                if span[0] < other[1] and other[0] < span[1]:
                    raise ConfigurationError(
                        "burst disturbances on task "
                        f"{disturbance.task_id or '<first aperiodic>'} have "
                        f"overlapping job index ranges {other} and {span}; "
                        "give each burst a distinct base_index"
                    )
            ranges.setdefault(disturbance.task_id, []).append(span)

    # -- resolution -------------------------------------------------------
    @property
    def strategy_combo(self) -> StrategyCombo:
        """The resolved :class:`StrategyCombo` for this scenario."""
        return default_registry().combo(self.combo)

    @property
    def effective_label(self) -> str:
        """Display label: user label, else combo label + engine tag."""
        if self.label:
            return self.label
        suffix = "" if self.engine == ENGINE_MIDDLEWARE else f"@{self.engine}"
        core = self.policy if self.engine == ENGINE_REPLAY else (
            self.strategy_combo.label
        )
        return f"{core}{suffix}"

    @classmethod
    def builder(cls) -> "ScenarioBuilder":
        return ScenarioBuilder()

    def with_changes(self, **changes: Any) -> "Scenario":
        """A copy with the given fields replaced (re-validated)."""
        return replace(self, **changes)

    # -- JSON -------------------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "workload": self.workload.to_json(),
            "combo": self.combo,
            "duration": self.duration,
            "seed": self.seed,
            "engine": self.engine,
            "aperiodic_interarrival_factor": self.aperiodic_interarrival_factor,
            "arrival_stream": self.arrival_stream,
            "trace": self.trace,
            "drain": self.drain,
        }
        if self.policy is not None:
            data["policy"] = self.policy
        if self.policy_params:
            data["policy_params"] = dict(self.policy_params)
        if self.arrival_batching:
            data["arrival_batching"] = True
        if self.cost_model is not None:
            data["cost_model"] = cost_model_to_json(self.cost_model)
        if self.delay_model is not None:
            data["delay_model"] = delay_model_to_json(self.delay_model)
        if self.disturbances:
            data["disturbances"] = [d.to_json() for d in self.disturbances]
        if self.label is not None:
            data["label"] = self.label
        return data

    def to_json_str(self, indent: int = 2) -> str:
        return json.dumps(self.to_json(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "Scenario":
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"scenario JSON must be an object, got {type(data).__name__}"
            )
        allowed = {f.name for f in fields(cls)}
        reject_unknown(data, allowed, "scenario")
        if "workload" not in data:
            raise ConfigurationError("scenario JSON needs a workload source")
        kwargs: Dict[str, Any] = {
            "workload": WorkloadSource.from_json(data["workload"])
        }
        for name in (
            "combo",
            "duration",
            "seed",
            "engine",
            "policy",
            "aperiodic_interarrival_factor",
            "arrival_stream",
            "arrival_batching",
            "trace",
            "drain",
            "label",
        ):
            if name in data:
                kwargs[name] = data[name]
        if "policy_params" in data:
            params = data["policy_params"]
            if not isinstance(params, dict):
                raise ConfigurationError("policy_params must be an object")
            kwargs["policy_params"] = tuple(sorted(params.items()))
        if "cost_model" in data:
            kwargs["cost_model"] = cost_model_from_json(data["cost_model"])
        if "delay_model" in data:
            kwargs["delay_model"] = delay_model_from_json(data["delay_model"])
        if "disturbances" in data:
            kwargs["disturbances"] = tuple(
                disturbance_from_json(d) for d in data["disturbances"]
            )
        return cls(**kwargs)

    @classmethod
    def from_json_str(cls, text: str) -> "Scenario":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid scenario JSON: {exc}") from None
        return cls.from_json(data)

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_json_str() + "\n")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Scenario":
        return cls.from_json_str(Path(path).read_text())


# ----------------------------------------------------------------------
# Builder
# ----------------------------------------------------------------------
class ScenarioBuilder:
    """Fluent construction: ``Scenario.builder().workload(w)...build()``.

    Every setter returns the builder; :meth:`build` validates and returns
    the frozen :class:`Scenario`.  Conflicting settings (two workload
    sources, a policy on a non-replay engine, ...) fail at build time with
    :class:`~repro.errors.ConfigurationError`.
    """

    def __init__(self) -> None:
        self._fields: Dict[str, Any] = {}

    def _set(self, name: str, value: Any) -> "ScenarioBuilder":
        self._fields[name] = value
        return self

    # -- workload sources -------------------------------------------------
    def workload(self, workload: Workload) -> "ScenarioBuilder":
        return self._source(WorkloadSource.explicit(workload))

    def random_workload(
        self,
        seed: int,
        index: int = 0,
        params: Optional[RandomWorkloadParams] = None,
        stream: str = "task_sets",
    ) -> "ScenarioBuilder":
        return self._source(WorkloadSource.random(seed, index, params, stream))

    def imbalanced_workload(
        self,
        seed: int,
        index: int = 0,
        params: Optional[ImbalancedWorkloadParams] = None,
        stream: str = "task_sets",
    ) -> "ScenarioBuilder":
        return self._source(WorkloadSource.imbalanced(seed, index, params, stream))

    def workload_source(self, source: WorkloadSource) -> "ScenarioBuilder":
        return self._source(source)

    def _source(self, source: WorkloadSource) -> "ScenarioBuilder":
        if "workload" in self._fields:
            raise ConfigurationError(
                "scenario already has a workload source (conflicting fields)"
            )
        return self._set("workload", source)

    # -- knobs ------------------------------------------------------------
    def combo(self, name: Union[str, StrategyCombo]) -> "ScenarioBuilder":
        if isinstance(name, StrategyCombo):
            name = name.label
        return self._set("combo", name)

    def duration(self, seconds: float) -> "ScenarioBuilder":
        return self._set("duration", seconds)

    def seed(self, seed: int) -> "ScenarioBuilder":
        return self._set("seed", seed)

    def cost_model(self, model: Optional[CostModel]) -> "ScenarioBuilder":
        return self._set("cost_model", model)

    def delay_model(self, model: Optional[DelayModel]) -> "ScenarioBuilder":
        return self._set("delay_model", model)

    def interarrival_factor(self, factor: float) -> "ScenarioBuilder":
        return self._set("aperiodic_interarrival_factor", factor)

    def arrival_stream(self, name: str) -> "ScenarioBuilder":
        return self._set("arrival_stream", name)

    def arrival_batching(self, enabled: bool = True) -> "ScenarioBuilder":
        return self._set("arrival_batching", enabled)

    def trace(self, enabled: bool = True) -> "ScenarioBuilder":
        return self._set("trace", enabled)

    def drain(self, enabled: bool = True) -> "ScenarioBuilder":
        return self._set("drain", enabled)

    def label(self, text: str) -> "ScenarioBuilder":
        return self._set("label", text)

    # -- engines ----------------------------------------------------------
    def distributed(self) -> "ScenarioBuilder":
        self._fields.setdefault("combo", "J_N_N")
        return self._set("engine", ENGINE_DISTRIBUTED)

    def replay(self, policy: str, **params: float) -> "ScenarioBuilder":
        self._set("engine", ENGINE_REPLAY)
        self._set("policy", policy)
        if params:
            self._set("policy_params", tuple(sorted(params.items())))
        return self

    # -- disturbances -----------------------------------------------------
    def burst(
        self,
        time: float,
        jobs: int,
        task_id: Optional[str] = None,
        spacing: float = 1e-3,
        base_index: int = 100_000,
    ) -> "ScenarioBuilder":
        return self._disturb(Burst(time=time, jobs=jobs, task_id=task_id,
                                   spacing=spacing, base_index=base_index))

    def slowdown(
        self, time: float, factor: float, nodes: Tuple[str, ...] = ()
    ) -> "ScenarioBuilder":
        return self._disturb(Slowdown(time=time, factor=factor, nodes=tuple(nodes)))

    def node_crash(
        self, node: str, time: float, recovery: Optional[float] = None
    ) -> "ScenarioBuilder":
        return self._disturb(NodeCrash(node=node, time=time, recovery=recovery))

    def partition(
        self,
        time: float,
        heal: float,
        group_a: Tuple[str, ...],
        group_b: Tuple[str, ...],
    ) -> "ScenarioBuilder":
        return self._disturb(
            Partition(
                time=time,
                heal=heal,
                group_a=tuple(group_a),
                group_b=tuple(group_b),
            )
        )

    def delay_spike(
        self, time: float, until: float, factor: float
    ) -> "ScenarioBuilder":
        return self._disturb(DelaySpike(time=time, until=until, factor=factor))

    def message_loss(
        self,
        probability: float,
        time: float = 0.0,
        until: Optional[float] = None,
        stream: str = "message_loss",
    ) -> "ScenarioBuilder":
        return self._disturb(
            MessageLoss(
                probability=probability, time=time, until=until, stream=stream
            )
        )

    def _disturb(self, disturbance: Disturbance) -> "ScenarioBuilder":
        existing = self._fields.get("disturbances", ())
        return self._set("disturbances", existing + (disturbance,))

    # -- terminal ---------------------------------------------------------
    def build(self) -> Scenario:
        if "workload" not in self._fields:
            raise ConfigurationError(
                "scenario needs a workload source; call .workload(), "
                ".random_workload() or .imbalanced_workload() first"
            )
        return Scenario(**self._fields)
