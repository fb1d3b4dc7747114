"""The declarative :class:`Scenario`: one data object per deployment run.

A scenario captures *everything* that previously lived in divergent
``MiddlewareSystem(...)`` keyword arguments spread over examples and
experiment modules: the workload (explicit or generated-by-recipe), the
strategy combination (by name), duration, seed, cost model, delay
model, disturbance hooks, and the execution engine (the centralized
middleware or the distributed-AC prototype).

Scenarios are frozen, validated on construction, picklable (so the
multiprocessing experiment runner can fan them out), and JSON-round-trip
serializable (so grids can be exported, diffed, and re-run exactly).
Unknown or conflicting fields raise
:class:`~repro.errors.ConfigurationError` — a scenario either fully
describes a runnable deployment or refuses to exist.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.api.registry import resolve_combo
from repro.core.cost_model import CostModel
from repro.core.strategies import StrategyCombo
from repro.errors import ConfigurationError
from repro.json_checks import decode, encode
from repro.net.latency import DelayModel
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
ENGINES = (ENGINE_MIDDLEWARE, ENGINE_DISTRIBUTED)

#: Workload source kinds.
SOURCE_EXPLICIT = "explicit"
SOURCE_RANDOM = "random"
SOURCE_IMBALANCED = "imbalanced"
SOURCE_KINDS = (SOURCE_EXPLICIT, SOURCE_RANDOM, SOURCE_IMBALANCED)

#: Largest generated-workload ``index``.  A source draws ``index + 1``
#: task sets from its stream, so the draw grows with the index: at 99 it
#: is 100 draws, about 0.03 s with the default parameters and 1.2 s with
#: ``dense_burst``'s 300 tasks on 12 processors.  The largest index in use
#: is 4 (the benchmark grids use 0 to 2), and 99 still covers a 100-set
#: grid drawn from one stream; an unbounded index let a scenario file
#: spend hours drawing before its first event.
MAX_WORKLOAD_INDEX = 99


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
    drawn from the named stream, for *i* up to :data:`MAX_WORKLOAD_INDEX`.
    """

    kind: str
    workload: Optional[Workload] = None
    seed: Optional[int] = None
    index: int = 0
    stream: str = "task_sets"
    params: Optional[Union[RandomWorkloadParams, ImbalancedWorkloadParams]] = None

    #: JSON form: the unused half of the source is left out, and the
    #: params class is the one tagged with the source's ``kind``.
    JSON_OMIT_DEFAULT = ("workload", "seed", "params", "index", "stream")
    JSON_TAG_FROM = {"params": "kind"}

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
            if self.index > MAX_WORKLOAD_INDEX:
                raise ConfigurationError(
                    f"workload index must be <= {MAX_WORKLOAD_INDEX}, "
                    f"got {self.index}"
                )
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

    JSON_TAG = "burst"

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


@dataclass(frozen=True)
class Slowdown:
    """Throttle processors to ``factor`` x nominal speed at ``time``.

    An empty ``nodes`` tuple means every application processor — the
    paper's known-WCET-assumption violation.
    """

    JSON_TAG = "slowdown"

    time: float
    factor: float
    nodes: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigurationError("slowdown time must be >= 0")
        if self.factor <= 0:
            raise ConfigurationError("slowdown factor must be > 0")


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

    JSON_TAG = "node_crash"

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


@dataclass(frozen=True)
class Partition:
    """A network partition separating two node groups until ``heal``.

    Messages crossing the cut in either direction are dropped at send
    time for ``time <= now < heal``.  Messages within a group — and to
    or from nodes in neither group — are unaffected.  In-flight messages
    sent before the partition started still deliver (the fault model
    decides at send time, matching a LAN switch losing a segment).
    """

    JSON_TAG = "partition"

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


@dataclass(frozen=True)
class DelaySpike:
    """Multiply every sampled link delay by ``factor`` during a window.

    Overlapping spikes compound (factors multiply).  The spike scales the
    scenario's delay model's samples, so relative link jitter is
    preserved — it models congestion, not a different network.
    """

    JSON_TAG = "delay_spike"

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


@dataclass(frozen=True)
class MessageLoss:
    """Drop each remote message independently with ``probability``.

    Drops draw from a named :class:`~repro.sim.rng.RngRegistry` stream,
    one per directed link (``"<stream>:<src>-><dst>"``), so loss on one
    link never perturbs the draws — or the behavior — of another and
    runs stay bit-identical for a fixed seed.  ``until`` ``None`` means
    the window never closes.
    """

    JSON_TAG = "message_loss"

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


#: A scenario's disturbance; in JSON, tagged by its class's ``JSON_TAG``.
Disturbance = Union[Burst, Slowdown, NodeCrash, Partition, DelaySpike, MessageLoss]

#: Disturbances that inject faults through the network layer (the
#: chaos-engineering set, as opposed to the workload-shaping set).
FAULT_DISTURBANCE_TYPES = (NodeCrash, Partition, DelaySpike, MessageLoss)


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
    cost_model: Optional[CostModel] = None
    delay_model: Optional[DelayModel] = None
    aperiodic_interarrival_factor: float = 2.0
    #: Batched hot path: deliver simultaneous arrivals as kernel batches
    #: and let the admission controller drain its arrival queue through
    #: one batched decision pass per burst (Burst disturbances exercise
    #: it).  Composes with every strategy combo — load-balanced combos
    #: plan placements through a batch session — on the middleware
    #: engine; the distributed engine (one two-phase round per job)
    #: refuses it.
    arrival_batching: bool = False
    disturbances: Tuple[Disturbance, ...] = ()
    drain: bool = True
    label: Optional[str] = None

    #: JSON form: the fields a saved scenario leaves out while they hold
    #: their defaults.
    JSON_OMIT_DEFAULT = (
        "cost_model",
        "delay_model",
        "arrival_batching",
        "disturbances",
        "label",
    )

    def __post_init__(self) -> None:
        if not isinstance(self.workload, WorkloadSource):
            raise ConfigurationError(
                "scenario workload must be a WorkloadSource "
                "(use WorkloadSource.explicit/random/imbalanced)"
            )
        if not 0 < self.duration < math.inf:  # NaN fails too
            raise ConfigurationError(
                f"scenario duration must be finite and > 0, got {self.duration}"
            )
        if not 0 < self.aperiodic_interarrival_factor < math.inf:
            raise ConfigurationError(
                "aperiodic_interarrival_factor must be finite and > 0, got "
                f"{self.aperiodic_interarrival_factor}"
            )
        if self.engine not in ENGINES:
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; expected one of "
                f"{', '.join(ENGINES)}"
            )
        # Resolving eagerly surfaces unknown-combo errors at build time.
        combo = resolve_combo(self.combo)
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
            if self.arrival_batching:
                raise ConfigurationError(
                    "distributed scenarios coordinate one two-phase round "
                    "per job: arrival_batching conflicts with the "
                    "distributed engine"
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
        return resolve_combo(self.combo)

    @property
    def effective_label(self) -> str:
        """Display label: user label, else combo label + engine tag."""
        if self.label:
            return self.label
        suffix = "" if self.engine == ENGINE_MIDDLEWARE else f"@{self.engine}"
        return f"{self.strategy_combo.label}{suffix}"

    def with_changes(self, **changes: Any) -> "Scenario":
        """A copy with the given fields replaced (re-validated)."""
        return replace(self, **changes)

    # -- JSON -------------------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        data: Dict[str, Any] = encode(self, Scenario)
        return data

    def to_json_str(self, indent: int = 2) -> str:
        return json.dumps(self.to_json(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, data: Any) -> "Scenario":
        """Raises ConfigurationError, naming the JSON path, on any
        malformed ``data``."""
        scenario: Scenario = decode(cls, data)
        return scenario

    @classmethod
    def from_json_str(cls, text: str) -> "Scenario":
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:  # or nested too deep
            raise ConfigurationError(f"invalid scenario JSON: {exc}") from None
        return cls.from_json(data)

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_json_str() + "\n")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Scenario":
        try:
            text = Path(path).read_text()
        except UnicodeDecodeError as exc:
            raise ConfigurationError(f"scenario file {path} is not text: {exc}") from None
        return cls.from_json_str(text)
