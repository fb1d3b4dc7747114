"""Runtime determinism sanitizer (``REPRO_SANITIZE=1``).

The static pass (``tools/repro_lint``) catches non-determinism *patterns*;
this module **proves the invariants at runtime** on every CI run.  With
``REPRO_SANITIZE=1`` in the environment (read through :mod:`repro.env`,
the designated entry point), four independent cross-checks arm
themselves at the hook points named below.  Each failure raises
:class:`SanitizeViolation` with the exact divergence, so a regression is
caught at the first corrupted value instead of surfacing runs later as a
parity mismatch.

1. **Pickle round-trip canary** (:func:`pickle_canary`, hooked into
   :func:`repro.experiments.runner.run_cells`): every cell function and
   cell tuple must survive ``dumps -> loads -> dumps`` with
   **bit-identical bytes** before it is dispatched.  A payload that
   re-serializes differently (a set whose rebuilt iteration order moved,
   an object with ambient state in ``__reduce__``) would compute
   different floats depending on which process unpickled it.

2. **Ledger shadow** (:class:`LedgerShadow`, hooked into
   :class:`repro.sched.aub.SyntheticUtilizationLedger`): every
   ``add``/``remove``/``add_batch``/``remove_batch`` is mirrored into an
   unsharded shadow map, and the touched shards are cross-checked —
   identical key sets, identical per-contribution values, totals within
   float-drift tolerance of an order-independent ``fsum``.

3. **Analyzer cache audit** (hooked into
   :class:`repro.sched.aub.AubAnalyzer` admission entry points): every
   cached per-node ``f(U_j)`` term and, once the burst screen has built
   it, every visit-count row must equal a fresh recompute bit-for-bit,
   and each burst screen's violators must equal a fresh visit-order
   recompute of every registration's condition.

4. **RNG draw attribution** (:class:`RngDrawLedger`, hooked into
   :class:`repro.sim.rng.RngRegistry`): every draw must go through a
   named stream; the ledger counts draws per stream and
   :meth:`RngDrawLedger.audit` fails if any underlying generator's state
   moved without an attributed draw being recorded (someone drew from a
   stream behind the wrapper's back).

Overhead is deliberately unbounded-but-logged: the sanitizer exists for
the CI ``sanitize`` leg and for debugging, not for production runs (the
tier-1 suite runs ~2x slower under it; see docs/LINTING.md for current
numbers).  When ``REPRO_SANITIZE`` is unset every hook collapses to one
``is None``/bool check, and results are bit-identical with the sanitizer
on or off — it only *observes*.
"""

from __future__ import annotations

import math
import pickle
from typing import Any, Dict, Iterable, List, Tuple

from repro.env import sanitize_enabled

__all__ = [
    "SanitizeViolation",
    "enabled",
    "pickle_canary",
    "LedgerShadow",
    "RngDrawLedger",
]

#: Absolute slack allowed between a shard's incrementally maintained
#: total and the order-independent ``fsum`` of its contributions.  The
#: incremental total is a running +=/-= sum, so it can drift from the
#: compensated sum by accumulated rounding — but never beyond ulp-scale
#: noise for realistic contribution counts.
TOTAL_DRIFT_TOLERANCE = 1e-9


class SanitizeViolation(AssertionError):
    """A runtime determinism invariant did not hold.

    Subclasses ``AssertionError`` so an armed invariant reads like the
    assertion it is; carries the full divergence in the message.
    """


def enabled() -> bool:
    """Whether the sanitizer is armed (``$REPRO_SANITIZE``, via repro.env)."""
    return sanitize_enabled()


# ----------------------------------------------------------------------
# 1. Pickle round-trip canary
# ----------------------------------------------------------------------
def pickle_canary(obj: Any, what: str) -> None:
    """Assert ``obj`` pickles, unpickles, and re-pickles bit-identically.

    ``dumps(loads(dumps(obj)))`` must reproduce the first serialization
    exactly: the worker that unpickles a cell holds an object graph whose
    re-serialization — and therefore whose observable structure — is
    identical to the parent's.  Raises :class:`SanitizeViolation` on an
    unpicklable payload or on divergent bytes.
    """
    try:
        first = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise SanitizeViolation(
            f"sanitize: {what} is not picklable and cannot cross a process "
            f"boundary: {exc!r}"
        ) from exc
    try:
        clone = pickle.loads(first)
        second = pickle.dumps(clone, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise SanitizeViolation(
            f"sanitize: {what} failed to round-trip through pickle: {exc!r}"
        ) from exc
    if first != second:
        raise SanitizeViolation(
            f"sanitize: {what} does not re-serialize bit-identically "
            f"({len(first)} vs {len(second)} bytes); its structure depends "
            "on which process built it (unordered container or ambient "
            "state in __reduce__)"
        )


# ----------------------------------------------------------------------
# 2. Unsharded ledger shadow
# ----------------------------------------------------------------------
class LedgerShadow:
    """Unsharded mirror of a :class:`SyntheticUtilizationLedger`.

    The production ledger shards contributions per node and maintains
    per-shard running totals incrementally.  The shadow keeps the naive
    structure the shards replaced — one flat ``(node, key) -> value``
    map — and re-derives every invariant from scratch on each
    cross-check, so a bookkeeping bug in the sharded fast path (a key
    leaked between shards, a total that drifted from its contributions)
    is caught at the mutation that introduced it.
    """

    __slots__ = ("_contribs",)

    def __init__(self) -> None:
        self._contribs: Dict[Tuple[str, Tuple[str, int, int]], float] = {}

    # -- mirrored mutations -------------------------------------------
    def add(self, node: str, key: Tuple[str, int, int], value: float) -> None:
        self._contribs[(node, key)] = value

    def remove(self, node: str, key: Tuple[str, int, int]) -> None:
        self._contribs.pop((node, key), None)

    # -- cross-check ---------------------------------------------------
    def verify_shard(
        self,
        node: str,
        contribs: Dict[Tuple[str, int, int], float],
        total: float,
    ) -> None:
        """Check one shard against the shadow; raise on any divergence."""
        expected = {
            key: value
            for (shadow_node, key), value in self._contribs.items()
            if shadow_node == node
        }
        if set(contribs) != set(expected):
            missing = sorted(set(expected) - set(contribs))
            extra = sorted(set(contribs) - set(expected))
            raise SanitizeViolation(
                f"sanitize: ledger shard {node!r} diverged from the "
                f"unsharded shadow: missing keys {missing[:5]}, "
                f"unexpected keys {extra[:5]}"
            )
        for key, value in expected.items():
            if contribs[key] != value:
                raise SanitizeViolation(
                    f"sanitize: ledger shard {node!r} contribution {key} "
                    f"is {contribs[key]!r}, shadow recorded {value!r}"
                )
        fresh = math.fsum(expected.values()) if expected else 0.0
        if abs(total - fresh) > TOTAL_DRIFT_TOLERANCE:
            raise SanitizeViolation(
                f"sanitize: ledger shard {node!r} total {total!r} drifted "
                f"from the recomputed sum {fresh!r} of its "
                f"{len(expected)} contributions"
            )


# ----------------------------------------------------------------------
# 4. RNG draw attribution
# ----------------------------------------------------------------------
class RngDrawLedger:
    """Per-stream draw counts plus post-draw generator fingerprints.

    Each attributed draw records the stream name and the generator's
    state afterwards.  :meth:`audit` then compares every stream's live
    state against the last attributed fingerprint: a mismatch means the
    generator advanced without the draw being attributed — exactly the
    ambient-draw coupling the named-stream design exists to prevent.
    """

    __slots__ = ("counts", "_fingerprints")

    def __init__(self) -> None:
        #: stream name -> number of attributed draw calls
        self.counts: Dict[str, int] = {}
        #: stream name -> generator state after the last attributed draw
        self._fingerprints: Dict[str, Any] = {}

    def record(self, name: str, state: Any) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1
        self._fingerprints[name] = state

    def baseline(self, name: str, state: Any) -> None:
        """Fingerprint a freshly created stream (zero draws so far)."""
        self.counts.setdefault(name, 0)
        self._fingerprints[name] = state

    def audit(self, states: Iterable[Tuple[str, Any]]) -> None:
        """Assert no stream advanced past its last attributed draw."""
        unattributed: List[str] = []
        for name, state in states:
            if self._fingerprints.get(name) != state:
                unattributed.append(name)
        if unattributed:
            raise SanitizeViolation(
                "sanitize: unattributed RNG draws detected on stream(s) "
                f"{sorted(unattributed)}: the generator state moved without "
                "a draw being recorded — draw through the named stream "
                "returned by RngRegistry.stream(), never the raw Random"
            )
