"""The fault injector: turns a declared plan into deterministic firings.

One :class:`FaultInjector` is installed per fleet (``FleetEngine(
chaos=...)``).  It resolves the plan against the fleet's replica count
— any spec without an explicit ``replica=`` is pinned to a
seeded-random replica at install time — and then answers two kinds of
questions, both deterministically:

* :meth:`replica_directives` — "when replica *r* runs a shard attempt,
  does anything break?"  The answer is a plain dict passed with the
  shard, so the fault fires identically on every replay.
* :meth:`take` — "does the next *event* of this kind fault?"  Used by
  the parent-side hooks: shared-cache publishes (``cache-corrupt``),
  shared-cache lookups (``version-skew``), and plan builds
  (``build-fail``).  Events are counted per kind; a spec fires on
  events ``nth .. nth+times-1`` (1-based).

Every firing is recorded, so a chaos report can state exactly which
declared faults actually triggered (a plan targeting replica 7 of a
4-replica fleet fires nothing — the report makes that visible instead
of silently passing).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.chaos.plan import REPLICA_KINDS, FaultKind, FaultPlan, FaultSpec
from repro.errors import ChaosError

__all__ = ["FaultInjector"]

#: Worker-side precedence when several replica faults target the same
#: replica attempt: a crash beats a wedge beats a slowdown.
_REPLICA_FAULT_ORDER = (
    FaultKind.REPLICA_CRASH,
    FaultKind.WORKER_WEDGE,
    FaultKind.SLOW_REPLICA,
)


class FaultInjector:
    """Deterministic, install-once firing engine for a fault plan."""

    def __init__(self, plan: FaultPlan, n_replicas: int):
        if n_replicas < 1:
            raise ChaosError("injector needs at least 1 replica, got %d"
                             % n_replicas)
        self.plan = plan
        self.n_replicas = n_replicas
        rng = random.Random(plan.seed)
        # Pin replica-targeted specs that left the replica unspecified;
        # the draw order is the spec order, so the pinning is a pure
        # function of (plan, n_replicas).
        self.specs: List[FaultSpec] = []
        for spec in plan.specs:
            if spec.kind in REPLICA_KINDS and spec.replica is None:
                spec = FaultSpec(
                    kind=spec.kind, replica=rng.randrange(n_replicas),
                    times=spec.times, after=spec.after,
                    factor=spec.factor, nth=spec.nth)
            self.specs.append(spec)
        self._fired = [0] * len(self.specs)
        self._events: Dict[FaultKind, int] = {}

    # ------------------------------------------------------------------
    # Replica-attempt faults (passed to the shard as directives)
    # ------------------------------------------------------------------
    def replica_directives(self, replica: int) -> Optional[dict]:
        """Faults for this replica's next shard attempt, or None.

        Consumes one firing from every matching spec, so a spec with
        ``times=2`` breaks the replica's first two attempts and then
        lets it recover — exactly what a circuit breaker needs to see.
        """
        directives: dict = {}
        for kind in _REPLICA_FAULT_ORDER:
            if "fault" in directives:
                break
            spec = self._take_replica(kind, replica)
            if spec is None:
                continue
            directives["fault"] = spec.kind.value
            if spec.kind is FaultKind.REPLICA_CRASH:
                directives["after"] = spec.after
            elif spec.kind is FaultKind.SLOW_REPLICA:
                directives["factor"] = spec.factor
        if self._take_replica(FaultKind.OBS_DROP, replica) is not None:
            directives["drop_obs"] = True
        return directives or None

    def _take_replica(self, kind: FaultKind,
                      replica: int) -> Optional[FaultSpec]:
        for index, spec in enumerate(self.specs):
            if spec.kind is not kind or spec.replica != replica:
                continue
            if self._fired[index] >= spec.times:
                continue
            self._fired[index] += 1
            return spec
        return None

    # ------------------------------------------------------------------
    # Event-gated faults (parent-side hooks)
    # ------------------------------------------------------------------
    def take(self, kind: FaultKind) -> Optional[FaultSpec]:
        """Advance this kind's event counter; the firing spec, or None.

        Call once per eligible event (shared-cache publish, lookup,
        plan build).  A spec fires on the ``times`` consecutive events
        starting at its 1-based ``nth``.
        """
        event = self._events.get(kind, 0) + 1
        self._events[kind] = event
        for index, spec in enumerate(self.specs):
            if spec.kind is not kind:
                continue
            if self._fired[index] >= spec.times:
                continue
            if event < spec.nth:
                continue
            self._fired[index] += 1
            return spec
        return None

    # ------------------------------------------------------------------
    @property
    def total_fired(self) -> int:
        return sum(self._fired)

    def fired(self) -> List[dict]:
        """Per-spec firing report: what was declared, what triggered."""
        return [
            {"spec": spec.describe(), "kind": spec.kind.value,
             "declared": spec.times, "fired": count}
            for spec, count in zip(self.specs, self._fired)
        ]

    def unfired(self) -> List[str]:
        """Declared faults that never (fully) triggered — worth a look:
        a chaos run that injects nothing proves nothing."""
        return [spec.describe()
                for spec, count in zip(self.specs, self._fired)
                if count < spec.times]
