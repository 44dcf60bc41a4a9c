"""repro.fleet: a multi-engine serving fleet on the virtual clock.

One :class:`FleetEngine` fronts N :class:`~repro.serve.engine.ServeEngine`
replicas with shape-affinity routing (:class:`FleetRouter`), a shared
plan-cache tier with versioned invalidation and read-side checksum
quarantine (:class:`SharedPlanCache`), bounded-queue admission control
with priority classes and load shedding (:class:`AdmissionController`),
per-replica circuit breakers with automatic failover
(:class:`HealthTracker`), and fleet-wide SLO accounting with
degradation levels (:class:`FleetStats`).  Replay is deterministic:
with no shedding, fleet responses are bit-identical to a single engine
serially serving the same trace.  Every replica runs in this process.
The contract survives injected faults (``FleetEngine(chaos=...)``, see
docs/RESILIENCE.md): every *served* response under chaos is
bit-identical to the fault-free replay.
"""

from repro.fleet.admission import (
    DEFAULT_SHED_RECORD_CAP,
    AdmissionController,
    ShedRecord,
)
from repro.fleet.engine import (
    MAX_QUEUE_DEPTH,
    MAX_REPLICAS,
    FleetConfig,
    FleetEngine,
    FleetResult,
    check_queue_depth,
    check_replicas,
)
from repro.fleet.health import (
    DEGRADATION_LEVELS,
    CircuitBreaker,
    HealthTracker,
)
from repro.fleet.router import FleetRouter, shape_hash
from repro.fleet.shared_cache import (
    SharedPlanCache,
    cache_version_token,
    plan_checksum,
)
from repro.fleet.slo import FleetStats, format_fleet_stats

__all__ = [
    "AdmissionController",
    "CircuitBreaker",
    "DEFAULT_SHED_RECORD_CAP",
    "DEGRADATION_LEVELS",
    "ShedRecord",
    "FleetConfig",
    "FleetEngine",
    "FleetResult",
    "FleetRouter",
    "FleetStats",
    "HealthTracker",
    "SharedPlanCache",
    "MAX_QUEUE_DEPTH",
    "MAX_REPLICAS",
    "cache_version_token",
    "check_queue_depth",
    "check_replicas",
    "format_fleet_stats",
    "plan_checksum",
    "shape_hash",
]
