"""repro.parallel — sharded process-pool execution for sweep-shaped work.

Every enumerate-and-evaluate hot path in the repo (design-space
exploration in :mod:`repro.core.dse`, figure sweeps in
:mod:`repro.bench`) fans out through one primitive,
:func:`parallel_map`, which guarantees result order and telemetry
totals identical to the serial path — see docs/PARALLEL.md for the
executor semantics and the determinism contract, and
:mod:`repro.obs.snapshot` for how worker telemetry is merged back
losslessly.  Serving does not fan out (docs/PARALLEL.md says why).

Quick start::

    from repro.parallel import parallel_map, resolve_jobs

    jobs = resolve_jobs()          # --jobs arg > REPRO_JOBS env > 1
    results = parallel_map(fn, items, jobs=jobs)
"""

from repro.parallel.executor import (
    DEFAULT_BACKOFF_S,
    DEFAULT_RETRIES,
    DEFAULT_TIMEOUT_S,
    JOBS_ENV_VAR,
    parallel_map,
    resolve_jobs,
    shard,
    shutdown_pools,
)

__all__ = [
    "DEFAULT_BACKOFF_S",
    "DEFAULT_RETRIES",
    "DEFAULT_TIMEOUT_S",
    "JOBS_ENV_VAR",
    "parallel_map",
    "resolve_jobs",
    "shard",
    "shutdown_pools",
]
