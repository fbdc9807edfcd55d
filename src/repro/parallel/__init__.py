"""Sharded parallel enumeration — the first layer of the scale-out story.

The root-level subtrees of the paper's depth-first search are fully
independent, so enumeration parallelises by *sharding the root candidate
set*:

* :mod:`repro.parallel.planner` — :class:`ShardPlanner` splits the roots
  into balanced shards (degree-weighted LPT, so hub vertices spread across
  shards instead of piling into one);
* :mod:`repro.parallel.runner` — :func:`parallel_mule` runs each shard on
  the kernel's column-block path, over a fork ``ProcessPoolExecutor`` or
  in-process, and merges the shards' index columns into one
  :class:`~repro.core.result.CliqueColumns` block and their statistics and
  reports into one result, bit-identical to serial
  :func:`repro.core.mule.mule`.

The sharding primitive itself lives in the engine
(:meth:`~repro.core.engine.compiled.CompiledGraph.restrict_roots`); this
package only plans and drives it.
"""

from .planner import Shard, ShardPlanner, plan_shards
from .runner import (
    ShardOutcome,
    default_workers,
    parallel_enumerate,
    parallel_mule,
    run_shards,
)

__all__ = [
    "Shard",
    "ShardPlanner",
    "plan_shards",
    "ShardOutcome",
    "default_workers",
    "parallel_enumerate",
    "parallel_mule",
    "run_shards",
]
