"""The Insieme-like runtime system: scheduling, strategies, measurement."""

from .arrays import LazyArrays, buffer_layout
from .measurement import MeasuredRun, Runner, SessionStats
from .plan import PlannedCommand, command_duration_s, plan_device_commands
from .scheduler import (
    ExecutionRequest,
    ExecutionResult,
    ExecutorFn,
    execute_partitioned,
)
from .strategies import (
    StrategyFn,
    all_gpus,
    cpu_only,
    even_split,
    gpu_only,
    oracle_search,
)

__all__ = [
    "LazyArrays",
    "buffer_layout",
    "MeasuredRun",
    "Runner",
    "SessionStats",
    "PlannedCommand",
    "plan_device_commands",
    "command_duration_s",
    "ExecutionRequest",
    "ExecutionResult",
    "ExecutorFn",
    "execute_partitioned",
    "StrategyFn",
    "cpu_only",
    "gpu_only",
    "all_gpus",
    "even_split",
    "oracle_search",
]
