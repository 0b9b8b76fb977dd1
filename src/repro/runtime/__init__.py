"""The Insieme-like runtime system: scheduling, strategies, measurement."""

from .arrays import LazyArrays, buffer_layout
from .measurement import MeasuredRun, Runner, SessionStats
from .plan import CommandTemplate, plan_device_commands, price_command
from .scheduler import (
    ExecutionRequest,
    ExecutionResult,
    ExecutorFn,
    execute_partitioned,
)
from .strategies import (
    StrategyFn,
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
    "CommandTemplate",
    "plan_device_commands",
    "price_command",
    "ExecutionRequest",
    "ExecutionResult",
    "ExecutorFn",
    "execute_partitioned",
    "StrategyFn",
    "cpu_only",
    "gpu_only",
    "even_split",
    "oracle_search",
]
