"""INSPIRE-like parallel intermediate representation.

This subpackage is the reproduction of the Insieme compiler's IR layer:
kernels are represented as typed ASTs from which static program features
are extracted (``analysis``), OpenCL C source is emitted (``printer``)
and reference semantics are defined (``interpreter``).
"""

from .analysis import (
    DEFAULT_TRIP_COUNT,
    AccessPattern,
    KernelAnalysis,
    OpCounts,
    analyze_kernel,
    classify_index,
)
from .ast import (
    Barrier,
    BinOp,
    Block,
    Call,
    Cast,
    Const,
    For,
    If,
    Kernel,
    KernelParam,
    Load,
    ParamIntent,
    Select,
    Stmt,
    Store,
    UnOp,
    Var,
    While,
    WorkItemFn,
    WorkItemQuery,
)
from .builder import E, Intent, KernelBuilder, as_expr, const
from .interpreter import InterpreterError, run_kernel, run_work_item
from .printer import print_expr, print_kernel
from .types import (
    BOOL,
    DOUBLE,
    FLOAT,
    INT,
    LONG,
    UINT,
    BufferType,
    ScalarType,
    Type,
    VectorType,
    promote,
)
from .validate import ValidationError, validate_kernel
from .visitors import rewrite_expr, rewrite_kernel, walk

__all__ = [
    "AccessPattern",
    "KernelAnalysis",
    "OpCounts",
    "analyze_kernel",
    "classify_index",
    "DEFAULT_TRIP_COUNT",
    "Barrier",
    "BinOp",
    "Block",
    "Call",
    "Cast",
    "Const",
    "For",
    "If",
    "Kernel",
    "KernelParam",
    "Load",
    "ParamIntent",
    "Select",
    "Stmt",
    "Store",
    "UnOp",
    "Var",
    "While",
    "WorkItemFn",
    "WorkItemQuery",
    "KernelBuilder",
    "E",
    "Intent",
    "const",
    "as_expr",
    "run_kernel",
    "run_work_item",
    "InterpreterError",
    "print_kernel",
    "print_expr",
    "validate_kernel",
    "ValidationError",
    "walk",
    "rewrite_expr",
    "rewrite_kernel",
    "BOOL",
    "INT",
    "UINT",
    "LONG",
    "FLOAT",
    "DOUBLE",
    "ScalarType",
    "VectorType",
    "BufferType",
    "Type",
    "promote",
]
