"""AST node definitions for the INSPIRE-like kernel IR.

The IR models a single OpenCL kernel body: straight-line statements,
structured control flow (``if``/``for``/``while``), global-memory loads
and stores, work-item intrinsics (``get_global_id`` etc.) and a small set
of builtin math functions.  All nodes are immutable dataclasses so that
compiler passes can share subtrees safely.

The node set intentionally stays close to what the paper's static feature
extractor needs to observe: arithmetic operations by class (int / float /
transcendental / vector), memory operations with analysable index
expressions, branches and loops.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from .types import INT, BufferType, Type

__all__ = [
    "Node",
    "Expr",
    "Stmt",
    "Const",
    "Var",
    "BinOp",
    "UnOp",
    "Call",
    "Cast",
    "Select",
    "Load",
    "WorkItemQuery",
    "WorkItemFn",
    "Assign",
    "Store",
    "AtomicUpdate",
    "If",
    "For",
    "While",
    "Barrier",
    "Block",
    "ParamIntent",
    "KernelParam",
    "Kernel",
    "BINARY_OPS",
    "COMPARISON_OPS",
    "LOGICAL_OPS",
    "BITWISE_OPS",
    "BUILTIN_FUNCTIONS",
    "TRANSCENDENTAL_FUNCTIONS",
]


class Node:
    """Common base for all IR nodes (expressions and statements)."""

    def children(self) -> Sequence["Node"]:
        """Direct child nodes, in evaluation order."""
        return ()


class Expr(Node):
    """Base class of all expression nodes; every expression has a type."""

    type: Type


class Stmt(Node):
    """Base class of all statement nodes."""


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

#: Arithmetic binary operators (produce a value of the promoted type).
BINARY_OPS = frozenset({"+", "-", "*", "/", "%"})
#: Comparison operators (produce bool).
COMPARISON_OPS = frozenset({"<", "<=", ">", ">=", "==", "!="})
#: Short-circuit logical operators (bool × bool → bool).
LOGICAL_OPS = frozenset({"&&", "||"})
#: Bitwise/shift operators (integers only).
BITWISE_OPS = frozenset({"&", "|", "^", "<<", ">>"})

#: Builtin functions and their arity.  These mirror OpenCL C builtins.
BUILTIN_FUNCTIONS: dict[str, int] = {
    "sqrt": 1,
    "rsqrt": 1,
    "exp": 1,
    "log": 1,
    "log2": 1,
    "sin": 1,
    "cos": 1,
    "tan": 1,
    "atan": 1,
    "atan2": 2,
    "pow": 2,
    "fabs": 1,
    "floor": 1,
    "ceil": 1,
    "fmin": 2,
    "fmax": 2,
    "min": 2,
    "max": 2,
    "abs": 1,
    "clamp": 3,
    "mad": 3,
    "erf": 1,
    "mix": 3,
}

#: The subset of builtins counted as "transcendental" static features.
#: These map to the GPU special-function unit and are weighted separately
#: in the device cost model.
TRANSCENDENTAL_FUNCTIONS = frozenset(
    {
        "sqrt",
        "rsqrt",
        "exp",
        "log",
        "log2",
        "sin",
        "cos",
        "tan",
        "atan",
        "atan2",
        "pow",
        "erf",
    }
)


@dataclass(frozen=True)
class Const(Expr):
    """A literal constant."""

    value: float | int | bool
    type: Type

    def __repr__(self) -> str:
        return f"Const({self.value!r}: {self.type.cl_name})"


@dataclass(frozen=True)
class Var(Expr):
    """A reference to a kernel parameter or a local variable."""

    name: str
    type: Type

    def __repr__(self) -> str:
        return f"Var({self.name}: {self.type.cl_name})"


@dataclass(frozen=True)
class BinOp(Expr):
    """A binary operation ``lhs op rhs``."""

    op: str
    lhs: Expr
    rhs: Expr
    type: Type

    def children(self) -> Sequence[Node]:
        return (self.lhs, self.rhs)


@dataclass(frozen=True)
class UnOp(Expr):
    """A unary operation: ``-x`` or ``!x``."""

    op: str
    operand: Expr
    type: Type

    def children(self) -> Sequence[Node]:
        return (self.operand,)


@dataclass(frozen=True)
class Call(Expr):
    """A call to an OpenCL builtin function."""

    func: str
    args: tuple[Expr, ...]
    type: Type

    def children(self) -> Sequence[Node]:
        return self.args


@dataclass(frozen=True)
class Cast(Expr):
    """An explicit type conversion."""

    expr: Expr
    type: Type

    def children(self) -> Sequence[Node]:
        return (self.expr,)


@dataclass(frozen=True)
class Select(Expr):
    """The ternary operator ``cond ? if_true : if_false``.

    Counted as a (cheap, predicated) branch by the feature extractor.
    """

    cond: Expr
    if_true: Expr
    if_false: Expr
    type: Type

    def children(self) -> Sequence[Node]:
        return (self.cond, self.if_true, self.if_false)


@dataclass(frozen=True)
class Load(Expr):
    """A global-memory read ``buffer[index]``."""

    buffer: Var
    index: Expr
    type: Type

    def children(self) -> Sequence[Node]:
        return (self.buffer, self.index)


class WorkItemFn(enum.Enum):
    """Work-item intrinsics exposed by the IR."""

    GLOBAL_ID = "get_global_id"
    GLOBAL_SIZE = "get_global_size"
    LOCAL_ID = "get_local_id"
    LOCAL_SIZE = "get_local_size"
    GROUP_ID = "get_group_id"
    NUM_GROUPS = "get_num_groups"


@dataclass(frozen=True)
class WorkItemQuery(Expr):
    """A work-item intrinsic call such as ``get_global_id(dim)``.

    The multi-device backend rewrites ``get_global_id`` into
    ``get_global_id(dim) + offset_dim`` so that each device observes
    global indices of its assigned sub-range — this is the heart of the
    single-device → multi-device translation.
    """

    fn: WorkItemFn
    dim: int
    type: Type = INT


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Assign(Stmt):
    """Assignment to (and implicit declaration of) a local variable."""

    var: Var
    value: Expr
    declares: bool = False

    def children(self) -> Sequence[Node]:
        return (self.var, self.value)


@dataclass(frozen=True)
class Store(Stmt):
    """A global-memory write ``buffer[index] = value``."""

    buffer: Var
    index: Expr
    value: Expr

    def children(self) -> Sequence[Node]:
        return (self.buffer, self.index, self.value)


@dataclass(frozen=True)
class AtomicUpdate(Stmt):
    """An atomic read-modify-write: ``atomic_add(&buffer[index], value)``.

    ``op`` is one of ``add``/``min``/``max``.  Atomics mark the kernel as
    needing reduce-style output merging when partitioned across devices.
    """

    buffer: Var
    index: Expr
    value: Expr
    op: str = "add"

    def children(self) -> Sequence[Node]:
        return (self.buffer, self.index, self.value)


@dataclass(frozen=True)
class Block(Stmt):
    """A sequence of statements."""

    stmts: tuple[Stmt, ...] = ()

    def children(self) -> Sequence[Node]:
        return self.stmts


@dataclass(frozen=True)
class If(Stmt):
    """A conditional statement."""

    cond: Expr
    then_body: Block
    else_body: Block = field(default_factory=Block)

    def children(self) -> Sequence[Node]:
        return (self.cond, self.then_body, self.else_body)


@dataclass(frozen=True)
class For(Stmt):
    """A counted loop ``for (var = start; var < end; var += step)``.

    When ``end`` is a scalar-parameter reference, the trip count is a
    *runtime feature*: it depends on the problem size, and the analysis
    evaluates it against the actual scalar arguments at prediction time.
    """

    var: Var
    start: Expr
    end: Expr
    step: Expr
    body: Block

    def children(self) -> Sequence[Node]:
        return (self.var, self.start, self.end, self.step, self.body)


@dataclass(frozen=True)
class While(Stmt):
    """A condition-controlled loop with a declared nominal trip count.

    OpenCL kernels with data-dependent loops (e.g. Mandelbrot escape
    iteration) cannot be statically counted; ``expected_trips`` records
    the analyst-provided average used for the static feature value.
    """

    cond: Expr
    body: Block
    expected_trips: int = 8

    def children(self) -> Sequence[Node]:
        return (self.cond, self.body)


@dataclass(frozen=True)
class Barrier(Stmt):
    """A work-group barrier (``barrier(CLK_LOCAL_MEM_FENCE)``)."""


# ---------------------------------------------------------------------------
# Kernel container
# ---------------------------------------------------------------------------


class ParamIntent(enum.Enum):
    """Dataflow direction of a kernel parameter.

    Intents drive the runtime's transfer accounting: ``IN`` buffers are
    copied host→device before launch, ``OUT`` buffers device→host after,
    and ``INOUT`` both ways — exactly the overhead the paper insists on
    including in every measurement (per Gregg & Hazelwood).
    """

    IN = "in"
    OUT = "out"
    INOUT = "inout"
    VALUE = "value"


@dataclass(frozen=True)
class KernelParam:
    """A kernel parameter: a global buffer or a scalar passed by value."""

    name: str
    type: Type
    intent: ParamIntent

    @property
    def is_buffer(self) -> bool:
        return isinstance(self.type, BufferType)

    def var(self) -> Var:
        """The Var node through which the body references this parameter."""
        return Var(self.name, self.type)


@dataclass(frozen=True)
class Kernel:
    """A complete kernel: signature plus body.

    Attributes:
        name: kernel function name.
        params: ordered parameter list.
        body: statement block.
        dim: ND-range dimensionality (1 or 2).  Partitioning always splits
            dimension 0, matching the paper's contiguous-chunk splitting.
    """

    name: str
    params: tuple[KernelParam, ...]
    body: Block
    dim: int = 1

    def param(self, name: str) -> KernelParam:
        """Look up a parameter by name."""
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(f"kernel {self.name!r} has no parameter {name!r}")

    # Cached in the instance dict, outside the fields: command planning
    # reads them for every chunk it plans.
    @cached_property
    def buffer_params(self) -> tuple[KernelParam, ...]:
        return tuple(p for p in self.params if p.is_buffer)

    @cached_property
    def scalar_params(self) -> tuple[KernelParam, ...]:
        return tuple(p for p in self.params if not p.is_buffer)

    def children(self) -> Sequence[Node]:
        return (self.body,)
