"""Static program analysis: the paper's feature extractor.

The training and deployment phases both start by extracting *static
program features* from the intermediate representation (§2 of the paper).
This module walks a kernel and produces per-work-item operation counts,
control-flow statistics and memory-access-pattern classifications.

Two evaluation modes cover the paper's two feature classes:

* **static** — loop trip counts that depend on scalar kernel arguments
  (i.e. on the problem size) are replaced by a nominal constant, giving
  pure compile-time features;
* **runtime** — given the actual scalar arguments of a launch, the same
  counts are re-evaluated exactly, yielding the *problem size dependent
  runtime features* that make the model size-sensitive.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Mapping

from . import ast as ir
from .types import BufferType, ScalarType, VectorType, is_floating

__all__ = [
    "AccessPattern",
    "OpCounts",
    "KernelAnalysis",
    "analyze_kernel",
    "DEFAULT_TRIP_COUNT",
]

#: Nominal trip count substituted for size-dependent loops in static mode.
DEFAULT_TRIP_COUNT = 16.0


class AccessPattern(enum.Enum):
    """Classification of a buffer access w.r.t. the global-id axis.

    The classification drives the memory-efficiency factor of the device
    cost model: GPUs lose most of their bandwidth on uncoalesced and
    indirect accesses, CPUs are far less sensitive.
    """

    COALESCED = "coalesced"  # stride 1 across adjacent work-items
    STRIDED = "strided"  # constant stride > 1 across work-items
    BROADCAST = "broadcast"  # same address for all work-items (cached)
    INDIRECT = "indirect"  # data-dependent (gather/scatter)

    @property
    def severity(self) -> int:
        """Ordering used when merging patterns (worst wins)."""
        return {
            AccessPattern.BROADCAST: 0,
            AccessPattern.COALESCED: 1,
            AccessPattern.STRIDED: 2,
            AccessPattern.INDIRECT: 3,
        }[self]


def _worst(a: AccessPattern, b: AccessPattern) -> AccessPattern:
    return a if a.severity >= b.severity else b


_SCALAR_COUNT_FIELDS = (
    "int_ops",
    "float_ops",
    "transcendental_ops",
    "vector_ops",
    "loads",
    "stores",
    "atomic_ops",
    "load_bytes",
    "store_bytes",
    "branches",
    "selects",
    "barriers",
    "divergent_ops",
)


@dataclass
class OpCounts:
    """Estimated per-work-item dynamic operation counts.

    All fields are floating point: loop weighting produces fractional
    expectations (e.g. an op behind a 50%-taken branch counts 0.5).
    ``bytes_by_buffer`` records global traffic per buffer so the device
    cost model can weight each buffer by its access-pattern efficiency.
    """

    int_ops: float = 0.0
    float_ops: float = 0.0
    transcendental_ops: float = 0.0
    vector_ops: float = 0.0
    loads: float = 0.0
    stores: float = 0.0
    atomic_ops: float = 0.0
    load_bytes: float = 0.0
    store_bytes: float = 0.0
    branches: float = 0.0
    selects: float = 0.0
    barriers: float = 0.0
    divergent_ops: float = 0.0
    bytes_by_buffer: dict[str, float] = field(default_factory=dict)

    def _add_buffer_bytes(self, name: str, nbytes: float) -> None:
        self.bytes_by_buffer[name] = self.bytes_by_buffer.get(name, 0.0) + nbytes

    def __iadd__(self, other: "OpCounts") -> "OpCounts":
        for name in _SCALAR_COUNT_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for k, v in other.bytes_by_buffer.items():
            self._add_buffer_bytes(k, v)
        return self

    def scaled(self, k: float) -> "OpCounts":
        """All counts multiplied by ``k`` (loop weighting)."""
        out = OpCounts()
        for name in _SCALAR_COUNT_FIELDS:
            setattr(out, name, getattr(self, name) * k)
        out.bytes_by_buffer = {n: v * k for n, v in self.bytes_by_buffer.items()}
        return out

    @property
    def compute_ops(self) -> float:
        """All arithmetic work, with transcendentals already separate."""
        return self.int_ops + self.float_ops + self.vector_ops

    @property
    def mem_bytes(self) -> float:
        return self.load_bytes + self.store_bytes

    @property
    def arithmetic_intensity(self) -> float:
        """FLOP-ish ops per byte of global traffic (roofline x-axis)."""
        denom = self.mem_bytes
        if denom <= 0.0:
            return float("inf") if self.compute_ops > 0 else 0.0
        return (self.float_ops + self.transcendental_ops + self.vector_ops) / denom

    @property
    def divergence_fraction(self) -> float:
        total = self.compute_ops + self.transcendental_ops
        if total <= 0.0:
            return 0.0
        return min(1.0, self.divergent_ops / total)


# ---------------------------------------------------------------------------
# Linear index-expression analysis
# ---------------------------------------------------------------------------


@dataclass
class _LinearForm:
    """``const + sum(coeff_i * var_i)`` with unknown/nonlinear markers."""

    const: float | None = 0.0
    coeffs: dict[str, float | None] = field(default_factory=dict)
    indirect: bool = False
    nonlinear: bool = False

    GID0 = "__gid0__"
    GID1 = "__gid1__"

    def plus(self, other: "_LinearForm", sign: float = 1.0) -> "_LinearForm":
        out = _LinearForm(
            const=None
            if self.const is None or other.const is None
            else self.const + sign * other.const,
            indirect=self.indirect or other.indirect,
            nonlinear=self.nonlinear or other.nonlinear,
        )
        out.coeffs = dict(self.coeffs)
        for k, v in other.coeffs.items():
            if k in out.coeffs:
                a = out.coeffs[k]
                out.coeffs[k] = None if a is None or v is None else a + sign * v
            else:
                out.coeffs[k] = None if v is None else sign * v
        return out

    def times_const(self, k: float | None) -> "_LinearForm":
        out = _LinearForm(
            const=None if self.const is None or k is None else self.const * k,
            indirect=self.indirect,
            nonlinear=self.nonlinear,
        )
        out.coeffs = {
            name: (None if c is None or k is None else c * k)
            for name, c in self.coeffs.items()
        }
        return out

    @property
    def is_const(self) -> bool:
        return not self.coeffs and not self.indirect and not self.nonlinear


def _linearize(
    expr: ir.Expr,
    scalar_env: Mapping[str, float],
    uniform_vars: frozenset[str] = frozenset(),
) -> _LinearForm:
    """Best-effort linear decomposition of an index expression.

    Variables tracked: the global ids (dims 0/1) and loop induction
    variables / locals (by name).  Scalar kernel parameters are uniform
    across work items: those present in ``scalar_env`` fold to constants,
    those merely named in ``uniform_vars`` become *symbolic* constants
    (``None``), which the pattern classifier treats as a large stride
    when they multiply a tracked variable.
    """
    if isinstance(expr, ir.Const):
        return _LinearForm(const=float(expr.value))
    if isinstance(expr, ir.WorkItemQuery):
        if expr.fn is ir.WorkItemFn.GLOBAL_ID:
            key = _LinearForm.GID0 if expr.dim == 0 else _LinearForm.GID1
            return _LinearForm(const=0.0, coeffs={key: 1.0})
        return _LinearForm(const=None)  # sizes etc.: uniform unknowns
    if isinstance(expr, ir.Var):
        if expr.name in scalar_env:
            return _LinearForm(const=float(scalar_env[expr.name]))
        if expr.name in uniform_vars:
            return _LinearForm(const=None)
        # A local or loop variable: tracked symbolically by name.
        return _LinearForm(const=0.0, coeffs={expr.name: 1.0})
    if isinstance(expr, ir.Cast):
        return _linearize(expr.expr, scalar_env, uniform_vars)
    if isinstance(expr, ir.Load):
        return _LinearForm(const=None, indirect=True)
    if isinstance(expr, ir.UnOp) and expr.op == "-":
        return _linearize(expr.operand, scalar_env, uniform_vars).times_const(-1.0)
    if isinstance(expr, ir.BinOp):
        lhs = _linearize(expr.lhs, scalar_env, uniform_vars)
        rhs = _linearize(expr.rhs, scalar_env, uniform_vars)
        if expr.op == "+":
            return lhs.plus(rhs)
        if expr.op == "-":
            return lhs.plus(rhs, sign=-1.0)
        if expr.op == "*":
            if lhs.is_const:
                return rhs.times_const(lhs.const)
            if rhs.is_const:
                return lhs.times_const(rhs.const)
            if not lhs.coeffs and not rhs.coeffs:
                return _LinearForm(
                    const=None,
                    indirect=lhs.indirect or rhs.indirect,
                    nonlinear=lhs.nonlinear or rhs.nonlinear,
                )
            out = lhs.plus(rhs)
            out.nonlinear = True
            return out
        if expr.op in ("/", "%", "<<", ">>", "&", "|", "^"):
            out = lhs.plus(rhs)
            # Division/modulo of gid-dependent terms scrambles locality.
            if lhs.coeffs or rhs.coeffs:
                out.nonlinear = True
            return out
        return _LinearForm(const=None, nonlinear=True)
    if isinstance(expr, ir.Select):
        a = _linearize(expr.if_true, scalar_env, uniform_vars)
        b = _linearize(expr.if_false, scalar_env, uniform_vars)
        out = a.plus(b).times_const(0.5)
        out.nonlinear = True
        return out
    if isinstance(expr, ir.Call):
        out = _LinearForm(const=None, nonlinear=True)
        for a in expr.args:
            sub = _linearize(a, scalar_env, uniform_vars)
            out.indirect |= sub.indirect
        return out
    return _LinearForm(const=None, nonlinear=True)


def classify_index(
    expr: ir.Expr,
    scalar_env: Mapping[str, float] | None = None,
    uniform_vars: frozenset[str] = frozenset(),
) -> AccessPattern:
    """Classify one buffer index expression into an AccessPattern."""
    form = _linearize(expr, scalar_env or {}, uniform_vars)
    if form.indirect:
        return AccessPattern.INDIRECT
    if form.nonlinear:
        return AccessPattern.STRIDED
    gid_coeff = form.coeffs.get(_LinearForm.GID0)
    if gid_coeff is None and _LinearForm.GID0 in form.coeffs:
        return AccessPattern.STRIDED  # symbolic stride (e.g. gid * n)
    if gid_coeff in (None, 0.0):
        # No dependence on gid0: either a pure broadcast or a loop sweep.
        loop_coeffs = [
            c
            for k, c in form.coeffs.items()
            if k not in (_LinearForm.GID0, _LinearForm.GID1)
        ]
        gid1 = form.coeffs.get(_LinearForm.GID1)
        if gid1 not in (None, 0.0) and _LinearForm.GID1 in form.coeffs:
            return (
                AccessPattern.STRIDED if abs(gid1) != 1.0 else AccessPattern.COALESCED
            )
        if loop_coeffs:
            return AccessPattern.BROADCAST
        return AccessPattern.BROADCAST
    if abs(gid_coeff) == 1.0:
        return AccessPattern.COALESCED
    return AccessPattern.STRIDED


# ---------------------------------------------------------------------------
# Expression evaluation (for loop bounds)
# ---------------------------------------------------------------------------


def _try_eval(expr: ir.Expr, scalar_env: Mapping[str, float]) -> float | None:
    """Evaluate an expression to a number if it only involves constants
    and known scalar parameters; otherwise return None."""
    if isinstance(expr, ir.Const):
        return float(expr.value)
    if isinstance(expr, ir.Var):
        v = scalar_env.get(expr.name)
        return None if v is None else float(v)
    if isinstance(expr, ir.Cast):
        inner = _try_eval(expr.expr, scalar_env)
        if inner is None:
            return None
        if isinstance(expr.type, ScalarType) and not expr.type.floating:
            return float(int(inner))
        return inner
    if isinstance(expr, ir.UnOp):
        v = _try_eval(expr.operand, scalar_env)
        if v is None:
            return None
        return -v if expr.op == "-" else float(not v)
    if isinstance(expr, ir.BinOp):
        a = _try_eval(expr.lhs, scalar_env)
        b = _try_eval(expr.rhs, scalar_env)
        if a is None or b is None:
            return None
        try:
            if expr.op == "+":
                return a + b
            if expr.op == "-":
                return a - b
            if expr.op == "*":
                return a * b
            if expr.op == "/":
                if b == 0:
                    return None
                if not is_floating(expr.type):
                    return float(int(a) // int(b))
                return a / b
            if expr.op == "%":
                return float(int(a) % int(b)) if b else None
            if expr.op == "<<":
                return float(int(a) << int(b))
            if expr.op == ">>":
                return float(int(a) >> int(b))
        except (ValueError, OverflowError):
            return None
    if isinstance(expr, ir.Call):
        args = [_try_eval(a, scalar_env) for a in expr.args]
        if any(a is None for a in args):
            return None
        fn = {
            "min": min,
            "max": max,
            "fmin": min,
            "fmax": max,
            "sqrt": math.sqrt,
            "fabs": abs,
            "abs": abs,
            "floor": math.floor,
            "ceil": math.ceil,
            "log2": math.log2,
        }.get(expr.func)
        if fn is None:
            return None
        try:
            return float(fn(*args))  # type: ignore[arg-type]
        except (ValueError, TypeError):
            return None
    return None


# ---------------------------------------------------------------------------
# The analyzer
# ---------------------------------------------------------------------------


@dataclass
class KernelAnalysis:
    """Analysis results for one kernel.

    Exposes both feature classes of the paper: call :meth:`op_counts`
    with no environment for static features, or with the launch's scalar
    arguments for runtime (problem-size-dependent) features.
    """

    kernel: ir.Kernel
    loop_count: int
    max_loop_depth: int
    has_size_dependent_loops: bool
    access_patterns: dict[str, AccessPattern]
    buffers_read: tuple[str, ...]
    buffers_written: tuple[str, ...]
    has_atomics: bool
    has_barriers: bool
    _op_counts_cache: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _divergence: "_DivergenceContext | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def op_counts(self, scalar_env: Mapping[str, float] | None = None) -> OpCounts:
        """Per-work-item op counts; exact when ``scalar_env`` is given.

        Results are memoized per scalar environment — every size of a
        program shares one analysis, and the features and the cost
        model ask for each launch's counts.  The divergence context
        (two walks of the kernel) is built once per analysis.
        """
        env = dict(scalar_env or {})
        key = tuple(sorted(env.items()))
        cache = self._op_counts_cache
        hit = cache.get(key)
        if hit is not None:
            return hit.scaled(1.0)  # defensive copy; callers may mutate
        counts = OpCounts()
        ctx = self._divergence
        if ctx is None:
            ctx = self._divergence = _DivergenceContext(
                uniform=frozenset(p.name for p in self.kernel.scalar_params),
                defs=_single_assignment_map(self.kernel),
                loop_vars=_loop_var_names(self.kernel),
            )
        _count_block(
            self.kernel.body, env, weight=1.0, divergent=False, out=counts, ctx=ctx
        )
        cache[key] = counts
        return counts.scaled(1.0)

    def pattern_of(self, buffer_name: str) -> AccessPattern:
        """Access pattern of one buffer (COALESCED if never accessed)."""
        return self.access_patterns.get(buffer_name, AccessPattern.COALESCED)

    def static_features(self) -> dict[str, float]:
        """The flat static feature dictionary stored in the training DB."""
        c = self.op_counts()
        pattern_counts = {p: 0.0 for p in AccessPattern}
        for p in self.access_patterns.values():
            pattern_counts[p] += 1.0
        n_buffers = max(1.0, float(len(self.access_patterns)))
        return {
            "st_int_ops": c.int_ops,
            "st_float_ops": c.float_ops,
            "st_transcendental_ops": c.transcendental_ops,
            "st_vector_ops": c.vector_ops,
            "st_loads": c.loads,
            "st_stores": c.stores,
            "st_atomics": c.atomic_ops,
            "st_load_bytes": c.load_bytes,
            "st_store_bytes": c.store_bytes,
            "st_branches": c.branches,
            "st_selects": c.selects,
            "st_barriers": c.barriers,
            "st_divergence": c.divergence_fraction,
            "st_arith_intensity": min(c.arithmetic_intensity, 1e6),
            "st_loop_count": float(self.loop_count),
            "st_loop_depth": float(self.max_loop_depth),
            "st_size_dep_loops": 1.0 if self.has_size_dependent_loops else 0.0,
            "st_frac_coalesced": pattern_counts[AccessPattern.COALESCED] / n_buffers,
            "st_frac_strided": pattern_counts[AccessPattern.STRIDED] / n_buffers,
            "st_frac_broadcast": pattern_counts[AccessPattern.BROADCAST] / n_buffers,
            "st_frac_indirect": pattern_counts[AccessPattern.INDIRECT] / n_buffers,
        }


def _is_float_op(ty: object) -> bool:
    return is_floating(ty)  # type: ignore[arg-type]


def _count_expr(expr: ir.Expr, weight: float, divergent: bool, out: OpCounts) -> None:
    if isinstance(expr, (ir.Const, ir.Var, ir.WorkItemQuery)):
        return
    if isinstance(expr, ir.Load):
        _count_expr(expr.index, weight, divergent, out)
        out.loads += weight
        out.load_bytes += weight * expr.type.sizeof()
        out._add_buffer_bytes(expr.buffer.name, weight * expr.type.sizeof())
        if divergent:
            out.divergent_ops += weight
        return
    if isinstance(expr, ir.BinOp):
        _count_expr(expr.lhs, weight, divergent, out)
        _count_expr(expr.rhs, weight, divergent, out)
        if isinstance(expr.lhs.type, VectorType) or isinstance(
            expr.rhs.type, VectorType
        ):
            out.vector_ops += weight
        elif _is_float_op(expr.lhs.type) or _is_float_op(expr.rhs.type):
            out.float_ops += weight
        else:
            out.int_ops += weight
        if divergent:
            out.divergent_ops += weight
        return
    if isinstance(expr, ir.UnOp):
        _count_expr(expr.operand, weight, divergent, out)
        if _is_float_op(expr.operand.type):
            out.float_ops += weight
        else:
            out.int_ops += weight
        if divergent:
            out.divergent_ops += weight
        return
    if isinstance(expr, ir.Call):
        for a in expr.args:
            _count_expr(a, weight, divergent, out)
        if expr.func in ir.TRANSCENDENTAL_FUNCTIONS:
            out.transcendental_ops += weight
        elif _is_float_op(expr.type):
            out.float_ops += weight
        else:
            out.int_ops += weight
        if divergent:
            out.divergent_ops += weight
        return
    if isinstance(expr, ir.Cast):
        _count_expr(expr.expr, weight, divergent, out)
        out.int_ops += 0.0  # casts are free in the model
        return
    if isinstance(expr, ir.Select):
        _count_expr(expr.cond, weight, divergent, out)
        _count_expr(expr.if_true, weight, divergent, out)
        _count_expr(expr.if_false, weight, divergent, out)
        out.selects += weight
        if divergent:
            out.divergent_ops += weight
        return
    raise TypeError(f"unknown expression {type(expr).__name__}")


def _is_affine_guard_operand(
    expr: ir.Expr,
    uniform: frozenset[str],
    defs: Mapping[str, ir.Expr],
    loop_vars: frozenset[str],
) -> bool:
    """True when the operand is affine in the global id over uniforms.

    Such operands give *range guards*: conditions that evaluate
    identically for all but one wavefront (``gid < n``, interior checks
    of stencils, in-loop bounds tests ``gid*chunk + k < n``), which SIMT
    hardware executes without divergence cost.  Loop induction variables
    are uniform across work items; unresolved multi-assigned locals are
    not (they usually carry loaded data).
    """
    form = _linearize(_substitute_locals(expr, dict(defs)), {}, uniform)
    if form.indirect or form.nonlinear:
        return False
    allowed = {_LinearForm.GID0, _LinearForm.GID1} | loop_vars
    for key in form.coeffs:
        if key not in allowed:
            return False
    return True


def branch_diverges(
    cond: ir.Expr,
    uniform: frozenset[str],
    defs: Mapping[str, ir.Expr],
    loop_vars: frozenset[str] = frozenset(),
) -> bool:
    """Whether a branch condition causes per-work-item divergence.

    Conjunctions/disjunctions of gid-affine range guards are uniform
    across a wavefront (modulo one boundary wavefront) — these are the
    ubiquitous ``if (gid < n)`` guards and stencil interior checks.
    Everything else (data-dependent loads, modulo patterns, reduction
    comparisons) is treated as divergent.
    """
    if isinstance(cond, ir.BinOp):
        if cond.op in ir.LOGICAL_OPS:
            return branch_diverges(
                cond.lhs, uniform, defs, loop_vars
            ) or branch_diverges(cond.rhs, uniform, defs, loop_vars)
        if cond.op in ir.COMPARISON_OPS:
            return not (
                _is_affine_guard_operand(cond.lhs, uniform, defs, loop_vars)
                and _is_affine_guard_operand(cond.rhs, uniform, defs, loop_vars)
            )
        return True
    if isinstance(cond, ir.UnOp) and cond.op == "!":
        return branch_diverges(cond.operand, uniform, defs, loop_vars)
    if isinstance(cond, ir.Const):
        return False
    return True


def _loop_var_names(kernel: ir.Kernel) -> frozenset[str]:
    from .visitors import walk

    return frozenset(
        n.var.name for n in walk(kernel.body) if isinstance(n, ir.For)
    )


@dataclass(frozen=True)
class _DivergenceContext:
    """Kernel-level info needed to classify branch divergence."""

    uniform: frozenset[str]
    defs: Mapping[str, ir.Expr]
    loop_vars: frozenset[str] = frozenset()


def _loop_trips(stmt: ir.For, env: Mapping[str, float]) -> float:
    start = _try_eval(stmt.start, env)
    end = _try_eval(stmt.end, env)
    step = _try_eval(stmt.step, env)
    if start is None or end is None or step in (None, 0.0):
        return DEFAULT_TRIP_COUNT
    trips = (end - start) / step  # type: ignore[operator]
    return max(0.0, math.ceil(trips))


def _count_block(
    block: ir.Block,
    env: Mapping[str, float],
    weight: float,
    divergent: bool,
    out: OpCounts,
    ctx: _DivergenceContext,
) -> None:
    for stmt in block.stmts:
        _count_stmt(stmt, env, weight, divergent, out, ctx)


def _count_stmt(
    stmt: ir.Stmt,
    env: Mapping[str, float],
    weight: float,
    divergent: bool,
    out: OpCounts,
    ctx: _DivergenceContext,
) -> None:
    if isinstance(stmt, ir.Assign):
        _count_expr(stmt.value, weight, divergent, out)
    elif isinstance(stmt, ir.Store):
        _count_expr(stmt.index, weight, divergent, out)
        _count_expr(stmt.value, weight, divergent, out)
        out.stores += weight
        out.store_bytes += weight * stmt.value.type.sizeof()
        out._add_buffer_bytes(stmt.buffer.name, weight * stmt.value.type.sizeof())
    elif isinstance(stmt, ir.AtomicUpdate):
        _count_expr(stmt.index, weight, divergent, out)
        _count_expr(stmt.value, weight, divergent, out)
        out.atomic_ops += weight
        elem = stmt.buffer.type
        size = elem.element.sizeof() if isinstance(elem, BufferType) else 4
        # An atomic RMW both reads and writes the cell.
        out.load_bytes += weight * size
        out.store_bytes += weight * size
        out._add_buffer_bytes(stmt.buffer.name, 2.0 * weight * size)
    elif isinstance(stmt, ir.Block):
        _count_block(stmt, env, weight, divergent, out, ctx)
    elif isinstance(stmt, ir.If):
        _count_expr(stmt.cond, weight, divergent, out)
        out.branches += weight
        div = divergent or branch_diverges(
            stmt.cond, ctx.uniform, ctx.defs, ctx.loop_vars
        )
        # Expected execution: both arms weighted by a 50% taken-probability
        # unless an arm is empty (the common boundary-guard shape).
        has_else = bool(stmt.else_body.stmts)
        p_then = 0.5 if has_else else 0.9
        _count_block(stmt.then_body, env, weight * p_then, div, out, ctx)
        if has_else:
            _count_block(stmt.else_body, env, weight * 0.5, div, out, ctx)
    elif isinstance(stmt, ir.For):
        _count_expr(stmt.start, weight, divergent, out)
        trips = _loop_trips(stmt, env)
        # Loop bookkeeping: one compare + one increment per iteration,
        # plus one back-edge branch (clause-breaking on VLIW devices).
        out.int_ops += weight * trips * 2.0
        out.branches += weight * trips
        inner_env = dict(env)
        inner_env.pop(stmt.var.name, None)
        _count_block(stmt.body, inner_env, weight * trips, divergent, out, ctx)
    elif isinstance(stmt, ir.While):
        # One condition evaluation + back-edge per expected iteration.
        out.branches += weight * stmt.expected_trips
        # Data-dependent trip counts diverge by nature (work items exit
        # the loop at different iterations — e.g. Mandelbrot escape).
        div = divergent or branch_diverges(
            stmt.cond, ctx.uniform, ctx.defs, ctx.loop_vars
        )
        _count_expr(stmt.cond, weight * stmt.expected_trips, div, out)
        _count_block(stmt.body, env, weight * stmt.expected_trips, div, out, ctx)
    elif isinstance(stmt, ir.Barrier):
        out.barriers += weight
    else:
        raise TypeError(f"unknown statement {type(stmt).__name__}")


def _collect_structure(
    block: ir.Block, depth: int, state: dict[str, object]
) -> None:
    for stmt in block.stmts:
        if isinstance(stmt, ir.For):
            state["loop_count"] = state["loop_count"] + 1  # type: ignore[operator]
            depth_now = depth + 1
            state["max_depth"] = max(state["max_depth"], depth_now)  # type: ignore[call-overload]
            if _try_eval(stmt.end, {}) is None:
                state["size_dep"] = True
            _collect_structure(stmt.body, depth + 1, state)
        elif isinstance(stmt, ir.While):
            state["loop_count"] = state["loop_count"] + 1  # type: ignore[operator]
            depth_now = depth + 1
            state["max_depth"] = max(state["max_depth"], depth_now)  # type: ignore[call-overload]
            state["size_dep"] = True
            _collect_structure(stmt.body, depth + 1, state)
        elif isinstance(stmt, ir.If):
            _collect_structure(stmt.then_body, depth, state)
            _collect_structure(stmt.else_body, depth, state)
        elif isinstance(stmt, ir.Block):
            _collect_structure(stmt, depth, state)


def _single_assignment_map(kernel: ir.Kernel) -> dict[str, ir.Expr]:
    """Map locals assigned exactly once to their defining expression.

    Used to see through the common OpenCL idiom of aliasing the global id
    into a named local (``int row = get_global_id(1);``) before indexing.
    """
    from .visitors import walk

    counts: dict[str, int] = {}
    defs: dict[str, ir.Expr] = {}
    for node in walk(kernel.body):
        if isinstance(node, ir.Assign):
            counts[node.var.name] = counts.get(node.var.name, 0) + 1
            defs[node.var.name] = node.value
        elif isinstance(node, ir.For):
            # Induction variables are multiply-assigned by definition.
            counts[node.var.name] = counts.get(node.var.name, 0) + 2
    return {n: e for n, e in defs.items() if counts.get(n, 0) == 1}


def _substitute_locals(
    expr: ir.Expr, defs: Mapping[str, ir.Expr], depth: int = 4
) -> ir.Expr:
    """Inline single-assignment locals into an index expression."""
    if depth <= 0:
        return expr
    from .visitors import rewrite_expr

    def sub(e: ir.Expr) -> ir.Expr | None:
        if isinstance(e, ir.Var) and e.name in defs:
            return _substitute_locals(defs[e.name], defs, depth - 1)
        return None

    return rewrite_expr(expr, sub)


def analyze_kernel(kernel: ir.Kernel) -> KernelAnalysis:
    """Run all static analyses over ``kernel``."""
    from .visitors import walk

    patterns: dict[str, AccessPattern] = {}
    reads: set[str] = set()
    writes: set[str] = set()
    has_atomics = False
    has_barriers = False
    uniform = frozenset(p.name for p in kernel.scalar_params)
    defs = _single_assignment_map(kernel)

    def classify(index: ir.Expr) -> AccessPattern:
        return classify_index(_substitute_locals(index, defs), uniform_vars=uniform)

    for node in walk(kernel.body):
        if isinstance(node, ir.Load):
            reads.add(node.buffer.name)
            p = classify(node.index)
            patterns[node.buffer.name] = _worst(
                patterns.get(node.buffer.name, AccessPattern.BROADCAST), p
            )
        elif isinstance(node, ir.Store):
            writes.add(node.buffer.name)
            p = classify(node.index)
            patterns[node.buffer.name] = _worst(
                patterns.get(node.buffer.name, AccessPattern.BROADCAST), p
            )
        elif isinstance(node, ir.AtomicUpdate):
            writes.add(node.buffer.name)
            has_atomics = True
            patterns[node.buffer.name] = AccessPattern.INDIRECT
        elif isinstance(node, ir.Barrier):
            has_barriers = True

    state: dict[str, object] = {"loop_count": 0, "max_depth": 0, "size_dep": False}
    _collect_structure(kernel.body, 0, state)

    return KernelAnalysis(
        kernel=kernel,
        loop_count=int(state["loop_count"]),  # type: ignore[arg-type]
        max_loop_depth=int(state["max_depth"]),  # type: ignore[arg-type]
        has_size_dependent_loops=bool(state["size_dep"]),
        access_patterns=patterns,
        buffers_read=tuple(sorted(reads)),
        buffers_written=tuple(sorted(writes)),
        has_atomics=has_atomics,
        has_barriers=has_barriers,
    )
