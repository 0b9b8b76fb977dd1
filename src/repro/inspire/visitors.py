"""Generic traversal and rewriting utilities over the kernel IR.

Compiler passes and the static feature extractor are written against
these helpers rather than hand-rolled recursion, so adding a node type
only requires updating ``children()`` on the node itself.
"""

from __future__ import annotations

from typing import Callable, Iterator

from . import ast as ir

__all__ = [
    "walk",
    "rewrite_expr",
    "rewrite_kernel",
]

def walk(node: ir.Node) -> Iterator[ir.Node]:
    """Yield ``node`` and all descendants in pre-order."""
    yield node
    for child in node.children():
        yield from walk(child)


ExprRewriter = Callable[[ir.Expr], ir.Expr | None]


def rewrite_expr(expr: ir.Expr, fn: ExprRewriter) -> ir.Expr:
    """Bottom-up expression rewrite.

    ``fn`` is applied to each rebuilt node; returning ``None`` keeps the
    node, returning a new node substitutes it.
    """
    rebuilt: ir.Expr
    if isinstance(expr, ir.BinOp):
        rebuilt = ir.BinOp(
            expr.op, rewrite_expr(expr.lhs, fn), rewrite_expr(expr.rhs, fn), expr.type
        )
    elif isinstance(expr, ir.UnOp):
        rebuilt = ir.UnOp(expr.op, rewrite_expr(expr.operand, fn), expr.type)
    elif isinstance(expr, ir.Call):
        rebuilt = ir.Call(
            expr.func, tuple(rewrite_expr(a, fn) for a in expr.args), expr.type
        )
    elif isinstance(expr, ir.Cast):
        rebuilt = ir.Cast(rewrite_expr(expr.expr, fn), expr.type)
    elif isinstance(expr, ir.Select):
        rebuilt = ir.Select(
            rewrite_expr(expr.cond, fn),
            rewrite_expr(expr.if_true, fn),
            rewrite_expr(expr.if_false, fn),
            expr.type,
        )
    elif isinstance(expr, ir.Load):
        rebuilt = ir.Load(expr.buffer, rewrite_expr(expr.index, fn), expr.type)
    else:  # Const, Var, WorkItemQuery: leaves
        rebuilt = expr
    out = fn(rebuilt)
    return rebuilt if out is None else out


def _rewrite_stmt(stmt: ir.Stmt, fn: ExprRewriter) -> ir.Stmt:
    if isinstance(stmt, ir.Assign):
        return ir.Assign(stmt.var, rewrite_expr(stmt.value, fn), declares=stmt.declares)
    if isinstance(stmt, ir.Store):
        return ir.Store(
            stmt.buffer, rewrite_expr(stmt.index, fn), rewrite_expr(stmt.value, fn)
        )
    if isinstance(stmt, ir.AtomicUpdate):
        return ir.AtomicUpdate(
            stmt.buffer,
            rewrite_expr(stmt.index, fn),
            rewrite_expr(stmt.value, fn),
            op=stmt.op,
        )
    if isinstance(stmt, ir.Block):
        return ir.Block(tuple(_rewrite_stmt(s, fn) for s in stmt.stmts))
    if isinstance(stmt, ir.If):
        return ir.If(
            rewrite_expr(stmt.cond, fn),
            _rewrite_block(stmt.then_body, fn),
            _rewrite_block(stmt.else_body, fn),
        )
    if isinstance(stmt, ir.For):
        return ir.For(
            stmt.var,
            rewrite_expr(stmt.start, fn),
            rewrite_expr(stmt.end, fn),
            rewrite_expr(stmt.step, fn),
            _rewrite_block(stmt.body, fn),
        )
    if isinstance(stmt, ir.While):
        return ir.While(
            rewrite_expr(stmt.cond, fn),
            _rewrite_block(stmt.body, fn),
            expected_trips=stmt.expected_trips,
        )
    if isinstance(stmt, ir.Barrier):
        return stmt
    raise TypeError(f"unknown statement {stmt!r}")


def _rewrite_block(block: ir.Block, fn: ExprRewriter) -> ir.Block:
    return ir.Block(tuple(_rewrite_stmt(s, fn) for s in block.stmts))


def rewrite_kernel(kernel: ir.Kernel, fn: ExprRewriter) -> ir.Kernel:
    """Apply an expression rewriter to every expression in a kernel body."""
    return ir.Kernel(
        name=kernel.name,
        params=kernel.params,
        body=_rewrite_block(kernel.body, fn),
        dim=kernel.dim,
    )
