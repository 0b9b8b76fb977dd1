"""Tests for generic IR traversal and rewriting."""

import pytest

from repro.inspire import FLOAT, INT, Intent, KernelBuilder, const
from repro.inspire import ast as ir
from repro.inspire.visitors import rewrite_expr, rewrite_kernel, walk


@pytest.fixture
def kernel():
    b = KernelBuilder("k", dim=1)
    a = b.buffer("a", FLOAT, Intent.IN)
    c = b.buffer("c", FLOAT, Intent.OUT)
    n = b.scalar("n", INT)
    gid = b.global_id(0)
    acc = b.let("acc", const(0.0, FLOAT))
    with b.for_("i", 0, n) as i:
        b.assign(acc, acc + b.load(a, gid * n + i))
    with b.if_(gid < n):
        b.store(c, gid, acc)
    return b.finish()


class TestWalk:
    def test_preorder_includes_root(self, kernel):
        nodes = list(walk(kernel.body))
        assert nodes[0] is kernel.body

    def test_walk_reaches_nested_loads(self, kernel):
        loads = [n for n in walk(kernel.body) if isinstance(n, ir.Load)]
        assert len(loads) == 1


class TestRewrite:
    def test_identity_rewrite_preserves_structure(self, kernel):
        out = rewrite_kernel(kernel, lambda e: None)
        assert out == kernel

    def test_expression_substitution(self):
        # Replace every integer constant 2 with 3.
        expr = ir.BinOp("*", ir.Const(2, INT), ir.Var("x", INT), INT)

        def sub(e: ir.Expr):
            if isinstance(e, ir.Const) and e.value == 2:
                return ir.Const(3, INT)
            return None

        out = rewrite_expr(expr, sub)
        assert isinstance(out.lhs, ir.Const) and out.lhs.value == 3

    def test_rewrite_is_bottom_up(self):
        # Inner rewrite result is visible to the outer callback.
        inner = ir.BinOp("+", ir.Const(1, INT), ir.Const(1, INT), INT)
        expr = ir.UnOp("-", inner, INT)
        seen = []

        def spy(e: ir.Expr):
            seen.append(type(e).__name__)
            return None

        rewrite_expr(expr, spy)
        assert seen.index("BinOp") < seen.index("UnOp")

    def test_rewrite_kernel_changes_loads(self, kernel):
        # Redirect loads of "a" to a shifted index.
        def shift(e: ir.Expr):
            if isinstance(e, ir.Load):
                return ir.Load(
                    e.buffer, ir.BinOp("+", e.index, ir.Const(1, INT), INT), e.type
                )
            return None

        out = rewrite_kernel(kernel, shift)
        loads = [n for n in walk(out.body) if isinstance(n, ir.Load)]
        assert isinstance(loads[0].index, ir.BinOp)
        assert loads[0].index.op == "+"

    def test_rewrite_preserves_metadata(self, kernel):
        out = rewrite_kernel(kernel, lambda e: None)
        assert out.name == kernel.name
        assert out.params == kernel.params
        assert out.dim == kernel.dim
