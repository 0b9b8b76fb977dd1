"""Every function and class defined in ``src/`` is read by the program.

A definition that only tests call is code the program does not need:
it is kept, documented and re-verified for nothing.  The walk follows
the static extractor's method of ``test_config_knobs.py``: parse
``src/``, ``benchmarks/`` and ``examples/``, record every site that
reads a name, and do no dataflow.

A definition (a function, class or method outside any function body)
counts as used only where its name is *read* outside its own body: as
an ``ast.Name`` or an ``ast.Attribute`` in load context, or as a name
inside a quoted annotation.  An ``import``, an ``__init__`` re-export
or an ``__all__`` string reads nothing, and neither does a recursive
call.  Names match across modules and classes alike, so a read of
``x.fit`` keeps every ``fit`` alive.  Dunder methods are exempt: the
language calls them.  Deleting one orphan can orphan another, so the
test enforces the fixed point.
"""

from __future__ import annotations

import ast
from collections import defaultdict

from test_config_knobs import ROOT, _sources

_BUILTIN = "OpenCL C built-in of the kernel DSL, for any kernel to call"

#: Definitions kept with no reader in the program, each with its reason.
ALLOWLIST = {
    "repro.inspire.builder.E.or_": _BUILTIN,
    "repro.inspire.builder.E.not_": _BUILTIN,
    "repro.inspire.builder.KernelBuilder.local_id": _BUILTIN,
    "repro.inspire.builder.KernelBuilder.group_id": _BUILTIN,
    "repro.inspire.builder.KernelBuilder.select": _BUILTIN,
    "repro.inspire.builder.KernelBuilder.fabs": _BUILTIN,
    "repro.inspire.builder.KernelBuilder.fmax": _BUILTIN,
    "repro.inspire.builder.KernelBuilder.mad": _BUILTIN,
    "repro.inspire.builder.KernelBuilder.barrier": _BUILTIN,
    "repro.inspire.interpreter.run_kernel": (
        "reference interpreter the benchsuite and compiler tests check against"
    ),
}

def program_modules():
    """``(tree, module name, parsed module)`` for every program source."""
    for tree, path in _sources():
        if tree == "tests":
            continue
        parts = path.relative_to(ROOT / tree).with_suffix("").parts
        yield tree, ".".join(parts), ast.parse(path.read_text(), filename=str(path))


def _definitions(node: ast.AST, prefix: str):
    """``(qualified name, def node)`` outside any function body."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
            yield prefix + child.name, child
            if isinstance(child, ast.ClassDef):
                yield from _definitions(child, f"{prefix}{child.name}.")
        elif isinstance(child, ast.stmt):
            yield from _definitions(child, prefix)


def _quoted(module: ast.Module):
    """Every string constant inside an annotation."""
    for node in ast.walk(module):
        if isinstance(node, ast.arg | ast.AnnAssign):
            annotation = node.annotation
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
            annotation = node.returns
        else:
            continue
        for leaf in ast.walk(annotation) if annotation else ():
            if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str):
                yield leaf


def _reads(module: ast.Module):
    """``(name, line)`` of every name the module reads."""
    for node in ast.walk(module):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno
    for leaf in _quoted(module):
        try:
            quoted = ast.parse(leaf.value, mode="eval")
        except SyntaxError:  # a Literal["..."] value, not a forward reference
            continue
        yield from ((name, leaf.lineno) for name, _ in _reads(quoted))


def census(modules, allowlist=ALLOWLIST):
    """``(orphans not allowlisted, stale allowlist entries)``.

    ``modules`` yields ``(tree, module name, parsed module)``;
    definitions come from the ``"src"`` tree only, reads from every
    tree.  An entry is stale when it names no definition, or one that
    something now reads.
    """
    reads: dict[str, list[tuple[str, int]]] = defaultdict(list)
    defined = {}
    for tree, name, module in modules:
        for read, line in _reads(module):
            reads[read].append((name, line))
        if tree == "src":
            for qualname, node in _definitions(module, f"{name}."):
                defined[qualname] = (name, node)

    def is_read(module_name: str, node) -> bool:
        return any(
            site != module_name or not node.lineno <= line <= node.end_lineno
            for site, line in reads[node.name]
        )

    orphans = {
        qualname
        for qualname, (module_name, node) in defined.items()
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and not is_read(module_name, node)
    }
    return sorted(orphans - set(allowlist)), sorted(set(allowlist) - orphans)


def _parsed(**sources: str):
    """``census`` input: keyword ``module=source``; ``user_*`` modules
    are parsed as ``examples/``, the rest as ``src/``."""
    return [
        ("examples" if name.startswith("user_") else "src", name, ast.parse(text))
        for name, text in sources.items()
    ]


def test_no_definition_lacks_a_reader():
    orphans, _ = census(program_modules())
    assert not orphans, (
        "definitions in src/ that no module in src/, benchmarks/ or "
        f"examples/ reads (delete them, or allowlist with a reason): {orphans}"
    )


def test_allowlist_names_only_live_orphans():
    # Also guards the walk itself: a walk that parsed nothing would find
    # no orphan, and every entry would then be stale.
    _, stale = census(program_modules())
    assert not stale, f"stale allowlist entries: {stale}"


class TestRule:
    def test_import_reexport_and_all_are_not_reads(self):
        modules = _parsed(
            lib="def helper():\n    return 1\n",
            pkg="from lib import helper\n__all__ = ['helper']\n",
            user_x="from pkg import helper\n",
        )
        assert census(modules, allowlist={}) == (["lib.helper"], [])

    def test_recursion_is_not_a_read(self):
        modules = _parsed(
            lib=(
                "def fact(n):\n    return 1 if n < 2 else n * fact(n - 1)\n"
                "class Node:\n    def copy(self):\n        return Node()\n"
            )
        )
        orphans = ["lib.Node", "lib.Node.copy", "lib.fact"]
        assert census(modules, allowlist={}) == (orphans, [])

    def test_a_read_from_a_sibling_method_counts(self):
        modules = _parsed(
            lib=(
                "class Node:\n    def a(self):\n        return self.b()\n"
                "    def b(self):\n        return 1\n"
            ),
            user_x="from lib import Node\nNode().a()\n",
        )
        assert census(modules, allowlist={}) == ([], [])

    def test_quoted_annotation_is_a_read(self):
        modules = _parsed(
            lib="class Foo:\n    pass\n",
            user_x="def make(k: Literal['a b']) -> 'Foo':\n    ...\nmake()\n",
        )
        assert census(modules, allowlist={}) == ([], [])

    def test_dunder_methods_are_exempt(self):
        modules = _parsed(lib="class Foo:\n    def __len__(self):\n        return 0\n")
        assert census(modules, allowlist={}) == (["lib.Foo"], [])

    def test_allowlisted_orphan_passes(self):
        modules = _parsed(lib="def builtin():\n    pass\n")
        assert census(modules, allowlist={"lib.builtin": "dsl"}) == ([], [])

    def test_stale_allowlist_entries_fail(self):
        modules = _parsed(
            lib="def live():\n    pass\n",
            user_x="from lib import live\nlive()\n",
        )
        allowlist = {"lib.live": "now read", "lib.gone": "no longer defined"}
        assert census(modules, allowlist) == ([], ["lib.gone", "lib.live"])
