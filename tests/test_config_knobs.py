"""Every serving config field is set by some caller outside the tests.

A field that only tests set (or nobody sets) is a knob no caller turns:
it doubles the configurations the serving invariants must hold under
and buys nothing.  Such a value belongs in a module constant, which a
test can still monkeypatch.

The walk follows a static extractor's method: parse ``src/``,
``benchmarks/``, ``examples/`` and ``tests/``, visit every
``ServeOptions``, ``ServiceConfig``, ``SLOConfig`` and
``dataclasses.replace`` call, and record the fields each one sets.
Creation sites only, no dataflow: a ``replace`` keyword counts for
every walked class with a field of that name, and a value routed
through ``**kwargs`` is invisible, so a ``**`` splat at one of these
constructors outside ``tests/`` fails the walk as well.
"""

from __future__ import annotations

import ast
import dataclasses
from collections import defaultdict
from pathlib import Path

from repro.serving import ServeOptions, ServiceConfig, SLOConfig

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "benchmarks", "examples", "tests")

#: Class name → its settable fields, in declaration order (positional
#: arguments bind in this order).
CONFIGS = {
    cls.__name__: [f.name for f in dataclasses.fields(cls) if f.init]
    for cls in (ServeOptions, ServiceConfig, SLOConfig)
}


def _sources():
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            parts = path.relative_to(ROOT).parts
            if any(p.startswith(".") or p == "__pycache__" for p in parts):
                continue
            yield tree, path


def _callee(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def walk():
    """``({(class, field): {tree, ...}}, [splat site, ...])`` over the trees.

    Splat sites are listed only outside ``tests/``.
    """
    set_in: dict[tuple[str, str], set[str]] = defaultdict(set)
    splats: list[str] = []
    for tree, path in _sources():
        module = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(module):
            if not isinstance(node, ast.Call):
                continue
            name = _callee(node)
            keywords = [k.arg for k in node.keywords]
            if name in CONFIGS:
                if tree != "tests" and (
                    None in keywords
                    or any(isinstance(a, ast.Starred) for a in node.args)
                ):
                    splats.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
                # Positional arguments bind in field order.
                keywords += CONFIGS[name][: len(node.args)]
                owners = [name]
            elif name == "replace":
                owners = list(CONFIGS)
            else:
                continue
            for owner in owners:
                for field in set(keywords) & set(CONFIGS[owner]):
                    set_in[(owner, field)].add(tree)
    return set_in, splats


def test_every_field_is_set_outside_tests():
    set_in, _ = walk()
    test_only = [
        f"{owner}.{field}"
        for owner, order in CONFIGS.items()
        for field in order
        if not set_in.get((owner, field), set()) - {"tests"}
    ]
    assert not test_only, (
        "config fields set only in tests/ or nowhere (make them module "
        f"constants): {', '.join(test_only)}"
    )


def test_no_splat_at_a_config_constructor_outside_tests():
    _, splats = walk()
    assert not splats, f"the knob walk cannot see through: {splats}"


def test_walk_sees_the_known_creation_sites():
    # Guards the walk itself: a parse that silently found nothing
    # would pass the two checks above vacuously.
    set_in, _ = walk()
    assert {"src", "tests"} <= set_in[("ServeOptions", "arrival")]
    assert "benchmarks" in set_in[("ServiceConfig", "detect_drift")]
    assert "src" in set_in[("SLOConfig", "tenant_priorities")]
