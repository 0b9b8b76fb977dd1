"""Every ``*.md`` document the code and the docs point to exists.

A pointer to a document that is not in the repository sends the reader
nowhere.  The walk collects every ``name.md`` written in the ``.py`` and
``.md`` files under ``src/``, ``tests/``, ``benchmarks/``, ``examples/``
and ``docs/``, plus ``README.md``, and looks its basename up among the
repository's ``.md`` files.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "benchmarks", "examples", "docs")
MD_NAME = re.compile(r"[\w./-]*\w\.md\b")


def _skipped(path: Path) -> bool:
    parts = path.relative_to(ROOT).parts
    return any(p.startswith(".") or p in ("__pycache__", "_cache") for p in parts)


def _referring_files():
    yield ROOT / "README.md"
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*")):
            if (
                path.suffix in (".py", ".md")
                and not _skipped(path)
                and path != Path(__file__).resolve()
            ):
                yield path


def test_every_referenced_doc_exists():
    documents = {p.name for p in ROOT.rglob("*.md") if not _skipped(p)}
    dangling = [
        f"{path.relative_to(ROOT)}:{lineno}: {name}"
        for path in _referring_files()
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        for name in MD_NAME.findall(line)
        if Path(name).name not in documents
    ]
    assert not dangling, f"references to documents that do not exist: {dangling}"


def test_pattern_reads_bare_and_pathed_names():
    line = "see DESIGN.md §2, docs/CLI.md and `*.md`, not README.mdx"
    assert MD_NAME.findall(line) == ["DESIGN.md", "docs/CLI.md"]
