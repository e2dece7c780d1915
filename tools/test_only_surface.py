#!/usr/bin/env python
"""List the public surface under ``src/`` that only tests reference.

Prints each public function, class or method defined under ``src/``
(module level or in a class body, name not starting with ``_``) whose
name no Python file outside ``tests/`` references: not ``src/`` itself,
nor ``examples/``, ``benchmarks/``, ``tools/`` or ``perfbench/``.  Such
a name is a candidate for deletion, or for a caller.  The script only
reports; it always exits 0 and keeps no allowlist.

A reference is a use: a bare name, an attribute (``obj.name``), or a
string constant that is exactly the name (``getattr(obj, "name")``).
Imports, re-exports and ``__all__`` entries are not uses, and a name
used only inside its own definition still counts as used.

The match is by name, not by type: a name that any other definition
shares counts as used wherever either is used.  So a shared name such
as ``peek`` (``Environment.peek`` and the queue service's ``peek``)
hides a candidate; read the list as a lower bound.

Usage:
    python tools/test_only_surface.py [--root REPO]
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _python_files(root: Path) -> Iterator[Path]:
    """Every ``.py`` file under ``root`` outside ``tests/`` and hidden
    or cache directories."""
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).parts[:-1]
        if parts[:1] == ("tests",) or any(
            p.startswith(".") or p == "__pycache__" for p in parts
        ):
            continue
        yield path


def _public_defs(
    body: List[ast.stmt], prefix: str = ""
) -> Iterator[Tuple[int, str, str]]:
    """``(line, name, qualified name)`` of each public def in ``body``,
    descending into class bodies only."""
    for node in body:
        if isinstance(node, _DEFS) and not node.name.startswith("_"):
            yield node.lineno, node.name, prefix + node.name
            if isinstance(node, ast.ClassDef):
                yield from _public_defs(node.body, f"{prefix}{node.name}.")


def surface(root: Path) -> List[Tuple[str, int, str, str]]:
    """``(path, line, name, qualified name)`` of every public def
    under ``root/src``."""
    out = []
    for path in _python_files(root / "src"):
        tree = ast.parse(path.read_text(), filename=str(path))
        rel = path.relative_to(root).as_posix()
        out += [(rel, line, name, qual) for line, name, qual in _public_defs(tree.body)]
    return out


def _all_entries(tree: ast.Module) -> Set[int]:
    """ids of the string nodes listed in an ``__all__`` assignment."""
    ids: Set[int] = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                ids.update(id(n) for n in ast.walk(node) if isinstance(n, ast.Constant))
    return ids


def referenced_names(root: Path) -> Set[str]:
    """Every name a Python file outside ``tests/`` uses (see the module
    docstring for what counts as a use)."""
    seen: Set[str] = set()
    for path in _python_files(root):
        tree = ast.parse(path.read_text(), filename=str(path))
        listed = _all_entries(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value.isidentifier()
                and id(node) not in listed
            ):
                seen.add(node.value)
    return seen


def candidates(root: Path) -> List[Tuple[str, int, str]]:
    """``(path, line, qualified name)`` of each public def under
    ``src/`` that nothing outside ``tests/`` references, in file and
    line order."""
    used = referenced_names(root)
    return [
        (path, line, qual)
        for path, line, name, qual in surface(root)
        if name not in used
    ]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", type=Path, default=ROOT,
        help="repository root holding src/ (default: this checkout)",
    )
    args = parser.parse_args(argv)
    found = candidates(args.root)
    for path, line, qual in found:
        print(f"{path}:{line}: {qual}")
    print(f"{len(found)} public names under src/ that only tests reference",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
