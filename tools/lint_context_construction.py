#!/usr/bin/env python3
"""AST lint: no direct ``SparkerContext(...)`` construction inside ``src/``.

Workload-running code must go through a session
(``SparkerSession.run`` / ``.submit`` / ``.context()``), so context
construction is confined to the session layer and the context module
itself (``CONTEXT_ALLOWED_FILES``). This lint walks every call in the
tree and flags any other ``SparkerContext(...)`` call.

Usage::

    python tools/lint_context_construction.py [paths...]   # default: src

Exits non-zero when any violation is found. Also invoked by
``tests/core/test_no_direct_context.py`` so the gate runs with the
tier-1 suite, and by the ``collectives-smoke`` CI job.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterable, List

#: the only ``src/`` files allowed to construct a SparkerContext directly
#: (matched by suffix so the lint works from any checkout root)
CONTEXT_ALLOWED_FILES = (
    "repro/rdd/context.py",       # the class itself (docstrings, helpers)
    "repro/service/session.py",   # SparkerSession.run / .context()
    "repro/service/server.py",    # the shared service context
)


def _callee_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return "<dynamic>"


def lint_file(path: Path) -> List[int]:
    """Line numbers of every direct ``SparkerContext(...)`` call in one
    file (none for the allowed files)."""
    if path.as_posix().endswith(CONTEXT_ALLOWED_FILES):
        return []
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and _callee_name(node) == "SparkerContext")


def lint_paths(paths: Iterable[Path]) -> List[str]:
    """Human-readable violation lines for every ``.py`` under ``paths``."""
    messages: List[str] = []
    for root in paths:
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for path in files:
            for line in lint_file(path):
                messages.append(
                    f"{path}:{line}: direct SparkerContext() construction "
                    f"— go through SparkerSession (.run/.submit/.context())")
    return messages


def main(argv: List[str]) -> int:
    repo = Path(__file__).resolve().parent.parent
    paths = ([Path(p) for p in argv] if argv else [repo / "src"])
    messages = lint_paths(paths)
    for message in messages:
        print(message)
    if messages:
        print(f"{len(messages)} direct SparkerContext construction(s) found",
              file=sys.stderr)
        return 1
    print("no direct SparkerContext construction found")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
