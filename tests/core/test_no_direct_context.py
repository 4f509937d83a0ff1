"""The context-construction lint runs with the tier-1 suite.

Workload-running code under ``src/`` reaches a ``SparkerContext`` through
a session; only the context, session and server modules construct one.
The same walk backs the ``collectives-smoke`` CI job via
``tools/lint_context_construction.py``.
"""

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO / "tools"))

from lint_context_construction import lint_file, lint_paths  # noqa: E402


def test_src_constructs_no_context_directly():
    messages = lint_paths([REPO / "src"])
    assert messages == []


def test_lint_catches_direct_construction(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from repro.rdd import SparkerContext\n"
        "sc = SparkerContext(config)\n"
        "other = rdd_module.SparkerContext()\n",
        encoding="utf-8")
    assert lint_file(bad) == [2, 3]


def test_lint_allows_the_session_layer(tmp_path):
    service = tmp_path / "repro" / "service"
    service.mkdir(parents=True)
    ok = service / "session.py"
    ok.write_text("sc = SparkerContext(self.config)\n", encoding="utf-8")
    assert lint_file(ok) == []
