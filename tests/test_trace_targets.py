"""The benchmark's traced run wraps priorlab entry points by name; a rename
under `src/` would silently drop a span.  This checks every target still
resolves, without installing the tracer or running anything."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from spans import COUNTED, SPANS, _resolve  # noqa: E402


def test_every_trace_target_resolves():
    missing = [
        f"{path}.{attr}"
        for path, attr, _ in SPANS + COUNTED
        if attr not in vars(_resolve(path))
    ]
    assert not missing, missing
