"""The per-layer tracer finds every function it wraps.

perfbench/tracing.py looks its targets up by module and attribute name, so
deleting or renaming one breaks only `perfbench/run.py --trace`, whose own
smoke test is outside this suite.  This test catches that here.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import tracing  # noqa: E402


def test_every_traced_target_exists_and_is_callable():
    missing = [f"{module.__name__}.{attr}"
               for module, attr, _span, _gen in tracing._TARGETS
               if not callable(getattr(module, attr, None))]
    assert not missing
