"""The benchmark's tracer wraps program functions by module attribute name.

perfbench/tracing.py lists them in _TARGETS; a refactor that renames or
removes one of them breaks `perfbench/run.py --trace 1`.  This runs that
file's source, without writing anything next to it, and checks that every
target still exists.
"""

from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_targets_exist():
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    targets = namespace["_TARGETS"]
    assert targets
    for owner, attr, *_ in targets:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"
