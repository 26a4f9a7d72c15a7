"""The benchmark's tracer wraps program functions by module attribute name.

perfbench/tracing.py lists them in _TARGETS; a refactor that renames or
removes one of them breaks `perfbench/run.py --trace 1`.  This runs that
file's source, without writing anything next to it, checks that every
target still exists, and traces one decode and one edge update.
"""

from pathlib import Path

import numpy as np

import qarylp.decoder
from qarylp import DecoderConfig, ldpc80_z4

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    """The namespace that perfbench/tracing.py's source defines."""
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    return namespace


def test_tracer_targets_exist():
    targets = load_tracing()["_TARGETS"]
    assert targets
    for owner, attr, *_ in targets:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_tracer_times_one_edge_update_and_restores_the_targets():
    # decode never goes through the public per-edge path, so one decode
    # and one update_edge_soft time exactly one edge update; leaving the
    # tracer puts every wrapped attribute back
    tracing = load_tracing()
    targets = tracing["_TARGETS"]
    before = [getattr(owner, attr) for owner, attr, *_ in targets]
    code = ldpc80_z4()
    llr = np.full((code.n, code.q - 1), 2.0)
    config = DecoderConfig(max_iterations=2)
    with tracing["Tracer"]() as tracer:
        qarylp.decoder.decode(code, llr, config)
        state = qarylp.decoder.init_state(code, llr, config)
        qarylp.decoder.update_edge_soft(state, *code.edges[0])
    assert tracer.count("decoder.decode") == 1
    assert tracer.count("decoder.edge_update") == 1
    after = [getattr(owner, attr) for owner, attr, *_ in targets]
    assert all(a is b for a, b in zip(after, before))
