"""Layer timing from outside the program, by wrapping its public functions.

A `Tracer` replaces module attributes (and `TannerCode.syndrome`) with timed
wrappers while it is active and puts the originals back afterwards.  Each
wrapped call records its duration under a layer name, adds that duration to
the child time of the call that encloses it, and so yields self times.  Calls
made once or a few times per frame also become spans (name, start, end,
parent span, frame) that are written out when the run ends; the per-edge and
per-syndrome calls are too many for spans and keep durations only.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

import qarylp.channel
import qarylp.decoder
import qarylp.lp
import qarylp.simulate
from qarylp.codes import TannerCode

# (owner, attribute, layer name, keep spans).  Names imported into
# qarylp.simulate are separate bindings, so both copies are wrapped.
_TARGETS = (
    (qarylp.simulate, "run_point", "simulate.run_point", True),
    (qarylp.channel, "modulate", "channel", True),
    (qarylp.channel, "awgn_sample", "channel", True),
    (qarylp.channel, "compute_llr", "channel", True),
    (qarylp.simulate, "modulate", "channel", True),
    (qarylp.simulate, "awgn_sample", "channel", True),
    (qarylp.simulate, "compute_llr", "channel", True),
    (qarylp.decoder, "decode", "decoder.decode", True),
    (qarylp.simulate, "decode", "decoder.decode", True),
    (qarylp.decoder, "init_state", "decoder.init_state", True),
    (qarylp.decoder, "update_edge_soft", "decoder.edge_update", False),
    (qarylp.decoder, "update_edge_hard", "decoder.edge_update", False),
    (TannerCode, "syndrome", "codes.syndrome", False),
    (qarylp.lp, "lp_decode_exact", "lp.decode_exact", True),
    (qarylp.simulate, "lp_decode_exact", "lp.decode_exact", True),
)


class Tracer:
    """Per-layer durations, self times and spans of the calls made while active."""

    def __init__(self):
        self.durations = defaultdict(list)
        self.self_seconds = defaultdict(float)
        self.spans = []
        self.frame = None
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, keep_span):
        stack = self._stack
        durations = self.durations[name]

        def timed(*args, **kwargs):
            stack.append([0.0, len(self.spans) if keep_span else None])
            if keep_span:
                self.spans.append(None)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                children, span_id = stack.pop()
                duration = end - start
                durations.append(duration)
                self.self_seconds[name] += duration - children
                parent = None
                if stack:
                    stack[-1][0] += duration
                    parent = next((s[1] for s in reversed(stack)
                                   if s[1] is not None), None)
                if keep_span:
                    self.spans[span_id] = (name, start, end, parent, self.frame)

        return timed

    def __enter__(self):
        for owner, attr, name, keep_span in _TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, keep_span))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def count(self, name: str) -> int:
        return len(self.durations[name])

    def total(self, name: str) -> float:
        return float(sum(self.durations[name]))
