"""One benchmark workload in one process: set-up, timed rounds, checks, traces.

`run.py` starts this script with OpenBLAS pinned to one thread, the checkout
root as working directory and `src` on PYTHONPATH, and reads the JSON object
it prints as its last line.  See README.md for what each workload runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

import qarylp.channel as channel
import qarylp.decoder as decoder
import qarylp.lp as lp
import qarylp.simulate as simulate
from qarylp import DecoderConfig, SimConfig, Status, enumerate_spc

import oracle
from tracing import Tracer

OUT_DIR = Path(__file__).resolve().parent / "out"

# Frames are drawn as qarylp.simulate draws them, from SeedSequence((CORPUS_SEED,
# point, frame)), so run_point and the benchmark's own loops see the same
# frames.  The corpus is fixed: at 3 dB a frame costs 2 to 100 sweeps, and
# seed-drawn frames would move frames/s by far more than any bound.  --seed
# sets the order in which the frames (or run_point calls) are processed.
CORPUS_SEED = 1
MAX_ITERATIONS = 100
KAPPA = 100.0
NEVER = 10 ** 9  # frame-error target that is never reached


@dataclass(frozen=True)
class Workload:
    code_spec: str
    decoder: str        # "soft", "hard" or "lp"
    ebno_db: float
    via_run_point: bool  # timed through run_point calls, else a frame loop
    chunks: int          # run_point calls (points) per round
    frames_per_chunk: int
    smoke_frames_per_chunk: int


WORKLOADS = {
    "fer-soft-z4-3db": Workload("builtin", "soft", 3.0, True, 4, 4, 1),
    "frames-hard-z8-6db": Workload("file:perfbench/codes/ldpc80_z8.txt",
                                   "hard", 6.0, False, 1, 40, 3),
    "frames-lp-z4-3db": Workload("builtin", "lp", 3.0, False, 1, 6, 2),
}


class Bench:
    """The workload's code, channel and decoder, set up once per process."""

    def __init__(self, name: str, frames_per_chunk: int):
        self.name = name
        self.wl = wl = WORKLOADS[name]
        self.frames_per_chunk = frames_per_chunk
        self.code = simulate.resolve_code(wl.code_spec)
        self.rows = self.code.rows
        self.cmap = channel.psk(self.code.q)
        rate = (self.code.n - self.code.m) / self.code.n
        self.sigma = channel.ebno_to_sigma(wl.ebno_db, rate,
                                           math.log2(self.code.q))
        self.tx = np.zeros(self.code.n, dtype=np.int64)
        kappa = math.inf if wl.decoder == "hard" else KAPPA
        self.config = DecoderConfig(max_iterations=MAX_ITERATIONS, kappa=kappa)
        self.keys = [(k, f) for k in range(wl.chunks)
                     for f in range(frames_per_chunk)]

    def sim_config(self) -> SimConfig:
        return SimConfig(
            code=self.wl.code_spec, decoder=self.wl.decoder, kappa=KAPPA,
            ebno_list=(self.wl.ebno_db,), target_frame_errors=NEVER,
            max_frames=self.frames_per_chunk, max_iterations=MAX_ITERATIONS,
            seed=CORPUS_SEED, workers=1,
        )

    def make_llr(self, point: int, frame: int) -> np.ndarray:
        rng = np.random.default_rng(
            np.random.SeedSequence((CORPUS_SEED, point, frame)))
        y = channel.awgn_sample(channel.modulate(self.tx, self.cmap),
                                self.sigma, rng)
        return channel.compute_llr(y, self.cmap, self.sigma)

    def decode(self, llr):
        if self.wl.decoder == "lp":
            return lp.lp_decode_exact(self.code, llr)
        return decoder.decode(self.code, llr, self.config)

    def warm_up(self) -> None:
        # a noiseless frame: fills the per-code caches at little decode cost
        noiseless = channel.modulate(self.tx, self.cmap)
        self.decode(channel.compute_llr(noiseless, self.cmap, self.sigma))


# ---- rounds ----


def frame_round(bench: Bench, order, tracer=None) -> dict:
    """Channel and decode of every frame, one at a time, in the given order."""
    outcomes = {}
    for key in order:
        if tracer is not None:
            tracer.frame = key
        try:
            outcomes[key] = bench.decode(bench.make_llr(*key))
        except Exception as exc:  # a frame that raises is counted as failed
            outcomes[key] = exc
    return outcomes


class _Capture:
    """Records what run_point's decoder calls return, in call order."""

    def __init__(self, attr: str):
        self.attr = attr
        self.outcomes = []

    def __enter__(self):
        self.original = getattr(simulate, self.attr)

        def capturing(*args, **kwargs):
            try:
                out = self.original(*args, **kwargs)
            except Exception as exc:
                self.outcomes.append(exc)
                raise
            self.outcomes.append(out)
            return out

        setattr(simulate, self.attr, capturing)
        return self

    def __exit__(self, *exc):
        setattr(simulate, self.attr, self.original)
        return False


def run_point_round(bench: Bench, chunk_order, tracer=None):
    """One run_point call per chunk; returns per-frame outcomes and FerPoints."""
    config = bench.sim_config()
    attr = "lp_decode_exact" if bench.wl.decoder == "lp" else "decode"
    outcomes, points = {}, {}
    for k in map(int, chunk_order):
        if tracer is not None:
            tracer.frame = (k, None)
        with _Capture(attr) as cap:
            try:
                points[k] = simulate.run_point(config, bench.wl.ebno_db,
                                               point_index=k)
            except Exception as exc:  # the chunk's frames count as failed
                points[k] = exc
        for f in range(bench.frames_per_chunk):
            outcomes[(k, f)] = (cap.outcomes[f] if f < len(cap.outcomes)
                                else RuntimeError("frame not decoded"))
    return outcomes, points


def timed_round(bench: Bench, rng, tracer=None):
    """The workload's round, processed in an order drawn from rng."""
    if bench.wl.via_run_point:
        outcomes, points = run_point_round(
            bench, rng.permutation(bench.wl.chunks), tracer)
        iterations = sum(round(p.mean_iterations * p.frames_run)
                         for p in points.values() if not isinstance(p, Exception))
        return outcomes, points, iterations
    order = [bench.keys[i] for i in rng.permutation(len(bench.keys))]
    outcomes = frame_round(bench, order, tracer)
    iterations = sum(o.iterations_used for o in outcomes.values()
                     if not isinstance(o, Exception))
    return outcomes, {}, iterations


# ---- checks ----


def same_outcome(a, b) -> bool:
    if not all(isinstance(o, decoder.DecodeOutcome) for o in (a, b)):
        return False
    return (np.array_equal(a.symbols, b.symbols) and a.status == b.status
            and a.iterations_used == b.iterations_used
            and tuple(a.dual_objective_trace) == tuple(b.dual_objective_trace))


def check_frame(bench: Bench, out, llr, highs) -> list:
    """Property and oracle checks of one decoded frame; returns the failures."""
    problems = []
    q, n = bench.code.q, bench.code.n
    sym = np.asarray(out.symbols)
    if sym.shape != (n,) or sym.min() < oracle.ERASED or sym.max() >= q:
        return [f"symbols out of range: shape {sym.shape}"]
    tol = oracle.cost_tolerance(llr)
    tx_cost = oracle.word_cost(llr, bench.tx)
    trace = np.asarray(out.dual_objective_trace, dtype=np.float64)
    if out.status is Status.CODEWORD_FOUND:
        if np.any(sym == oracle.ERASED) or not oracle.syndrome_is_zero(
                bench.rows, q, sym):
            problems.append("CODEWORD_FOUND word has a nonzero syndrome")
    if not np.all(np.isfinite(trace)) or trace.max() > tx_cost + tol:
        problems.append(f"dual value {trace.max()!r} above the transmitted "
                        f"word's cost {tx_cost!r} (weak duality)")
    if bench.wl.decoder == "soft" and np.any(np.diff(trace) < -tol):
        problems.append("soft dual trace decreased (monotone ascent)")
    if bench.wl.decoder == "lp":
        value = float(trace[0])
        reference = highs.optimum(llr)
        if abs(value - reference) > tol + 1e-7 * abs(reference):
            problems.append(f"LP optimum {value!r} differs from HiGHS "
                            f"{reference!r}")
        if out.status is Status.CODEWORD_FOUND:
            if abs(oracle.word_cost(llr, sym) - value) > tol:
                problems.append("integral LP decision's cost differs from "
                                "the LP optimum")
        elif not np.any(sym == oracle.ERASED):
            problems.append("fractional LP optimum without erasures")
    return problems


def tally(bench: Bench, outcomes: dict, chunk: int):
    """FerPoint fields recomputed from one chunk's per-frame outcomes, or None
    when one of its frames raised (that frame already counts as failed)."""
    frames = [outcomes[(chunk, f)] for f in range(bench.frames_per_chunk)]
    if any(isinstance(o, Exception) for o in frames):
        return None
    errors = [int(np.count_nonzero(o.symbols != bench.tx)) for o in frames]
    iterations = sum(o.iterations_used for o in frames)
    return {
        "frames_run": len(frames),
        "frame_errors": sum(e > 0 for e in errors),
        "symbol_errors": sum(errors),
        "erasures": sum(int(np.count_nonzero(o.symbols == oracle.ERASED))
                        for o in frames),
        "mean_iterations": iterations / len(frames),
        "malformed_frames": 0,
    }


def point_matches(point, expected: dict) -> bool:
    if isinstance(point, Exception):
        return False
    return all(getattr(point, k) == v for k, v in expected.items())


class Checker:
    """Runs every check on the rounds of one run and counts failed frames."""

    def __init__(self, bench: Bench):
        self.bench = bench
        self.reference = None   # first round's outcomes, keyed by frame
        self.raised = set()
        self.frame_problems = {}
        self.problems = []
        self.failed = 0
        self.attempted = 0
        self._highs = None

    def _check_reference(self):
        if self.bench.wl.decoder == "lp" and self._highs is None:
            code = self.bench.code
            self._highs = oracle.HighsDecodingLP(code.rows, code.n, code.q)
        for key, out in self.reference.items():
            if isinstance(out, Exception):
                self.raised.add(key)
                continue
            found = check_frame(self.bench, out, self.bench.make_llr(*key),
                                self._highs)
            if found:
                self.frame_problems[key] = found

    def add_round(self, label: str, outcomes: dict, points=None) -> None:
        """Counts the round's frames; a frame fails if it raised, failed a
        check, differs from the first round, or sits in a wrong FerPoint."""
        bench = self.bench
        if self.reference is None:
            self.reference = outcomes
            self._check_reference()
        bad = self.raised | set(self.frame_problems)
        for key in bench.keys:
            if not same_outcome(outcomes.get(key), self.reference.get(key)):
                if key not in bad:
                    self.problems.append(f"{label}: frame {key} differs from "
                                         "the first round")
                bad.add(key)
        for k, point in (points or {}).items():
            expected = tally(bench, outcomes, k)
            if expected is not None and not point_matches(point, expected):
                self.problems.append(f"{label}: FerPoint of point {k} "
                                     "disagrees with its frames")
                bad.update(key for key in bench.keys if key[0] == k)
        self.attempted += len(bench.keys)
        self.failed += len(bad)

    @property
    def correct(self) -> bool:
        return not self.frame_problems and not self.problems

    def report(self) -> list:
        lines = [f"frame {k}: raised {self.reference[k]!r}" for k in self.raised]
        lines += [f"frame {k}: {p}" for k, ps in self.frame_problems.items()
                  for p in ps]
        return lines + self.problems


def digest(bench: Bench, outcomes: dict) -> str:
    """sha256 over symbols, status, iterations and trace, in corpus order."""
    h = hashlib.sha256()
    for key in bench.keys:
        out = outcomes.get(key)
        if isinstance(out, Exception) or out is None:
            h.update(b"failed")
            continue
        h.update(np.asarray(out.symbols, dtype=np.int64).tobytes())
        h.update(out.status.value.encode())
        h.update(str(out.iterations_used).encode())
        h.update(np.asarray(out.dual_objective_trace, dtype=np.float64).tobytes())
    return h.hexdigest()


# ---- modes ----


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(bench: Bench, t0: float, seed: int, seconds: float, smoke: bool):
    """Whole rounds of the same frames until `seconds` have passed."""
    rng = np.random.default_rng(seed)
    first = perf_counter()
    setup_s = first - t0
    rounds, round_s, round_iterations = [], [], []
    while True:
        start = perf_counter()
        outcomes, points, iterations = timed_round(bench, rng)
        round_s.append(perf_counter() - start)
        rounds.append((outcomes, points))
        round_iterations.append(iterations)
        if smoke or perf_counter() - first >= seconds:
            break
    wall = perf_counter() - first
    rss = peak_rss_mib()

    checker = Checker(bench)
    for r, (outcomes, points) in enumerate(rounds):
        checker.add_round(f"round {r}", outcomes, points)
    if len(set(round_iterations)) != 1:
        checker.problems.append(f"iterations differ between rounds: "
                                f"{round_iterations}")
    frames = len(rounds) * len(bench.keys)
    iterations = sum(round_iterations)
    metrics = {
        "frames_per_s": (frames / wall, "frames/s"),
        "iter_ms": (1e3 * wall / max(iterations, 1), "ms"),
        "iterations_per_frame": (iterations / frames, "iterations"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MiB"),
    }
    info = {"rounds": len(rounds), "frames_per_round": len(bench.keys),
            "iterations_per_round": round_iterations[0], "round_s": round_s,
            "digest": digest(bench, rounds[0][0])}
    return checker, metrics, info


def _median(values) -> float:
    return float(median(values)) if values else 0.0


def trace_run(bench: Bench, seed: int):
    """Untraced round, traced round, traced cross-check round, same frames."""
    rng = np.random.default_rng(seed)
    checker = Checker(bench)
    start = perf_counter()
    plain, points, _ = timed_round(bench, rng)
    plain_s = perf_counter() - start
    checker.add_round("untraced round", plain, points)

    tracer = Tracer()
    with tracer:
        start = perf_counter()
        traced, points, _ = timed_round(bench, rng, tracer)
        traced_s = perf_counter() - start
        # cross-check through the other public entry on the same frames:
        # the benchmark's own channel+decode loop against run_point's
        # FerPoints, or one run_point call against the frame loop
        if bench.wl.via_run_point:
            cross = frame_round(bench, bench.keys, tracer)
            cross_points = points
        else:
            cross, cross_points = run_point_round(bench, [0], tracer)
    checker.add_round("traced round", traced, points)
    checker.add_round("cross-check round", cross, cross_points)

    codebook = []
    for _ in range(3):
        t = perf_counter()
        for j in range(bench.code.m):
            enumerate_spc(bench.code, j)
        codebook.append(perf_counter() - t)

    # every frame of the traced and the cross-check round passes the
    # channel once; one of the two rounds runs through run_point
    frames = len(bench.keys)
    decoded = tracer.count("decoder.decode")
    sweeps = 0 if bench.wl.decoder == "lp" else sum(
        o.iterations_used for outs in (traced, cross) for o in outs.values()
        if not isinstance(o, Exception))
    metrics = {
        "decoder.edge_update_us_p50": (
            1e6 * _median(tracer.durations["decoder.edge_update"]), "us"),
        "decoder.edge_updates_per_frame": (
            tracer.count("decoder.edge_update") / max(decoded, 1), "count"),
        "decoder.sweep_self_ms": (
            1e3 * tracer.self_seconds["decoder.decode"] / max(sweeps, 1), "ms"),
        "decoder.init_state_ms": (
            1e3 * _median(tracer.durations["decoder.init_state"]), "ms"),
        "codes.codebook_setup_s": (_median(codebook), "s"),
        "codes.syndrome_us": (
            1e6 * _median(tracer.durations["codes.syndrome"]), "us"),
        "codes.syndrome_calls_per_frame": (
            tracer.count("codes.syndrome") / max(decoded, 1), "count"),
        "channel.llr_us_per_frame": (
            1e6 * tracer.total("channel") / (2 * frames), "us"),
        "lp.decode_ms_p50": (
            1e3 * _median(tracer.durations["lp.decode_exact"]), "ms"),
        "simulate.overhead_ms_per_frame": (
            1e3 * tracer.self_seconds["simulate.run_point"] / frames, "ms"),
        "trace.overhead_pct": (100.0 * (traced_s / plain_s - 1.0), "%"),
    }
    info = {"untraced_s": plain_s, "traced_s": traced_s,
            "digest": digest(bench, plain), "spans": len(tracer.spans)}
    trace_file = OUT_DIR / f"trace-{bench.name}-seed{seed}.json"
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    trace_file.write_text(json.dumps({
        "workload": bench.name, "seed": seed, "info": info,
        "spans": [[name, s, e, parent, list(frame) if frame else None]
                  for name, s, e, parent, frame in tracer.spans],
        "calls": {name: len(d) for name, d in tracer.durations.items()},
        "self_s": dict(tracer.self_seconds),
    }))
    return checker, metrics, info


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "measure", "trace"),
                   required=True)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--t0", type=float, required=True,
                   help="perf_counter() of the parent just before it started "
                        "this process (CLOCK_MONOTONIC is system-wide)")
    args = p.parse_args(argv)

    wl = WORKLOADS[args.workload]
    per_chunk = wl.smoke_frames_per_chunk if args.smoke else wl.frames_per_chunk
    bench = Bench(args.workload, per_chunk)
    bench.warm_up()
    if args.mode == "setup":
        print(json.dumps({"setup_s": perf_counter() - args.t0}))
        return 0
    if args.mode == "measure":
        checker, metrics, info = measure(bench, args.t0, args.seed,
                                         args.seconds, args.smoke)
    else:
        checker, metrics, info = trace_run(bench, args.seed)
    for line in checker.report():
        print(f"check: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": info,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
