"""Monte-Carlo frame-error-rate harness.

Frames transmit the all-zero codeword (or user-supplied codewords for
symmetry audits) over AWGN, decode with a selected decoder, and accumulate
error counts per Eb/N0 point.  Every frame owns an RNG stream derived from
(seed, point index, frame index), and frames are judged strictly in index
order, so results are bit-identical for any worker count.

CSV output carries one metadata line, a column header, and one row per
point.  The wall_s column is fixed at zero unless timing is explicitly
requested, keeping output bytes reproducible.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .channel import awgn_sample, compute_llr, ebno_to_sigma, modulate, psk
from .codes import TannerCode, ldpc80_z4, read_check_matrix
from .decoder import (
    ERASED,
    DecoderConfig,
    MalformedDecision,
    Status,
    _check_kappa_type,
    decode,
)
from .lp import CycleGuardTripped, UnboundedRay, lp_decode_exact

_DECODERS = ("soft", "hard", "lp")
# frames evaluated per scheduling wave and per worker
_WAVE_PER_WORKER = 4


@dataclass(frozen=True)
class SimConfig:
    """One simulation campaign: code, decoder, sweep points, and budgets."""

    code: str = "builtin"
    decoder: str = "soft"
    kappa: float = 100.0
    ebno_list: tuple = ()
    target_frame_errors: int = 500
    max_frames: int = 1_000_000
    max_iterations: int = 100
    seed: int = 1
    output: str | None = None
    random_codewords: str | None = None
    workers: int = 1
    record_timing: bool = False

    def __post_init__(self):
        if self.decoder not in _DECODERS:
            raise ValueError(f"decoder must be one of {_DECODERS}")
        ebno = tuple(float(e) for e in self.ebno_list)
        if not ebno:
            raise ValueError("ebno_list must not be empty")
        if not all(math.isfinite(e) for e in ebno):
            raise ValueError(f"ebno_list entries must be finite, got {ebno}")
        object.__setattr__(self, "ebno_list", ebno)
        for name, low in (("target_frame_errors", 1), ("max_frames", 1),
                          ("max_iterations", 1), ("workers", 1), ("seed", 0)):
            count = getattr(self, name)
            # bool is an Integral, but True is no count
            if (isinstance(count, bool)
                    or not isinstance(count, numbers.Integral)):
                raise ValueError(f"{name} must be an integer, got {count!r}")
            if count < low:
                raise ValueError(f"{name} must be >= {low}, got {count}")
        # refused whatever the decoder, although only the soft one reads it
        _check_kappa_type(self.kappa)
        if self.decoder == "soft" and not self.kappa > 0.0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")


@dataclass(frozen=True)
class FerPoint:
    """Aggregated counts for one Eb/N0 point."""

    ebno_db: float
    frames_run: int
    frame_errors: int
    symbol_errors: int
    erasures: int
    fer: float
    mean_iterations: float
    wall_time: float
    malformed_frames: int = 0
    solver_failures: int = 0


def resolve_code(spec: str) -> TannerCode:
    """Code source lookup: 'builtin' or 'file:PATH'."""
    if spec == "builtin":
        return ldpc80_z4()
    if spec.startswith("file:"):
        return read_check_matrix(spec[len("file:"):])
    raise ValueError(f"code spec {spec!r} is neither 'builtin' nor 'file:PATH'")


def load_codeword_list(path: str, code: TannerCode) -> np.ndarray:
    """Parse a codeword-per-line text file and verify each word."""
    words = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise OSError(f"cannot read codeword list {path}: {exc}") from exc
    for ln, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            word = np.array([int(tok) for tok in body.split()], dtype=np.int64)
        except ValueError:
            raise ValueError(f"{path} line {ln}: not an integer word") from None
        if word.shape != (code.n,):
            raise ValueError(
                f"{path} line {ln}: expected {code.n} symbols, got {word.size}"
            )
        if word.min() < 0 or word.max() >= code.q:
            raise ValueError(
                f"{path} line {ln}: symbols must lie in 0..{code.q - 1}"
            )
        if not code.is_codeword(word):
            raise ValueError(f"{path} line {ln}: not a codeword")
        words.append(word)
    if not words:
        raise ValueError(f"{path}: no codewords found")
    return np.stack(words)


@dataclass
class _FrameContext:
    code: TannerCode
    constellation: object
    decoder: str
    kappa: float
    max_iterations: int
    seed: int
    tx_words: np.ndarray | None = None
    decoder_config: DecoderConfig = field(init=False)

    def __post_init__(self):
        # only the soft decoder smooths; SimConfig checks kappa for it alone
        kappa = self.kappa if self.decoder == "soft" else math.inf
        self.decoder_config = DecoderConfig(
            max_iterations=self.max_iterations, kappa=kappa,
        )


def _frame_outcome(ctx: _FrameContext, point_index: int, frame_index: int,
                   sigma: float):
    """Simulate one frame; returns (error, sym_errors, erasures, iters, bad,
    failed).

    The frame's randomness comes from a SeedSequence over (seed, point,
    frame), so the outcome is a pure function of those indices.  A decode
    that ends on a malformed decision (bad) counts as a frame error with
    every symbol wrong.  So does an exact-LP solve that fails (failed): one
    that exhausts its pivot budget or meets an unbounded ray costs that
    frame, with no iterations, and the sweep goes on.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence((ctx.seed, point_index, frame_index))
    )
    if ctx.tx_words is None:
        tx = np.zeros(ctx.code.n, dtype=np.int64)
    else:
        tx = ctx.tx_words[int(rng.integers(len(ctx.tx_words)))]
    y = awgn_sample(modulate(tx, ctx.constellation), sigma, rng)
    llr = compute_llr(y, ctx.constellation, sigma)
    if ctx.decoder == "lp":
        try:
            outcome = lp_decode_exact(ctx.code, llr)
        except (CycleGuardTripped, UnboundedRay):
            return 1, ctx.code.n, 0, 0, 0, 1
    else:
        try:
            outcome = decode(ctx.code, llr, ctx.decoder_config)
        except MalformedDecision:
            return 1, ctx.code.n, 0, ctx.max_iterations, 1, 0
    est = outcome.symbols
    sym_errors = int(np.count_nonzero(est != tx))
    erasures = int(np.count_nonzero(est == ERASED))
    return (int(sym_errors > 0), sym_errors, erasures, outcome.iterations_used,
            0, 0)


_WORKER_CTX: dict = {}


def _worker_init(ctx: _FrameContext):
    _WORKER_CTX["ctx"] = ctx


def _worker_frame(task):
    point_index, frame_index, sigma = task
    return _frame_outcome(_WORKER_CTX["ctx"], point_index, frame_index, sigma)


def _make_context(config: SimConfig) -> _FrameContext:
    code = resolve_code(config.code)
    tx_words = None
    if config.random_codewords is not None:
        tx_words = load_codeword_list(config.random_codewords, code)
    return _FrameContext(
        code=code, constellation=psk(code.q), decoder=config.decoder,
        kappa=config.kappa, max_iterations=config.max_iterations,
        seed=config.seed, tx_words=tx_words,
    )


def run_point(config: SimConfig, ebno_db: float, point_index: int = None,
              _ctx: _FrameContext = None, _pool=None) -> FerPoint:
    """Run one Eb/N0 point until target_frame_errors or max_frames.

    Frames are judged in index order regardless of how many were evaluated
    ahead by the worker pool, so the aggregate never depends on the worker
    count.
    """
    if point_index is None:
        point_index = (
            config.ebno_list.index(ebno_db)
            if ebno_db in config.ebno_list else 0
        )
    ctx = _ctx if _ctx is not None else _make_context(config)
    sigma = ebno_to_sigma(ebno_db, _code_rate(ctx.code),
                          math.log2(ctx.code.q))
    started = time.perf_counter() if config.record_timing else 0.0
    wave = 1 if _pool is None else _WAVE_PER_WORKER * config.workers
    frames = errors = sym_errors = erasures = malformed = failures = 0
    iteration_sum = 0
    while frames < config.max_frames and errors < config.target_frame_errors:
        hi = min(frames + wave, config.max_frames)
        tasks = [(point_index, fi, sigma) for fi in range(frames, hi)]
        if _pool is None:
            results = [_frame_outcome(ctx, *task) for task in tasks]
        else:
            chunk = max(1, len(tasks) // config.workers)
            results = list(_pool.map(_worker_frame, tasks, chunksize=chunk))
        # judged in index order; frames after the target error are dropped
        for err, sym, era, iters, bad, failed in results:
            frames += 1
            errors += err
            sym_errors += sym
            erasures += era
            iteration_sum += iters
            malformed += bad
            failures += failed
            if errors >= config.target_frame_errors:
                break
    wall = time.perf_counter() - started if config.record_timing else 0.0
    return FerPoint(
        ebno_db=float(ebno_db),
        frames_run=frames,
        frame_errors=errors,
        symbol_errors=sym_errors,
        erasures=erasures,
        fer=errors / frames,
        mean_iterations=iteration_sum / frames,
        wall_time=wall,
        malformed_frames=malformed,
        solver_failures=failures,
    )


def _code_rate(code: TannerCode) -> float:
    """Design rate from the redundancy bound: (n - m) / n."""
    return (code.n - code.m) / code.n


def _meta_line(config: SimConfig) -> str:
    kappa = repr(float(config.kappa)) if config.decoder == "soft" else "-"
    return (
        "# meta: version={v}, seed={s}, decoder={d}, kappa={k}, "
        "code={c}, max_iters={m}".format(
            v=_version(), s=config.seed, d=config.decoder, k=kappa,
            c=config.code, m=config.max_iterations,
        )
    )


def _version() -> str:
    from . import __version__
    return __version__


_CSV_HEADER = ("ebno_db,frames,frame_errors,fer,symbol_errors,erasures,"
               "mean_iters,wall_s")


def format_csv(points, config: SimConfig) -> str:
    lines = [_meta_line(config), _CSV_HEADER]
    for p in points:
        lines.append(
            "{e},{f},{fe},{fer:.8e},{se},{er},{mi:.6f},{w:.3f}".format(
                e=repr(p.ebno_db), f=p.frames_run, fe=p.frame_errors,
                fer=p.fer, se=p.symbol_errors, er=p.erasures,
                mi=p.mean_iterations, w=p.wall_time,
            )
        )
    return "\n".join(lines) + "\n"


def write_csv(points, config: SimConfig, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(format_csv(points, config))
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def run_sweep(config: SimConfig, progress=print) -> list:
    """Run every Eb/N0 point, optionally write CSV, return FerPoints."""
    ctx = _make_context(config)
    points = []
    pool = None
    try:
        if config.workers > 1:
            # imported here: it pulls in multiprocessing, socket and
            # subprocess, which a single-process run never uses
            from concurrent.futures import ProcessPoolExecutor
            pool = ProcessPoolExecutor(
                max_workers=config.workers,
                initializer=_worker_init,
                initargs=(ctx,),
            )
        for k, ebno in enumerate(config.ebno_list):
            point = run_point(config, ebno, point_index=k, _ctx=ctx,
                              _pool=pool)
            points.append(point)
            if progress is not None:
                progress(
                    f"ebno {ebno} dB: frames {point.frames_run} "
                    f"errors {point.frame_errors} fer {point.fer:.3e} "
                    f"malformed {point.malformed_frames} "
                    f"solver failures {point.solver_failures}"
                )
    finally:
        if pool is not None:
            pool.shutdown()
    if config.output is not None:
        write_csv(points, config, config.output)
    return points
