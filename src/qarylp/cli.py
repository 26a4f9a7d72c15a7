"""Command-line front end for FER sweeps.

Example:
    qarylp-sim --decoder soft --kappa 100 --ebno 2.0,2.5,3.0 \
        --target-errors 50 --max-frames 20000 --seed 1 --out fer.csv
"""

from __future__ import annotations

import argparse
import sys

from .simulate import _DECODERS, SimConfig, run_sweep


def _parse_ebno(text: str):
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--ebno expects comma-separated numbers, got {text!r}"
        ) from None
    if not values:
        raise argparse.ArgumentTypeError("--ebno list is empty")
    return values


def build_parser() -> argparse.ArgumentParser:
    # each dest is a SimConfig field, and a flag left out is absent from the
    # namespace, so SimConfig's own default applies
    p = argparse.ArgumentParser(
        prog="qarylp-sim",
        description="Monte-Carlo FER sweeps for LP decoding over Z_q.",
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("--code",
                   help="code source: 'builtin' or 'file:PATH' (default: builtin)")
    p.add_argument("--decoder", choices=_DECODERS,
                   help="coordinate ascent (soft/hard) or exact LP baseline")
    p.add_argument("--kappa", type=float,
                   help="soft-min sharpness for the soft decoder")
    p.add_argument("--ebno", type=_parse_ebno, required=True,
                   dest="ebno_list", metavar="EBNO",
                   help="comma-separated Eb/N0 points in dB")
    p.add_argument("--target-errors", type=int, dest="target_frame_errors",
                   metavar="TARGET_ERRORS",
                   help="frame errors collected per point (default: 500)")
    p.add_argument("--max-frames", type=int, help="frame budget per point")
    p.add_argument("--max-iters", type=int, dest="max_iterations",
                   metavar="MAX_ITERS",
                   help="decoder iteration cap per frame")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", dest="output", metavar="PATH",
                   help="CSV output path (omit to skip the file)")
    p.add_argument("--workers", type=int,
                   help="parallel frame workers (results are identical)")
    p.add_argument("--random-codeword", dest="random_codewords",
                   metavar="PATH",
                   help="transmit codewords sampled from this list instead "
                        "of the all-zero word")
    p.add_argument("--timing", action="store_true", dest="record_timing",
                   help="record wall-clock times (breaks byte-for-byte "
                        "output reproducibility)")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run_sweep(SimConfig(**vars(args)))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
