"""Benchmark entry point for qarylp; see README.md next to this file.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in a child process with OpenBLAS pinned to one thread and
prints, as the last line of standard output, one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones; set-up is measured in several processes and the median is
reported.  With --trace 1 they are the per-layer ones from a traced run.
--smoke runs every check on a few frames instead of measuring.

The program is imported from the checkout's src/; without it the script
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fer-soft-z4-3db", "frames-hard-z8-6db", "frames-lp-z4-3db")
# set-ups per measuring run: this many set-up-only processes plus the
# measuring process itself
SETUP_ONLY_RUNS = 4
CHILD_TIMEOUT_S = 150.0


def child_env() -> dict:
    env = dict(os.environ)
    # a fixed BLAS thread count: the exact LP pivots differently, and so
    # decodes differently, with another count
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    paths = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(args, mode: str, deadline: float) -> dict:
    """Start worker.py in one mode, wait for it, return its last JSON line."""
    t0 = time.perf_counter()
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--t0", repr(t0)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{mode} process did not finish in time") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{mode} process printed no result")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="qarylp benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="one short round of every check, no measurement")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "qarylp" / "__init__.py").is_file():
        print(f"error: no qarylp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    try:
        if args.trace:
            result = run_child(args, "trace", deadline)
            setups = []
        else:
            setups = [run_child(args, "setup", deadline)["setup_s"]
                      for _ in range(0 if args.smoke else SETUP_ONLY_RUNS)]
            result = run_child(args, "measure", deadline)
            setups.append(result["metrics"]["setup_s"]["value"])
            result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    except (RuntimeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, setups_s=setups)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
     ".json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"{args.workload} seed {args.seed}: {json.dumps(result['info'])}",
          file=sys.stderr)
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
