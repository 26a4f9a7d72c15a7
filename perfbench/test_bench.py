"""Tests of the benchmark itself: smoke runs of every workload, the committed
Z_8 code file, the oracle's enumeration, and the refusal to run without the
program's sources.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracle  # noqa: E402
from make_z8_code import CODE_FILE, z8_code  # noqa: E402
from qarylp import enumerate_spc, ldpc80_z4, read_check_matrix, write_check_matrix  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_passes_every_check(workload, trace):
    proc = _run(["--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}


def test_z8_code_file_matches_its_generator(tmp_path):
    assert read_check_matrix(CODE_FILE) == z8_code()
    fresh = tmp_path / "z8.txt"
    write_check_matrix(z8_code(), fresh)
    assert fresh.read_text() == CODE_FILE.read_text()


def test_oracle_local_words_match_enumerate_spc():
    code = ldpc80_z4()
    for j in (0, 17):
        ours = {tuple(w) for w in oracle.local_words(code.rows[j], code.q)}
        theirs = {tuple(int(s) for s in w) for w in enumerate_spc(code, j).words}
        assert ours == theirs and len(ours) == 256


def test_oracle_syndrome_and_cost():
    rows = ((((0, 1), (1, 3)),))
    assert oracle.syndrome_is_zero(rows, 4, [1, 1])
    assert not oracle.syndrome_is_zero(rows, 4, [1, 2])
    llr = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert oracle.word_cost(llr, [0, 3]) == 6.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "fer-soft-z4-3db", "--seed", "1",
                 "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_restores_the_program():
    import qarylp.decoder
    import qarylp.simulate
    from qarylp import DecoderConfig, TannerCode
    from tracing import Tracer

    before = (qarylp.decoder.update_edge_soft, qarylp.simulate.decode,
              TannerCode.syndrome)
    code = ldpc80_z4()
    llr = np.full((code.n, code.q - 1), 2.0)
    with Tracer() as tracer:
        qarylp.decoder.decode(code, llr, DecoderConfig())
    assert tracer.count("decoder.decode") == 1
    assert tracer.count("decoder.edge_update") == len(code.edges)
    assert (qarylp.decoder.update_edge_soft, qarylp.simulate.decode,
            TannerCode.syndrome) == before
