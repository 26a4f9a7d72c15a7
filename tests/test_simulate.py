import math
import re

import numpy as np
import pytest

import qarylp.lp
import qarylp.simulate
from qarylp.cli import build_parser, main
from qarylp.codes import (
    random_regular_code,
    write_check_matrix,
)
from qarylp.decoder import MalformedDecision
from qarylp.lp import UnboundedRay
from qarylp.simulate import (
    FerPoint,
    SimConfig,
    format_csv,
    load_codeword_list,
    resolve_code,
    run_point,
    run_sweep,
)

from oracles import binomial_ci_halfwidth, codewords_bruteforce


def small_code():
    return random_regular_code(n=6, m=3, row_degree=3, q=4,
                               rng=np.random.default_rng(7))


@pytest.fixture
def small_code_file(tmp_path):
    path = tmp_path / "small.txt"
    write_check_matrix(small_code(), str(path))
    return f"file:{path}"


# ---- configuration ----


def test_config_validation():
    with pytest.raises(ValueError, match="decoder"):
        SimConfig(decoder="viterbi", ebno_list=(1.0,))
    with pytest.raises(ValueError, match="ebno_list"):
        SimConfig(ebno_list=())
    with pytest.raises(ValueError, match="target_frame_errors"):
        SimConfig(ebno_list=(1.0,), target_frame_errors=0)
    with pytest.raises(ValueError, match="max_frames"):
        SimConfig(ebno_list=(1.0,), max_frames=0)
    with pytest.raises(ValueError, match="max_iterations"):
        SimConfig(ebno_list=(1.0,), max_iterations=0)
    with pytest.raises(ValueError, match="kappa"):
        SimConfig(ebno_list=(1.0,), decoder="soft", kappa=0.0)
    with pytest.raises(ValueError, match="workers"):
        SimConfig(ebno_list=(1.0,), workers=0)


@pytest.mark.parametrize("bad", [2.5, 3.0, "3", True])
def test_config_refuses_non_integer_max_iterations(bad):
    with pytest.raises(ValueError, match="max_iterations must be an integer"):
        SimConfig(ebno_list=(1.0,), max_iterations=bad)


# bool is an Integral, but True is no count
@pytest.mark.parametrize("bad", [2.5, 3.0, "3", True])
@pytest.mark.parametrize("name", ["max_frames", "target_frame_errors",
                                  "workers", "seed"])
def test_config_refuses_non_integer_counts(name, bad):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        SimConfig(ebno_list=(1.0,), **{name: bad})


def test_config_refuses_bool_kappa():
    # refused whatever the decoder, though only the soft one reads kappa
    for decoder in ("soft", "hard", "lp"):
        for bad in (True, "3", None):
            with pytest.raises(ValueError, match="kappa must be a number"):
                SimConfig(ebno_list=(3,), decoder=decoder, kappa=bad)


def test_config_refuses_negative_seed(capsys):
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        SimConfig(ebno_list=(1.0,), seed=-1)
    assert SimConfig(ebno_list=(1.0,), seed=0).seed == 0
    # the CLI refuses a negative seed before any frame runs
    assert main(["--ebno", "3.0", "--max-frames", "1", "--seed", "-3"]) == 2
    assert "seed must be >= 0, got -3" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_config_refuses_non_finite_ebno(bad):
    with pytest.raises(ValueError, match="ebno_list entries must be finite"):
        SimConfig(ebno_list=(1.0, bad))


def test_config_coerces_ebno_to_floats():
    cfg = SimConfig(ebno_list=(1, 2))
    assert cfg.ebno_list == (1.0, 2.0)
    assert all(isinstance(e, float) for e in cfg.ebno_list)


def test_config_hard_decoder_ignores_kappa(small_code_file):
    cfg = SimConfig(ebno_list=(1.0,), decoder="hard", kappa=-5.0)
    assert cfg.decoder == "hard"
    # neither the hard nor the lp decoder builds a kappa-smoothed config
    for decoder in ("hard", "lp"):
        cfg = SimConfig(code=small_code_file, ebno_list=(3.0,),
                        decoder=decoder, kappa=-5.0, max_frames=1)
        assert run_point(cfg, 3.0).frames_run == 1


# ---- code and codeword sources ----


def test_resolve_code_builtin():
    code = resolve_code("builtin")
    assert (code.n, code.m, code.q) == (80, 32, 4)


def test_resolve_code_file_roundtrip(tmp_path, small_code_file):
    code = resolve_code(small_code_file)
    ref = small_code()
    assert (code.n, code.m, code.q) == (ref.n, ref.m, ref.q)
    assert code.rows == ref.rows


def test_resolve_code_bad_spec():
    with pytest.raises(ValueError, match="neither"):
        resolve_code("embedded")


def test_load_codeword_list(tmp_path):
    code = small_code()
    words = codewords_bruteforce(code)
    path = tmp_path / "words.txt"
    lines = ["# transmit pool", ""]
    for w in words[:5]:
        lines.append(" ".join(str(s) for s in w) + "  # ok")
    path.write_text("\n".join(lines) + "\n")
    loaded = load_codeword_list(str(path), code)
    assert loaded.shape == (5, code.n)
    np.testing.assert_array_equal(loaded, np.array(words[:5]))


def test_load_codeword_list_errors(tmp_path):
    code = small_code()
    cases = [
        ("1 2 x 0 0 0", "line 1: not an integer"),
        ("0 0 0 0 0", "line 1: expected 6 symbols"),
        ("0 0 0 0 0 9", "line 1: symbols must lie in 0..3"),
        ("1 1 1 1 1 1", "line 1: not a codeword"),
        ("# only comments", "no codewords"),
    ]
    for text, message in cases:
        path = tmp_path / "bad.txt"
        path.write_text(text + "\n")
        with pytest.raises(ValueError, match=re.escape(message)):
            load_codeword_list(str(path), code)
    with pytest.raises(OSError, match="cannot read"):
        load_codeword_list(str(tmp_path / "absent.txt"), code)


def test_load_codeword_list_line_numbers_skip_comments(tmp_path):
    code = small_code()
    path = tmp_path / "bad.txt"
    path.write_text("# header\n\n1 1 1 1 1 1\n")
    with pytest.raises(ValueError, match="line 3"):
        load_codeword_list(str(path), code)


# ---- single points ----


def test_noiseless_point_error_free():
    cfg = SimConfig(ebno_list=(30.0,), target_frame_errors=5, max_frames=20)
    point = run_point(cfg, 30.0)
    assert point.frames_run == 20
    assert point.frame_errors == 0
    assert point.fer == 0.0
    assert point.symbol_errors == 0
    assert point.erasures == 0
    assert point.malformed_frames == 0
    assert point.mean_iterations == 1.0
    assert point.wall_time == 0.0


def test_point_deterministic(small_code_file):
    cfg = SimConfig(code=small_code_file, ebno_list=(2.0,),
                    target_frame_errors=10, max_frames=40, seed=9)
    assert run_point(cfg, 2.0) == run_point(cfg, 2.0)


def test_seed_moves_the_noise(small_code_file):
    base = dict(code=small_code_file, ebno_list=(0.0,),
                target_frame_errors=100, max_frames=40)
    a = run_point(SimConfig(seed=3, **base), 0.0)
    b = run_point(SimConfig(seed=4, **base), 0.0)
    assert a != b


def test_fer_consistent_across_seeds(small_code_file):
    base = dict(code=small_code_file, ebno_list=(1.0,),
                target_frame_errors=1000, max_frames=80)
    fers, halves = [], []
    for seed in (3, 4):
        p = run_point(SimConfig(seed=seed, **base), 1.0)
        fers.append(p.fer)
        halves.append(binomial_ci_halfwidth(p.fer, p.frames_run))
    assert abs(fers[0] - fers[1]) <= halves[0] + halves[1]


def test_point_accounting(small_code_file):
    cfg = SimConfig(code=small_code_file, ebno_list=(1.0,),
                    target_frame_errors=6, max_frames=200, seed=5)
    p = run_point(cfg, 1.0)
    assert p.frame_errors >= 6 or p.frames_run == 200
    assert p.frame_errors <= p.frames_run
    assert p.fer == p.frame_errors / p.frames_run
    assert p.erasures <= p.symbol_errors
    assert p.symbol_errors <= 6 * p.frame_errors
    assert 1.0 <= p.mean_iterations <= cfg.max_iterations


def test_erased_symbols_count_as_frame_errors(small_code_file):
    # erased symbols always differ from the transmitted word, so any frame
    # with erasures must be an error frame
    cfg = SimConfig(code=small_code_file, ebno_list=(0.0,),
                    target_frame_errors=30, max_frames=120, seed=11)
    p = run_point(cfg, 0.0)
    assert p.erasures > 0
    assert p.frame_errors > 0


def test_malformed_frames_accounting(monkeypatch, small_code_file):
    def explode(code, llr, config):
        raise MalformedDecision("variable 0: synthetic")

    monkeypatch.setattr(qarylp.simulate, "decode", explode)
    cfg = SimConfig(code=small_code_file, ebno_list=(2.0,),
                    target_frame_errors=4, max_frames=50, max_iterations=17)
    p = run_point(cfg, 2.0)
    assert p.frames_run == 4
    assert p.frame_errors == 4
    assert p.malformed_frames == 4
    assert p.symbol_errors == 4 * 6
    assert p.erasures == 0
    assert p.mean_iterations == 17.0


def test_lp_solver_failures_cost_one_frame_each(monkeypatch):
    # simulate's seed 1, point 0, frames 0-5 at 3 dB take 114, 235, 140,
    # 162, 110 and 159 pivots: under a budget of 150 the three frames above
    # it trip the cycle guard, each counts as a frame error with every
    # symbol wrong and no iterations, and the frames after them still
    # decode; frame 2, within the budget, decodes to the corpus's one wrong
    # codeword, 3 symbols off
    monkeypatch.setattr(qarylp.lp, "_MAX_PIVOTS", 150)
    cfg = SimConfig(decoder="lp", ebno_list=(3.0,), target_frame_errors=100,
                    max_frames=6, seed=1)
    p = run_point(cfg, 3.0)
    assert p.frames_run == 6
    assert p.solver_failures == 3
    assert p.frame_errors == 3 + 1
    assert p.symbol_errors == 3 * 80 + 3
    assert p.erasures == 0
    assert p.mean_iterations == (114 + 140 + 110) / 6
    assert p.malformed_frames == 0


def test_lp_unbounded_ray_costs_one_frame(monkeypatch, small_code_file):
    def unbounded(code, llr):
        raise UnboundedRay("column 0 enters along an unbounded ray")

    monkeypatch.setattr(qarylp.simulate, "lp_decode_exact", unbounded)
    cfg = SimConfig(code=small_code_file, decoder="lp", ebno_list=(2.0,),
                    target_frame_errors=3, max_frames=50)
    p = run_point(cfg, 2.0)
    assert (p.frames_run, p.frame_errors, p.solver_failures) == (3, 3, 3)
    assert p.symbol_errors == 3 * 6
    assert p.mean_iterations == 0.0


def test_random_codeword_mode(tmp_path, small_code_file):
    code = small_code()
    words = [w for w in codewords_bruteforce(code) if any(w)]
    path = tmp_path / "words.txt"
    path.write_text(
        "\n".join(" ".join(str(s) for s in w) for w in words[:8]) + "\n")
    cfg = SimConfig(code=small_code_file, ebno_list=(30.0,),
                    target_frame_errors=5, max_frames=30,
                    random_codewords=str(path), seed=2)
    p = run_point(cfg, 30.0)
    assert p.frames_run == 30
    assert p.fer == 0.0


def test_run_point_refuses_nan_ebno(small_code_file):
    # a NaN point used to reach the decoder as NaN LLRs (NonFiniteLLR)
    cfg = SimConfig(code=small_code_file, ebno_list=(8.0,), max_frames=2)
    with pytest.raises(ValueError, match="gives no finite sigma > 0"):
        run_point(cfg, math.nan)


def test_lp_decoder_point(small_code_file):
    cfg = SimConfig(code=small_code_file, decoder="lp", ebno_list=(2.0,),
                    target_frame_errors=5, max_frames=60, seed=6)
    p = run_point(cfg, 2.0)
    assert p.frame_errors >= 5 or p.frames_run == 60
    assert p.malformed_frames == 0
    assert p.mean_iterations >= 0.0


def test_wall_time_only_when_requested():
    base = dict(ebno_list=(30.0,), target_frame_errors=3, max_frames=5)
    silent = run_point(SimConfig(**base), 30.0)
    timed = run_point(SimConfig(record_timing=True, **base), 30.0)
    assert silent.wall_time == 0.0
    assert timed.wall_time > 0.0


# ---- sweeps and CSV ----


def test_run_sweep_csv_and_progress(tmp_path, small_code_file):
    out = tmp_path / "sweep.csv"
    cfg = SimConfig(code=small_code_file, ebno_list=(8.0, 10.0),
                    target_frame_errors=3, max_frames=12, seed=3,
                    output=str(out))
    lines = []
    points = run_sweep(cfg, progress=lines.append)
    assert len(points) == 2
    assert [ln.startswith("ebno ") for ln in lines] == [True, True]
    text = out.read_text()
    rows = text.splitlines()
    assert rows[0] == (
        f"# meta: version=0.1.0, seed=3, decoder=soft, kappa=100.0, "
        f"code={small_code_file}, max_iters=100"
    )
    assert rows[1] == ("ebno_db,frames,frame_errors,fer,symbol_errors,"
                       "erasures,mean_iters,wall_s")
    assert len(rows) == 4
    for row, point in zip(rows[2:], points):
        fields = row.split(",")
        assert fields[0] == repr(point.ebno_db)
        assert fields[1] == str(point.frames_run)
        assert fields[2] == str(point.frame_errors)
        assert re.fullmatch(r"\d\.\d{8}e[+-]\d{2}", fields[3])
        assert fields[7] == "0.000"


def test_meta_line_kappa_placeholder(small_code_file):
    for decoder in ("hard", "lp"):
        cfg = SimConfig(code=small_code_file, decoder=decoder,
                        ebno_list=(8.0,), target_frame_errors=1,
                        max_frames=2)
        meta = format_csv([], cfg).splitlines()[0]
        assert f"decoder={decoder}, kappa=-," in meta


@pytest.mark.parametrize("decoder", ["soft", "hard", "lp"])
def test_csv_identical_across_workers(small_code_file, decoder):
    base = dict(code=small_code_file, decoder=decoder, ebno_list=(1.0, 3.0),
                target_frame_errors=5, max_frames=24, seed=12)
    serial = run_sweep(SimConfig(workers=1, **base), progress=None)
    parallel = run_sweep(SimConfig(workers=2, **base), progress=None)
    assert serial == parallel
    assert (format_csv(serial, SimConfig(workers=1, **base))
            == format_csv(parallel, SimConfig(workers=2, **base)))


@pytest.mark.parametrize("decoder", ["soft", "lp"])
def test_run_point_equals_the_sweeps_point(small_code_file, decoder):
    # run_point and run_sweep share one frame loop
    cfg = SimConfig(code=small_code_file, decoder=decoder,
                    ebno_list=(1.0, 3.0, 1.0), target_frame_errors=4,
                    max_frames=20, seed=5)
    sweep = run_sweep(cfg, progress=None)
    for k, ebno in enumerate(cfg.ebno_list):
        assert run_point(cfg, ebno, k) == sweep[k]
    # the repeated 1.0 dB point draws its own frames
    assert sweep[0] != sweep[2]


def test_fer_monotone_in_snr(small_code_file):
    cfg = SimConfig(code=small_code_file, ebno_list=(0.0, 4.0, 8.0),
                    target_frame_errors=1000, max_frames=80, seed=8)
    points = run_sweep(cfg, progress=None)
    for lo, hi in zip(points, points[1:]):
        slack = (binomial_ci_halfwidth(lo.fer, lo.frames_run)
                 + binomial_ci_halfwidth(hi.fer, hi.frames_run))
        assert hi.fer <= lo.fer + slack


def test_write_csv_bad_path(tmp_path, small_code_file):
    cfg = SimConfig(code=small_code_file, ebno_list=(8.0,),
                    target_frame_errors=1, max_frames=2,
                    output=str(tmp_path / "absent" / "out.csv"))
    with pytest.raises(OSError, match="cannot write CSV"):
        run_sweep(cfg, progress=None)


def test_bad_output_path_fails_before_the_first_frame(monkeypatch, tmp_path,
                                                     small_code_file):
    calls = []
    decode = qarylp.simulate.decode

    def counting(*args):
        calls.append(args)
        return decode(*args)

    monkeypatch.setattr(qarylp.simulate, "decode", counting)
    out = tmp_path / "absent" / "dir" / "out.csv"
    cfg = SimConfig(code=small_code_file, ebno_list=(8.0, 9.0),
                    target_frame_errors=10, max_frames=20, output=str(out))
    with pytest.raises(OSError, match=re.escape(f"cannot write CSV to {out}")):
        run_sweep(cfg, progress=None)
    assert len(calls) == 0


def test_existing_output_kept_until_the_sweep_ends(monkeypatch, tmp_path,
                                                  small_code_file):
    out = tmp_path / "out.csv"
    out.write_text("earlier results\n")
    seen = []
    decode = qarylp.simulate.decode

    def reading(*args):
        seen.append(out.read_text())
        return decode(*args)

    monkeypatch.setattr(qarylp.simulate, "decode", reading)
    cfg = SimConfig(code=small_code_file, ebno_list=(8.0,),
                    target_frame_errors=1, max_frames=3, output=str(out))
    points = run_sweep(cfg, progress=None)
    assert seen == ["earlier results\n"] * 3
    assert out.read_text() == format_csv(points, cfg)


# ---- CLI ----


def test_cli_parse_ebno_errors():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["--ebno", "1,two"])
    with pytest.raises(SystemExit):
        parser.parse_args(["--ebno", ","])


def test_cli_runs_sweep(tmp_path, small_code_file, capsys):
    out = tmp_path / "cli.csv"
    rc = main([
        "--code", small_code_file, "--ebno", "8.0,10.0",
        "--target-errors", "2", "--max-frames", "8", "--seed", "4",
        "--out", str(out),
    ])
    assert rc == 0
    assert out.exists()
    assert "ebno 8.0 dB:" in capsys.readouterr().out


def test_cli_decodes_checks_beyond_enumeration(tmp_path):
    # q = 16 and row degree 8: 16^7 local words per check, more than
    # enumerate_spc lists; the coordinate-ascent decoder enumerates none
    code = random_regular_code(n=64, m=8, row_degree=8, q=16,
                               rng=np.random.default_rng(5))
    path = tmp_path / "z16.txt"
    write_check_matrix(code, path)
    out = tmp_path / "z16.csv"
    rc = main(["--code", f"file:{path}", "--decoder", "soft", "--ebno", "14",
               "--max-frames", "2", "--out", str(out)])
    assert rc == 0
    meta, header, *rows = out.read_text().splitlines()
    assert len(rows) == 1
    assert rows[0].split(",")[header.split(",").index("frames")] == "2"


def test_cli_error_exit(tmp_path, small_code_file, capsys):
    rc = main([
        "--code", small_code_file, "--ebno", "8.0",
        "--max-frames", "2", "--out", str(tmp_path / "no" / "dir.csv"),
    ])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["-inf", "inf", "nan"])
def test_cli_refuses_non_finite_ebno(text, capsys):
    # --ebno=-inf used to end in a ZeroDivisionError traceback
    assert main([f"--ebno={text}", "--max-frames", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err


def test_cli_rejects_unknown_decoder():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--ebno", "1", "--decoder", "bp"])


def test_ferpoint_is_frozen():
    p = FerPoint(ebno_db=1.0, frames_run=1, frame_errors=0, symbol_errors=0,
                 erasures=0, fer=0.0, mean_iterations=1.0, wall_time=0.0)
    with pytest.raises(AttributeError):
        p.fer = 0.5
