"""LP decoding of linear codes over Z_q.

Subpackages: codes (Tanner graphs, local codebooks, code constructions),
channel (PSK modulation and AWGN log-likelihood ratios), decoder (dual
coordinate-ascent decoding), lp (exact LP decoding by column generation
over a revised simplex), and simulate (frame-error-rate sweeps).
"""

from .channel import (
    ConstellationMap,
    InvalidRate,
    NonPositiveSigma,
    awgn_sample,
    compute_llr,
    ebno_to_sigma,
    modulate,
    psk,
)
from .codes import (
    BudgetExceeded,
    LengthMismatch,
    ParseError,
    SpcCodebook,
    TannerCode,
    enumerate_spc,
    ldpc80_z4,
    random_regular_code,
    read_check_matrix,
    write_check_matrix,
)
from .decoder import (
    ERASED,
    DecodeOutcome,
    DecoderConfig,
    DimensionMismatch,
    DualState,
    EmptyList,
    MalformedDecision,
    NonFiniteLLR,
    Status,
    decode,
    dual_objective,
    init_state,
    soft_min,
)
from .lp import (
    CycleGuardTripped,
    UnboundedRay,
    lp_decode_exact,
)
from .simulate import (
    FerPoint,
    SimConfig,
    format_csv,
    load_codeword_list,
    resolve_code,
    run_point,
    run_sweep,
    write_csv,
)

__all__ = [
    "BudgetExceeded",
    "ConstellationMap",
    "CycleGuardTripped",
    "DecodeOutcome",
    "DecoderConfig",
    "DimensionMismatch",
    "DualState",
    "ERASED",
    "EmptyList",
    "FerPoint",
    "InvalidRate",
    "LengthMismatch",
    "MalformedDecision",
    "NonFiniteLLR",
    "NonPositiveSigma",
    "ParseError",
    "SimConfig",
    "SpcCodebook",
    "Status",
    "TannerCode",
    "UnboundedRay",
    "awgn_sample",
    "compute_llr",
    "decode",
    "dual_objective",
    "ebno_to_sigma",
    "enumerate_spc",
    "format_csv",
    "init_state",
    "ldpc80_z4",
    "load_codeword_list",
    "lp_decode_exact",
    "modulate",
    "psk",
    "random_regular_code",
    "read_check_matrix",
    "resolve_code",
    "run_point",
    "run_sweep",
    "soft_min",
    "write_check_matrix",
    "write_csv",
]

__version__ = "0.1.0"
