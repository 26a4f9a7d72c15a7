"""Write the Z_8 code that the frames-hard-z8-6db workload decodes.

The code is the Tanner graph of the bundled [80, 48] Z_4 code with the same
check coefficients (1, 3, 3, 1, 1), read over Z_8.  All five coefficients are
units mod 8, so every check has 8^4 = 4096 local codewords instead of 256.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_z8_code.py
"""

from pathlib import Path

from qarylp import TannerCode, ldpc80_z4, write_check_matrix

CODE_FILE = Path(__file__).resolve().parent / "codes" / "ldpc80_z8.txt"


def z8_code() -> TannerCode:
    return TannerCode(q=8, n=80, rows=ldpc80_z4().rows)


if __name__ == "__main__":
    write_check_matrix(z8_code(), CODE_FILE)
    print(f"wrote {CODE_FILE}")
