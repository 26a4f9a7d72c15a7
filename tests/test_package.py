"""The package's public surface: what `from qarylp import *` promises."""

import qarylp


def test_all_names_resolve_and_are_listed_once():
    names = qarylp.__all__
    assert len(names) == len(set(names)), sorted(
        {n for n in names if names.count(n) > 1})
    missing = [n for n in names if not hasattr(qarylp, n)]
    assert not missing, missing
