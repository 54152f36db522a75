"""Pinned CLI output of ``estimate --n-range 2..3`` in every format.

The digests were taken while the JSON form was still produced by parsing
each report's ``to_json`` back and serialising the list again; the single
dict form must reproduce them byte for byte.
"""
import hashlib

import pytest

from ionshor.cli import main

ESTIMATE_GOLDEN = {
    "json": "6ebd781f2b4ea678dfb1a427cc818165fa9eef7cdb56560085136316ec78e0e6",
    "csv": "14d1f74376634e9b9358c4c42db79ad39adab37323521b37e4a3d6fe38d04569",
    "text": "c50a150504fe7be6e0880188d7aa6e1aefda3ed51d398b9c74aff186113c8b21",
}


@pytest.mark.parametrize("fmt", sorted(ESTIMATE_GOLDEN))
def test_estimate_matches_pinned_output(capsys, fmt):
    code = main(["estimate", "--n-range", "2..3", "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ESTIMATE_GOLDEN[fmt]


def test_largest_bench_estimate_matches_pinned_output(capsys):
    # the n = 4 op of the estimate benchmark, where the lowering repeats most
    code = main(["estimate", "--n-range", "4", "--nx", "9", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "3be8a061b764fd90e11175e388b6e47d9a44bfa4bda4bb2dfd4074dbdc994423"
