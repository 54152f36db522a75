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
