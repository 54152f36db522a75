"""Pinned CLI output of ``estimate --n-range 2..3`` in every format.

The digests were taken when CR_k became one XX block, so the counts they
hold include the inverse QFT at one XX per CR_k; a change that keeps the
lowering and the report formats must reproduce them byte for byte.
"""
import hashlib

import pytest

from ionshor.cli import main

ESTIMATE_GOLDEN = {
    "json": "c5c008d34106ec7881f07939898dd1e5f0d9c3521d53515b6163001a19a80096",
    "csv": "95ab226fdcee0aeba6b964c85f5b59e199879fcca5d14893e1e5b602bb9ff22a",
    "text": "fdab353163e9908e5934b8041a73fd58e78773c9206ca9a672e167d3d7b7cb23",
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
        "b043483903cbbbee1d499008f1b0fb8a0c5159002fe873f46a6b98462475cf0f"
