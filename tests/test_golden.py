"""Stdout and exit codes of the benchmark's op streams, pinned byte for byte.

The first ops of each workload's seed-1 stream (bench/workloads.py, imported
read-only) run through cli.main in process; one sha256 over every op's
(exit code, stdout) is compared with the digest pinned here.  A change that
alters output on purpose updates the digests and says so in CHANGES.md.
"""

import hashlib
import sys
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

from run import call, load_package  # noqa: E402
from workloads import stream  # noqa: E402

# workload -> (ops from the start of its seed-1 stream, sha256 of their output).
# coset-construct's stream opens with `table`.
GOLDEN = {
    "exact-cap": (200, "d36b54f3ef18ccd72d0e59802e8b248d7247b49b668675ecd0904c999c34eb10"),
    "coset-construct": (40, "eaf1400b1fdafd729a363d19c02a88b0ec843980e19e7b54d07517cce9fe7847"),
    "large-order": (100, "8348e18acc32125b868bc9518b5bda9cfcc7db484290368a3e9eac39ca444829"),
}


@pytest.mark.parametrize("workload", sorted(GOLDEN))
def test_stream_output_is_pinned(workload):
    cli = load_package()["shiftfree.cli"]
    count, want = GOLDEN[workload]
    digest = hashlib.sha256()
    for op in islice(stream(workload, 1), count):
        rc, out, _ = call(cli, op.argv)
        digest.update(repr((rc, out)).encode())
    assert digest.hexdigest() == want
