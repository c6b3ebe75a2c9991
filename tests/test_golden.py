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
# coset-construct's stream opens with `table`; 24 of its first 200 ops are in Z2024,
# where the certified sets leave _bit_indices by its dense pass.
GOLDEN = {
    "exact-cap": (200, "db85f8cd525a4f3d181940799dcb5e987d4aff75f5744e495d7af1cac2c97cfd"),
    "coset-construct": (200, "9cd9ccf59f498ee6b96b5ad84dc82355cf59588f76914692104f704c37c552d0"),
    "large-order": (100, "b3b2c8c44cbc77e0351457a0778b51c772a0893627ca19e812425d266414bdc2"),
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
