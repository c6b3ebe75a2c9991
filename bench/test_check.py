"""The benchmark's output checker accepts real answers and rejects corrupted ones."""

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from abelian import Abelian, from_bits, to_bits  # noqa: E402
from check import judge  # noqa: E402
from shiftfree import cli  # noqa: E402
from workloads import WORKLOADS, Op, stream  # noqa: E402


def run_op(op: Op) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(op.argv)
    return rc, json.loads(out.getvalue())


def verdict(op: Op, rc: int, doc: dict) -> str:
    return judge(op, rc, json.dumps(doc))[0]


EXACT = Op(["exact", "Z4xZ5", "{0,1,7}", "--format", "json"], "exact", (4, 5), [0, 1, 7])
COSETS = Op(["construct", "Z12", "{0,1,4,5,8,9}", "--method", "thm2", "--format", "json"],
            "construct", (12,), [0, 1, 4, 5, 8, 9], "thm2")


def test_real_answers_pass():
    for op in (EXACT, COSETS):
        rc, doc = run_op(op)
        assert verdict(op, rc, doc) == "ok"


def test_wrong_n_fails():
    rc, doc = run_op(EXACT)
    doc["exact"]["n"] += 1
    assert verdict(EXACT, rc, doc) == "wrong"


def test_avoider_containing_a_translate_fails():
    rc, doc = run_op(EXACT)
    grp = Abelian(EXACT.orders)
    # Same size as the real avoider, complement kept consistent, but it holds
    # the translate 3 + S.
    n = doc["exact"]["n"]
    held = grp.translate_bits(to_bits(EXACT.elements), 3)
    filler = [a for a in range(grp.size) if not (held >> a) & 1]
    bad = held | to_bits(filler[: n - 1 - bin(held).count("1")])
    doc["exact"]["avoider"] = from_bits(bad)
    doc["exact"]["hitting_set"] = from_bits(grp.full ^ bad)
    assert verdict(EXACT, rc, doc) == "wrong"


def test_wrong_table_row_fails():
    op = Op(["table", "--format", "json"], "table")
    rc, doc = run_op(op)
    assert verdict(op, rc, doc) == "ok"
    doc["table"][4]["thm2_lower"] -= 1
    assert verdict(op, rc, doc) == "wrong"


def test_construct_size_and_certificate_checked():
    rc, doc = run_op(COSETS)
    short = copy.deepcopy(doc)
    short["certificate"]["elements"] = short["certificate"]["elements"][1:]
    short["certificate"]["size"] -= 1
    assert verdict(COSETS, rc, short) == "wrong"
    unverified = copy.deepcopy(doc)
    unverified["certificate"]["verified"] = False
    assert verdict(COSETS, rc, unverified) == "wrong"


def test_bounds_root_ceiling_off_by_one_fails():
    op = Op(["bounds", "Z4096", "{0,5,77,901}", "--format", "json"], "bounds", (4096,), [0, 5, 77, 901])
    rc, doc = run_op(op)
    assert verdict(op, rc, doc) == "ok"
    for key in ("lemma_lower", "thm2_lower"):
        bad = copy.deepcopy(doc)
        bad["bounds"][key] += 1
        lowers = ("thm1_lower", "lemma_lower", "thm2_lower")
        bad["bounds"]["best_lower"] = max(bad["bounds"][k] for k in lowers)
        assert verdict(op, rc, bad) == "wrong"


def test_timeout_is_not_wrong_but_partial_answer_is():
    rc, doc = run_op(EXACT)
    partial = copy.deepcopy(doc)
    del doc["exact"]
    assert verdict(EXACT, 3, doc) == "timeout"
    assert verdict(EXACT, 3, partial) == "wrong"
    assert judge(EXACT, 4, json.dumps(doc))[0] == "error"


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_streams_are_seeded_and_never_repeat_a_pair(workload):
    def first(seed, n=60):
        ops = stream(workload, seed)
        return [next(ops).argv for _ in range(n)]

    assert first(3) == first(3)
    assert first(3) != first(4)
    keys = [(op.orders, to_bits(op.elements)) for op, _ in zip(stream(workload, 3), range(200))]
    assert len(keys) == len(set(keys))
