"""Command-line parsing, output formats, exit codes, determinism."""

import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import shiftfree
from shiftfree import cli, construct, exact
from shiftfree.cli import format_group, main, parse_group, parse_set
from shiftfree.errors import DomainMismatchError, ParseError
from shiftfree.exact import exact_N
from shiftfree.groups import MAX_GROUP_ORDER, Group

EXPECTED_TABLE_TEXT = """\
n=1: =1772
n=2: [1787, 1898]
n=3: [1812, 1940]
n=4: [1835, 1961]
n=5: [1855, 1974]
n=6: [1872, 1982]
n=7: [1886, 1988]
n=8: [1898, 1993]
n=9: [1908, 1996]
n=10: [1917, 1999]
"""

EXPECTED_TABLE_CSV = """\
n,s,h,thm2_lower,upper,exact
1,8,8,1772,1772,1772
2,16,8,1787,1898,
3,24,8,1812,1940,
4,32,8,1835,1961,
5,40,8,1855,1974,
6,48,8,1872,1982,
7,56,8,1886,1988,
8,64,8,1898,1993,
9,72,8,1908,1996,
10,80,8,1917,1999,
"""


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# -- spec parsing -------------------------------------------------------------


def test_parse_group_forms():
    assert parse_group("Z2024").orders == (2024,)
    assert parse_group("Z4xZ2").orders == (4, 2)
    assert parse_group("z4Xz2").orders == (4, 2)
    assert parse_group(" Z2 x Z3 ").orders == (2, 3)
    assert parse_group("Z1").size == 1


def test_parse_group_rejects_garbage():
    for bad in ("", "4", "Zx2", "Q9", "Z-3", "Z0", "Z4x", "Z4*Z2", "Z\u0661\u0662", "Z1_2"):
        with pytest.raises(ParseError):
            parse_group(bad)


def test_format_group_round_trip():
    for orders in ([6], [4, 2], [2, 3, 5], [2024]):
        grp = Group(orders)
        assert parse_group(format_group(grp)).orders == grp.orders
    assert format_group(Group([1])) == "Z1"
    assert format_group(Group([1, 4])) == "Z4"


def test_parse_set_explicit_forms():
    z6 = Group([6])
    assert parse_set("{0,1,5}", z6).indices() == [0, 1, 5]
    assert parse_set("{ 4 , 0 }", z6).indices() == [0, 4]
    assert parse_set("{}", z6).size == 0

    prod = Group([4, 2])
    assert parse_set("{(1,1),(0,0)}", prod).indices() == [0, 5]
    assert parse_set("{3,(1,1)}", prod).indices() == [3, 5]


def test_parse_set_explicit_errors():
    z6 = Group([6])
    for bad in ("{0,1", "{a}", "{(1,2}", "{0,,1}", "{(1))}", "0,1", "{1_0}", "{+1}",
                "{\u0661}", "{(1_0,0)}", "{(\u0661,0)}"):
        with pytest.raises(ParseError):
            parse_set(bad, z6)
    with pytest.raises(DomainMismatchError):
        parse_set("{9}", z6)
    with pytest.raises(DomainMismatchError):
        parse_set("{(1,1)}", z6)


def test_parse_set_coset_form():
    grp = Group([2024])
    sub = parse_set("cosets(order=8; reps=0)", grp)
    assert sub.indices() == list(range(0, 2024, 253))
    union = parse_set("cosets(order=8; reps=0,1)", grp)
    assert union.size == 16
    assert union.indices()[:4] == [0, 1, 253, 254]

    z12 = Group([12])
    assert parse_set("COSETS(ORDER=3; REPS=1)", z12).indices() == [1, 5, 9]


def test_parse_set_coset_form_trivial_group():
    assert parse_set("cosets(order=1; reps=0)", Group([1])).indices() == [0]


def test_parse_set_coset_form_errors():
    with pytest.raises(ParseError):
        parse_set("cosets(order=8; reps=0)", Group([4, 2]))  # not cyclic
    with pytest.raises(ParseError):
        parse_set("cosets(order=5; reps=0)", Group([12]))  # order does not divide
    with pytest.raises(ParseError):
        parse_set("cosets(order=3; reps=)", Group([12]))
    with pytest.raises(ParseError):
        parse_set("cosets(order=3)", Group([12]))
    for bad in ("cosets(order=\u0663; reps=0)", "cosets(order=3; reps=0 1)"):
        with pytest.raises(ParseError):
            parse_set(bad, Group([12]))


# -- bounds command -----------------------------------------------------------


def test_bounds_text_output():
    code, out, _ = run_cli(["bounds", "Z6", "{0,1}"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "group: Z6 (order 6)"
    assert "set: {0, 1} (size 2)" in lines
    assert "stabilizer: {0} (order 1)" in lines
    assert "thm1_lower: 1" in lines
    assert "lemma_lower: 3" in lines
    assert "thm2_lower: 3" in lines
    assert "upper: 4" in lines
    assert "coincide: lemma_lower=thm2_lower" in lines


def test_bounds_json_document():
    code, out, _ = run_cli(["bounds", "Z2024", "cosets(order=8; reps=0,1)", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["group"] == {"orders": [2024], "size": 2024}
    assert doc["set"]["size"] == 16
    assert doc["stabilizer"]["order"] == 8
    assert doc["transversal_size"] == 253
    assert doc["bounds"] == {
        "thm1_lower": 1772,
        "lemma_lower": 1433,
        "thm2_lower": 1787,
        "upper": 1898,
        "best_lower": 1787,
    }
    assert doc["meta"]["version"]


def test_bounds_singleton_all_ones():
    code, out, _ = run_cli(["bounds", "Z6", "{0}", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert set(doc["bounds"].values()) == {1}


def test_bounds_rejects_empty_set():
    code, _, err = run_cli(["bounds", "Z6", "{}"])
    assert code == 1
    assert "error:" in err


def test_parse_error_names_the_token():
    code, _, err = run_cli(["bounds", "Q99", "{0}"])
    assert code == 1
    assert "Q99" in err


# -- exact command ---------------------------------------------------------------


def test_exact_json_z6():
    code, out, err = run_cli(["exact", "Z6", "{0,1}", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["exact"]["n"] == 4
    assert doc["exact"]["method"] == "hitting-set"
    assert len(doc["exact"]["avoider"]) == 3
    assert len(doc["exact"]["hitting_set"]) == 3
    assert doc["exact"]["nodes"] >= 1
    assert "solve time" in err


def test_exact_corollary_fast_path():
    code, out, _ = run_cli(["exact", "Z2024", "cosets(order=8; reps=0)", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["exact"]["n"] == 1772
    assert doc["exact"]["method"] == "corollary"
    assert doc["exact"]["nodes"] == 0
    assert len(doc["exact"]["avoider"]) == 1771
    code, out, _ = run_cli(["construct", "Z2024", "cosets(order=8; reps=0)", "--method", "thm1",
                            "--format", "json"])
    assert code == 0
    assert doc["exact"]["avoider"] == json.loads(out)["certificate"]["elements"]


def test_exact_cli_matches_library():
    # One exact path: the command prints what exact_N returns, including
    # coset unions of order above the cap whose quotient is under it.
    for spec, pattern, method in (
        ("Z2024", "cosets(order=8; reps=0)", "corollary"),
        ("Z320", "cosets(order=8; reps=0,1,3)", "hitting-set"),
        ("Z2xZ6", "{0,1,2,3}", "hitting-set"),
    ):
        code, out, _ = run_cli(["exact", spec, pattern, "--format", "json"])
        assert code == 0
        result = exact_N(parse_set(pattern, parse_group(spec)))
        assert json.loads(out)["exact"] == {
            "n": result.n_value,
            "method": method,
            "avoider": result.max_avoider.indices(),
            "hitting_set": result.min_hitting_set.indices(),
            "nodes": result.nodes,
        }


def test_exact_root_fix_cuts_nodes():
    # Fixing one element at the root leaves one of the root's equivalent
    # branches; the search without it took 38,014 nodes here.
    code, out, _ = run_cli(["exact", "Z36", "{0,1,4,9}", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["exact"]["n"] == 25
    assert doc["exact"]["nodes"] < 38_014


def test_exact_split_on_the_difference_subgroup_cuts_nodes():
    # The family is [G:K] disjoint copies of K's, K = <S - S>, and only one
    # is searched; searching all of them took 39,876 and 80,093 nodes here.
    for spec, pattern, n, unsplit_nodes in (
        ("Z30", "{0,10}", 11, 39_876),
        ("Z2xZ14", "{0,8,9}", 15, 80_093),
    ):
        code, out, _ = run_cli(["exact", spec, pattern, "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["exact"]["n"] == n
        assert doc["exact"]["nodes"] * 100 < unsplit_nodes


def test_exact_corollary_small():
    code, out, _ = run_cli(["exact", "Z4", "{0,2}", "--format", "json"])
    assert code == 0
    assert json.loads(out)["exact"]["n"] == 3


def test_exact_budget_exceeded_still_prints_bounds():
    code, out, err = run_cli(["exact", "Z65", "{0,1}", "--format", "json"])
    assert code == 3
    doc = json.loads(out)
    assert "exact" not in doc
    assert doc["bounds"]["upper"] == 33
    assert "error:" in err


def test_exact_text_output():
    code, out, _ = run_cli(["exact", "Z6", "{0,1}"])
    assert code == 0
    assert "N: 4" in out.splitlines()



# exact --format json results captured before the greedy incumbent's rescan
# became one pass per gain level: (group, set, N, avoider, hitting set, nodes).
PINNED_EXACT = [
    ("Z24", "{0,5,12,17}", 19, [*range(12), 13, 15, 17, 19, 21, 23], [12, 14, 16, 18, 20, 22], 5),
    ("Z17", "{0,1,3,6,7}", 13, [1, 3, 5, 6, 7, 9, 10, 11, 13, 14, 15, 16], [0, 2, 4, 8, 12], 14),
    ("Z3xZ7", "{0,5,7,15}", 15, [1, 2, 5, 6, 8, 9, 10, 11, 13, 14, 17, 18, 19, 20],
     [0, 3, 4, 7, 12, 15, 16], 70),
    ("Z23", "{0,3,7,12,16}", 17, [*range(7, 23)], [*range(7)], 262),
    ("Z29", "{0,4,10,19,26}", 22,
     [4, 6, 8, 9, 10, 11, 12, 14, 15, 16, 17, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28],
     [0, 1, 2, 3, 5, 7, 13, 18], 284),
    ("Z3xZ10", "{0,1,21,25,28}", 22,
     [2, 3, 4, 6, 7, 9, 10, 12, 14, 15, 16, 17, 21, 22, 23, 24, 25, 26, 27, 28, 29],
     [0, 1, 5, 8, 11, 13, 18, 19, 20], 1653),
]


@pytest.mark.parametrize("group,pattern,n,avoider,hitting,nodes", PINNED_EXACT,
                         ids=[f"{g} {p}" for g, p, *_ in PINNED_EXACT])
def test_exact_json_pinned(group, pattern, n, avoider, hitting, nodes):
    code, out, _ = run_cli(["exact", group, pattern, "--format", "json"])
    assert code == 0
    ex = json.loads(out)["exact"]
    assert (ex["n"], ex["avoider"], ex["hitting_set"], ex["nodes"]) == (n, avoider, hitting, nodes)


def test_exact_budget_of_400_digits_runs_to_the_end():
    # The deadline is kept in integer nanoseconds; as a float it overflowed.
    code, out, err = run_cli(["exact", "Z6", "{0,1}", "--budget-ms", "9" * 400])
    assert code == 0
    assert "N: 4" in out.splitlines()
    assert "Traceback" not in err


# -- construct command -----------------------------------------------------------


def test_construct_thm1_z4():
    code, out, _ = run_cli(["construct", "Z4", "{0,2}", "--method", "thm1", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"]["elements"] == [0, 1]
    assert doc["certificate"]["verified"] is True
    assert doc["certificate"]["witness"] is None


def test_construct_thm2_c2024():
    code, out, _ = run_cli(
        ["construct", "Z2024", "cosets(order=8; reps=0,1)", "--method", "thm2",
         "--seed", "1", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"]["size"] == 1786
    assert doc["certificate"]["verified"] is True
    assert doc["meta"]["seed"] == 1


def test_construct_search_success():
    code, out, _ = run_cli(
        ["construct", "Z6", "{0,1}", "--method", "search", "--target", "2",
         "--seed", "1", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"]["size"] == 2
    assert doc["certificate"]["verified"] is True


def test_construct_search_exhausted_exit_code():
    for group, target in (("Z4", "3"), ("Z48", "25")):
        argv = ["construct", group, "{0,1}", "--method", "search", "--target", target]
        code, _, err = run_cli(argv)
        assert code == 4
        assert "error:" in err


def test_construct_search_over_budget_exits_three(monkeypatch):
    monkeypatch.setattr(construct, "DEFAULT_BUDGET_MS", 0)
    code, out, err = run_cli(["construct", "Z40", "{0,1,3}", "--method", "search",
                              "--target", "24"])
    assert code == 3
    assert out == "" and err.startswith("error:")


def test_construct_budget_bounds_the_search_exact_phase():
    # Z63's exact phase needs about 32 s to prove that no avoider of 49
    # exists, so a 1 ms budget runs out at a deadline check (every 1,024
    # nodes) however fast the host.  Z30's proves no avoider of 23 in 2,892
    # nodes, under the default budget or a generous one, and a target it
    # settles prints the same with any budget.
    code, out, err = run_cli(["construct", "Z63", "{0,1,9,14,50,56}", "--method", "search",
                              "--target", "49", "--budget-ms", "1"])
    assert code == 3
    assert out == "" and "budget" in err
    argv = ["construct", "Z30", "{0,2,6,16,21,23}", "--method", "search", "--target"]
    assert run_cli(argv + ["23"])[0] == 4
    assert run_cli(argv + ["23", "--budget-ms", "60000"])[0] == 4
    settled = run_cli(argv + ["22"])
    assert settled[0] == 0
    assert run_cli(argv + ["22", "--budget-ms", "60000"])[1] == settled[1]


def test_construct_over_search_cap_exits_three():
    # thm2 searches the quotient, here all of Z1048576: refused before the
    # quotient or any translate mask is built.
    started = time.monotonic()
    code, out, err = run_cli(["construct", "Z1048576", "{0,1,5}"])
    assert time.monotonic() - started < 1.0
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and "1048576" in err


def test_verification_over_its_cap_exits_three():
    # Verification is capped at q*g = 2**38 bit operations, q = |G/H|, and
    # thm1 and verify refuse above it before the quotient is built.
    for argv in (
        ["construct", "Z16777216", "{0,1}", "--method", "thm1"],
        ["verify", "Z16777216", "{0,1}", "{0}"],
    ):
        started = time.monotonic()
        code, out, err = run_cli(argv)
        assert time.monotonic() - started < 1.0, argv
        assert (code, out) == (3, ""), argv
        assert err.count("\n") == 1 and str(exact.MAX_VERIFY_WORK) in err
    assert exact.MAX_VERIFY_WORK == construct.MAX_SEARCH_ORDER * MAX_GROUP_ORDER
    # exact on a single coset needs no search, only the refused verification:
    # it prints the bounds and refuses before the quotient is built.
    started = time.monotonic()
    code, out, err = run_cli(["exact", "Z1048576", "{0}"])
    assert time.monotonic() - started < 1.0
    assert code == 3 and "bounds:" in out and str(exact.MAX_VERIFY_WORK) in err
    code, out, _ = run_cli(["construct", "Z262144", "{0,1}", "--method", "thm1"])
    assert code == 0 and "verified: true" in out


def test_search_at_thm1_size_needs_no_search_cap():
    # A target of g - |G/H| needs no class, so the search cap does not apply:
    # it prints thm1's avoider, quotient order 65,536 and all.
    pattern = ["construct", "Z65536", "{0,1,32768,32769}"]
    started = time.monotonic()
    code, out, err = run_cli(pattern + ["--method", "search", "--target", "32768"])
    assert time.monotonic() - started < 1.0
    assert (code, err) == (0, "")
    assert out == run_cli(pattern + ["--method", "thm1"])[1].replace("thm1", "search")
    assert run_cli(pattern + ["--method", "search", "--target", "32769"])[0] == 3


def test_verify_of_a_small_pattern_in_a_large_group_is_fast():
    # With |S| <= |G/H| the verifier rotates the candidate once per element of
    # S instead of S once per class: 3 rotations here, not 262,144 (4.8 s).
    started = time.monotonic()
    code, out, _ = run_cli(["verify", "Z64xZ64xZ64", "{0,1,4096}", "{0}"])
    assert time.monotonic() - started < 1.0
    assert code == 0 and "verified: true" in out


def test_construct_flag_validation():
    code, _, _ = run_cli(["construct", "Z6", "{0,1}", "--method", "thm1", "--target", "2"])
    assert code == 1
    code, _, _ = run_cli(["construct", "Z6", "{0,1}", "--method", "search"])
    assert code == 1
    # search runs on G/H for any stabilizer: here H = {0,6} and N = 10.
    argv = ["construct", "Z12", "{0,1,6,7}", "--method", "search", "--format", "json"]
    code, out, _ = run_cli(argv + ["--target", "9"])
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"]["size"] == 9 and doc["certificate"]["verified"] is True
    # One more is proven impossible, and the refusal names the size asked for.
    code, out, err = run_cli(argv + ["--target", "10"])
    assert code == 4
    assert out == ""
    assert err.count("\n") == 1 and "no avoiding set of size 10 exists" in err


def test_construct_thm2_ignores_the_seed():
    # --seed drives --method search only; thm2 is deterministic.
    argv = ["construct", "Z2xZ20", "{0,1,3,22}", "--method", "thm2"]
    first = run_cli(argv + ["--seed", "0"])
    assert first[0] == 0
    assert run_cli(argv + ["--seed", "7"])[1] == first[1]


def test_construct_deterministic_bytes():
    argv = ["construct", "Z2024", "cosets(order=8; reps=0,1,2)", "--seed", "7",
            "--format", "json"]
    first = run_cli(argv)
    second = run_cli(argv)
    assert first == second
    assert first[0] == 0


# -- verify command --------------------------------------------------------------


def test_verify_accepts_avoider():
    code, out, _ = run_cli(["verify", "Z6", "{0,1}", "{0,2,4}"])
    assert code == 0
    assert "verified: true" in out


def test_verify_rejects_with_witness():
    code, out, _ = run_cli(["verify", "Z6", "{0,1}", "{0,1,3}", "--format", "json"])
    assert code == 2
    doc = json.loads(out)
    assert doc["verified"] is False
    assert doc["witness"] == 0


def test_verify_witness_text_shows_translate():
    code, out, _ = run_cli(["verify", "Z6", "{0,1}", "{0,1,3}"])
    assert code == 2
    assert "witness: 0" in out
    assert "contained translate: {0, 1}" in out


def test_verify_coset_candidate():
    code, _, _ = run_cli(["verify", "Z4", "{0,2}", "{0,1}"])
    assert code == 0


# -- table command ---------------------------------------------------------------


def test_table_text_matches_reference_rows():
    code, out, _ = run_cli(["table"])
    assert code == 0
    assert out == EXPECTED_TABLE_TEXT


def test_table_csv_golden():
    code, out, _ = run_cli(["table", "--format", "csv"])
    assert code == 0
    assert out == EXPECTED_TABLE_CSV


def test_table_json_rows():
    code, out, _ = run_cli(["table", "--format", "json"])
    assert code == 0
    rows = json.loads(out)["table"]
    assert len(rows) == 10
    assert rows[0] == {"n": 1, "s": 8, "h": 8, "thm2_lower": 1772, "upper": 1772, "exact": 1772}
    assert rows[4] == {"n": 5, "s": 40, "h": 8, "thm2_lower": 1855, "upper": 1974, "exact": None}


# -- plumbing ---------------------------------------------------------------------


def test_json_output_is_schema_stable():
    for argv in (
        ["bounds", "Z6", "{0,1}", "--format", "json"],
        ["exact", "Z4", "{0,2}", "--format", "json"],
        ["table", "--format", "json"],
    ):
        _, out, _ = run_cli(argv)
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


# One call per command and outcome whose stdout is a JSON document.
JSON_ARGVS = [
    ["bounds", "Z6", "{0,1}"],
    ["bounds", "Z4xZ2", "{(0,0),(1,1),(2,0)}"],
    ["exact", "Z6", "{0,1}"],
    ["exact", "Z8", "{0,4}"],  # corollary: a single coset
    ["exact", "Z65", "{0,1}"],  # exit 3: the doc has no "exact" key
    ["construct", "Z4", "{0,2}", "--method", "thm1"],
    ["construct", "Z2024", "cosets(order=8; reps=0,1)", "--method", "thm2"],
    ["construct", "Z6", "{0,1}", "--method", "search", "--target", "2", "--seed", "7"],
    ["verify", "Z6", "{0,1}", "{0,2,4}"],
    ["verify", "Z6", "{0,1}", "{0,1,3}"],  # exit 2 with a witness
    ["table"],
]


def test_json_writer_matches_json_dumps_on_every_command(monkeypatch):
    docs = []
    emit = cli._emit

    def recording(args, doc, *fns):
        docs.append(doc)
        emit(args, doc, *fns)

    monkeypatch.setattr(cli, "_emit", recording)
    codes = []
    for argv in JSON_ARGVS:
        code, out, _ = run_cli(argv + ["--format", "json"])
        codes.append(code)
        assert out == json.dumps(docs[-1], indent=2) + "\n", argv
        assert cli._json(docs[-1]) == json.dumps(docs[-1], indent=2)
    assert codes == [0, 0, 0, 0, 3, 0, 0, 0, 0, 2, 0]
    assert "exact" not in docs[4] and docs[9]["witness"] is not None


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=False)
    | st.text()  # escapes, control characters and non-ASCII
)


def _json_docs(children):
    int_lists = st.lists(st.integers() | st.booleans() | st.none(), max_size=6)
    return (
        st.lists(children, max_size=4)
        | st.tuples(children, children)
        | st.dictionaries(st.text(max_size=6), children, max_size=4)
        | int_lists
    )


@settings(max_examples=300, deadline=None)
@given(st.recursive(_JSON_SCALARS, _json_docs, max_leaves=25))
def test_json_writer_matches_json_dumps_on_random_docs(doc):
    assert cli._json(doc) == json.dumps(doc, indent=2)


def explicit_reference(text: str, group: Group) -> int:
    """Bits of an explicit {...} spec read item by item, ORing one bit at a time."""
    body = text.strip()[1:-1].strip()
    bits = 0
    for item in cli._split_top_level(body) if body else []:
        item = item.strip()
        if not item:
            raise ParseError(f"empty element in set spec {text.strip()!r}")
        if item.startswith("("):
            if not item.endswith(")"):
                raise ParseError(f"bad coordinate tuple {item!r}")
            coords = [p.strip() for p in item[1:-1].split(",")]
            if not all(map(cli._is_number, coords)):
                raise ParseError(f"bad coordinate tuple {item!r}")
            flat = group.flat_index([cli._to_int(p, text.strip()) for p in coords])
        else:
            if not cli._is_number(item):
                raise ParseError(f"bad element {item!r} in set spec")
            flat = group.check_element(cli._to_int(item, text.strip()))
        bits |= 1 << flat
    return bits


def parse_outcome(fn, text, group):
    try:
        result = fn(text, group)
    except ValueError as exc:
        return type(exc), str(exc)
    return getattr(result, "bits", result)


EXPLICIT_CORPUS = [
    "{0,1,5}",
    "{ 4 , 0 }",
    " {\t3,\n2\r, 1 } ",
    "{0,\u00a01}",  # NBSP: stripped by the item loop
    "{\u20031 ,2}",
    "{1\x1c,2}",
    "{007,0010}",  # leading zeros
    "{5,5,0,5}",  # duplicates
    "{0,,1}",
    "{0,1,}",
    "{,0}",
    "{ , }",
    "{1_000}",
    "{1 000}",
    "{+1}",
    "{-1}",
    "{\u0661}",  # Arabic-Indic digit
    "{1\uff12}",  # fullwidth digit
    "{" + "1" * 4301 + "}",
    "{0," + "9" * 4301 + ",99}",
    "{99,0," + "1" * 4301 + "}",
    "{0,1,12,13,99}",  # out of range: the first offender is named
    "{(1,1),3}",
    "{3,(1,1),0}",
    "{(1,1)}",
    "{(1,2}",
    "{(1))}",
    "{(1,\u0661)}",
    "{1;2}",
    "{0 1}",
]


@pytest.mark.parametrize("orders", [[12], [4, 3], [2, 6]])
def test_explicit_reader_matches_the_item_loop(orders):
    grp = Group(orders)
    for text in EXPLICIT_CORPUS:
        assert parse_outcome(parse_set, text, grp) == parse_outcome(
            explicit_reference, text, grp
        ), text
    rng = random.Random(11)
    for _ in range(200):
        items = [str(rng.randrange(grp.size + 2)) for _ in range(rng.randrange(1, 9))]
        text = "{" + ",".join(rng.choice(["", " ", "\t", " \n"]) + x for x in items) + "}"
        assert parse_outcome(parse_set, text, grp) == parse_outcome(
            explicit_reference, text, grp
        ), text


@settings(max_examples=300, deadline=None)
@given(st.text("0123456789, \t\n\x0b\x0c\r\x1c\xa0_+-\u0661", max_size=12))
def test_explicit_reader_matches_the_item_loop_on_random_bodies(body):
    # The flat screen's characters, the whitespace it leaves to the item
    # loop, and the characters int() takes that a spec number may not hold.
    text = "{" + body + "}"
    for grp in (Group([12]), Group([2, 6])):
        assert parse_outcome(parse_set, text, grp) == parse_outcome(
            explicit_reference, text, grp
        )


def test_flat_explicit_spec_takes_one_pass(monkeypatch):
    def refused(body):
        raise AssertionError("item loop ran on a flat spec")

    monkeypatch.setattr(cli, "_split_top_level", refused)
    assert parse_set("{ 5, 0,1 ,\t5}", Group([6])).indices() == [0, 1, 5]
    with pytest.raises(DomainMismatchError, match="flat index 9 outside"):
        parse_set("{0,9,12}", Group([6]))


def test_explicit_reader_is_linear_in_the_group_order():
    # Splitting per character and ORing one bit at a time into a 2**18-bit
    # int took about 18 ms for 4,095 elements.
    grp = Group([2**18])
    elements = sorted(random.Random(5).sample(range(grp.size), 4095))
    text = "{" + ",".join(map(str, elements)) + "}"
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        subset = parse_set(text, grp)
        best = min(best, time.perf_counter() - started)
    assert subset.indices() == elements
    assert best < 0.006


def test_csv_only_for_table():
    code, _, err = run_cli(["bounds", "Z6", "{0,1}", "--format", "csv"])
    assert code == 1
    assert "csv" in err
    # Refused before any work: no exact solve runs.
    code, out, err = run_cli(["exact", "Z30", "{0,1,3,5,7}", "--format", "csv"])
    assert code == 1
    assert out == ""
    assert "csv" in err and "solve time" not in err


def test_usage_errors_exit_one():
    assert run_cli([])[0] == 1
    assert run_cli(["frobnicate"])[0] == 1
    assert run_cli(["bounds", "Z6"])[0] == 1
    assert run_cli(["bounds", "Z6", "{0}", "--format", "yaml"])[0] == 1
    assert run_cli(["construct", "Z6", "{0,1}", "--seed", "-2"])[0] == 1
    assert run_cli(["exact", "Z6", "{0,1}", "--budget-ms", "0"])[0] == 1
    # Only ASCII digits are numbers: int() alone reads these as Z12 and 1000.
    for argv in (["bounds", "Z\u0661\u0662", "{0,1}"], ["bounds", "Z2000", "{0,1_000}"]):
        code, out, err = run_cli(argv)
        assert code == 1, argv
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
    # Option integers follow the same rule.
    construct = ["construct", "Z6", "{0,1}", "--method", "search", "--target", "2"]
    for option, value in (
        ("--seed", "\u0661\u0662"),
        ("--seed", "1_0"),
        ("--seed", "+3"),
        ("--target", "\u0661"),
    ):
        code, out, err = run_cli(construct + [option, value])
        assert (code, out) == (1, ""), (option, value)
        assert f"argument {option}: " in err and len(err.encode()) < 300
    code, out, err = run_cli(["exact", "Z6", "{0,1}", "--budget-ms", "\u0665"])
    assert (code, out) == (1, "")
    assert "argument --budget-ms: " in err and len(err.encode()) < 300


def test_overlong_numbers_are_parse_errors():
    # int() refuses decimal strings over 4,300 digits with its own message;
    # every number in a spec is read through one helper that names the spec.
    ones = "1" * 5000
    for group, subset, spec in (
        ("Z12", "{" + ones + "}", "{1111"),
        ("Z" + ones, "{0,1}", "Z1111"),
        ("Z3xZ4", "{(0," + ones + ")}", "{(0,1111"),
        ("Z12", f"cosets(order={ones}; reps=0)", "cosets(order=1111"),
        ("Z12", f"cosets(order=2; reps=0,{ones})", "cosets(order=2; reps=0,1111"),
    ):
        code, out, err = run_cli(["bounds", group, subset])
        assert code == 1, spec
        assert out == ""
        assert err.count("\n") == 1 and f"in spec '{spec}" in err and "5000 digits" in err
    with pytest.raises(ParseError, match="has 5000 digits"):
        parse_set("{" + ones + "}", Group([12]))
    for argv in (
        ["construct", "Z6", "{0,1}", "--seed", ones],
        ["construct", "Z6", "{0,1}", "--method", "search", "--target", ones],
        ["exact", "Z6", "{0,1}", "--budget-ms", ones],
    ):
        code, out, err = run_cli(argv)
        assert (code, out) == (1, ""), argv[-2]
        assert f"argument {argv[-2]}: " in err and "5000 digits" in err
        assert len(err.encode()) < 300


def test_flags_only_on_the_command_that_reads_them():
    assert run_cli(["bounds", "Z6", "{0,1}", "--seed", "1"])[0] == 1
    assert run_cli(["exact", "Z6", "{0,1}", "--seed", "1"])[0] == 1
    assert run_cli(["verify", "Z6", "{0,1}", "{0}", "--budget-ms", "5"])[0] == 1
    assert run_cli(["table", "--budget-ms", "5"])[0] == 1


# Each is refused by argparse or asks it for help, so main runs no command.
PARSER_ARGVS = [
    [],
    ["--help"],
    ["-h"],
    *([name, "-h"] for name in cli.COMMANDS),
    ["frobnicate", "Z6", "{0,1}"],
    ["--format", "json", "table"],
    ["bounds", "Z6"],
    ["verify", "Z6", "{0,1}"],
    ["bounds", "Z6", "{0,1}", "--format", "yaml"],
    ["construct", "Z6", "{0,1}", "--method", "greedy"],
    ["bounds", "Z6", "{0,1}", "--seed", "1"],
    ["table", "extra"],
    ["exact", "Z6", "{0,1}", "--budget", "0"],  # abbreviates --budget-ms
    ["construct", "Z6", "{0,1}", "--seed", "1_0"],
]


def tree_parse(argv):
    """(exit code or None, stdout, stderr, Namespace or None) of the whole tree."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return None, out.getvalue(), err.getvalue(), cli.build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue(), None


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=" ".join)
def test_main_parses_like_the_full_parser(argv):
    # main reads well-formed calls from COMMANDS itself; every message, usage
    # line and exit code must still be the whole tree's.
    code, out, err, args = tree_parse(argv)
    assert args is None
    assert run_cli(argv) == (code, out, err)


ALL_FLAGS = sorted({option.flag for c in cli.COMMANDS.values() for option in c.options})


@st.composite
def argvs(draw):
    """A well-formed call drawn from COMMANDS, given one fault half the time."""
    name = draw(st.sampled_from([*cli.COMMANDS, "frobnicate"]))
    command = cli.COMMANDS.get(name, cli.COMMANDS["construct"])
    spec = st.sampled_from(["Z6", "{0,1}", "{0,2}", ""])
    pieces = [[draw(spec)] for _ in command.positionals]
    for _ in range(draw(st.integers(0, 4))):  # in any order, repeats allowed
        option = draw(st.sampled_from(command.options))
        pieces.append([option.flag, draw(st.sampled_from(option.choices or ("0", "3", "12")))])
    if draw(st.booleans()):
        flag = draw(st.sampled_from(command.options)).flag
        value = draw(st.sampled_from(["yaml", "1_0", "-1", "", "3"]))
        fault = draw(
            st.sampled_from(
                [
                    [flag, value],
                    [f"{flag}={value}"],
                    [flag[:-1], value],  # an abbreviation
                    [flag],  # no value
                    [draw(st.sampled_from(ALL_FLAGS)), value],  # maybe another command's
                    [draw(spec)],  # one positional too many
                    ["-h"],
                    ["--"],
                    ["--help"],
                    [],  # one positional too few
                ]
            )
        )
        if fault:
            pieces.append(fault)
        elif command.positionals:
            del pieces[0]
    pieces = draw(st.permutations(pieces))
    return [name] + [token for piece in pieces for token in piece]


@settings(max_examples=400, deadline=None)
@given(argvs())
def test_reader_matches_the_tree(argv):
    code, out, err, args = tree_parse(argv)
    if args is None:
        assert run_cli(argv) == (code, out, err)
    else:
        assert vars(cli._parse(argv)) == vars(args)


def _count_parsers(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


def test_well_formed_call_builds_no_parser(monkeypatch):
    built = _count_parsers(monkeypatch)
    for argv in (
        ["exact", "Z6", "{0,1}"],
        ["construct", "Z6", "{0,1}", "--seed", "3", "--method", "search", "--target", "2"],
        ["table", "--format", "csv"],
    ):
        assert run_cli(argv)[0] == 0, argv
    assert built == []


def test_refused_call_builds_only_the_tree(monkeypatch):
    built = _count_parsers(monkeypatch)
    cli.build_parser()
    tree = built[:]
    assert tree[0] == "shiftfree" and len(tree) == 1 + len(cli.COMMANDS)
    built.clear()
    assert run_cli(["exact", "Z6", "{0,1}", "--budget", "0"])[0] == 1
    assert built == tree


def test_internal_error_exits_five(monkeypatch):
    # An avoider the library built that fails its own verification is a bug:
    # exit 5 with one line on stderr, never a traceback.  certify looks
    # verify_avoids up in exact, so every builder goes through the patch.
    def unverified(candidate, pattern):
        return exact.Certificate(candidate, pattern, witness=0)

    def exits_five(argv):
        code, out, err = run_cli(argv)
        assert code == 5, argv
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: internal error")
        assert "Traceback" not in err
        return err

    monkeypatch.setattr(exact, "verify_avoids", unverified)
    for argv in (
        ["construct", "Z4", "{0,2}", "--method", "thm1"],
        ["construct", "Z6", "{0,1}", "--method", "thm2"],
        ["construct", "Z6", "{0,1}", "--method", "search", "--target", "2"],
        ["exact", "Z6", "{0,1}"],
        ["exact", "Z8", "{0,4}"],  # a single coset: no search runs
    ):
        exits_five(argv)
    monkeypatch.undo()

    # construct_thm2 verifies only the lift in G.  A class set of the right
    # size that holds S/H itself lifts to a set holding S: with a greedy that
    # hits nothing, the trim keeps the lowest classes, which hold S/H here.
    monkeypatch.setattr(construct, "_greedy_hitting_set", lambda elem_sets, n_sets: 0)
    for group, pattern in (("Z6", "{0,1}"), ("Z12", "{0,1,6,7}")):  # H trivial, {0,6}
        err = exits_five(["construct", group, pattern, "--method", "thm2"])
        assert "contains the translate" in err


def test_memory_error_exits_three(monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(exact, "exact_N", exhausted)
    code, out, err = run_cli(["exact", "Z6", "{0,1}"])
    assert code == 3
    assert out == ""
    assert err == "error: out of memory\n"


def test_help_exits_zero():
    assert run_cli(["--help"])[0] == 0


def test_group_over_order_cap_exits_one():
    # One past the cap must be refused before any |G|-bit set is built.
    code, out, err = run_cli(["bounds", f"Z{MAX_GROUP_ORDER + 1}", "{0,1}"])
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and str(MAX_GROUP_ORDER) in err
    assert run_cli(["bounds", "Z1000000000000", "{0,1}"])[0] == 1


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports shiftfree from this source tree."""
    src = Path(shiftfree.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )


def test_cli_import_leaves_numpy_unloaded():
    proc = run_fresh(
        "import sys, shiftfree, shiftfree.bounds, shiftfree.construct, shiftfree.exact, "
        "shiftfree.groups, shiftfree.cli; print('numpy' in sys.modules)"
    )
    assert proc.stdout.strip() == "False"


# Modules a call need not load: the value types are plain classes, argparse
# parses only refused argv, table --format csv joins its own rows, and each
# solver loads with the command that runs it.
COLD_START_UNLOADED = {"dataclasses", "argparse", "csv", "shiftfree.exact", "shiftfree.construct"}


def fresh_main(argv: list[str]) -> tuple[int, str, set[str]]:
    """(exit code, stderr, modules it added to sys.modules) of main(argv) in a fresh interpreter.

    Only the difference is kept, so whatever site preloads does not count.
    """
    proc = run_fresh(
        "import sys\n"
        "before = set(sys.modules)\n"
        "from shiftfree.cli import main\n"
        f"code = main({argv!r})\n"
        "print(code, *sorted(set(sys.modules) - before))\n"
    )
    code, *added = proc.stdout.splitlines()[-1].split()
    return int(code), proc.stderr, set(added)


def test_bounds_call_loads_only_what_it_runs():
    code, _, added = fresh_main(["bounds", "Z6", "{0,1}", "--format", "json"])
    assert code == 0 and {"shiftfree.cli", "shiftfree.bounds"} <= added
    assert not added & COLD_START_UNLOADED


@pytest.mark.parametrize(
    "argv",
    [["exact", "Z6", "{0,1}"], ["verify", "Z6", "{0,1}", "{2,5}"]],
)
def test_exact_and_verify_load_the_solver_only(argv):
    code, _, added = fresh_main(argv)
    assert code == 0 and "shiftfree.exact" in added
    assert not added & (COLD_START_UNLOADED - {"shiftfree.exact"})


def test_construct_and_csv_load_on_their_own_calls():
    assert "shiftfree.construct" in fresh_main(["construct", "Z6", "{0,1}"])[2]
    code, _, added = fresh_main(["table", "--format", "csv"])
    assert code == 0 and not added & COLD_START_UNLOADED


def test_refused_argv_still_gets_argparse_usage():
    code, err, added = fresh_main(["bounds"])
    assert (code, err) == (1, run_cli(["bounds"])[2])
    assert err.startswith("usage: shiftfree bounds") and "argparse" in added


def test_star_import_binds_every_exported_name():
    proc = run_fresh(
        "import sys, shiftfree\n"
        "lazy = 'shiftfree.exact' in sys.modules or 'shiftfree.construct' in sys.modules\n"
        "names = {}\n"
        "exec('from shiftfree import *', names)\n"
        "exported = set(shiftfree.__all__)\n"
        "print(lazy, exported <= set(names), exported <= set(dir(shiftfree)))\n"
    )
    assert proc.stdout.split() == ["False", "True", "True"]


def test_package_has_no_runtime_numpy_and_exports_resolve():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert not any("numpy" in dep for dep in project["dependencies"])
    for name in shiftfree.__all__:
        assert hasattr(shiftfree, name), name


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize(
    "argv",
    [["bounds", "Z6", "{0,1}"], ["construct", "Z16384", "{0,1,5}", "--method", "thm1"]],
)
def test_closed_stdout_exits_one_without_a_traceback(argv, unbuffered):
    # The read end is closed before the child starts, so its first write (or
    # the flush in run) meets a broken pipe.
    src = Path(shiftfree.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(src)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "shiftfree", *argv],
            env=env, stdout=write, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(write)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == ""  # no Traceback and no "Exception ignored" line
