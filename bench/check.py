"""Independent checks of one command's output.

Everything is recomputed here with ``abelian`` and plain Python ints; nothing
from the shiftfree package (and none of its caches) is consulted.  ``judge``
returns "ok", "timeout" (exit 3 from `exact`: a bounded answer, not a wrong
one), "wrong" (an answer that fails a check) or "error" (any other exit code
or an output that does not parse).
"""

from __future__ import annotations

import json

from abelian import Abelian, to_bits

# `shiftfree table`: Z2024, S = n cosets of the order-8 subgroup, n = 1..10.
TABLE_ROWS = [
    {"n": n, "s": 8 * n, "h": 8, "thm2_lower": lo, "upper": up, "exact": lo if lo == up else None}
    for n, lo, up in [
        (1, 1772, 1772), (2, 1787, 1898), (3, 1812, 1940), (4, 1835, 1961), (5, 1855, 1974),
        (6, 1872, 1982), (7, 1886, 1988), (8, 1898, 1993), (9, 1908, 1996), (10, 1917, 1999),
    ]
]


class CheckFailed(Exception):
    """An output contradicts what the benchmark recomputed."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def root_ceiling_ok(t: int, target: int, root: int) -> bool:
    """t is the least positive integer with t**root >= target."""
    return t >= 1 and t**root >= target and (t == 1 or (t - 1) ** root < target)


def check_bounds(b: dict, g: int, s: int, h: int) -> None:
    """All four bounds, from g, s and an independently computed h."""
    _require(b["thm1_lower"] == g - g // h + 1, "thm1_lower")
    _require(b["upper"] == (s - 1) * g // s + 1, "upper")
    _require(root_ceiling_ok(b["lemma_lower"], h * g ** (s - 1), s), "lemma_lower root")
    _require(root_ceiling_ok(b["thm2_lower"] - (g - g // h), (g // h) ** (s - h), s), "thm2_lower root")
    _require(b["best_lower"] == max(b["thm1_lower"], b["lemma_lower"], b["thm2_lower"]), "best_lower")


def _check_input_echo(doc: dict, op) -> None:
    _require(doc["group"]["orders"] == list(op.orders), "group echo")
    _require(doc["set"]["elements"] == op.elements, "set echo")
    _require(doc["set"]["size"] == len(op.elements), "set size echo")


def _as_bits(grp: Abelian, elements: list) -> int:
    _require(elements == sorted(set(elements)), "element list not sorted and distinct")
    _require(all(0 <= a < grp.size for a in elements), "element outside the group")
    return to_bits(elements)


def _check_bounds_doc(doc: dict, op, grp: Abelian, h: int) -> None:
    _require(doc["stabilizer"]["order"] == h, "stabilizer order")
    _require(len(doc["stabilizer"]["elements"]) == h, "stabilizer elements")
    check_bounds(doc["bounds"], grp.size, len(op.elements), h)


def _check_exact(doc: dict, op, rc: int, grp: Abelian, h: int) -> str:
    _check_bounds_doc(doc, op, grp, h)
    if rc == 3:
        _require("exact" not in doc, "partial exact answer on timeout")
        return "timeout"
    ex = doc["exact"]
    n, b = ex["n"], doc["bounds"]
    _require(b["thm2_lower"] <= n <= b["upper"], "N outside [thm2_lower, upper]")
    avoider = _as_bits(grp, ex["avoider"])
    _require(len(ex["avoider"]) == n - 1, "avoider size != N - 1")
    _require(_as_bits(grp, ex["hitting_set"]) == grp.full ^ avoider, "hitting set != complement")
    _require(grp.contained_translate(to_bits(op.elements), avoider) is None, "avoider holds a translate")
    return "ok"


def _check_construct(doc: dict, op, grp: Abelian, h: int) -> str:
    g, s = grp.size, len(op.elements)
    cert = doc["certificate"]
    _require(cert["verified"] is True and cert["witness"] is None, "certificate not verified")
    avoider = _as_bits(grp, cert["elements"])
    _require(cert["size"] == len(cert["elements"]), "certificate size field")
    if op.method == "thm1":
        _require(cert["size"] == g - g // h, "thm1 size != g - g/h")
    else:
        ceiling = cert["size"] + 1 - (g - g // h)
        _require(root_ceiling_ok(ceiling, (g // h) ** (s - h), s), "thm2 size != thm2_lower - 1")
    _require(grp.contained_translate(to_bits(op.elements), avoider) is None, "avoider holds a translate")
    return "ok"


def judge(op, rc: int, stdout: str) -> tuple[str, str, int | None]:
    """(status, reason, stabilizer order of the pattern) for one op's exit code and stdout."""
    grp = h = None
    if op.command != "table":
        grp = Abelian(op.orders)
        h = grp.stabilizer_order(op.elements)
    expected = {0, 3} if op.command == "exact" else {0}
    if rc not in expected:
        return "error", f"exit code {rc}", h
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "error", "stdout is not one JSON document", h
    try:
        if op.command == "table":
            _require(doc["table"] == TABLE_ROWS, "table rows differ from the reference")
            return "ok", "", h
        _check_input_echo(doc, op)
        if op.command == "bounds":
            _check_bounds_doc(doc, op, grp, h)
            return "ok", "", h
        if op.command == "exact":
            return _check_exact(doc, op, rc, grp, h), "", h
        return _check_construct(doc, op, grp, h), "", h
    except CheckFailed as exc:
        return "wrong", str(exc), h
    except (KeyError, TypeError) as exc:
        return "wrong", f"malformed output: {exc!r}", h
