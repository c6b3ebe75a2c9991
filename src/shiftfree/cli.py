"""Command-line interface: bounds, exact, construct, verify, table.

Commands read a group spec like "Z2024" or "Z4xZ2" and a set spec that is
either an explicit list "{0, 1, 5}" (coordinate tuples like "(1,1)" allowed)
or, for cyclic groups, a coset union "cosets(order=8; reps=0,1)".  Output is
text, json, or csv (csv for the table command only); the machine-readable
document goes to stdout, diagnostics to stderr.  Exit codes: 0 success or
verified, 1 usage or parse failure (or stdout closed early), 2 verification
failed, 3 budget exceeded (including out of memory), 4 search exhausted, 5
internal error.

Each command's positionals and options are declared once, as data, in
COMMANDS.  A well-formed call is read straight from that table and builds no
argument parser: it names a command, every token starting with "-" is one of
its exact long flags followed by a value that does not start with "-" and
that the option's converter and choices accept, and the other tokens are
exactly its positionals.  Any other argv (help, --opt=value, abbreviations,
"--", unknown flags, bad values, missing or extra positionals) is parsed by
the argparse tree build_parser makes from the same table, so argparse writes
every help text, usage line and error.  Integer options take ASCII digits
only, as spec numbers do.

argparse is imported only where the reader declines: by build_parser and on
a converter's error path.  Each command handler imports the solver it runs
(exact, construct) when called, so a bounds call loads neither.  csv is never
loaded: no table field needs quoting, so table --format csv joins its rows.

JSON documents are written by _json, which gives the bytes of
json.dumps(doc, indent=2), writes each list of plain ints with one %-format
call and each int, str, None or bool scalar directly.
"""

from __future__ import annotations

import json
import re
import sys
import time
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Optional

from . import __version__
from .bounds import BoundsReport, bounds_report
from .errors import DEFAULT_BUDGET_MS, BudgetExceededError, ParseError, SearchExhaustedError
from .groups import Group, GroupSubset, _close, stabilizer

if TYPE_CHECKING:
    import argparse

__all__ = ["main", "run", "parse_group", "format_group", "parse_set"]

_GROUP_RE = re.compile(r"^[Zz][0-9]+(?:[xX][Zz][0-9]+)*$")
# Deletes ASCII digits, commas and ASCII whitespace.  A body it empties is
# made of those characters only, so int() reads each of its items as the loop
# below does, or refuses it (an empty item, digits split by a space), and the
# loop words that refusal.
_FLAT_BODY_SCREEN = str.maketrans("", "", "0123456789, \t\n\r\x0b\x0c")
_COSETS_RE = re.compile(
    r"^cosets\(\s*order\s*=\s*([0-9]+)\s*;\s*reps\s*=\s*([0-9,\s]+)\)$", re.IGNORECASE
)

BOUND_KEYS = ("thm1_lower", "lemma_lower", "thm2_lower", "upper")


# -- spec parsing -------------------------------------------------------------


def parse_group(text: str) -> Group:
    """Parse "Z2024" or "Z4xZ2" (case-insensitive, whitespace ignored)."""
    compact = "".join(text.split())
    if not _GROUP_RE.match(compact):
        raise ParseError(f"unrecognized group spec {text!r}")
    orders = [_to_int(part[1:], text) for part in re.split("[xX]", compact)]
    if any(m == 0 for m in orders):
        raise ParseError(f"group spec {text!r} has a zero-order factor")
    return Group(orders)


def format_group(group: Group) -> str:
    """Canonical display form; order-1 factors are dropped."""
    nontrivial = [m for m in group.orders if m > 1]
    if not nontrivial:
        return "Z1"
    return "x".join(f"Z{m}" for m in nontrivial)


def parse_set(text: str, group: Group) -> GroupSubset:
    """Parse an explicit element list or a cosets(...) union."""
    stripped = text.strip()
    if stripped.startswith("{"):
        return _parse_explicit(stripped, group)
    if stripped.lower().startswith("cosets"):
        return _parse_cosets(stripped, group)
    raise ParseError(f"unrecognized set spec {text!r}")


def _parse_explicit(text: str, group: Group) -> GroupSubset:
    if not text.endswith("}"):
        raise ParseError(f"set spec {text!r} is missing the closing brace")
    body = text[1:-1].strip()
    if not body:
        return GroupSubset.empty(group)
    if not body.translate(_FLAT_BODY_SCREEN):
        try:
            indices = list(map(int, body.split(",")))
        except ValueError:  # a malformed item or a number over int()'s digit limit
            pass
        else:
            return GroupSubset.from_indices(group, indices)
    # Tuples, other whitespace, malformed specs and every error, item by item.
    indices = []
    for item in _split_top_level(body):
        item = item.strip()
        if not item:
            raise ParseError(f"empty element in set spec {text!r}")
        if item.startswith("("):
            if not item.endswith(")"):
                raise ParseError(f"bad coordinate tuple {item!r}")
            coords = [p.strip() for p in item[1:-1].split(",")]
            if not all(map(_is_number, coords)):
                raise ParseError(f"bad coordinate tuple {item!r}")
            indices.append(group.flat_index([_to_int(p, text) for p in coords]))
        else:
            if not _is_number(item):
                raise ParseError(f"bad element {item!r} in set spec")
            flat = _to_int(item, text)
            group.check_element(flat)
            indices.append(flat)
    return GroupSubset.from_indices(group, indices)


def _is_number(token: str) -> bool:
    """ASCII digits only: int() alone also takes "1_000" and other scripts' digits."""
    return token.isascii() and token.isdigit()


def _to_int(digits: str, spec: str) -> int:
    """Value of an ASCII digit string from spec; int() refuses more than 4,300 digits."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"a number in spec {_clip(spec)} has {len(digits)} digits, too many") from None


def _clip(text: str) -> str:
    """repr of text cut to its first 40 characters, so an error stays one short line."""
    return repr(text if len(text) <= 40 else text[:40] + "...")


def _split_top_level(body: str) -> list[str]:
    items, depth, start = [], 0, 0
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced parentheses in {body!r}")
        elif ch == "," and depth == 0:
            items.append(body[start:i])
            start = i + 1
    if depth != 0:
        raise ParseError(f"unbalanced parentheses in {body!r}")
    items.append(body[start:])
    return items


def _parse_cosets(text: str, group: Group) -> GroupSubset:
    match = _COSETS_RE.match(text)
    if not match:
        raise ParseError(f"unrecognized coset spec {text!r}")
    if sum(m > 1 for m in group.orders) > 1:
        raise ParseError("cosets(...) specs are only defined for cyclic groups")
    order = _to_int(match.group(1), text)
    reps = [p.strip() for p in match.group(2).split(",") if p.strip()]
    if not reps:
        raise ParseError(f"coset spec {text!r} lists no representatives")
    if not all(map(_is_number, reps)):
        raise ParseError(f"bad representative in coset spec {text!r}")
    if order < 1 or group.size % order != 0:
        raise ParseError(f"subgroup order {order} does not divide the group order {group.size}")
    return _coset_union(group, order, [_to_int(p, text) for p in reps])


def _coset_union(group: Group, order: int, reps: Iterable[int]) -> GroupSubset:
    """Union of the cosets r + H over reps, H the order-`order` subgroup of a cyclic group."""
    # The one nontrivial factor has stride 1, so H is generated by g/order
    # (taken mod g: order 1 gives the generator 0).
    bits = GroupSubset.from_indices(group, reps).bits
    return GroupSubset(group, _close(group, bits, [group.size // order % group.size]))


# -- document building --------------------------------------------------------


def _group_doc(group: Group) -> dict:
    return {"orders": list(group.orders), "size": group.size}


def _subset_doc(subset: GroupSubset) -> dict:
    return {"elements": subset.indices(), "size": subset.size}


def _meta_doc(seed: Optional[int]) -> dict:
    return {"seed": seed, "version": __version__}


def _bounds_doc(report: BoundsReport) -> dict:
    return {key: getattr(report, key) for key in (*BOUND_KEYS, "best_lower")}


def _coincide(report: BoundsReport) -> list[list[str]]:
    """Names of bounds sharing a value, grouped, in canonical bound order."""
    by_value: dict[int, list[str]] = {}
    for key in BOUND_KEYS:
        by_value.setdefault(getattr(report, key), []).append(key)
    return [names for _, names in sorted(by_value.items()) if len(names) > 1]


def _legend(group: Group) -> str:
    terms = " + ".join(f"{stride}*c{i}" for i, stride in enumerate(group.strides))
    ranges = ", ".join(f"c{i} < {m}" for i, m in enumerate(group.orders))
    return f"flat = {terms} ({ranges})"


def _set_text(elements: list[int]) -> str:
    return "{" + ", ".join(map(str, elements)) + "}"


def _sized(elements: list[int]) -> str:
    return f"{_set_text(elements)} (size {len(elements)})"


def _pattern(args: argparse.Namespace) -> tuple[Group, GroupSubset, dict]:
    """The group and pattern args name, and the group and set keys that open their document."""
    group = parse_group(args.group)
    subset = parse_set(args.set, group)
    return group, subset, {"group": _group_doc(group), "set": _subset_doc(subset)}


def _header(group: Group, doc: dict) -> list[str]:
    """The group, legend and set lines that open every single-pattern text output."""
    return [
        f"group: {format_group(group)} (order {group.size})",
        f"legend: {_legend(group)}",
        f"set: {_sized(doc['set']['elements'])}",
    ]


# -- commands -----------------------------------------------------------------


def _cmd_bounds(args: argparse.Namespace) -> int:
    group, subset, doc = _pattern(args)
    report = bounds_report(subset)
    sub = stabilizer(subset)
    doc |= {
        "stabilizer": {"elements": sub.indices(), "order": sub.order},
        "transversal_size": report.transversal_size,
        "bounds": _bounds_doc(report),
        "coincide": _coincide(report),
        "meta": _meta_doc(None),
    }

    def text(doc: dict) -> list[str]:
        lines = _header(group, doc) + [
            f"stabilizer: {_set_text(doc['stabilizer']['elements'])} (order {sub.order})",
            f"transversal size: {report.transversal_size}",
        ]
        lines += [f"{key}: {value}" for key, value in doc["bounds"].items()]
        groups = doc["coincide"]
        lines.append("coincide: " + ("; ".join("=".join(g) for g in groups) if groups else "none"))
        return lines

    _emit(args, doc, text)
    return 0


def _cmd_exact(args: argparse.Namespace) -> int:
    group, subset, doc = _pattern(args)
    report = bounds_report(subset)
    sub = stabilizer(subset)
    doc |= {
        "stabilizer": {"elements": sub.indices(), "order": sub.order},
        "bounds": _bounds_doc(report),
        "meta": _meta_doc(None),
    }

    def text(doc: dict) -> list[str]:
        lines = _header(group, doc) + [
            f"stabilizer: {_set_text(doc['stabilizer']['elements'])} (order {sub.order})",
            "bounds: " + " ".join(f"{k}={doc['bounds'][k]}" for k in BOUND_KEYS),
        ]
        if "exact" in doc:
            ex = doc["exact"]
            lines += [
                f"N: {ex['n']}",
                f"method: {ex['method']}",
                f"avoider: {_sized(ex['avoider'])}",
                f"hitting_set: {_sized(ex['hitting_set'])}",
                f"nodes: {ex['nodes']}",
            ]
        return lines

    from .exact import exact_N

    started = time.monotonic()
    try:
        result = exact_N(subset, budget_ms=args.budget_ms)
    except BudgetExceededError:
        _emit(args, doc, text)  # the bounds still print; main words the error
        raise
    doc["exact"] = {
        "n": result.n_value,
        "method": "corollary" if report.s == report.h else "hitting-set",
        "avoider": result.max_avoider.indices(),
        "hitting_set": result.min_hitting_set.indices(),
        "nodes": result.nodes,
    }
    _emit(args, doc, text)
    print(f"solve time: {(time.monotonic() - started) * 1000:.1f} ms", file=sys.stderr)
    return 0


def _cmd_construct(args: argparse.Namespace) -> int:
    from .construct import construct_thm1, construct_thm2, search_avoider

    group, subset, doc = _pattern(args)
    if args.method != "search":
        if args.target is not None:
            raise ParseError("--target only applies to --method search")
        cert = (construct_thm1 if args.method == "thm1" else construct_thm2)(subset)
    elif args.target is None:
        raise ParseError("--method search requires --target")
    else:
        cert = search_avoider(subset, args.target, seed=args.seed, budget_ms=args.budget_ms)
    doc |= {
        "certificate": {
            "method": args.method,
            "elements": cert.avoiding_set.indices(),
            "size": cert.size,
            "verified": cert.verified,
            "witness": cert.witness,
        },
        "meta": _meta_doc(args.seed),
    }

    def text(doc: dict) -> list[str]:
        cd = doc["certificate"]
        return _header(group, doc) + [
            f"method: {cd['method']}",
            f"avoider: {_sized(cd['elements'])}",
            f"verified: {str(cd['verified']).lower()}",
        ]

    _emit(args, doc, text)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .exact import verify_avoids

    group, subset, doc = _pattern(args)
    candidate = parse_set(args.candidate, group)
    cert = verify_avoids(candidate, subset)
    doc |= {
        "candidate": _subset_doc(candidate),
        "verified": cert.verified,
        "witness": cert.witness,
        "meta": _meta_doc(None),
    }

    def text(doc: dict) -> list[str]:
        lines = _header(group, doc) + [
            f"candidate: {_sized(doc['candidate']['elements'])}",
            f"verified: {str(cert.verified).lower()}",
        ]
        if cert.witness is not None:
            translate = subset.translate(cert.witness).indices()
            lines += [f"witness: {cert.witness}", f"contained translate: {_set_text(translate)}"]
        return lines

    _emit(args, doc, text)
    return 0 if cert.verified else 2


def _table_rows() -> tuple[Group, list[dict]]:
    group = Group([2024])
    rows = []
    for n in range(1, 11):
        report = bounds_report(_coset_union(group, 8, range(n)))
        rows.append(
            {
                "n": n,
                "s": report.s,
                "h": report.h,
                "thm2_lower": report.thm2_lower,
                "upper": report.upper,
                "exact": report.exact_value,
            }
        )
    return group, rows


def _cmd_table(args: argparse.Namespace) -> int:
    group, rows = _table_rows()
    doc = {"group": _group_doc(group), "table": rows, "meta": _meta_doc(None)}

    def text(doc: dict) -> list[str]:
        lines = []
        for row in doc["table"]:
            if row["exact"] is not None:
                lines.append(f"n={row['n']}: ={row['exact']}")
            else:
                lines.append(f"n={row['n']}: [{row['thm2_lower']}, {row['upper']}]")
        return lines

    def as_csv(doc: dict) -> list[str]:
        """A header and one line per row; no field, an int or empty, needs quoting."""
        lines = [",".join(doc["table"][0])]
        for row in doc["table"]:
            lines.append(",".join("" if v is None else str(v) for v in row.values()))
        return lines

    _emit(args, doc, text, as_csv)
    return 0


# -- plumbing -----------------------------------------------------------------


def _json(doc, pad: str = "\n") -> str:
    """json.dumps(doc, indent=2) for documents with str keys, written without its generator.

    json.dumps with an indent runs the pure-Python encoder, one generator
    step per list item; a list of plain ints is written here by one
    %-format call, and int, str, None and bool scalars directly.
    """
    inner = pad + "  "
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        items = [f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in doc.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(doc, (list, tuple)):
        if not doc:
            return "[]"
        if set(map(type, doc)) == {int}:  # bool is not int here: it prints as true/false
            template = "[" + inner + ("%d," + inner) * (len(doc) - 1) + "%d" + pad + "]"
            return template % tuple(doc)
        return "[" + inner + ("," + inner).join([_json(v, inner) for v in doc]) + pad + "]"
    # The common scalars; json.dumps builds an encoder per call.
    if type(doc) is int:
        return int.__repr__(doc)
    if type(doc) is str:
        return encode_basestring_ascii(doc)
    if doc is None:
        return "null"
    if doc is True or doc is False:
        return "true" if doc else "false"
    return json.dumps(doc)


def _emit(args: argparse.Namespace, doc: dict, text_fn, csv_fn=None) -> None:
    if args.format == "json":
        print(_json(doc))
    else:
        print("\n".join((csv_fn if args.format == "csv" else text_fn)(doc)))


def _refuse(message: str) -> Exception:
    """The argparse.ArgumentTypeError a converter raises, imported only on this error path."""
    import argparse

    return argparse.ArgumentTypeError(message)


def _option_int(name: str, value: str) -> int:
    """An option's integer, read as spec numbers are: ASCII digits, at most 4,300 of them."""
    if not _is_number(value):
        raise _refuse(f"{name} must be the digits 0-9 only, got {_clip(value)}")
    try:
        return int(value)
    except ValueError:
        raise _refuse(f"{name} has {len(value)} digits, too many") from None


def _seed(value: str) -> int:
    seed = _option_int("seed", value)
    if seed >= 2**64:
        raise _refuse(f"seed {_clip(value)} does not fit in 64 bits")
    return seed


def _budget(value: str) -> int:
    budget = _option_int("budget", value)
    if budget < 1:
        raise _refuse(f"budget must be >= 1, got {_clip(value)}")
    return budget


def _target(value: str) -> int:
    return _option_int("target", value)


class Option(NamedTuple):
    """One --flag VALUE option; the fields after flag are add_argument's keywords."""

    flag: str
    type: Optional[Callable[[str], object]] = None  # the converter
    choices: Optional[tuple[str, ...]] = None
    default: object = None
    help: Optional[str] = None
    metavar: Optional[str] = None

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


class Command(NamedTuple):
    """One subcommand: its help line, positional names, options and handler."""

    help: str
    positionals: tuple[str, ...]
    options: tuple[Option, ...]
    handler: Callable[[argparse.Namespace], int]


_FORMAT = Option("--format", choices=("text", "json", "csv"), default="text")
_BUDGET = Option(
    "--budget-ms",
    _budget,
    default=DEFAULT_BUDGET_MS,
    help="wall-clock budget for the exact solver in milliseconds",
    metavar="N",
)
_PATTERN = ("group", "set")

# Every command, in help order; the only place its arguments are declared.
# --format comes first in each, as in its help.
COMMANDS = {
    "bounds": Command("all four bounds for a pattern", _PATTERN, (_FORMAT,), _cmd_bounds),
    "exact": Command("exact N by hitting-set solve", _PATTERN, (_FORMAT, _BUDGET), _cmd_exact),
    "construct": Command(
        "build a certified avoiding set",
        _PATTERN,
        (
            _FORMAT,
            Option("--method", choices=("thm1", "thm2", "search"), default="thm2"),
            Option("--target", _target, help="avoider size for --method search"),
            Option("--seed", _seed, default=0, help="seed for --method search only"),
            _BUDGET,
        ),
        _cmd_construct,
    ),
    "verify": Command(
        "check a candidate avoiding set", (*_PATTERN, "candidate"), (_FORMAT,), _cmd_verify
    ),
    "table": Command("bounds table for Z2024 coset unions", (), (_FORMAT,), _cmd_table),
}


def _fill(parser: argparse.ArgumentParser, command: Command) -> None:
    """Give parser the options and positionals command declares."""
    for option in command.options:
        keywords = option._asdict()
        parser.add_argument(keywords.pop("flag"), **keywords)
    for name in command.positionals:
        parser.add_argument(name)


def build_parser() -> argparse.ArgumentParser:
    """The whole command tree: a top-level parser with one subparser per command."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message: str):
            self.print_usage(sys.stderr)
            print(f"error: {message}", file=sys.stderr)
            raise SystemExit(1)

    parser = _Parser(prog="shiftfree", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        _fill(sub.add_parser(name, help=command.help), command)
    return parser


def _read(argv: list[str]) -> Optional[SimpleNamespace]:
    """The attributes of the tree's Namespace for a well-formed command call, else None.

    Well formed: argv names a command, every token starting with "-" is one of
    its exact long flags, each followed by a value that does not start with
    "-" and that passes the option's converter and choices, and the remaining
    tokens are its positionals, as many as it declares.  argparse reads such
    an argv the same way; a repeated option keeps its last value.  Any
    converter error declines: the tree converts the value again, and words
    the refusal or re-raises.
    """
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    flags = {option.flag: option for option in command.options}
    values = {option.dest: option.default for option in command.options}
    positionals = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        option, value = flags.get(token), next(tokens, None)
        if option is None or value is None or value.startswith("-"):
            return None
        if option.type is not None:
            try:
                value = option.type(value)
            except Exception:
                return None
        if option.choices is not None and value not in option.choices:
            return None
        values[option.dest] = value
    if len(positionals) != len(command.positionals):
        return None
    values.update(zip(command.positionals, positionals))
    return SimpleNamespace(command=argv[0], **values)


def _parse(argv: list[str]) -> argparse.Namespace | SimpleNamespace:
    """build_parser().parse_args(argv), which runs only where _read declines.

    The tree words every refusal and help request, so its messages, usage
    lines and exit codes (raised as SystemExit) are the only ones.
    """
    args = _read(argv)
    return build_parser().parse_args(argv) if args is None else args


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    name = args.command
    if args.format == "csv" and name != "table":
        print("error: csv format is only available for the table command", file=sys.stderr)
        return 1
    try:
        return COMMANDS[name].handler(args)
    except ValueError as exc:  # every input error of the library subclasses it
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SearchExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3
    except AssertionError as exc:
        print(f"error: internal error: {exc}", file=sys.stderr)
        return 5


def run() -> None:
    """The console entry point: main's exit code, or 1 once stdout is closed.

    Stdout is flushed inside the try, so the interpreter's own flush at exit
    finds nothing left.  After a broken pipe stdout points at os.devnull, and
    the process exits 1 with nothing on stderr.
    """
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)
