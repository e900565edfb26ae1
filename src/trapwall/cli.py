"""Command line front end: convert numerals, compute bisectors, run the searches.

Exit codes: 0 success, 1 clean no-solution, 2 input syntax, 3 representation
failure (value has no exact base-60 form, or an integer to print has more
digits than int() writes out), 4 domain violation, 141 (128 + SIGPIPE) the
reader of stdout closed it before the output ended.
"""

from __future__ import annotations

import argparse
import gettext
import json
import math
import os
import re
import sys
from fractions import Fraction

from . import geometry, party_wall, wall_solver
from .errors import (
    DigitLimitError,
    NonTerminatingError,
    ParseError,
    PlacesExceededError,
    TrapwallError,
)
from .party_wall import PartyWallPlan
from .sexagesimal import (
    MAX_EXACT_PLACES,
    check_int,
    parse_sex,
    rational_to_sex,
    sqrt_sex,
    truncate_sex,
)

EXIT_OK = 0
EXIT_NO_SOLUTION = 1
EXIT_BROKEN_PIPE = 128 + 13  # 128 + SIGPIPE, as a shell reports a process that signal killed

DEFAULT_PLACES = 5

# Values that are not numerals are p/q or an integer in ASCII digits, and integer
# arguments take the same digits: not all that Fraction() and int() read.
RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?\Z")
_INTEGER_RE = re.compile(r"[+-]?[0-9]+\Z")
_NEGATIVE_RE = re.compile(r"-[0-9]")


def _too_many_digits() -> str:
    # int() refuses text of more digits than this limit (4,300 unless changed).
    return f"more than {sys.get_int_max_str_digits()} digits in one number"


def parse_value(text: str) -> Fraction:
    """Read a number as sexagesimal ("1;40", "2,53,20") or as "p/q" / integer."""
    text = text.strip()
    if RATIONAL_RE.match(text):
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ParseError("zero denominator") from None
        except ValueError:
            raise ParseError(_too_many_digits()) from None
    if "/" in text:
        raise ParseError(f"malformed ratio {text!r}")
    return parse_sex(text)


def _text(x: Fraction | int) -> str:
    """str(x), the one writer of the CLI's decimal integers, refused past int()'s limit."""
    try:
        return str(x)
    except ValueError:
        raise DigitLimitError(f"cannot write the value out: {_too_many_digits()}") from None


def _fixed_point(scaled: int, places: int) -> str:
    """The nonnegative scaled / 10**places as text with `places` decimals."""
    if places == 0:
        return _text(scaled)
    whole, digits = divmod(scaled, 10**places)
    return f"{_text(whole)}.{digits:0{places}d}"


def _decimal_str(x: Fraction, places: int) -> str:
    scaled = abs(x.numerator) * 10**places // x.denominator
    text = _fixed_point(scaled, places)
    # A value that truncates to zero prints unsigned, as base-60 output does.
    return f"-{text}" if x < 0 and scaled else text


def _decimal_sqrt_str(x: Fraction, places: int) -> str:
    return _fixed_point(math.isqrt(x.numerator * 10 ** (2 * places) // x.denominator), places)


def _exact_sex(x: Fraction, places: int = MAX_EXACT_PLACES) -> str | None:
    """x's exact base-60 text within `places` fractional places, or None."""
    try:
        return rational_to_sex(x, places)
    except (NonTerminatingError, PlacesExceededError):
        return None


def _places(args: argparse.Namespace) -> int:
    """The fractional places of truncated output: --places, or DEFAULT_PLACES without it."""
    return DEFAULT_PLACES if args.places is None else args.places


def render(x: Fraction, args: argparse.Namespace) -> str:
    """One exact value as table text in args' numeral mode; trace steps render here too."""
    if args.numeral == "rat":
        return _text(x)
    if args.numeral == "dec":
        return f"{_decimal_str(x, _places(args))} (approx)"
    # No exact form within MAX_EXACT_PLACES means none within _places(args) <= MAX_EXACT_PLACES.
    text = _exact_sex(x)
    return text if text is not None else f"{truncate_sex(x, _places(args))} (truncated)"


def value_record(x: Fraction) -> dict:
    """The JSON shape for one exact value: rational always, base-60 when it exists."""
    return {"rational": _text(x), "sexagesimal": _exact_sex(x)}


def cmd_convert(args: argparse.Namespace) -> int:
    value = parse_value(args.value)
    if args.format == "table" and args.numeral != "sex":
        print(render(value, args))
        return EXIT_OK
    if args.places is None:
        # Nothing asked for a truncation, and JSONL prints the base-60 text
        # whatever --numeral says: a value with no exact form is exit 3.
        sex_text = rational_to_sex(value, MAX_EXACT_PLACES)
    else:
        sex_text = _exact_sex(value, args.places)
    truncated = sex_text is None
    if truncated:
        sex_text = truncate_sex(value, args.places)
    if args.format == "jsonl":
        record = {"rational": _text(value), "sexagesimal": sex_text, "truncated": truncated}
        print(json.dumps(record))
    else:
        print(f"{sex_text} (truncated)" if truncated else sex_text)
    return EXIT_OK


def cmd_bisect(args: argparse.Namespace) -> int:
    upper = parse_value(args.upper)
    lower = parse_value(args.lower)
    result = geometry.transversal_bisector(upper, lower)
    if args.format == "jsonl":
        record = {
            "d_sq": value_record(result.value_sq),
            "d": value_record(result.exact_root) if result.exact_root is not None else None,
            "d_truncated": None
            if result.exact_root is not None
            else sqrt_sex(result.value_sq, _places(args)),
        }
        print(json.dumps(record))
        return EXIT_OK
    # Both lines are text before either prints: a refused value leaves stdout empty.
    square = render(result.value_sq, args)
    if result.exact_root is not None:
        root = render(result.exact_root, args)
    elif args.numeral == "rat":
        root = f"sqrt({square})"
    elif args.numeral == "dec":
        root = f"{_decimal_sqrt_str(result.value_sq, _places(args))} (approx)"
    else:
        root = f"{sqrt_sex(result.value_sq, _places(args))} (truncated)"
    print(f"d^2 = {square}\nd = {root}")
    return EXIT_OK


def _trapezoid(args: argparse.Namespace) -> geometry.Trapezoid:
    return geometry.Trapezoid(
        parse_value(args.upper), parse_value(args.lower), parse_value(args.height)
    )


def cmd_strips(args: argparse.Namespace) -> int:
    trap = _trapezoid(args)
    n = args.n
    check_int(n, "strip count", 1)
    if args.format != "jsonl":
        print("k\td\tS\tS'")
    for k in range(n + 1):
        d = geometry.transversal_at(trap, k, n)
        left = geometry.cumulative_area(trap, k, n)
        right = geometry.complement_area(trap, k, n)
        if args.format == "jsonl":
            record = {
                "k": k,
                "d": value_record(d),
                "S": value_record(left),
                "S_prime": value_record(right),
            }
            print(json.dumps(record))
        else:
            print(f"{k}\t{render(d, args)}\t{render(left, args)}\t{render(right, args)}")
    return EXIT_OK


_PLAN_KEYS = (
    ("c", "left_edge"),
    ("e", "right_edge"),
    ("d_mid", "midline"),
    ("x", "edge_diff"),
    ("h0", "wall_thickness"),
    ("h1", "left_height"),
    ("h2", "right_height"),
    ("S_left", "left_area"),
    ("S_wall", "wall_area"),
    ("S_right", "right_area"),
)


def plan_record(plan: PartyWallPlan) -> dict:
    return {key: value_record(getattr(plan, attr)) for key, attr in _PLAN_KEYS}


def cmd_wall(args: argparse.Namespace) -> int:
    trap = _trapezoid(args)
    indices = wall_solver.solve_k0(trap.upper, trap.lower, args.n)
    if not indices:
        stream = sys.stderr if args.format == "jsonl" else sys.stdout
        print("no admissible wall", file=stream)
        return EXIT_NO_SOLUTION
    # Every line is text before the first prints: a refused value leaves stdout empty.
    lines = []
    for k0 in indices:
        plan = party_wall.plan_wall(trap, args.n, k0)
        # geometry's closed-form areas share no code with the quadratic, so equal
        # shares confirm k0; an explicit raise, so that python -O keeps the check.
        if plan.left_area != plan.right_area:
            raise AssertionError(f"unequal shares at k0={k0}, n={args.n}")
        if args.format == "jsonl":
            record = {"k0": k0}
            record.update(plan_record(plan))
            lines.append(json.dumps(record))
        else:
            lines.append(f"k0 = {k0}")
            lines.extend(f"{key} = {render(getattr(plan, attr), args)}" for key, attr in _PLAN_KEYS)
    print("\n".join(lines))
    return EXIT_OK


def cmd_search(args: argparse.Namespace) -> int:
    hits = wall_solver.search_hits(
        args.r_lo, args.r_hi, args.n_lo, args.n_hi, regular_only=args.regular_only
    )
    cases = (args.r_hi - args.r_lo + 1) * (args.n_hi - args.n_lo + 1)
    if args.format == "jsonl":
        for hit in hits:
            print(json.dumps(hit._asdict()))
        print(json.dumps({"cases": cases, "hits": len(hits)}))
    else:
        print("\t".join(wall_solver.SearchHit._fields))
        for hit in hits:
            print(f"{hit.r}\t{hit.n}\t{hit.k0}\t{'yes' if hit.n_regular else 'no'}")
        print(f"{cases} cases, {len(hits)} hits")
    return EXIT_OK


def cmd_smt26(args: argparse.Namespace) -> int:
    if args.part == "reverse":
        steps = party_wall.scribe_trace_smt26()
    else:
        steps = party_wall.scribe_trace_obverse1()
    for step in steps:
        if args.format == "jsonl":
            record = {"label": step.label, "description": step.description}
            record.update(value_record(step.value), truncated=step.truncated)
            print(json.dumps(record))
        else:
            suffix = " (truncated)" if step.truncated else ""
            print(f"{step.label}\t{step.description}\t{render(step.value, args)}{suffix}")
    return EXIT_OK


def _integer(text: str, refusal: str = "invalid int value:") -> int:
    """text as an int if it is ASCII digits with an optional sign, else the refusal.

    The default refusal is argparse's own text for a value that type=int refuses.
    Digits past int()'s limit are refused with that limit.
    """
    digits = text.strip()
    if not _INTEGER_RE.match(digits):
        raise argparse.ArgumentTypeError(f"{refusal} {text!r}")
    try:
        return int(digits)
    except ValueError:
        raise argparse.ArgumentTypeError(_too_many_digits()) from None


def _places_flag(text: str) -> int:
    value = _integer(text, "invalid places")
    if not 0 <= value <= MAX_EXACT_PLACES:
        raise argparse.ArgumentTypeError(f"places must be in 0..{MAX_EXACT_PLACES}")
    return value


_TRAPEZOID_ARGS = ("upper", "lower", "height", "n")
_INTEGER_ARGS = {"n", "r_lo", "r_hi", "n_lo", "n_hi"}
# Each command's name, help line, handler and positional arguments.
_COMMANDS = {
    "convert": ("convert between numeral systems", cmd_convert, ("value",)),
    "bisect": ("transversal bisector of a trapezoid", cmd_bisect, ("upper", "lower")),
    "strips": ("transversals and strip areas", cmd_strips, _TRAPEZOID_ARGS),
    "wall": ("solve for a bisecting party wall", cmd_wall, _TRAPEZOID_ARGS),
    "search": ("scan ratios and strip counts", cmd_search, ("r_lo", "r_hi", "n_lo", "n_hi")),
    "smt26": ("replay the tablet's computations", cmd_smt26, ()),
}
_NUMERAL_COMMANDS = {"convert", "bisect", "strips", "wall"}


def _add_command_arguments(p: argparse.ArgumentParser, name: str) -> None:
    """Give p the options, positionals and defaults of the command `name`."""
    _, handler, positionals = _COMMANDS[name]
    # A private argparse attribute, pinned by tests: "-5/13" and "-1;40" are values.
    p._negative_number_matcher = _NEGATIVE_RE
    # The groups that ArgumentParser._add_action files each argument under, pinned
    # by tests: a group has no _get_formatter, so adding through it builds no
    # HelpFormatter per argument to check metavar tuples that trapwall never passes.
    options, positional_args = p._optionals, p._positionals
    # -h as argparse's constructor adds it, with its own text. Every command's
    # parser is made with add_help=False: the constructor's add_argument would
    # build a HelpFormatter (and probe the terminal's size) for it.
    options.add_argument(
        "-h",
        "--help",
        action="help",
        default=argparse.SUPPRESS,
        help=gettext.gettext("show this help message and exit"),
    )
    options.add_argument("--format", choices=("table", "jsonl"), default="table")
    if name in _NUMERAL_COMMANDS:
        options.add_argument("--numeral", choices=("sex", "rat", "dec"))
        options.add_argument("--places", type=_places_flag)
    for arg in positionals:
        positional_args.add_argument(arg, type=_integer if arg in _INTEGER_ARGS else None)
    # search prints integers and smt26 the tablet's exact base-60 values, so
    # neither takes --numeral or --places; render reads both defaults.
    p.set_defaults(handler=handler, numeral="sex", places=None)
    if name == "search":
        options.add_argument("--regular-only", action="store_true")
    elif name == "smt26":
        options.add_argument("--part", choices=("reverse", "obverse1"), default="reverse")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of the arguments after a command's name, or without one, of all six.

    The command's own parser is the subparser that the full parser would
    use, as a parser of its own (prog "trapwall <command>"): it parses and
    refuses what follows the name as the full parser does, except that it
    refuses unknown arguments under its own usage line, not the full parser's.
    """
    if command is not None:
        parser = argparse.ArgumentParser(prog=f"trapwall {command}", add_help=False)
        _add_command_arguments(parser, command)
        return parser
    parser = argparse.ArgumentParser(
        prog="trapwall",
        description="Exact trapezoid bisection by transversal strips, in base 60.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        _add_command_arguments(sub.add_parser(name, help=help_text, add_help=False), name)
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    """Run the parsed command; a refused input exits with its error type's exit code."""
    try:
        return args.handler(args)
    except TrapwallError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # One parser per call: a command's own refuses what it does not know under its
    # own usage line, and the full parser takes help and errors before a command name.
    if argv and argv[0] in _COMMANDS:
        return _dispatch(build_parser(argv[0]).parse_args(argv[1:]))
    return _dispatch(build_parser().parse_args(argv))


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left (`trapwall strips ... | head -1`). Point stdout at
        # devnull so that the flush at interpreter exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)
