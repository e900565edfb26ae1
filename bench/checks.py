"""Independent checks of trapwall's command output.

Nothing here imports trapwall. Every expected value is recomputed from first
principles with `fractions.Fraction` and plain integers, and every numeral the
program prints is re-read by this module's own base-60 parser. A check raises
`CheckError` with a reason when an output is wrong.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

BASE = 60
EXACT_PLACES = 20  # the CLI renders a value exactly when it needs at most this many places
TRUNCATED = " (truncated)"

# Table 1 of the paper: every admissible (r, n, k0) with r in 2..20, n in 3..1000.
TABLE1 = (
    (2, 37, 16), (3, 17, 7), (3, 305, 117), (4, 65, 24), (5, 10, 4), (6, 25, 9),
    (8, 35, 12), (9, 20, 7), (12, 11, 4), (13, 246, 78), (15, 511, 160), (17, 8, 3),
    (17, 505, 157), (18, 89, 28),
)
# The hits of the criterion-2 window (r 2..211, n 3..1000) with r > 133.
CRITERION2_EXTRA = ((148, 273, 81), (157, 39, 12), (172, 555, 164), (173, 314, 93), (211, 175, 52))
CRITERION2_WINDOW = (2, 211, 3, 1000)
CRITERION2_HITS = 37


class CheckError(Exception):
    """An output line disagrees with the independently computed value."""


def require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckError(reason)


# --- base-60 numerals -------------------------------------------------------


def _digit(token: str) -> int:
    require(token.isdigit() and (token == "0" or token[0] != "0"), f"bad digit {token!r}")
    value = int(token)
    require(value < BASE, f"digit {value} exceeds 59")
    return value


def parse_sexagesimal(text: str) -> tuple[Fraction, int]:
    """The exact value of a numeral such as "-1;12,30", and its number of places."""
    sign = -1 if text.startswith("-") else 1
    whole, _, frac = text.lstrip("-").partition(";")
    value = 0
    for token in whole.split(","):
        value = value * BASE + _digit(token)
    digits = [_digit(token) for token in frac.split(",")] if frac else []
    scaled = 0
    for digit in digits:
        scaled = scaled * BASE + digit
    return sign * (value + Fraction(scaled, BASE ** len(digits))), len(digits)


def places_needed(x: Fraction) -> int | None:
    """Fractional base-60 places of x's exact expansion; None if it never ends."""
    den = x.denominator
    for prime in (2, 3, 5):
        while den % prime == 0:
            den //= prime
    if den != 1:
        return None
    places = 0
    while BASE**places % x.denominator:
        places += 1
    return places


def is_regular(m: int) -> bool:
    return places_needed(Fraction(1, m)) is not None


def has_exact_form(x: Fraction) -> bool:
    places = places_needed(x)
    return places is not None and places <= EXACT_PLACES


def check_truncation(text: str, x: Fraction, places: int) -> None:
    """text must be x truncated toward zero: at most `places` digits, less than one unit off."""
    value, used = parse_sexagesimal(text)
    require(used <= places, f"{text} has more than {places} places")
    unit = Fraction(1, BASE**places)
    require(abs(value) <= abs(x) < abs(value) + unit, f"{text} is not {x} truncated to {places} places")


def check_cell(text: str, x: Fraction, places: int) -> None:
    """A table value: exact when x has a base-60 form, else flagged and truncated."""
    if has_exact_form(x):
        require(not text.endswith(TRUNCATED), f"{text} flagged but {x} is exact")
        require(parse_sexagesimal(text)[0] == x, f"{text} does not re-parse to {x}")
    else:
        require(text.endswith(TRUNCATED), f"{text} for {x} lacks the (truncated) flag")
        check_truncation(text[: -len(TRUNCATED)], x, places)


def check_value_record(record: object, x: Fraction) -> None:
    """A JSON value: {"rational": "p/q", "sexagesimal": text or null}."""
    require(isinstance(record, dict) and set(record) == {"rational", "sexagesimal"}, f"bad record {record!r}")
    require(Fraction(record["rational"]) == x, f"rational {record['rational']} is not {x}")
    sex = record["sexagesimal"]
    if has_exact_form(x):
        require(isinstance(sex, str) and parse_sexagesimal(sex)[0] == x, f"sexagesimal {sex!r} is not {x}")
    else:
        require(sex is None, f"sexagesimal {sex!r} given for {x}, which has no exact form")


def json_lines(text: str) -> list[dict]:
    try:
        return [json.loads(line) for line in text.splitlines()]
    except json.JSONDecodeError as exc:
        raise CheckError(f"invalid JSON line: {exc}") from None


def table_lines(text: str) -> list[str]:
    require(text.endswith("\n"), "output does not end with a newline")
    return text[:-1].split("\n")


# --- search -----------------------------------------------------------------


def splits_evenly(r: int, n: int, k0: int) -> bool:
    """Strips 1..k0-1 and k0+1..n of the trapezoid with widths r and 1 have equal area."""
    left = (k0 - 1) * 2 * n * r - (r - 1) * (k0 - 1) ** 2
    right = (n - k0) * 2 * n * r - (r - 1) * (n * n - k0 * k0)
    return left == right


def scan_window(r_lo: int, r_hi: int, n_lo: int, n_hi: int) -> list[tuple[int, int, int]]:
    """Every admissible (r, n, k0) of the window, by a perfect-square test of the kernel."""
    hits = []
    for r in range(r_lo, r_hi + 1):
        r_sq_1 = r * r + 1
        den = 2 * (r - 1)
        for n in range(n_lo, n_hi + 1):
            kernel = (2 * n * n - 1) * r_sq_1 + 2 * r
            root = math.isqrt(kernel)
            if root * root != kernel:
                continue
            base = (2 * n + 1) * r - 1
            found = set()
            for numerator in (base - root, base + root):
                k0, rem = divmod(numerator, den)
                if rem == 0 and 1 < k0 < n:
                    found.add(k0)
            hits.extend((r, n, k0) for k0 in sorted(found))
    return hits


def check_search(window: tuple[int, int, int, int], fmt: str, out: str) -> dict:
    r_lo, r_hi, n_lo, n_hi = window
    cases = (r_hi - r_lo + 1) * (n_hi - n_lo + 1)
    if fmt == "jsonl":
        records = json_lines(out)
        require(bool(records) and records[-1] == {"cases": cases, "hits": len(records) - 1}, "bad summary record")
        rows = [(h["r"], h["n"], h["k0"], h["n_regular"]) for h in records[:-1]]
    else:
        lines = table_lines(out)
        require(lines[0] == "r\tn\tk0\tn_regular", "bad header")
        require(lines[-1] == f"{cases} cases, {len(lines) - 2} hits", "bad summary line")
        rows = []
        for line in lines[1:-1]:
            r, n, k0, reg = line.split("\t")
            require(reg in ("yes", "no"), f"bad n_regular {reg!r}")
            rows.append((int(r), int(n), int(k0), reg == "yes"))
    for r, n, k0, reg in rows:
        require(1 < k0 < n and splits_evenly(r, n, k0), f"({r}, {n}, {k0}) does not split evenly")
        require(reg == is_regular(n), f"n_regular wrong for n={n}")
    hits = [row[:3] for row in rows]
    require(hits == scan_window(*window), f"hit set of {window} differs from the reference scan")
    if window == CRITERION2_WINDOW:
        require(len(hits) == CRITERION2_HITS, f"criterion-2 window gave {len(hits)} hits")
        require(set(TABLE1 + CRITERION2_EXTRA) <= set(hits), "criterion-2 hits miss a known triple")
    return {"hits": len(hits)}


# --- strips -----------------------------------------------------------------


def strip_values(a: Fraction, b: Fraction, h: Fraction, n: int, k: int) -> tuple[Fraction, Fraction, Fraction]:
    """Transversal k of n, area before it and area after it (wide end first)."""
    d = a + (b - a) * Fraction(k, n)
    before = h * k * (2 * n * a - k * (a - b)) / (2 * n * n)
    return d, before, h * (a + b) / 2 - before


def check_strips(shape: tuple[Fraction, Fraction, Fraction], n: int, fmt: str, places: int, out: str) -> dict:
    a, b, h = shape
    if fmt == "jsonl":
        records = json_lines(out)
        require(len(records) == n + 1, f"{len(records)} rows for n={n}")
        for k, record in enumerate(records):
            require(record.get("k") == k and len(record) == 4, f"bad row {k}")
            d, before, after = strip_values(a, b, h, n, k)
            check_value_record(record["d"], d)
            check_value_record(record["S"], before)
            check_value_record(record["S_prime"], after)
    else:
        lines = table_lines(out)
        require(lines[0] == "k\td\tS\tS'" and len(lines) == n + 2, "bad header or row count")
        for k, line in enumerate(lines[1:]):
            cells = line.split("\t")
            require(len(cells) == 4 and cells[0] == str(k), f"bad row {k}")
            for cell, x in zip(cells[1:], strip_values(a, b, h, n, k)):
                check_cell(cell, x, places)
    return {}


# --- one-shot requests ------------------------------------------------------


def wall_indices(a: Fraction, b: Fraction, n: int) -> list[int]:
    """Every k0 in (1, n) whose strip leaves equal areas on both sides, by brute force."""
    scale = math.lcm(a.denominator, b.denominator)  # equal shares do not depend on scale
    a, b = int(a * scale), int(b * scale)
    total = n * n * (a + b)

    def before(k: int) -> int:  # 2 n^2 / (height * scale) times the area of the first k strips
        return k * (2 * n * a - k * (a - b))

    return [k0 for k0 in range(2, n) if before(k0 - 1) == total - before(k0)]


PLAN_KEYS = ("c", "e", "d_mid", "x", "h0", "h1", "h2", "S_left", "S_wall", "S_right")


def plan_values(a: Fraction, b: Fraction, h: Fraction, n: int, k0: int) -> dict[str, Fraction]:
    c = strip_values(a, b, h, n, k0 - 1)[0]
    e = strip_values(a, b, h, n, k0)[0]
    thickness = h / n
    return {
        "c": c, "e": e, "d_mid": (c + e) / 2, "x": c - e, "h0": thickness,
        "h1": (k0 - 1) * thickness, "h2": (n - k0) * thickness,
        "S_left": strip_values(a, b, h, n, k0 - 1)[1], "S_wall": thickness * (c + e) / 2,
        "S_right": strip_values(a, b, h, n, k0)[2],
    }


def check_wall(shape: tuple[Fraction, Fraction, Fraction], n: int, fmt: str, places: int, out: str, err: str) -> dict:
    a, b, h = shape
    indices = wall_indices(a, b, n)
    if not indices:
        expected = ("", "no admissible wall\n") if fmt == "jsonl" else ("no admissible wall\n", "")
        require((out, err) == expected, "missing the no-solution message")
        return {}
    if fmt == "jsonl":
        records = json_lines(out)
        require([r.get("k0") for r in records] == indices, "wrong wall indices")
        for record, k0 in zip(records, indices):
            require(list(record) == ["k0", *PLAN_KEYS], "bad plan keys")
            values = plan_values(a, b, h, n, k0)
            for key in PLAN_KEYS:
                check_value_record(record[key], values[key])
            require(record["S_left"] == record["S_right"], "printed shares differ")
    else:
        lines = table_lines(out)
        require(len(lines) == 11 * len(indices), "wrong plan length")
        for i, k0 in enumerate(indices):
            block = lines[11 * i: 11 * i + 11]
            require(block[0] == f"k0 = {k0}", f"expected k0 = {k0}, got {block[0]!r}")
            values = plan_values(a, b, h, n, k0)
            printed = {}
            for key, line in zip(PLAN_KEYS, block[1:]):
                prefix = f"{key} = "
                require(line.startswith(prefix), f"expected {prefix!r} in {line!r}")
                printed[key] = line[len(prefix):]
                check_cell(printed[key], values[key], places)
            require(printed["S_left"] == printed["S_right"], "printed shares differ")
    for k0 in indices:
        values = plan_values(a, b, h, n, k0)
        require(values["S_left"] == values["S_right"], f"k0={k0} does not bisect")
    return {}


def check_convert(value: Fraction, fmt: str, numeral: str, places: int | None, out: str) -> dict:
    """`convert`: exact base-60 form, or truncation when places are given explicitly."""
    needed = places_needed(value)
    exact = needed is not None and needed <= (EXACT_PLACES if places is None else places)
    limit = 5 if places is None else places
    if fmt == "jsonl":
        records = json_lines(out)
        require(len(records) == 1, "expected one record")
        record = records[0]
        require(Fraction(record["rational"]) == value, "wrong rational")
        require(record["truncated"] is (not exact), "wrong truncated flag")
        if exact:
            require(parse_sexagesimal(record["sexagesimal"])[0] == value, "sexagesimal is not exact")
        else:
            check_truncation(record["sexagesimal"], value, limit)
        return {}
    require(out.endswith("\n") and out.count("\n") == 1, "expected one line")
    line = out[:-1]
    if numeral == "rat":
        require(line == str(value), f"{line!r} is not {value}")
    elif numeral == "dec":
        scale = 10**limit
        whole, rem = divmod(abs(value.numerator) * scale // value.denominator, scale)
        sign = "-" if value < 0 else ""
        expected = f"{sign}{whole}.{rem:0{limit}d}" if limit else f"{sign}{whole}"
        require(line == f"{expected} (approx)", f"{line!r} is not {value} in decimal")
    elif exact:
        require(parse_sexagesimal(line)[0] == value, f"{line!r} is not {value}")
    else:
        require(line.endswith(TRUNCATED), f"{line!r} lacks the (truncated) flag")
        check_truncation(line[: -len(TRUNCATED)], value, limit)
    return {}


def _root_truncation(text: str, square: Fraction, places: int) -> None:
    """text is sqrt(square) truncated to `places` base-60 places."""
    root, used = parse_sexagesimal(text)
    require(used <= places and root >= 0, f"{text} is not a truncated root")
    unit = Fraction(1, BASE**places)
    require(root * root <= square < (root + unit) ** 2, f"{text} is not sqrt({square}) truncated")


def exact_root(x: Fraction) -> Fraction | None:
    num, den = math.isqrt(x.numerator), math.isqrt(x.denominator)
    return Fraction(num, den) if num * num == x.numerator and den * den == x.denominator else None


def check_bisect(a: Fraction, b: Fraction, fmt: str, places: int, out: str) -> dict:
    square = (a * a + b * b) / 2
    root = exact_root(square)
    if fmt == "jsonl":
        records = json_lines(out)
        require(len(records) == 1 and set(records[0]) == {"d_sq", "d", "d_truncated"}, "bad record")
        record = records[0]
        check_value_record(record["d_sq"], square)
        if root is None:
            require(record["d"] is None, "irrational root given as exact")
            _root_truncation(record["d_truncated"], square, places)
        else:
            check_value_record(record["d"], root)
            require(record["d_truncated"] is None, "exact root also given truncated")
        return {}
    lines = table_lines(out)
    require(len(lines) == 2 and lines[0].startswith("d^2 = ") and lines[1].startswith("d = "), "bad layout")
    check_cell(lines[0][len("d^2 = "):], square, places)
    text = lines[1][len("d = "):]
    if root is None:
        require(text.endswith(TRUNCATED), "irrational root lacks the (truncated) flag")
        _root_truncation(text[: -len(TRUNCATED)], square, places)
    else:
        check_cell(text, root, places)
    return {}


# The tablet's own arithmetic, SMT No. 26 (label, description, base-60 value).
SMT26_GOLDEN = {
    "reverse": (
        ("reverse L5", "upper width exceeds lower width", "1;20"),
        ("reverse L6", "multiply the excess by the wall thickness", "0;8"),
        ("reverse L6", "break it in two", "0;4"),
        ("reverse L7", "square of upper width", "2;46,40"),
        ("reverse L8", "square of lower width", "0;6,40"),
        ("reverse L8-9", "sum of squares", "2;53,20"),
        ("reverse L9", "half of the sum", "1;26,40"),
        ("reverse L9", "square root paced off, truncated to one place", "1;12 (truncated)"),
        ("reverse L13", "left edge: wall width plus half the excess", "1;16"),
        ("reverse L13", "right edge: wall width minus half the excess", "1;8"),
        ("reverse L13", "right edge plus lower width", "1;28"),
        ("reverse L14-15", "wall area: thickness times wall width", "0;7,12"),
        ("reverse L16", "right height times the width sum", "0;52,48"),
        ("reverse L16", "halve it: the right share", "0;26,24"),
        ("reverse L17", "upper width plus left edge", "2;56"),
        ("reverse L17", "left height times the width sum", "0;52,48"),
        ("reverse L17", "halve it: the left share", "0;26,24"),
        ("check", "S_left + S_wall + S_right", "1"),
    ),
    "obverse1": (
        ("obverse L2", "upper width exceeds lower width", "1,40"),
        ("obverse L3", "reciprocal of the length", "0;0,16"),
        ("obverse L3", "multiply by the excess", "0;26,40"),
        ("obverse L4", "double it", "0;53,20"),
        ("obverse L4", "multiply by the given upper area", "4,0,0"),
        ("obverse L5", "square of upper width", "4,41,40"),
        ("obverse L6", "subtract", "41,40"),
        ("obverse L6", "square root", "50"),
    ),
}


def check_smt26(part: str, fmt: str, out: str) -> dict:
    golden = SMT26_GOLDEN[part]
    if fmt != "jsonl":
        require(table_lines(out) == ["\t".join(step) for step in golden], f"smt26 {part} differs from the tablet")
        return {}
    records = json_lines(out)
    require(len(records) == len(golden), "wrong number of steps")
    for record, (label, description, text) in zip(records, golden):
        truncated = text.endswith(TRUNCATED)
        sex = text[: -len(TRUNCATED)] if truncated else text
        require(
            (record["label"], record["description"], record["sexagesimal"], record["truncated"])
            == (label, description, sex, truncated),
            f"step {label} differs from the tablet",
        )
        require(Fraction(record["rational"]) == parse_sexagesimal(sex)[0], f"step {label} rational differs")
    return {}
