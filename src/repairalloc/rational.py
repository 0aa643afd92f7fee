"""Exact rational parsing and formatting.

All quantities in this package (health values, rates, costs, budgets) are
``fractions.Fraction`` instances.  Serialized forms are strings, never
floats: either a decimal literal ("0.05", "19") or a fraction literal
("3/20").  Floats are refused everywhere so no value is ever silently
rounded.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from repairalloc.errors import ScenarioFormatError

_LITERAL = re.compile(r"(-?)(\d+)(?:\.(\d+)|/(\d+))?")  # sign, whole digits, then decimals or a denominator


def parse_rational(text: object, where: str = "value") -> Fraction:
    """Parse a decimal or p/q string into an exact Fraction.

    ``where`` names the location (JSON path, CLI flag) for error messages.
    Anything that is not a string is rejected, in particular raw JSON
    numbers, so a lossy float can never sneak in.
    """
    if not isinstance(text, str):
        raise ScenarioFormatError(f"{where}: numeric fields must be strings like \"0.25\" or \"1/4\", got {type(text).__name__}")
    stripped = text.strip()
    literal = _LITERAL.fullmatch(stripped)
    if literal is None:
        raise ScenarioFormatError(f"{where}: not a decimal or p/q string: {_shown(text)}")
    sign, whole, decimals, over = literal.groups()
    try:
        numerator, denominator = int(whole), int(over or 1)
        if decimals:
            denominator = 10 ** len(decimals)
            numerator = numerator * denominator + int(decimals)
        return Fraction(-numerator if sign else numerator, denominator)
    except ZeroDivisionError:
        raise ScenarioFormatError(f"{where}: zero denominator in {_shown(text)}") from None
    except ValueError:  # a digit run longer than Python converts to an int; as in Fraction(str), each run converts alone
        raise ScenarioFormatError(f"{where}: {len(stripped)} characters exceed Python's integer-string limit") from None


def _shown(text: str) -> str:
    """``text`` quoted, or if it is long its first 20 characters quoted and its length."""
    return repr(text) if len(text) <= 40 else f"{text[:20]!r}... ({len(text)} characters)"


def format_rational(value: Fraction) -> str:
    """Format exactly, preferring a terminating decimal over p/q."""
    if value.denominator == 1:
        return str(value.numerator)
    den = value.denominator
    twos = _strip(den, 2)
    fives = _strip(twos[0], 5)
    if fives[0] == 1:
        digits = max(twos[1], fives[1])
        scaled = value.numerator * 10**digits // den
        sign = "-" if scaled < 0 else ""
        text = str(abs(scaled)).rjust(digits + 1, "0")
        return f"{sign}{text[:-digits]}.{text[-digits:]}"
    return f"{value.numerator}/{value.denominator}"


def _strip(n: int, p: int) -> tuple[int, int]:
    count = 0
    while n % p == 0:
        n //= p
        count += 1
    return n, count


def lcm_denominators(values: list[Fraction]) -> int:
    """Least common multiple of the denominators of ``values`` (min 1)."""
    out = 1
    for v in values:
        out = math.lcm(out, v.denominator)
    return out
