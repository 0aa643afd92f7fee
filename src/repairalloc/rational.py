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

_DECIMAL_RE = re.compile(r"^-?\d+(\.\d+)?$")
_FRACTION_RE = re.compile(r"^-?\d+/\d+$")


def parse_rational(text: object, where: str = "value") -> Fraction:
    """Parse a decimal or p/q string into an exact Fraction.

    ``where`` names the location (JSON path, CLI flag) for error messages.
    Anything that is not a string is rejected, in particular raw JSON
    numbers, so a lossy float can never sneak in.
    """
    if isinstance(text, str):
        stripped = text.strip()
        if _DECIMAL_RE.match(stripped) or _FRACTION_RE.match(stripped):
            try:
                return Fraction(stripped)
            except ZeroDivisionError:
                raise ScenarioFormatError(f"{where}: zero denominator in {text!r}") from None
            except ValueError:  # more digits than Python converts to an int
                raise ScenarioFormatError(f"{where}: {len(stripped)} characters exceed Python's integer-string limit") from None
        raise ScenarioFormatError(f"{where}: not a decimal or p/q string: {text!r}")
    raise ScenarioFormatError(
        f"{where}: numeric fields must be strings like \"0.25\" or \"1/4\", got {type(text).__name__}"
    )


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
