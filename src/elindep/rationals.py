"""Exact rational helpers: string forms and certified decimal rendering."""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError

# A spec may spell out integers of up to 4300 digits (Python's int-string
# limit, which also bounds what the reports can print), so parse_decimal
# keeps exponent forms inside it: the exponent is checked before the power
# is built, and the result's numerator and denominator after.  The CLI
# bounds --digits by it, and decimal_rounded refuses to print more digits.
MAX_DECIMAL_DIGITS = 4300
_DIGITS_LIMIT = 10**MAX_DECIMAL_DIGITS


def format_rational(q: Fraction) -> str:
    """Render a rational as "p/q", omitting a denominator of 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def decimal_rounded(q: Fraction, digits: int) -> tuple[str, int]:
    """Fixed-point decimal rendering of a rational with `digits` fractional
    digits, rounded to nearest (a half away from 0), and its rounding error
    |text - q| times q's denominator times 10^digits, in integers."""
    if digits < 0:
        raise ValueError("digits must be nonnegative")
    num, den = q.numerator, q.denominator
    units, err = divmod(abs(num) * 10**digits, den)
    if 2 * err >= den:
        units, err = units + 1, den - err
    if units >= _DIGITS_LIMIT:
        raise InputError(f"a printed number has more than {MAX_DECIMAL_DIGITS} digits")
    sign = "-" if num < 0 else ""
    text = str(units).rjust(digits + 1, "0")
    whole, frac = text[: len(text) - digits], text[len(text) - digits:]
    if digits == 0:
        return sign + whole, err
    return f"{sign}{whole}.{frac}", err


def parse_decimal(text: str) -> Fraction:
    """Parse a decimal or rational string into an exact Fraction."""
    if not isinstance(text, str):
        raise InputError(f"expected a number string, got {text!r}")
    t = text.strip().lower()
    try:
        if "/" in t:
            return Fraction(t)
        if "e" in t:
            mant, _, exp = t.partition("e")
            e = int(exp)
            if abs(e) < MAX_DECIMAL_DIGITS:
                value = parse_decimal(mant) * Fraction(10) ** e
                if max(abs(value.numerator), value.denominator) < _DIGITS_LIMIT:
                    return value
            raise InputError(
                f"{text[:40]!r} has more than {MAX_DECIMAL_DIGITS} digits"
            )
        if "." in t:
            whole, _, frac = t.partition(".")
            if whole in ("", "-", "+"):
                whole += "0"
            base = Fraction(int(whole))
            if whole.startswith("-"):
                return base - Fraction(int(frac or "0"), 10 ** len(frac))
            return base + Fraction(int(frac or "0"), 10 ** len(frac))
        return Fraction(int(t))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a number: {text!r}") from exc


def sci_upper(q, den: int = 1) -> str:
    """Scientific-notation upper bound like '3.142e-52' (rounded away from
    0) of the rational q / den, den > 0; an integer q and den need not be
    in lowest terms."""
    return _sci_text(*_sci(q.numerator, q.denominator * den, away=True))


def sci_rounded(q: Fraction, away: bool) -> tuple[Fraction, str]:
    """q to four significant digits, rounded away from 0 or toward it: the
    rational, and its scientific notation like '3.142e-52'."""
    m, e = _sci(q.numerator, q.denominator, away)
    return m * Fraction(10) ** (e - 3), _sci_text(m, e)


def _sci(num: int, den: int, away: bool) -> tuple[int, int]:
    """(m, e) with 1000 <= |m| <= 9999, or (0, 0), such that m 10^(e-3) is
    num / den (den > 0) rounded to four significant digits away from 0 or
    toward it, in integers."""
    if num == 0:
        return 0, 0
    mag = abs(num)

    def at_least(e: int) -> bool:  # mag / den >= 10^e
        return mag >= den * 10**e if e >= 0 else mag * 10**-e >= den

    # log10(2) ~ 0.30103 puts e within one of floor(log10(mag / den)); the
    # exact comparisons settle it without floats or decimal strings
    e = (mag.bit_length() - den.bit_length()) * 30103 // 100000
    while not at_least(e):
        e -= 1
    while at_least(e + 1):
        e += 1
    # m = mag 10^(3-e) / den, truncated
    m, rest = divmod(mag * 10 ** (3 - e), den) if e <= 3 else divmod(mag, den * 10 ** (e - 3))
    if away and rest:
        m += 1
    if m >= 10000:
        m //= 10
        e += 1
    return (-m if num < 0 else m), e


def _sci_text(m: int, e: int) -> str:
    if m == 0:
        return "0"
    sign = "-" if m < 0 else ""
    m = abs(m)
    return f"{sign}{m // 1000}.{m % 1000:03d}e{e:+d}"
