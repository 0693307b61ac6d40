"""Exact rational helpers: string forms and certified decimal rendering."""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError

# A spec may spell out integers of up to 4300 digits (Python's int-string
# limit, which also bounds what the reports can print), so parse_decimal
# keeps exponent forms inside it: the exponent is checked before the power
# is built, and the result's numerator and denominator after.  The CLI
# bounds --digits by it, and decimal_string refuses to print more digits.
MAX_DECIMAL_DIGITS = 4300
_DIGITS_LIMIT = 10**MAX_DECIMAL_DIGITS


def format_rational(q: Fraction) -> str:
    """Render a rational as "p/q", omitting a denominator of 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def decimal_string(q: Fraction, digits: int) -> str:
    """Fixed-point decimal rendering of a rational with `digits` fractional
    digits, rounded to nearest."""
    if digits < 0:
        raise ValueError("digits must be nonnegative")
    q = Fraction(q)
    sign = "-" if q < 0 else ""
    q = abs(q)
    scaled = q * 10**digits
    units = scaled.numerator // scaled.denominator
    if 2 * (scaled - units) >= 1:
        units += 1
    if units >= _DIGITS_LIMIT:
        raise InputError(f"a printed number has more than {MAX_DECIMAL_DIGITS} digits")
    text = str(units).rjust(digits + 1, "0")
    whole, frac = text[: len(text) - digits], text[len(text) - digits:]
    if digits == 0:
        return sign + whole
    return f"{sign}{whole}.{frac}"


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


def sci_upper(q: Fraction) -> str:
    """Scientific-notation upper bound like '3.142e-52' (rounded away from 0)."""
    return _sci_text(*_sci(q, away=True))


def sci_rounded(q: Fraction, away: bool) -> tuple[Fraction, str]:
    """q to four significant digits, rounded away from 0 or toward it: the
    rational, and its scientific notation like '3.142e-52'."""
    m, e = _sci(q, away)
    return m * Fraction(10) ** (e - 3), _sci_text(m, e)


def _sci(q: Fraction, away: bool) -> tuple[int, int]:
    """(m, e) with 1000 <= |m| <= 9999, or (0, 0), such that m 10^(e-3) is q
    rounded to four significant digits away from 0 or toward it."""
    q = Fraction(q)
    if q == 0:
        return 0, 0
    mag = abs(q)
    # log10(2) ~ 0.30103 puts e within one of floor(log10(mag)); the
    # exact comparisons settle it without floats or decimal strings
    e = (mag.numerator.bit_length() - mag.denominator.bit_length()) * 30103 // 100000
    while Fraction(10) ** e > mag:
        e -= 1
    while Fraction(10) ** (e + 1) <= mag:
        e += 1
    mant = mag * 1000 / Fraction(10) ** e
    m = mant.numerator // mant.denominator
    if away and m * mant.denominator < mant.numerator:
        m += 1
    if m >= 10000:
        m //= 10
        e += 1
    return (-m if q < 0 else m), e


def _sci_text(m: int, e: int) -> str:
    if m == 0:
        return "0"
    sign = "-" if m < 0 else ""
    m = abs(m)
    return f"{sign}{m // 1000}.{m % 1000:03d}e{e:+d}"
