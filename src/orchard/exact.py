"""The exact integer kernel: canonical triples, exact rationals as
integer pairs, and the immutable value base class.

A count call needs only these, so it loads this module and not
orchard.projective, whose point and line classes it never builds;
orchard.projective imports these names from here and re-exports them.
"""

from __future__ import annotations

import re
from math import gcd, lcm
from typing import TYPE_CHECKING, Sequence, Union

if TYPE_CHECKING:
    from fractions import Fraction

# fractions (which loads decimal and numbers) is imported only in the
# functions that build or test a Fraction: a count call builds none
Rat = Union[int, "Fraction"]


def canonical(cs: Sequence[int]) -> tuple[int, ...]:
    """An integer vector divided by its gcd, with its first nonzero
    entry made positive: proportional vectors map to the same tuple."""
    g = gcd(*cs)
    if not g:
        raise ValueError("the zero vector has no canonical form")
    for c in cs:
        if c:
            if c < 0:
                g = -g
            break
    return tuple([c // g for c in cs])


# an ASCII integer or "p/q": read by int(), without Fraction's own
# string parser, which spends several times as long on a token
_INT_RATIO = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _ratio(x) -> tuple[int, int]:
    """An exact rational x as integers (p, q), q > 0, with x = p/q: x is
    an int (a bool too), a Fraction or another rational, or a string
    that Fraction reads.  A float is refused: it is a binary fraction,
    not the decimal it prints as (0.1 is 3602879701896397 / 2**55); so is
    a string with a zero denominator.  Both raise ValueError."""
    if type(x) is str:
        m = _INT_RATIO.fullmatch(x)
        if m:
            p, q = int(m[1]), int(m[2] or 1)
            if q:
                return p, q
    elif isinstance(x, float):
        raise ValueError(f"{x!r} is a float, not an exact rational")
    elif hasattr(x, "denominator"):
        return x.numerator, x.denominator
    from fractions import Fraction  # any other string (or p/0), a Decimal
    try:
        f = Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"{x!r} has a zero denominator") from None
    return f.numerator, f.denominator


def _fraction(x) -> Fraction:
    """The exact rational x (as _ratio reads it) as a Fraction."""
    from fractions import Fraction
    return Fraction(*_ratio(x))


def _int_arg(value, name: str) -> int:
    """value, if it is an int and not a bool; else ValueError naming the
    argument (a count or a size given as 2.5 or True)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, not {value!r}")
    return value


def integral(rs: Sequence[Rat]) -> list[int]:
    """The rationals rs times the lcm of their denominators."""
    pqs = [_ratio(r) for r in rs]
    m = lcm(*(q for _, q in pqs))
    return [p * (m // q) for p, q in pqs]


def _triple(v: Sequence[int]) -> tuple[int, int, int]:
    """canonical(v), for three integers v only: not a bool, which the
    points file refuses too."""
    if len(v) == 3 and bool not in map(type, v):
        try:
            return canonical(v)
        except TypeError:           # gcd refuses a float or a Fraction
            pass
    raise ValueError(f"{v!r} is not a homogeneous triple of integers")


def _cross(u: Sequence[int], v: Sequence[int]) -> tuple[int, int, int]:
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


class _Frozen:
    """An immutable value whose fields are the names in __slots__, in
    order.  __init__ takes them by position; a subclass that converts or
    checks a value overrides it and passes the results on.  Equal to,
    and hashed like, an object of the same class with equal _fields();
    repr'd as Name(field=value, ...); pickled and copied by calling the
    class again on its _fields().  A subclass whose last slots are
    derived overrides _fields to leave them out of all of these."""

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{self.__class__.__name__} takes "
                            f"{len(self.__slots__)} fields, got {len(values)}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        pairs = zip(self.__slots__, self._fields())
        return (f"{self.__class__.__name__}("
                f"{', '.join(f'{name}={value!r}' for name, value in pairs)})")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields()
