"""Exact arithmetic for quadratic irrationals of the form (p + q*sqrt(n)) / r.

Every ordering decision is made with integer arithmetic only (isolate the
radical, square with explicit sign analysis); floating point is never
consulted for a comparison.  Values are normalized on construction, so two
equal numbers always have identical components.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import total_ordering


def _square_free(n: int) -> tuple[int, int]:
    """Write n = s*s*k with k square-free; return (s, k) for n >= 0.

    Trial division takes factors f out of the cofactor c while f**3 <= c.
    Then c has at most two prime factors, so it is square-free unless it
    is a perfect square: the work grows with the cube root of c.  The
    search stops early once c is a perfect square, which is tested before
    the first division and after each one.
    """
    s, k, c, f = 1, 1, n, 2
    root = math.isqrt(c)
    while root * root != c and f * f * f <= c:
        if c % f == 0:
            c //= f
            if c % f == 0:
                c //= f
                s *= f
            else:
                k *= f
            root = math.isqrt(c)
        else:
            f += 1 if f == 2 else 2
    if root * root == c:
        return s * root, k
    return s, k * c


def _reduce(p: int, q: int, n: int, r: int) -> tuple[int, int, int, int]:
    """Normal form of (p + q*sqrt(n)) / r for square-free n (or 0, 1), r != 0."""
    if r < 0:
        p, q, r = -p, -q, -r
    if q == 0 or n == 0:
        q, n = 0, 0
    elif n == 1:
        p, q, n = p + q, 0, 0
    g = math.gcd(p, q, r)
    if g > 1:
        p, q, r = p // g, q // g, r // g
    return p, q, n, r


def _as_int(x) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"integer expected, got {x!r}")
    return x


@total_ordering
class QuadraticSurd:
    """The real number (p + q*sqrt(n)) / r with integers p, q, n >= 0, r >= 1.

    Normal form: n square-free (square factors are absorbed into q, and a
    perfect-square radicand collapses to a rational with q = n = 0),
    gcd(p, q, r) = 1 and r > 0.  Instances are treated as immutable and are
    hashable; rationals hash like the equal Fraction.

    Arithmetic and order are defined against int, Fraction, and surds whose
    radicand lies in the same square-free class.  Mixing two distinct
    irrational radicands raises ValueError: such comparisons are outside
    this type's contract.
    """

    __slots__ = ("p", "q", "n", "r")

    def __init__(self, p: int, q: int = 0, n: int = 0, r: int = 1):
        p, q, n, r = _as_int(p), _as_int(q), _as_int(n), _as_int(r)
        if r == 0:
            raise ZeroDivisionError("denominator r must be nonzero")
        if q != 0 and n < 0:
            raise ValueError("negative radicand")
        if q != 0 and n != 0:
            s, n = _square_free(n)
            q *= s
        self.p, self.q, self.n, self.r = _reduce(p, q, n, r)

    @classmethod
    def _normal(cls, p: int, q: int, n: int, r: int) -> "QuadraticSurd":
        """Build from an n that is already 0, 1 or square-free, and r != 0."""
        value = object.__new__(cls)
        value.p, value.q, value.n, value.r = _reduce(p, q, n, r)
        return value

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_rational(cls, value) -> "QuadraticSurd":
        fr = Fraction(value)
        return cls(fr.numerator, 0, 0, fr.denominator)

    @classmethod
    def sqrt(cls, n: int) -> "QuadraticSurd":
        return cls(0, 1, n, 1)

    @classmethod
    def sqrt_rational(cls, value) -> "QuadraticSurd":
        """Exact square root of a non-negative rational: sqrt(a/b) = sqrt(ab)/b."""
        fr = Fraction(value)
        if fr < 0:
            raise ValueError("negative radicand")
        # a and b are coprime, so their square-free parts multiply to ab's
        sa, ka = _square_free(fr.numerator)
        sb, kb = _square_free(fr.denominator)
        return cls._normal(0, sa * sb, ka * kb, fr.denominator)

    # -- predicates and conversions ---------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    def as_fraction(self) -> Fraction:
        if self.q != 0:
            raise ValueError(f"{self} is irrational")
        return Fraction(self.p, self.r)

    def sign(self) -> int:
        """Sign of the value, decided by sign-aware squaring."""
        p, q, n = self.p, self.q, self.n
        if q == 0:
            return (p > 0) - (p < 0)
        if p == 0:
            return 1 if q > 0 else -1
        if p > 0 and q > 0:
            return 1
        if p < 0 and q < 0:
            return -1
        lhs, rhs = p * p, q * q * n  # never equal: n is square-free and > 1
        if p > 0:  # q < 0: sign of p - |q|sqrt(n)
            return 1 if lhs > rhs else -1
        return 1 if rhs > lhs else -1

    def __bool__(self) -> bool:
        return not (self.p == 0 and self.q == 0)

    def __float__(self) -> float:
        return (self.p + self.q * math.sqrt(self.n)) / self.r

    def decimal(self, digits: int = 12) -> str:
        """Decimal string rounded to the given number of significant digits."""
        with localcontext() as ctx:
            ctx.prec = digits + 25
            value = (Decimal(self.p) + Decimal(self.q) * Decimal(self.n).sqrt()) / Decimal(self.r)
            ctx.prec = digits
            value = +value
        return str(value)

    def exact_parts(self) -> dict:
        return {"p": self.p, "q": self.q, "n": self.n, "r": self.r}

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, QuadraticSurd):
            if self.n and other.n and self.n != other.n:
                raise ValueError(
                    f"incompatible radicands sqrt({self.n}) and sqrt({other.n})"
                )
            return other
        if isinstance(other, bool):
            return None
        if isinstance(other, (int, Fraction)):
            return QuadraticSurd.from_rational(other)
        return None

    def __neg__(self) -> "QuadraticSurd":
        return QuadraticSurd._normal(-self.p, -self.q, self.n, self.r)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = self.n or other.n
        return QuadraticSurd._normal(
            self.p * other.r + other.p * self.r,
            self.q * other.r + other.q * self.r,
            n,
            self.r * other.r,
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = self.n or other.n
        return QuadraticSurd._normal(
            self.p * other.p + self.q * other.q * n,
            self.p * other.q + self.q * other.p,
            n,
            self.r * other.r,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, QuadraticSurd):
            if not other.is_rational:
                raise ValueError("division by an irrational surd is not supported")
            other = other.as_fraction()
        if isinstance(other, bool) or not isinstance(other, (int, Fraction)):
            return NotImplemented
        fr = Fraction(other)
        if fr == 0:
            raise ZeroDivisionError("division by zero")
        return QuadraticSurd._normal(
            self.p * fr.denominator, self.q * fr.denominator, self.n, self.r * fr.numerator
        )

    # -- order -------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuadraticSurd):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        # normal forms are unique, so distinct radicands never compare equal
        return (self.p, self.q, self.n, self.r) == (other.p, other.q, other.n, other.r)

    def __lt__(self, other) -> bool:
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return (self - coerced).sign() < 0

    def __hash__(self) -> int:
        if self.q == 0:
            return hash(Fraction(self.p, self.r))
        return hash((self.p, self.q, self.n, self.r))

    # -- integer rounding ----------------------------------------------------

    def __floor__(self) -> int:
        if self.q == 0:
            return self.p // self.r
        # q*sqrt(n) lies strictly between consecutive integers once q != 0
        # and n is square-free > 1, so the numerator's floor is exact.
        s = math.isqrt(self.q * self.q * self.n)
        a = self.p + s if self.q > 0 else self.p - s - 1
        return a // self.r

    def __ceil__(self) -> int:
        if self.q == 0:
            return -((-self.p) // self.r)
        return self.__floor__() + 1

    # -- formatting ----------------------------------------------------------

    def __repr__(self) -> str:
        return f"QuadraticSurd(p={self.p}, q={self.q}, n={self.n}, r={self.r})"

    def __str__(self) -> str:
        if self.q == 0:
            return str(Fraction(self.p, self.r))
        radical = f"sqrt({self.n})" if abs(self.q) == 1 else f"{abs(self.q)}*sqrt({self.n})"
        if self.p == 0:
            core = radical if self.q > 0 else f"-{radical}"
        else:
            core = f"{self.p}{'+' if self.q > 0 else '-'}{radical}"
        if self.r == 1:
            return core
        return f"({core})/{self.r}"
