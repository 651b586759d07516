"""Exact arithmetic for quadratic irrationals of the form (p + q*sqrt(n)) / r.

Every ordering decision is made with integer arithmetic only (isolate the
radical, square with explicit sign analysis); floating point is never
consulted for a comparison, and a decimal rendering takes a float only
where it provably prints the same digits as the exact one.  Values are
normalized on construction, so two equal numbers always have identical
components.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import total_ordering
from itertools import repeat

import numpy as np

# _surd_texts's float rendering refuses a value whose 4 guard digits lie
# within _GUARD units of the rounding midpoint 5000
_GUARD = 100


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


def _exact_dtype(bound: int):
    """The dtype of an integer array whose entries, and every sum and
    product a caller takes of them, are at most bound in absolute value:
    np.int64 below 2**62, where that arithmetic and _isqrt_array are exact,
    else object, for Python ints."""
    return np.int64 if bound < 2**62 else object


def _isqrt_array(values: np.ndarray) -> np.ndarray:
    """math.isqrt of every entry: of an int64 array (see _exact_dtype) by the
    float root with one integer correction each way (the float root is off
    by far less than 1), of an object array of Python ints one entry at a
    time."""
    if values.dtype == object:
        return np.array([math.isqrt(v) for v in values.tolist()], dtype=object)
    root = np.sqrt(values.astype(np.float64)).astype(np.int64)
    root -= root * root > values
    root += np.square(root + 1) <= values
    return root


def _icbrt(n: int) -> int:
    """The largest integer f with f**3 <= n, for n >= 0."""
    f = round(n ** (1 / 3))
    while f**3 > n:
        f -= 1
    while (f + 1) ** 3 <= n:
        f += 1
    return f


def _primes(limit: int) -> np.ndarray:
    """The primes up to limit, ascending, by the sieve of Eratosthenes."""
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for f in range(2, math.isqrt(limit) + 1):
        if sieve[f]:
            sieve[f * f :: f] = False
    return np.flatnonzero(sieve)


def _square_free_split(values: np.ndarray, primes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_square_free of every entry of an int64 or object array of
    non-negative ints: arrays s and k with values = s*s*k, k square-free.
    primes is ascending and holds every prime f with f**3 <= max(values)
    (_primes of _icbrt of a bound on them, shared by the calls it covers).

    Every such prime is divided out of every cofactor c; each c is then 1,
    a prime, a product of two primes or a prime's square, so one
    perfect-square test per c finishes it.  That split is unique, so it is
    _square_free's, which stops earlier.
    """
    c = values.copy()
    c[values == 0] = 1  # 0 = 0*0*1, as _square_free has it
    s, k = np.ones_like(c), np.ones_like(c)
    top = int(c.max())
    for f in map(int, primes):
        if f * f * f > top:
            break
        hit = (c % f == 0).nonzero()[0]
        while hit.size:  # f divides c[hit]: take f out twice or once
            c[hit] //= f
            twice = c[hit] % f == 0
            k[hit[~twice]] *= f
            hit = hit[twice]
            if hit.size:
                c[hit] //= f
                s[hit] *= f
                hit = hit[c[hit] % f == 0]
    root = _isqrt_array(c)
    square = root * root == c
    s[square] *= root[square]
    k[~square] *= c[~square]
    s[values == 0] = 0
    return s, k


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
        """Decimal string rounded to the given number of significant digits,
        a positive int: Decimal's, evaluated at digits + 25 places."""
        if _as_int(digits) < 1:
            raise ValueError(f"digits must be at least 1, got {digits}")
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
        return _irrational_text(self.p, self.q, self.n, self.r)


def _irrational_text(p: int, q: int, n: int, r: int) -> str:
    """str of the irrational normal form (p + q*sqrt(n)) / r."""
    radical = f"sqrt({n})" if abs(q) == 1 else f"{abs(q)}*sqrt({n})"
    if p == 0:
        core = radical if q > 0 else f"-{radical}"
    else:
        core = f"{p}{'+' if q > 0 else '-'}{radical}"
    return core if r == 1 else f"({core})/{r}"


def _plain(head: int, exponent: int, digits: int, negative: bool) -> str:
    """head's digits figures as Decimal prints them at -6 <= exponent < digits."""
    text = str(head)
    if exponent < 0:
        text = "0." + "0" * (-exponent - 1) + text
    elif exponent < digits - 1:
        text = text[: exponent + 1] + "." + text[exponent + 1 :]
    return "-" + text if negative else text


# 10.0 ** k as Python's float power gives it, for _surd_texts's scaling
_POW10 = np.array([10.0**k for k in range(32)])


def _surd_texts(
    p: np.ndarray, q: np.ndarray, n: np.ndarray, r: int
) -> tuple[list[str], list[str]]:
    """str and decimal(12) of QuadraticSurd._normal(p, q, n, r) at every
    entry of arrays p, q and n of one shape, n square-free, 0 or 1, r >= 1.

    On int64 arrays the normal form (a gcd with r) and the decimal are
    array passes.  The float is evaluated without cancellation (as
    (p*p - q*q*n) / (r (p - q sqrt(n))) where p and q differ in sign) and
    scaled by an exact power of 10 to 16 figures, so it is within 12 units
    of the last of them.  decimal's evaluation at 37 places cancels at most
    20 of them where |p| <= 10**20 |value| r, so it is within 2 units there.
    So where the 4 guard figures lie _GUARD units from the midpoint 5000,
    both round the same way.  decimal's sum has all 37 figures, and its
    quotient by r < 2**52 more than 12, so it prints 12 figures, trailing
    zeros included: in plain notation for 10**-6 <= value < 10**12.
    A row is rendered from its surd instead, through Decimal, where it is
    rational, where any of those conditions fails, where an int
    (p*p - q*q*n too) could round on its way to a float (past 2**52),
    where log10 lies within 10**-9 of an integer, and where the scaling
    by the floor of log10 leaves other than 12 figures before the guard.
    Object arrays are rendered from their surds alone.
    """
    digits = 12
    p0, q0, n0 = p.tolist(), q.tolist(), n.tolist()
    if p.dtype == object or r >= 2**52:
        texts, decimals, scalar = [""] * len(p0), [""] * len(p0), range(len(p0))
    else:
        g = np.gcd(np.gcd(p, q), r)
        p, q, rr = p // g, q // g, r // g
        pf, qf, nf, rf = (a.astype(np.float64) for a in (p, q, n, rr))
        with np.errstate(all="ignore"):  # rows that overflow are not ok
            ok = (q != 0) & (n > 1) & (pf * pf < 2.0**52) & (qf * qf * nf < 2.0**52)
            root = np.sqrt(nf)
            conjugate = (p != 0) & ((p < 0) != (q < 0))
            value = np.where(
                conjugate, (p * p - q * q * n) / (rf * (pf - qf * root)), (pf + qf * root) / rf
            )
            size = np.abs(value)
            ok &= (1e-7 < size) & (size < 10.0**digits) & ~(np.abs(pf) > 1e20 * rf * size)
        size = np.where(ok, size, 1.0)
        log = np.log10(size)
        ok &= np.abs(log - np.rint(log)) > 1e-9
        exponent = np.floor(log).astype(np.int64)
        scaled = np.rint(size * _POW10[digits + 3 - exponent]).astype(np.int64)
        head, guard = np.divmod(scaled, 10**4)
        ok &= (10 ** (digits - 1) <= head) & (head < 10**digits)
        ok &= np.abs(guard - 5000) >= _GUARD
        head += guard > 5000
        carry = head == 10**digits
        head[carry] //= 10
        exponent += carry
        ok &= (-6 <= exponent) & (exponent < digits)
        texts = list(map(_irrational_text, p.tolist(), q.tolist(), n0, rr.tolist()))
        decimals = list(map(
            _plain, head.tolist(), exponent.tolist(), repeat(digits), (value < 0).tolist()
        ))
        scalar = np.flatnonzero(~ok).tolist()
    for i in scalar:
        surd = QuadraticSurd._normal(p0[i], q0[i], n0[i], r)
        texts[i], decimals[i] = str(surd), surd.decimal(digits)
    return texts, decimals
