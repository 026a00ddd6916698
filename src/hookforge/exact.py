"""Exact arithmetic kernel: rationals, dense polynomials, canonical rational
functions, and truncated power series with an exponential.

Everything here is exact.  Rational numbers are arbitrary-precision
``fractions.Fraction`` values, and rational functions are kept in a
canonical form (fully reduced, monic denominator) so that equality is a
plain representation comparison.  A polynomial is stored in one format:
a tuple of integer numerators over one positive integer denominator, in
lowest terms, so that equal polynomials have equal parts.  Products, GCDs
and canonicalisation run on those integers; the GCD's acceptance test is one
exact integer division, ``_int_divexact``, whose quotients are the canonical
parts; ``Polynomial.coeffs`` rebuilds ``Fraction``s.  No floating point is used.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest
from operator import add, sub
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]


def _is_scalar(v) -> bool:
    return isinstance(v, (int, Fraction))


class Polynomial:
    """Dense univariate polynomial over the rationals.

    Stored as integer numerators ``_ints`` (lowest degree first, no trailing
    zeros) over one positive denominator ``_den``, with gcd(_ints, _den) = 1;
    the zero polynomial is ``()`` over 1.  Equal polynomials therefore have
    equal parts.  ``coeffs`` is the same value as a tuple of ``Fraction``s.
    Instances are immutable.  The indeterminate is anonymous: one polynomial
    type serves the q, z, t and a_i contexts alike, and only formatting names
    the variable.
    """

    __slots__ = ("_ints", "_den")

    def __new__(cls, coeffs: Iterable[Scalar] = ()):
        cs = list(coeffs)
        den = 1
        for c in cs:
            if not _is_scalar(c):
                raise TypeError(f"polynomial coefficient {c!r} is not an int or a Fraction")
            den = den * c.denominator // math.gcd(den, c.denominator)
        return cls._over([c.numerator * (den // c.denominator) for c in cs], den)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through _over, not the forbidden __setattr__
        return Polynomial._over, (list(self._ints), self._den)

    @classmethod
    def _over(cls, ints: Sequence[int], den: int = 1) -> "Polynomial":
        """The polynomial with coefficients ints[k] / den, for integers ints
        and den != 0: trailing zeros are popped (so ints must be a list if it
        has any), and the common factor and the sign of den are divided out."""
        while ints and not ints[-1]:
            ints.pop()
        if not ints:
            den = 1
        elif den != 1:
            g = math.gcd(den, *ints) if den > 0 else -math.gcd(den, *ints)
            if g != 1:
                ints = [v // g for v in ints]
                den //= g
        obj = object.__new__(cls)
        object.__setattr__(obj, "_ints", tuple(ints))
        object.__setattr__(obj, "_den", den)
        return obj

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def monomial(cls, degree: int, coeff: Scalar = 1) -> "Polynomial":
        if degree < 0:
            raise ValueError("monomial degree must be nonnegative")
        return cls((0,) * degree + (coeff,))

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as ``Fraction``s, lowest degree first."""
        return tuple(Fraction(v, self._den) for v in self._ints)

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self._ints) - 1

    @property
    def is_zero(self) -> bool:
        return not self._ints

    def is_monic(self) -> bool:
        return bool(self._ints) and self._ints[-1] == self._den

    def monic(self) -> "Polynomial":
        if self.is_zero:
            raise ValueError("zero polynomial cannot be made monic")
        if self.is_monic():
            return self
        return Polynomial._over(self._ints, self._ints[-1])

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            return other
        if _is_scalar(other):
            return Polynomial((other,))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self._den == o._den:  # 1 on every integer polynomial: no rescaling
            a, b, den = self._ints, o._ints, self._den
        else:
            a = [v * o._den for v in self._ints]
            b = [v * self._den for v in o._ints]
            den = self._den * o._den
        return Polynomial._over([x + y for x, y in zip_longest(a, b, fillvalue=0)], den)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._over([-v for v in self._ints], self._den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if not self._ints or not other._ints:
                return Polynomial()
            return Polynomial._over(_int_mul(self._ints, other._ints), self._den * other._den)
        if _is_scalar(other):
            scale = other.numerator
            return Polynomial._over([v * scale for v in self._ints], self._den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial power requires a nonnegative integer")
        result = Polynomial.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __divmod__(self, other: "Polynomial"):
        """Exact Euclidean division over the rationals."""
        if not isinstance(other, Polynomial):
            other = Polynomial((other,)) if _is_scalar(other) else None
            if other is None:
                return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        divisor = other.coeffs
        dlead = divisor[-1]
        dd = other.degree
        quot = [Fraction(0)] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            q = c / dlead
            quot[i - dd] = q
            for j, dc in enumerate(divisor):
                rem[i - dd + j] -= q * dc
        return Polynomial(quot), Polynomial(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __truediv__(self, other):
        if _is_scalar(other):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            scale = other.denominator
            return Polynomial._over([v * scale for v in self._ints], self._den * other.numerator)
        if isinstance(other, Polynomial):
            return RationalFunction(self, other)
        return NotImplemented

    # -- evaluation and misc ----------------------------------------------

    def __call__(self, point: Scalar) -> Fraction:
        """Exact evaluation by Horner's rule on the numerators."""
        acc = 0
        for v in reversed(self._ints):
            acc = acc * point + v
        return Fraction(acc, self._den)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._ints == o._ints and self._den == o._den

    def __hash__(self):
        # a constant equals its scalar, so it must hash as one
        if len(self._ints) <= 1:
            return hash(Fraction(self._ints[0], self._den) if self._ints else 0)
        return hash(("Polynomial", self._ints, self._den))

    def __bool__(self):
        return bool(self._ints)

    def format(self, var: str = "q") -> str:
        if not self._ints:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                mono = var if k == 1 else f"{var}^{k}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"Polynomial({self.format('x')})"


# -- integer coefficient lists (low degree first) --------------------------


def _primitive(ints: Sequence[int]) -> Sequence[int]:
    """The primitive part of a nonzero integer polynomial: ints divided by
    their (positive) gcd, so the sign of each entry is kept."""
    g = math.gcd(*ints)
    return ints if g == 1 else [v // g for v in ints]


def _int_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of two nonempty integer coefficient lists.  A digit of +-1
    of the shorter list adds or subtracts a row of the longer one instead of
    multiplying it."""
    if len(a) < len(b):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    width = len(a)
    for j, y in enumerate(b):
        if y == 1:
            out[j : j + width] = map(add, out[j : j + width], a)
        elif y == -1:
            out[j : j + width] = map(sub, out[j : j + width], a)
        elif y:
            out[j : j + width] = [o + x * y for o, x in zip(out[j : j + width], a)]
    return out


def _int_divexact(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Quotient of integer polynomials a / b, b nonzero with a nonzero last
    entry; raises ArithmeticError unless b divides a over the integers (as a
    primitive divisor does, by Gauss's lemma)."""
    rem = list(a)
    db = len(b) - 1
    lead = b[-1]
    quot = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = rem[i]
        if c:
            q, r = divmod(c, lead)
            if r:
                raise ArithmeticError("inexact integer polynomial division")
            quot[i - db] = q
            start = i - db
            rem[start : i + 1] = [x - q * y for x, y in zip(rem[start : i + 1], b)]
    if any(rem[:db]):
        raise ArithmeticError("inexact integer polynomial division")
    return quot


def _heu_gcd(a: Sequence[int], b: Sequence[int]) -> tuple[Sequence[int], list[int], list[int]]:
    """GCDHEU, the heuristic GCD of Char, Geddes & Gonnet (J. Symbolic Comput.
    7, 1989), of nonzero integer polynomials a and b: (G, a / G, b / G), G
    their primitive gcd, with the quotients its acceptance test computes.

    The primitive parts A and B are packed as integers at xi = 2^k, with k
    one more than the bit length of 2 min(|A|, |B|) + 2 (|.| the largest
    absolute coefficient).  The primitive part of the signed base-xi digits
    of gcd(A(xi), B(xi)) is accepted once exact division shows that it
    divides a and b (as it divides A and B, by Gauss's lemma); else k doubles.

    Correctness: for xi >= 2 min(|A|, |B|) + 2, a candidate that divides A
    and B is their gcd (CGG, Theorem 1).  Termination: with A = G A' and
    B = G B', gcd(A(xi), B(xi)) = s |G(xi)|, where s divides res(A', B');
    once xi > 2 |res(A', B')| |G|, the digits are +-s G, whose primitive
    part is G, so doubling k needs no fallback.
    """
    pa, pb = _primitive(a), _primitive(b)
    k = (2 * min(max(map(abs, pa)), max(map(abs, pb))) + 2).bit_length() + 1
    while True:
        h = math.gcd(*(sum(v << k * i for i, v in enumerate(p)) for p in (pa, pb)))
        digits, half = [], 1 << (k - 1)
        while h:  # signed digits in [-xi/2, xi/2)
            digits.append(((h + half) & ((half << 1) - 1)) - half)
            h = (h - digits[-1]) >> k
        g = _primitive(digits)
        try:
            return g, _int_divexact(a, g), _int_divexact(b, g)
        except ArithmeticError:
            k *= 2


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor over the rationals, by `_heu_gcd`."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    g = _heu_gcd(a._ints, b._ints)[0]
    return Polynomial._over(g, g[-1])


class RationalFunction:
    """Ratio of polynomials in canonical form.

    The canonical form has gcd(num, den) == 1 and a monic denominator, so
    two equal rational functions always have identical representations and
    ``==`` is a plain field-by-field comparison.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial | Scalar, den: Polynomial | Scalar = 1):
        if not isinstance(num, Polynomial):
            num = Polynomial((num,)) if _is_scalar(num) else num
        if not isinstance(den, Polynomial):
            den = Polynomial((den,)) if _is_scalar(den) else den
        if not isinstance(num, Polynomial) or not isinstance(den, Polynomial):
            raise TypeError("RationalFunction requires polynomial or scalar parts")
        if den.is_zero:
            raise ZeroDivisionError("division by zero")
        if num.is_zero:
            object.__setattr__(self, "num", Polynomial())
            object.__setattr__(self, "den", Polynomial.one())
            return
        # num / den = (qn * den._den) / (qd * num._den) for qn, qd the stored
        # numerators over their gcd; qd's leading entry makes den monic
        _, qn, qd = _heu_gcd(num._ints, den._ints)
        lead = qd[-1]
        num = Polynomial._over([v * den._den for v in qn], num._den * lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", Polynomial._over(qd, lead))

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    def __reduce__(self):
        return RationalFunction._from_canonical, (self.num, self.den)

    @classmethod
    def _from_canonical(cls, num: Polynomial, den: Polynomial) -> "RationalFunction":
        """Wrap parts already known to be reduced with monic denominator."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "num", num)
        object.__setattr__(obj, "den", den)
        return obj

    @classmethod
    def zero(cls) -> "RationalFunction":
        return cls._from_canonical(Polynomial(), Polynomial.one())

    @classmethod
    def one(cls) -> "RationalFunction":
        return cls._from_canonical(Polynomial.one(), Polynomial.one())

    # -- predicates ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.den == Polynomial.one()

    def as_polynomial(self) -> Polynomial:
        if not self.is_polynomial:
            raise ValueError("not a polynomial: " + self.format())
        return self.num

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, Polynomial):
            return RationalFunction._from_canonical(other, Polynomial.one())
        if _is_scalar(other):
            return RationalFunction._from_canonical(
                Polynomial((other,)), Polynomial.one()
            )
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction(
            self.num * o.den + o.num * self.den, self.den * o.den
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction._from_canonical(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("division by zero")
        return RationalFunction(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise ValueError("rational function power requires an integer")
        if k < 0:
            if self.is_zero:
                raise ZeroDivisionError("division by zero")
            return RationalFunction(self.den ** (-k), self.num ** (-k))
        # num and den stay coprime under powers and den**k stays monic
        return RationalFunction._from_canonical(self.num**k, self.den**k)

    # -- equality: canonical and cross-multiplied --------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def cross_equal(self, other) -> bool:
        """Equality by cross-multiplication, independent of canonical form."""
        o = self._coerce(other)
        if o is None:
            raise TypeError("cannot compare")
        return self.num * o.den == o.num * self.den

    def __hash__(self):
        # with denominator 1 it equals its numerator, so it hashes as one
        if self.is_polynomial:
            return hash(self.num)
        return hash(("RationalFunction", self.num, self.den))

    # -- evaluation ---------------------------------------------------------

    def __call__(self, point: Scalar) -> Fraction:
        d = self.den(point)
        if d == 0:
            raise ZeroDivisionError(f"pole at {point}")
        return self.num(point) / d

    def format(self, var: str = "q") -> str:
        if self.is_polynomial:
            return self.num.format(var)
        return f"({self.num.format(var)}) / ({self.den.format(var)})"

    def __repr__(self):
        return f"RationalFunction({self.format('x')})"


class PowerSeries:
    """Truncated power series in t, keeping coefficients of t^0 .. t^order.

    The coefficient ring is duck-typed: plain rationals, polynomials in a
    second variable, and rational functions all work, as does any mix that
    interoperates with int and Fraction arithmetic.  Binary operations
    require equal truncation orders and never read beyond them.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence, order: int | None = None):
        cs = list(coeffs)
        if order is not None:
            if order < 0:
                raise ValueError("order must be nonnegative")
            if len(cs) > order + 1:
                cs = cs[: order + 1]
            else:
                cs.extend([0] * (order + 1 - len(cs)))
        if not cs:
            raise ValueError("a series needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("PowerSeries is immutable")

    def __reduce__(self):
        return PowerSeries, (self.coeffs,)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int):
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient {k} beyond truncation order {self.order}")
        return self.coeffs[k]

    def _check_order(self, other: "PowerSeries"):
        if self.order != other.order:
            raise ValueError("truncation orders differ")

    def __add__(self, other):
        if isinstance(other, PowerSeries):
            self._check_order(other)
            return PowerSeries([a + b for a, b in zip(self.coeffs, other.coeffs)])
        return PowerSeries([self.coeffs[0] + other, *self.coeffs[1:]])

    __radd__ = __add__

    def __neg__(self):
        return PowerSeries([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, PowerSeries):
            self._check_order(other)
            n = self.order
            out = [0] * (n + 1)
            for i, a in enumerate(self.coeffs):
                if isinstance(a, (int, Fraction)) and a == 0:
                    continue
                for j in range(n + 1 - i):
                    b = other.coeffs[j]
                    out[i + j] = out[i + j] + a * b
            return PowerSeries(out)
        return PowerSeries([c * other for c in self.coeffs])

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        if self.order != other.order:
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash(("PowerSeries", self.coeffs))

    def exp(self) -> "PowerSeries":
        """Sum of f^k / k! for k = 0 .. order, exactly.

        The argument must have zero constant term, which makes the k-th
        term vanish below t^k so the truncated sum is the true exponential.
        """
        if self.coeffs[0] != 0:
            raise ValueError("exp requires zero constant term")
        n = self.order
        acc = PowerSeries([1], order=n)
        term = PowerSeries([1], order=n)
        for k in range(1, n + 1):
            term = term * self * Fraction(1, k)
            acc = acc + term
        return acc

    def __repr__(self):
        return f"PowerSeries({list(self.coeffs)!r})"


def series_exp(f: PowerSeries) -> PowerSeries:
    """Exponential of a truncated series with zero constant term."""
    return f.exp()
