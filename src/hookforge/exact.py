"""Exact arithmetic kernel: rationals, dense polynomials, canonical rational
functions, and truncated power series with an exponential.

Everything here is exact.  Rational numbers are arbitrary-precision
``fractions.Fraction`` values, polynomials are dense coefficient tuples over
the rationals, and rational functions are kept in a canonical form (fully
reduced, monic denominator) so that equality is a plain representation
comparison.  No floating point is used anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]


def _is_scalar(v) -> bool:
    return isinstance(v, (int, Fraction))


class Polynomial:
    """Dense univariate polynomial over the rationals.

    Coefficients are stored lowest degree first with no trailing zeros; the
    zero polynomial has an empty coefficient tuple.  Instances are immutable.
    The indeterminate is anonymous: one polynomial type serves the q, z, t
    and a_i contexts alike, and only formatting names the variable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def _over(cls, ints: list[int], den: int = 1) -> "Polynomial":
        """The polynomial with coefficients ints[k] / den; ints must be
        nonempty with a nonzero last entry, and den nonzero."""
        obj = object.__new__(cls)
        if den == 1:
            coeffs = tuple(map(Fraction, ints))
        else:
            coeffs = tuple(Fraction(v, den) for v in ints)
        object.__setattr__(obj, "coeffs", coeffs)
        return obj

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def x(cls) -> "Polynomial":
        """The monomial q (or z, t, ... depending on context)."""
        return cls((0, 1))

    @classmethod
    def monomial(cls, degree: int, coeff: Scalar = 1) -> "Polynomial":
        if degree < 0:
            raise ValueError("monomial degree must be nonnegative")
        return cls((0,) * degree + (coeff,))

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def monic(self) -> "Polynomial":
        if self.is_zero:
            raise ValueError("zero polynomial cannot be made monic")
        lc = self.coeffs[-1]
        if lc == 1:
            return self
        return Polynomial(c / lc for c in self.coeffs)

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
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(-c for c in self.coeffs)

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
            a, b = self.coeffs, other.coeffs
            if not a or not b:
                return Polynomial()
            ia, la = _cleared(a)
            ib, lb = _cleared(b)
            return Polynomial._over(_int_mul(ia, ib), la * lb)
        if _is_scalar(other):
            if other == 0:
                return Polynomial()
            return Polynomial(c * other for c in self.coeffs)
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
        dlead = other.coeffs[-1]
        dd = other.degree
        quot = [Fraction(0)] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            q = c / dlead
            quot[i - dd] = q
            for j, dc in enumerate(other.coeffs):
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
            return Polynomial(c / other for c in self.coeffs)
        if isinstance(other, Polynomial):
            return RationalFunction(self, other)
        return NotImplemented

    # -- evaluation and misc ----------------------------------------------

    def __call__(self, point: Scalar) -> Fraction:
        """Exact evaluation by Horner's rule."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        # a constant equals its scalar, so it must hash as one
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash(("Polynomial", self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def format(self, var: str = "q") -> str:
        if not self.coeffs:
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


# -- integer coefficient lists (low degree first) behind the Fraction API --


def _cleared(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers ints and the common denominator den with coeffs = ints / den."""
    den = 1
    for c in coeffs:
        d = c.denominator
        if den % d:
            den = den // math.gcd(den, d) * d
    if den == 1:
        return [c.numerator for c in coeffs], 1
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _primitive(coeffs: Sequence[Fraction]) -> tuple[list[int], Fraction]:
    """Primitive integer part and rational content of a nonzero polynomial:
    coeffs = content * part, with gcd(part) = 1 and content positive."""
    ints, den = _cleared(coeffs)
    g = 0
    for v in ints:
        g = math.gcd(g, v)
        if g == 1:
            return ints, Fraction(1, den)
    return [v // g for v in ints], Fraction(g, den)


def _int_mul(a: list[int], b: list[int]) -> list[int]:
    """Product of two nonempty integer coefficient lists."""
    if len(a) < len(b):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    width = len(a)
    for j, y in enumerate(b):
        if y:
            out[j : j + width] = [o + x * y for o, x in zip(out[j : j + width], a)]
    return out


def _int_divexact(a: list[int], b: list[int]) -> list[int]:
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


def _int_pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of integer polynomial a by b (lc(b)^k scaled)."""
    rem = list(a)
    db = len(b) - 1
    lb = b[-1]
    while len(rem) - 1 >= db and rem:
        if rem[-1] == 0:
            rem.pop()
            continue
        top = rem[-1]
        shift = len(rem) - 1 - db
        rem = [c * lb for c in rem]
        for j, bc in enumerate(b):
            rem[shift + j] -= top * bc
        while rem and rem[-1] == 0:
            rem.pop()
    return rem


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor over the rationals.

    Uses a primitive pseudo-remainder sequence over the integers to keep
    coefficient growth in check, then rescales the result to be monic.
    """
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    pa, pb = _primitive(a.coeffs)[0], _primitive(b.coeffs)[0]
    if len(pa) < len(pb):
        pa, pb = pb, pa
    while pb:
        rem = _int_pseudo_rem(pa, pb)
        if rem:
            g = 0
            for v in rem:
                g = math.gcd(g, v)
            rem = [v // g for v in rem]
        pa, pb = pb, rem
    return Polynomial._over(pa, pa[-1])


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
        pn, cn = _primitive(num.coeffs)
        pd, cd = _primitive(den.coeffs)
        g = poly_gcd(num, den)
        if g.degree > 0:
            pg = _primitive(g.coeffs)[0]
            pn = _int_divexact(pn, pg)
            pd = _int_divexact(pd, pg)
        lead = pd[-1]
        scale = cn / (cd * lead)
        num = Polynomial._over([v * scale.numerator for v in pn], scale.denominator)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", Polynomial._over(pd, lead))

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

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
        return hash(("RationalFunction", self.num.coeffs, self.den.coeffs))

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

    def __sub__(self, other):
        if isinstance(other, PowerSeries):
            self._check_order(other)
            return PowerSeries([a - b for a, b in zip(self.coeffs, other.coeffs)])
        return PowerSeries([self.coeffs[0] - other, *self.coeffs[1:]])

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
