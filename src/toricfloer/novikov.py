"""Exact arithmetic in a universal Novikov ring.

Elements are finite formal sums  sum_i a_i * T^{t_i} * q^{m_i}  with
rational coefficients a_i, rational T-exponents t_i and integer
q-exponents m_i.  The T-exponent records symplectic area of a
holomorphic disc, the q-exponent half its Maslov index.  Everything is
kept exact (fractions.Fraction) so that zero tests, which downstream
decide whether a fiber is balanced, never depend on floating point.

Normal form: an element's terms are a tuple of (coeff, t_exp, q_exp)
with coeff a nonzero Fraction, t_exp a Fraction and q_exp an int,
strictly increasing in (t_exp, q_exp).  The public constructor
establishes it from any input; the arithmetic below relies on it and
keeps it without sorting again: a sum merges two sorted tuples, and a
product with a single term shifts every exponent by the same amount,
which preserves the order.  A product by the scalar 1 or -1 is the
element or its negation, a product by ONE is the other operand, and a
term with coefficient 1 only shifts exponents.  _from_normal wraps a
tuple that already satisfies the invariant and checks nothing.

Inverses are geometric series truncated at a caller-supplied T-exponent
cutoff; the remainder a * invert(a) - 1 has valuation strictly above the
cutoff.

_Combination is the one kernel for Novikov-linear combinations over a
graded basis: CliffordElement (index subsets) and ChainExpression (chain
monomials) subclass it and supply only the key normal form, the grade,
the printed basis word and their own product.  Sums, negation, scalar
products, equality, ordering and rendering are written once here.  Its
constructor validates caller keys; _Combination._from_normal wraps
results whose keys are already normal without checking them again.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Union

from .errors import DimensionMismatch

Rational = Union[int, Fraction]

#: default truncation level used when the library inverts internally
DEFAULT_CUTOFF = Fraction(10)


def _frac(x: Rational) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _fmt_exp(x) -> str:
    """A rational exponent as printed after ^: bare if a single digit,
    else in braces."""
    num, den = x.as_integer_ratio()
    if den != 1:
        return f"{{{num}/{den}}}"
    return str(num) if 0 <= num <= 9 else f"{{{num}}}"


def _t_power(t: Fraction) -> str:
    e = _fmt_exp(t)
    return "T" if e == "1" else f"T^{e}"


class NovikovElement:
    """A finite sum of terms (coeff, t_exp, q_exp), kept normalized.

    Terms are stored sorted by (t_exp, q_exp) with like terms combined
    and zero coefficients dropped, so equality is plain tuple equality.
    Instances are immutable and hashable.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[Rational, Rational, int]] = ()):
        combined: dict[tuple[Fraction, int], Fraction] = {}
        for coeff, t_exp, q_exp in terms:
            if not isinstance(q_exp, int):
                raise TypeError("q-exponent must be an integer")
            key = (_frac(t_exp), q_exp)
            combined[key] = combined.get(key, Fraction(0)) + _frac(coeff)
        self._terms = tuple(
            (c, t, q) for (t, q), c in sorted(combined.items()) if c != 0
        )

    @property
    def terms(self) -> tuple[tuple[Fraction, Fraction, int], ...]:
        """Normalized terms as (coeff, t_exp, q_exp), sorted by (t_exp, q_exp)."""
        return self._terms

    # -- ring structure ------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, NovikovElement):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == NovikovElement([(other, 0, 0)])
        return NotImplemented

    def __hash__(self):
        # a constant equals its scalar, so it must hash like it
        terms = self._terms
        if not terms:
            return hash(0)
        if len(terms) == 1 and not terms[0][1] and not terms[0][2]:
            return hash(terms[0][0])
        return hash(terms)

    def __add__(self, other) -> "NovikovElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._terms, other._terms
        if not b:
            return self
        if not a:
            return other
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            ca, ta, qa = a[i]
            cb, tb, qb = b[j]
            if ta == tb and qa == qb:
                c = ca + cb
                if c:
                    out.append((c, ta, qa))
                i += 1
                j += 1
            elif ta < tb or (ta == tb and qa < qb):
                out.append(a[i])
                i += 1
            else:
                out.append(b[j])
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        return _from_normal(tuple(out))

    __radd__ = __add__

    def __sub__(self, other) -> "NovikovElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "NovikovElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __neg__(self) -> "NovikovElement":
        return _from_normal(tuple((-c, t, q) for c, t, q in self._terms))

    def __mul__(self, other) -> "NovikovElement":
        if isinstance(other, (int, Fraction)):
            if other == 1:
                return self
            if other == -1:
                return -self
            if not other:
                return ZERO
            return _from_normal(tuple((c * other, t, q) for c, t, q in self._terms))
        if not isinstance(other, NovikovElement):
            return NotImplemented
        x, y = (other, self) if len(self._terms) == 1 else (self, other)
        a, b = x._terms, y._terms
        if len(b) == 1:
            if len(a) == 1 and not a[0][2] and not a[0][1] and a[0][0] == 1:
                # x is the unit, and y the operand to return
                return y
            # one term shifts every exponent alike: the order is kept
            c2, t2, q2 = b[0]
            if c2 != 1:
                return _from_normal(
                    tuple((c1 * c2, t1 + t2, q1 + q2) for c1, t1, q1 in a)
                )
            if t2 or q2:
                return _from_normal(tuple((c1, t1 + t2, q1 + q2) for c1, t1, q1 in a))
            return x
        combined: dict[tuple[Fraction, int], Fraction] = {}
        for c1, t1, q1 in a:
            for c2, t2, q2 in b:
                key = (t1 + t2, q1 + q2)
                combined[key] = combined.get(key, 0) + c1 * c2
        return _from_normal(
            tuple((c, t, q) for (t, q), c in sorted(combined.items()) if c)
        )

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "NovikovElement":
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers are defined")
        out = ONE
        for _ in range(k):
            out = out * self
        return out

    @staticmethod
    def _coerce(other):
        if isinstance(other, NovikovElement):
            return other
        if isinstance(other, (int, Fraction)):
            return NovikovElement([(other, 0, 0)])
        return NotImplemented

    # -- valuation and truncation ---------------------------------------

    def valuation(self):
        """Least T-exponent of a nonzero term; +infinity for the zero element."""
        if not self._terms:
            return math.inf
        return self._terms[0][1]

    def truncate(self, cutoff: Rational) -> "NovikovElement":
        """Drop every term whose T-exponent exceeds cutoff."""
        cutoff = _frac(cutoff)
        return _from_normal(tuple(term for term in self._terms if term[1] <= cutoff))

    def invert(self, cutoff: Rational = DEFAULT_CUTOFF) -> "NovikovElement":
        """Inverse modulo terms of T-exponent above cutoff.

        Writes a = c*T^t*q^m * (1 + u) with val(u) > 0 and sums the
        geometric series in u until every omitted term has T-exponent
        beyond the cutoff, so a * invert(a) - 1 has valuation > cutoff.

        Raises ZeroDivisionError on the zero element and ArithmeticError
        when several terms share the minimal T-exponent (the series then
        never leaves valuation zero and no T-finite inverse exists).
        """
        if not self._terms:
            raise ZeroDivisionError("inverse of zero in the Novikov ring")
        cutoff = _frac(cutoff)
        c0, t0, q0 = self._terms[0]
        if len(self._terms) > 1 and self._terms[1][1] == t0:
            raise ArithmeticError(
                "inverse needs a unique term of least T-exponent; "
                f"got several at T^{t0}"
            )
        lead_inv = NovikovElement([(Fraction(1) / c0, -t0, -q0)])
        u = lead_inv * NovikovElement(self._terms[1:])
        acc = ONE
        power = ONE
        while True:
            power = (power * -u).truncate(cutoff)
            if not power:
                break
            acc = acc + power
        return lead_inv * acc

    # -- numeric substitution -------------------------------------------

    def numeric(self) -> float:
        """Evaluate with T^e -> exp(-e) and q -> 1."""
        return sum(float(c) * math.exp(-float(t)) for c, t, q in self._terms)

    # -- rendering -------------------------------------------------------

    def __str__(self) -> str:
        return _render(self, _t_power)

    def __repr__(self) -> str:
        return f"NovikovElement[{self}]"


def monomial(coeff: Rational = 1, t: Rational = 0, q: int = 0) -> NovikovElement:
    """Single term coeff * T^t * q^q."""
    return NovikovElement([(coeff, t, q)])


def _from_normal(terms: tuple) -> NovikovElement:
    """An element whose terms tuple is already in normal form, unchecked."""
    out = object.__new__(NovikovElement)
    out._terms = terms
    return out


def _render(x: NovikovElement, t_text: Callable[[Fraction], str]) -> str:
    """x as a signed sum of terms; t_text(t) spells T^t for t != 0.

    Each coefficient is printed from its integer numerator and
    denominator, as str(Fraction) spells it."""
    if not x._terms:
        return "0"
    parts = []
    for coeff, t, q in x._terms:
        num, den = coeff.as_integer_ratio()
        if num < 0:
            parts.append(" - ")
            num = -num
        else:
            parts.append(" + ")
        if q:
            qpart = "q" if q == 1 else f"q^{_fmt_exp(q)}"
            core = f"{t_text(t)}*{qpart}" if t else qpart
        elif t:
            core = t_text(t)
        else:
            parts.append(str(num) if den == 1 else f"{num}/{den}")
            continue
        if den != 1:
            parts.append(f"{num}/{den}*{core}")
        elif num != 1:
            parts.append(f"{num}*{core}")
        else:
            parts.append(core)
    parts[0] = "-" if parts[0] == " - " else ""
    return "".join(parts)


def _as_novikov(x: Union[Rational, NovikovElement]) -> NovikovElement:
    """A scalar coefficient as a Novikov element."""
    if isinstance(x, NovikovElement):
        return x
    return monomial(x)


ZERO = NovikovElement()
ONE = monomial(1)


class _Combination:
    """A finite Novikov-linear combination of basis keys over a space.

    Subclasses supply _normal_key(key), which returns the key in normal
    form and raises on a key outside the space, the static _grade(key)
    that orders items() and _word(key) that prints it, and _product.
    Every key is normal and every coefficient a nonzero NovikovElement.
    """

    __slots__ = ("_space", "_coeffs")

    def __init__(self, space, coeffs=()):
        self._space = space
        clean: dict = {}
        for key, c in coeffs.items() if isinstance(coeffs, Mapping) else coeffs:
            key = self._normal_key(key)
            clean[key] = clean.get(key, ZERO) + _as_novikov(c)
        self._coeffs = {k: c for k, c in clean.items() if c}

    @classmethod
    def _from_normal(cls, space, coeffs: dict):
        """A combination over keys already in normal form, unchecked; zero
        coefficients are dropped."""
        out = object.__new__(cls)
        out._space = space
        out._coeffs = {k: c for k, c in coeffs.items() if c}
        return out

    def _check_space(self, other) -> None:
        if self._space != other._space:
            raise DimensionMismatch(
                f"cannot combine {type(self).__name__}s over "
                f"{self._space} and {other._space}"
            )

    # -- linear structure --------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, type(self))
            and self._space == other._space
            and self._coeffs == other._coeffs
        )

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check_space(other)
        out = dict(self._coeffs)
        for k, c in other._coeffs.items():
            out[k] = out.get(k, ZERO) + c
        return self._from_normal(self._space, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._from_normal(self._space, {k: -c for k, c in self._coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, type(self)):
            return self._product(other)
        c = _as_novikov(other)
        return self._from_normal(self._space, {k: v * c for k, v in self._coeffs.items()})

    __rmul__ = __mul__

    # -- inspection and rendering -------------------------------------------

    def items(self):
        return sorted(self._coeffs.items(), key=lambda kv: (self._grade(kv[0]), kv[0]))

    def __str__(self) -> str:
        pieces = []
        for key, coeff in self.items():
            word, cs = self._word(key), str(coeff)
            if cs == "1":
                pieces.append(word)
            elif cs == "-1":
                pieces.append(f"-{word}")
            elif len(coeff.terms) > 1:
                pieces.append(f"({cs})*{word}")
            else:
                pieces.append(f"{cs}*{word}")
        return " + ".join(pieces).replace("+ -", "- ") if pieces else "0"

    def __repr__(self) -> str:
        return f"{type(self).__name__}[{self}]"
