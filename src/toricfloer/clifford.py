"""Clifford algebra of a quadratic form over the Novikov ring.

Generators C_1, ..., C_n (0-based in code, 1-based in print) multiply by

    C_j C_i = -C_i C_j + Q_ij * 1   (i < j),      C_i C_i = (1/2) Q_ii * 1,

so the anticommutator convention C_i C_j + C_j C_i = Q_ij holds for all
pairs, including the diagonal.  Basis words C_S are indexed by sorted
index subsets S, with the empty subset playing the unit [L].  Setting
every Q entry to zero degenerates the product to the exterior algebra.

cl_mul multiplies on the right, one generator at a time: C_S * C_T is C_S
times C_{t_1}, then C_{t_2}, and so on.  Inside it a coefficient is a
dict {(t * D, q): coeff}, D the lcm of the form's T-exponent denominators
and coeff an int where integral, so exponent shifts and signs are int
arithmetic.  Each form keeps the at most |w| + 1 terms of C_w * C_i in
this form, signs folded into their coefficients, in a table keyed by
(w, i): at most n * 2^n entries, and keeps the Novikov elements its
products returned, to hand out again.  Factors whose exponents need a
finer scale than D get tables at that scale for the one call.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .errors import DimensionMismatch
from .novikov import ONE, ZERO, NovikovElement, _Combination, _from_normal
from .potential import QuadraticForm

Subset = tuple[int, ...]
Scalar = Union[int, Fraction, NovikovElement]


class CliffordElement(_Combination):
    """Linear combination of basis words C_S with Novikov coefficients."""

    __slots__ = ()

    def __init__(self, n: int, coeffs: Mapping[Subset, Scalar] = ()):
        super().__init__(n, coeffs)

    @property
    def n(self) -> int:
        return self._space

    def _normal_key(self, subset: Iterable[int]) -> Subset:
        key = tuple(subset)
        if any(not 0 <= i < self._space for i in key):
            raise DimensionMismatch(f"index subset {key} out of range for n={self._space}")
        if list(key) != sorted(set(key)):
            raise ValueError(f"index subset {key} must be strictly increasing")
        return key

    _grade = staticmethod(len)

    @staticmethod
    def _word(subset: Subset) -> str:
        return "[L]" if not subset else "C_{" + ",".join(str(i + 1) for i in subset) + "}"

    def _product(self, other):
        raise TypeError("use cl_mul(Q, x, y): the product needs the quadratic form")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "CliffordElement":
        return cls(n)

    @classmethod
    def unit(cls, n: int) -> "CliffordElement":
        """The unit [L], the class of the fiber itself."""
        return cls(n, {(): ONE})

    @classmethod
    def generator(cls, n: int, i: int) -> "CliffordElement":
        return cls(n, {(i,): ONE})

    @classmethod
    def basis_element(cls, n: int, subset: Iterable[int]) -> "CliffordElement":
        return cls(n, {tuple(subset): ONE})

    # -- inspection --------------------------------------------------------

    def coefficient(self, subset: Iterable[int]) -> NovikovElement:
        return self._coeffs.get(tuple(subset), ZERO)

    def grade(self, d: int) -> "CliffordElement":
        """The part supported on subsets of size d."""
        return self._from_normal(
            self.n, {s: c for s, c in self._coeffs.items() if len(s) == d}
        )

    def grades(self) -> set[int]:
        return {len(s) for s in self._coeffs}

    def __hash__(self):
        return hash((self.n, tuple(self.items())))


def _exponent_ints(c: NovikovElement, scale: int) -> dict | None:
    """c as {(t * scale, q): coeff}, coeff an int where it is integral, or
    None when some t * scale is not an integer."""
    if c is ONE:
        return _UNIT
    out = {}
    for a, t, q in c._terms:
        m, r = divmod(scale, t.denominator)
        if r:
            return None
        out[t.numerator * m, q] = a.numerator if a.denominator == 1 else a
    return out


_UNIT = {(0, 0): 1}  # ONE, shared: cl_mul never writes to a coefficient dict


def _times_generator(Q: QuadraticForm, w: Subset, i: int, scale: int) -> tuple:
    """C_w * C_i as the (subset, factor) terms of Q._generator_terms.

    C_i moves left past each larger index w_j, flipping the sign and
    leaving sign * Q_{w_j,i} * C_{w - w_j}; it ends as sign * C_{w + i},
    or as sign * (Q_ii / 2) * C_{w - i}.  Zero factors leave no term."""
    out = []
    sign = 1
    j = len(w)
    while j and w[j - 1] >= i:
        j -= 1
        rest = w[:j] + w[j + 1 :]
        if w[j] == i:
            half = _exponent_ints(Q.entries[i][i] * Fraction(sign, 2), scale)
            return (*out, (rest, tuple(half.items()))) if half else tuple(out)
        if Q.entries[w[j]][i]:
            out.append((rest, tuple(_exponent_ints(Q.entries[w[j]][i] * sign, scale).items())))
        sign = -sign
    out.append((w[:j] + (i,) + w[j:], None if sign > 0 else (((0, 0), -1),)))
    return tuple(out)


def _times(c: dict, factor) -> dict:
    out: dict = {}
    for (k1, q1), a1 in c.items():
        for (k2, q2), a2 in factor:
            key = k1 + k2, q1 + q2
            out[key] = out.get(key, 0) + a1 * a2
    return out


def _plus(a: dict, b: dict) -> dict:
    return {**a, **{key: a.get(key, 0) + v for key, v in b.items()}}


def cl_mul(Q: QuadraticForm, x: CliffordElement, y: CliffordElement) -> CliffordElement:
    """Product in Cl(Q), by the right action of each generator of y's
    words through Q's table; with Q = 0 this is the exterior (wedge) product."""
    if not (Q.n == x.n == y.n):
        raise DimensionMismatch(
            f"dimension mismatch: Q has n={Q.n}, factors n={x.n}, n={y.n}"
        )
    scale, table, known = Q._t_scale, Q._generator_terms, Q._coefficients
    coeffs = [*x._coeffs.values(), *y._coeffs.values()]
    ints = [_exponent_ints(c, scale) for c in coeffs]
    if None in ints:
        # a factor needs a finer scale than Q's: tables at it, for this call
        scale = math.lcm(scale, *(t.denominator for c in coeffs for _a, t, _q in c._terms))
        table, known = {}, {}
        ints = [_exponent_ints(c, scale) for c in coeffs]
    xs = dict(zip(x._coeffs, ints))
    out: dict[Subset, dict] = {}
    for sy, cy in zip(y._coeffs, ints[len(xs) :]):
        terms = xs if cy is _UNIT else {w: _times(c, cy.items()) for w, c in xs.items()}
        for i in sy:
            step: dict[Subset, dict] = {}
            for w, c in terms.items():
                action = table.get((w, i))
                if action is None:
                    action = table[w, i] = _times_generator(Q, w, i, scale)
                for subset, factor in action:
                    term = c if factor is None else _times(c, factor)
                    step[subset] = _plus(step[subset], term) if subset in step else term
            terms = step
        for subset, c in terms.items():
            out[subset] = _plus(out[subset], c) if subset in out else c
    for subset, c in out.items():
        key = tuple(sorted(c.items()))
        elem = known.get(key)
        if elem is None:
            elem = _from_normal(tuple((Fraction(a), Fraction(k, scale), q) for (k, q), a in key if a))
            if len(known) < Q.n << Q.n:
                known[key] = elem
        out[subset] = elem
    return CliffordElement._from_normal(x.n, out)


def cl_grade(x: CliffordElement, d: int) -> CliffordElement:
    return x.grade(d)
