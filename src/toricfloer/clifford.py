"""Clifford algebra of a quadratic form over the Novikov ring.

Generators C_1, ..., C_n (0-based in code, 1-based in print) multiply by

    C_j C_i = -C_i C_j + Q_ij * 1   (i < j),      C_i C_i = (1/2) Q_ii * 1,

so the anticommutator convention C_i C_j + C_j C_i = Q_ij holds for all
pairs, including the diagonal.  Basis words C_S are indexed by sorted
index subsets S, with the empty subset playing the unit [L].  Setting
every Q entry to zero degenerates the product to the exterior algebra.

cl_mul multiplies on the right, one generator at a time: C_S * C_T is C_S
times C_{t_1}, then C_{t_2}, and so on.  The at most |w| + 1 terms of
C_w * C_i carry int signs, so no coefficient is multiplied by +-1, and
each form keeps them in a table keyed by (w, i): at most n * 2^n entries.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

from .errors import DimensionMismatch
from .novikov import ONE, ZERO, NovikovElement, _Combination
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


def _times_generator(
    Q: QuadraticForm, w: Subset, i: int
) -> tuple[tuple[Subset, int, NovikovElement | None], ...]:
    """C_w * C_i as (subset, sign, factor) terms, factor None for 1.

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
            half = Q.entries[i][i] * Fraction(1, 2)
            return (*out, (rest, sign, half)) if half else tuple(out)
        if Q.entries[w[j]][i]:
            out.append((rest, sign, Q.entries[w[j]][i]))
        sign = -sign
    out.append((w[:j] + (i,) + w[j:], sign, None))
    return tuple(out)


def cl_mul(Q: QuadraticForm, x: CliffordElement, y: CliffordElement) -> CliffordElement:
    """Product in Cl(Q), by the right action of each generator of y's
    words through Q's table; with Q = 0 this is the exterior (wedge) product."""
    if not (Q.n == x.n == y.n):
        raise DimensionMismatch(
            f"dimension mismatch: Q has n={Q.n}, factors n={x.n}, n={y.n}"
        )
    table = Q._generator_terms
    out: dict[Subset, NovikovElement] = {}
    for sy, cy in y._coeffs.items():
        terms = x._coeffs if cy == ONE else {w: c * cy for w, c in x._coeffs.items()}
        for i in sy:
            step: dict[Subset, NovikovElement] = {}
            for w, c in terms.items():
                key = (w, i)
                action = table.get(key)
                if action is None:
                    action = table[key] = _times_generator(Q, w, i)
                for subset, sign, factor in action:
                    term = c if factor is None else c * factor
                    acc = step.get(subset)
                    if acc is None:
                        step[subset] = term if sign > 0 else -term
                    else:
                        step[subset] = acc + term if sign > 0 else acc - term
            terms = step
        for subset, c in terms.items():
            out[subset] = out.get(subset, ZERO) + c
    return CliffordElement._from_normal(x.n, out)


def cl_grade(x: CliffordElement, d: int) -> CliffordElement:
    return x.grade(d)
