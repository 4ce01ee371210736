"""Clifford algebra of a quadratic form over the Novikov ring.

Generators C_1, ..., C_n (0-based in code, 1-based in print) multiply by

    C_j C_i = -C_i C_j + Q_ij * 1   (i < j),      C_i C_i = (1/2) Q_ii * 1,

so the anticommutator convention C_i C_j + C_j C_i = Q_ij holds for all
pairs, including the diagonal.  Basis words C_S are indexed by sorted
index subsets S, with the empty subset playing the unit [L].  Setting
every Q entry to zero degenerates the product to the exterior algebra.
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


def _word_normal_form(
    Q: QuadraticForm, word: tuple[int, ...]
) -> tuple[tuple[Subset, NovikovElement], ...]:
    """Rewrite a generator word into the sorted-subset basis.

    Each pending word carries the sign of the transpositions that produced
    it, applied once when the sorted word is added to the result.
    """
    half = Q._half_diagonal
    out: dict[Subset, NovikovElement] = {}
    stack: list[tuple[list[int], NovikovElement, int]] = [(list(word), ONE, 1)]
    while stack:
        w, c, sign = stack.pop()
        pos = next((p for p in range(len(w) - 1) if w[p] >= w[p + 1]), None)
        if pos is None:
            key = tuple(w)
            acc = out.get(key, ZERO) + (c if sign > 0 else -c)
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
            continue
        a, b = w[pos], w[pos + 1]
        rest = w[:pos] + w[pos + 2 :]
        if a == b:
            if half[a]:
                stack.append((rest, c * half[a], sign))
        else:
            stack.append((w[:pos] + [b, a] + w[pos + 2 :], c, -sign))
            q = Q.entry(a, b)
            if q:
                stack.append((rest, c * q, sign))
    return tuple(sorted(out.items()))


def cl_mul(Q: QuadraticForm, x: CliffordElement, y: CliffordElement) -> CliffordElement:
    """Product in Cl(Q); with Q = 0 this is the exterior (wedge) product."""
    if not (Q.n == x.n == y.n):
        raise DimensionMismatch(
            f"dimension mismatch: Q has n={Q.n}, factors n={x.n}, n={y.n}"
        )
    out: dict[Subset, NovikovElement] = {}
    for sx, cx in x._coeffs.items():
        for sy, cy in y._coeffs.items():
            c = cx * cy
            for subset, unit_coeff in _word_normal_form(Q, sx + sy):
                out[subset] = out.get(subset, ZERO) + c * unit_coeff
    return CliffordElement._from_normal(x.n, out)


def cl_grade(x: CliffordElement, d: int) -> CliffordElement:
    return x.grade(d)
