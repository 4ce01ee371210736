"""Chain-level correction of classical cycles to Floer cycles.

The model is the free graded-commutative algebra over the Novikov ring
on three families of symbols attached to a fiber:

* l_1 .. l_n   the coordinate one-cycles of the fiber torus (odd),
* d_1 .. d_N   the basic disc boundaries (odd),
* Q_1 .. Q_l   one correction two-chain per class of equal-area facets
               (even), one class per distinct disc area.

The only relation carried by the differential is boundary(Q_t) =
-(sum of d_j over the facets j in class t), which exists exactly when
the fiber is balanced.  Everything else is free, so an identity that
normalizes to zero here holds for every admissible choice of the
correction chains.

The deformed differential is d(e) = (-1)^n (boundary(e) + D * e) with
D = sum_j T^{e_j} q d_j.  For a classical cycle P (l-generators only)
the certificate is d(T * P) = 0 for the tower T = prod_t (1 + T^{a_t}
q Q_t), with a_t the area of class t; corrected_cycle builds T * P.
d of it telescopes down to terms that each contain a factor
(sum_{j in class t} d_j) * Q_t.  Such a factor is minus half the
boundary of the degenerate square Q_t * Q_t, a chain whose image in the
torus has lower dimension than the chain itself, so it vanishes as a
current together with its boundary.  The verifier therefore reduces
d of the corrected cycle modulo these degenerate pairs and reports how
many residual terms needed the rule, separating the ones whose symbolic
dimension already exceeds the torus dimension n (those die as currents
for dimension reasons alone).  Over-dimensional correction terms are
kept in every expression, never dropped, and the counts are surfaced so
a report can flag them.

Signs, (-1)^n and the shuffle signs of products, boundaries and the
degenerate-pair reduction, are applied by negating a coefficient, never
by multiplying it by an integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Iterable, Mapping, Union

from .errors import DimensionMismatch, NotBalanced
from .novikov import ONE, ZERO, NovikovElement, _Combination, monomial
from .toric import Fiber, ToricFano, _fiber_areas

OddGen = tuple[str, int]  # ("d", j) or ("l", i); "d" sorts before "l"
Monomial = tuple[tuple[int, ...], tuple[OddGen, ...]]  # (even Q multiset, odds)
Scalar = Union[int, Fraction, NovikovElement]

Dims = tuple[int, int, int]  # (n, N, number of area classes)


def _merge_odds(a: tuple[OddGen, ...], b: tuple[OddGen, ...]):
    """Sorted merge with the sign of the shuffle; None on a repeated odd."""
    i = j = inversions = 0
    out: list[OddGen] = []
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            inversions += len(a) - i
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return (-1 if inversions % 2 else 1), tuple(out)


def _degree(mono: Monomial) -> int:
    evens, odds = mono
    return len(odds) + 2 * len(evens)


class ChainExpression(_Combination):
    """A Novikov-linear combination of monomials in the chain symbols."""

    __slots__ = ()

    def __init__(self, dims: Dims, coeffs: Mapping[Monomial, Scalar] = ()):
        super().__init__(dims, coeffs)

    @property
    def dims(self) -> Dims:
        return self._space

    def _normal_key(self, mono: Monomial) -> Monomial:
        n, N, l = self._space
        evens, odds = mono
        evens = tuple(sorted(evens))
        if any(not 0 <= t < l for t in evens):
            raise DimensionMismatch(f"correction index out of range in {mono}")
        for kind, i in odds:
            limit = N if kind == "d" else n
            if kind not in ("d", "l") or not 0 <= i < limit:
                raise DimensionMismatch(f"bad odd generator {(kind, i)}")
        if list(odds) != sorted(set(odds)):
            raise ValueError(f"odd generators must be strictly sorted in {mono}")
        return (evens, tuple(odds))

    _grade = staticmethod(_degree)

    @staticmethod
    def _word(mono: Monomial) -> str:
        evens, odds = mono
        gens = [f"Q_{t + 1}" for t in evens] + [f"{kind}_{i + 1}" for kind, i in odds]
        return "*".join(gens) if gens else "1"

    def _product(self, other: "ChainExpression") -> "ChainExpression":
        """The graded-commutative product: evens commute, odds shuffle."""
        self._check_space(other)
        out: dict[Monomial, NovikovElement] = {}
        for (e1, o1), c1 in self._coeffs.items():
            for (e2, o2), c2 in other._coeffs.items():
                merged = _merge_odds(o1, o2)
                if merged is None:
                    continue
                sign, odds = merged
                key = (tuple(sorted(e1 + e2)), odds)
                c = c1 * c2
                out[key] = out.get(key, ZERO) + (c if sign > 0 else -c)
        return self._from_normal(self.dims, out)

    # -- inspection ----------------------------------------------------------

    def coefficient(self, mono: Monomial) -> NovikovElement:
        evens, odds = mono
        return self._coeffs.get((tuple(sorted(evens)), tuple(odds)), ZERO)

    def monomials(self) -> list[Monomial]:
        return [m for m, _ in self.items()]

    def max_degree(self) -> int:
        return max((_degree(m) for m in self._coeffs), default=0)

    def part_above_degree(self, n: int) -> "ChainExpression":
        """Terms whose symbolic chain dimension exceeds n (kept, flaggable)."""
        return self._from_normal(
            self.dims, {m: c for m, c in self._coeffs.items() if _degree(m) > n}
        )

    def is_classical(self) -> bool:
        """True when only l-generators occur (no discs, no corrections)."""
        return all(
            not evens and all(kind == "l" for kind, _ in odds)
            for evens, odds in self._coeffs
        )


@dataclass(frozen=True)
class ChainMapCertificate:
    """Outcome of checking that correction makes a cycle closed.

    residual_terms counts the monomials left after exact cancellation;
    every one of them must carry a degenerate pair (a correction chain
    next to its own class disc sum) for the check to succeed.  The split
    into overdimension_terms (symbolic dimension > n, zero as currents
    for dimension reasons) and square_rule_terms (dimension <= n, zero
    because they assemble into boundaries of degenerate squares) is
    informational and is surfaced by reports.
    """

    holds: bool
    residual_terms: int
    overdimension_terms: int
    square_rule_terms: int
    reduced_to_zero: bool
    filtration_ok: bool
    correction_terms_above_n: int


@dataclass(frozen=True)
class ChainAlgebra:
    """Chain symbols and operations attached to one interior fiber."""

    n: int
    N: int
    facet_areas: tuple[Fraction, ...]
    class_areas: tuple[Fraction, ...]
    class_members: tuple[tuple[int, ...], ...]
    balanced: bool

    @classmethod
    def for_fiber(cls, X: ToricFano, f: Fiber) -> "ChainAlgebra":
        classes, partition, balance = _fiber_areas(X, f)
        return cls(
            n=X.n,
            N=X.num_facets,
            facet_areas=tuple(d.area for d in classes),
            class_areas=tuple(a for a, _ in partition),
            class_members=tuple(idxs for _, idxs in partition),
            balanced=balance.balanced,
        )

    @property
    def dims(self) -> Dims:
        return (self.n, self.N, len(self.class_areas))

    # -- element factories ---------------------------------------------------

    def zero(self) -> ChainExpression:
        return ChainExpression(self.dims)

    def one(self) -> ChainExpression:
        """The point class, the empty product."""
        return ChainExpression(self.dims, {((), ()): ONE})

    def l(self, i: int) -> ChainExpression:
        return ChainExpression(self.dims, {((), (("l", i),)): ONE})

    def d(self, j: int) -> ChainExpression:
        return ChainExpression(self.dims, {((), (("d", j),)): ONE})

    def Q(self, t: int) -> ChainExpression:
        return ChainExpression(self.dims, {((t,), ()): ONE})

    def l_monomial(self, indices: Iterable[int]) -> ChainExpression:
        """l_{i_1} * ... * l_{i_k}: the sorted monomial times the sign of
        the permutation, and zero when an index repeats."""
        indices = tuple(indices)
        odds = tuple(("l", i) for i in sorted(set(indices)))
        if len(odds) < len(indices):
            coeff = ZERO
        else:
            inversions = sum(1 for a, b in combinations(indices, 2) if a > b)
            coeff = -ONE if inversions % 2 else ONE
        return ChainExpression(self.dims, {((), odds): coeff})

    # -- values derived once per algebra -----------------------------------

    @cached_property
    def _disc_sum(self) -> ChainExpression:
        """D = sum_j T^{e_j} q d_j."""
        return ChainExpression._from_normal(
            self.dims,
            {
                ((), (("d", j),)): monomial(1, area, 1)
                for j, area in enumerate(self.facet_areas)
            },
        )

    @cached_property
    def _tower(self) -> ChainExpression:
        """T = prod_t (1 + T^{a_t} q Q_t)."""
        out = self.one()
        for t, area in enumerate(self.class_areas):
            Q_term = ChainExpression._from_normal(self.dims, {((t,), ()): monomial(1, area, 1)})
            out = out + Q_term * out
        return out

    # -- operations -------------------------------------------------------------

    def boundary(self, e: ChainExpression) -> ChainExpression:
        """The derivation with boundary(l) = boundary(d) = 0 and
        boundary(Q_t) = -(sum of d_j over class t)."""
        self._check(e)
        out: dict[Monomial, NovikovElement] = {}
        for (evens, odds), c in e._coeffs.items():
            if not evens:
                continue
            neg_c = -c
            for p, t in enumerate(evens):
                rest = evens[:p] + evens[p + 1 :]
                for j in self.class_members[t]:
                    merged = _merge_odds((("d", j),), odds)
                    if merged is None:
                        continue
                    sign, new_odds = merged
                    key = (rest, new_odds)
                    out[key] = out.get(key, ZERO) + (neg_c if sign > 0 else c)
        return ChainExpression._from_normal(self.dims, out)

    def floer_differential(self, e: ChainExpression) -> ChainExpression:
        """(-1)^n (boundary(e) + D * e) with D = sum_j T^{e_j} q d_j.

        D is built once per algebra; the sign (-1)^n is a negation of
        the sum, applied only when n is odd.
        """
        self._check(e)
        out = self.boundary(e) + self._disc_sum * e
        return -out if self.n % 2 else out

    def corrected_cycle(self, P: ChainExpression) -> ChainExpression:
        """T * P, with T = prod_t (1 + T^{a_t} q Q_t) the correction tower.

        Defined for classical expressions (l-generators only) over a
        balanced fiber; correction terms of symbolic dimension above n
        are kept (callers may flag them via part_above_degree).  T is
        built once per algebra.
        """
        self._check_correctable(P)
        return self._tower * P

    def reduce_degenerate_pairs(self, e: ChainExpression) -> ChainExpression:
        """Normal form modulo the ideal of degenerate pairs
        (sum_{j in class t} d_j) * Q_t.

        In a monomial containing Q_t together with the largest disc
        symbol d_{j*} of class t, that symbol is rewritten to minus the
        sum of the remaining class members.  Leading symbols of distinct
        classes are disjoint, so the rewriting is confluent, and each
        step shrinks the multiset of disc indices: it terminates.  The
        normal form is therefore linear, and it is computed in one
        worklist pass: each term is rewritten until no redex is left and
        only then added into the result.
        """
        self._check(e)
        leaders = {
            members[-1]: t for t, members in enumerate(self.class_members)
        }
        out: dict[Monomial, NovikovElement] = {}
        work = list(e._coeffs.items())
        while work:
            mono, c = work.pop()
            evens, odds = mono
            for p, (kind, jstar) in enumerate(odds):
                if kind == "d" and jstar in leaders and leaders[jstar] in evens:
                    break
            else:
                out[mono] = out.get(mono, ZERO) + c
                continue
            # d_{j*} leaves place p (sign (-1)^p) and each other member
            # of its class is shuffled in, with minus the coefficient
            stripped = odds[:p] + odds[p + 1 :]
            out_even = p % 2 == 0
            neg_c = -c
            for j in self.class_members[leaders[jstar]]:
                if j == jstar:
                    continue
                merged = _merge_odds((("d", j),), stripped)
                if merged is None:
                    continue
                sign_in, new_odds = merged
                same = (sign_in > 0) == out_even
                work.append(((evens, new_odds), neg_c if same else c))
        return ChainExpression._from_normal(self.dims, out)

    def chain_map_certificate(self, P: ChainExpression) -> ChainMapCertificate:
        """Check that the corrected cycle C = T * P is closed for the
        deformed differential, in the strongest sense available
        symbolically: E = d(C) reduces to zero modulo degenerate pairs,
        and no coefficient of C at Q_S * odds has a lower valuation than
        that of odds in P.
        """
        C = self.corrected_cycle(P)
        E = self.floer_differential(C)
        reduced_to_zero = not self.reduce_degenerate_pairs(E)
        filtration_ok = all(
            c.valuation() >= P._coeffs[((), odds)].valuation()
            for (_, odds), c in C._coeffs.items()
        )
        residual = len(E._coeffs)
        overdim = len(E.part_above_degree(self.n)._coeffs)
        return ChainMapCertificate(
            holds=reduced_to_zero and filtration_ok,
            residual_terms=residual,
            overdimension_terms=overdim,
            square_rule_terms=residual - overdim,
            reduced_to_zero=reduced_to_zero,
            filtration_ok=filtration_ok,
            correction_terms_above_n=len(C.part_above_degree(self.n)._coeffs),
        )

    def verify_chain_map(self, P: ChainExpression) -> bool:
        return self.chain_map_certificate(P).holds

    def _check(self, e: ChainExpression):
        if e.dims != self.dims:
            raise DimensionMismatch(
                f"expression dims {e.dims} do not match fiber dims {self.dims}"
            )

    def _check_correctable(self, P: ChainExpression):
        """P is classical and the fiber balanced, as correction needs."""
        self._check(P)
        if not P.is_classical():
            raise ValueError("corrected_cycle expects an expression in l-generators")
        if not self.balanced:
            raise NotBalanced(
                "correction chains only exist over a balanced fiber "
                "(each class disc-boundary sum must be null-homologous)"
            )


def boundary(X: ToricFano, f: Fiber, e: ChainExpression) -> ChainExpression:
    return ChainAlgebra.for_fiber(X, f).boundary(e)


def floer_differential(X: ToricFano, f: Fiber, e: ChainExpression) -> ChainExpression:
    return ChainAlgebra.for_fiber(X, f).floer_differential(e)


def corrected_cycle(X: ToricFano, f: Fiber, P: ChainExpression) -> ChainExpression:
    return ChainAlgebra.for_fiber(X, f).corrected_cycle(P)


def chain_map_certificate(X: ToricFano, f: Fiber, P: ChainExpression) -> ChainMapCertificate:
    return ChainAlgebra.for_fiber(X, f).chain_map_certificate(P)


def verify_chain_map(X: ToricFano, f: Fiber, P: ChainExpression) -> bool:
    return ChainAlgebra.for_fiber(X, f).verify_chain_map(P)
