"""Splitting types of concavex direct sums of line bundles on P^n."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class SplittingType:
    """A direct sum O(l_1)+..+O(l_P) + O(-k_1)+..+O(-k_N) on P^n.

    Degrees are stored as positive integers in sorted order (signs are
    implicit in convex vs concave).  The trivial bundle has P = N = 0.
    """

    n: int
    convex: tuple
    concave: tuple

    def __post_init__(self):
        object.__setattr__(self, "convex", tuple(sorted(self.convex)))
        object.__setattr__(self, "concave", tuple(sorted(self.concave)))
        if self.n < 1:
            raise ValueError("ambient dimension must be >= 1")
        if any(l < 1 for l in self.convex) or any(k < 1 for k in self.concave):
            raise ValueError("all splitting degrees must be >= 1 (zero is not concavex)")

    @property
    def rank_convex(self):
        return len(self.convex)

    @property
    def rank_concave(self):
        return len(self.concave)

    @property
    def total(self):
        return sum(self.convex) + sum(self.concave)

    @property
    def is_critical(self):
        """Obstruction rank equals (n+1)d + n - 3 for every d."""
        return (self.total == self.n + 1
                and self.rank_convex - self.rank_concave == self.n - 3)

    def linear_factors(self, d):
        """The number of linear factors of P_d: sum(l*d + 1) + sum(k*d - 1)."""
        return d * self.total + self.rank_convex - self.rank_concave

    def block_degree(self, d):
        """Homogeneity degree of the q^d block of the associated series."""
        return self.linear_factors(d) - (self.n + 1) * d

    def __str__(self):
        parts = [f"O({l})" for l in self.convex] + [f"O(-{k})" for k in self.concave]
        return "+".join(parts) if parts else "O"


@dataclass(frozen=True)
class OmegaClass:
    """The invertible class prod l_a / prod(-k_b) * H^(P-N) (nonequivariant)."""

    scalar: Fraction
    h_exponent: int

    def __post_init__(self):
        if self.scalar == 0:
            raise ValueError("omega class must be invertible")


def omega_class(st):
    """Euler-class ratio of the convex and concave summands."""
    scalar = Fraction(1)
    for l in st.convex:
        scalar *= l
    for k in st.concave:
        scalar /= -k
    return OmegaClass(scalar, st.rank_convex - st.rank_concave)


# Every critical direct sum of line bundles, up to the O(1) reductions.
CRITICAL_BUNDLES = (
    SplittingType(1, (), (1, 1)),
    SplittingType(2, (), (3,)),
    SplittingType(3, (2,), (2,)),
    SplittingType(4, (5,), ()),
    SplittingType(4, (2, 2), (1,)),
    SplittingType(5, (2, 4), ()),
    SplittingType(5, (3, 3), ()),
    SplittingType(6, (2, 2, 3), ()),
    SplittingType(7, (2, 2, 2, 2), ()),
)
