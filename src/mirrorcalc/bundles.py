"""Splitting types of concavex direct sums of line bundles on P^n, and
the value classes of the package."""

from fractions import Fraction


class Record:
    """A value class whose fields are its ``__slots__``, set, compared,
    shown and pickled in slot order, as a dataclass's fields are.  (A
    dataclass would import ``inspect`` in every CLI process.)"""

    __slots__ = ()

    def __init__(self, *fields):
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._fields() == other._fields() if type(other) is type(self) else NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


class FrozenRecord(Record):
    """A Record whose fields cannot be assigned after ``__init__`` sets
    them; it hashes by its fields."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._fields())


class SplittingType(FrozenRecord):
    """A direct sum O(l_1)+..+O(l_P) + O(-k_1)+..+O(-k_N) on P^n.

    Degrees are stored as positive integers in sorted order (signs are
    implicit in convex vs concave).  The trivial bundle has P = N = 0.
    """

    __slots__ = ("n", "convex", "concave")

    def __init__(self, n, convex, concave):
        super().__init__(n, tuple(sorted(convex)), tuple(sorted(concave)))
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

    def factors(self, d, since=0):
        """The (a, b) of each linear factor a*kappa + b*alpha of P_d that
        P_since lacks: l*kappa - m*alpha for m = 0..l*d per convex l, then
        -k*kappa + m*alpha for m = 1..k*d-1 per concave k, m ascending.
        d >= 1; P_0 is 1, so since = 0 gives every factor of P_d."""
        return ([(l, -m) for l in self.convex for m in range(l * since + (since > 0), l * d + 1)]
                + [(-k, m) for k in self.concave for m in range(max(1, k * since), k * d)])

    def block_degree(self, d):
        """Homogeneity degree of the q^d block of the associated series."""
        return self.linear_factors(d) - (self.n + 1) * d

    def __str__(self):
        parts = [f"O({l})" for l in self.convex] + [f"O(-{k})" for k in self.concave]
        return "+".join(parts) if parts else "O"


class OmegaClass(FrozenRecord):
    """The invertible class prod l_a / prod(-k_b) * H^(P-N) (nonequivariant)."""

    __slots__ = ("scalar", "h_exponent")

    def __init__(self, scalar, h_exponent):
        super().__init__(scalar, h_exponent)
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
