"""Exact coefficient arithmetic: sparse multivariate polynomials and
rational functions over Q.

The variable universe of a session is fixed up front: the torus weights
lam0..lamN, the loop-rotation weight alpha, the ambient hyperplane class
kappa, and an inert extension variable x.  Every ``substitute`` binds
exactly one of them, given as a one-entry ``{name: value}`` mapping.
Values are immutable after construction and all operations are pure,
so they are safe to share between workers.

A polynomial is integers over one denominator: packed int keys (one
fixed-width field per exponent, the total degree on top) mapped to int
coefficients, over one positive denominator.  Adding two keys adds the
exponents, so a product is dict accumulation on int sums (the packed
exponents of Monagan and Pearce, CASC 2007), and integer order on keys
is graded-lex order.  The ring packs the key of each variable once, in
``units``.

Rational functions are stored as unreduced pairs; only the integer
content of the denominator is normalized (no multivariate gcd), and
equality is decided by cross-multiplication.

A product of homogeneous linear forms can stay unexpanded as a
``Factored`` value: a rational constant and the forms, on which
products, quotients, alpha-degrees, equality and linear changes of
variables (substitutions, the bar, swaps) act directly, expanding it
only beside a RationalFunction.  The ring interns the forms in ``forms``
and memoizes their images in ``images``, one map per change of variables
keyed by its move of ints (``_moved`` takes one as is); both only grow.
"""

import itertools
import math
from fractions import Fraction
from types import MappingProxyType

from .qseries import NEG_INF, ExactValue, _over_common_denominator

# bits per exponent field; the top bit of each is a guard, so every
# exponent and the total degree stay <= MAX_DEGREE and no key wraps
FIELD_BITS = 16
MAX_DEGREE = (1 << (FIELD_BITS - 1)) - 1
FIELD_MASK = (1 << FIELD_BITS) - 1
_UNIT = {0: 1}  # the ints of the polynomial 1, over den 1


class AlgebraError(ValueError):
    pass


class SubstitutionError(ZeroDivisionError):
    """A substitution drove a denominator to zero; carries the bound name."""

    def __init__(self, symbol):
        self.symbol = symbol
        super().__init__(f"substitution for '{symbol}' produced a zero denominator")


def _as_fraction(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise AlgebraError(f"cannot coerce {value!r} into an exact rational")


class PolyRing:
    """A polynomial ring Q[names] with a fixed, ordered variable set.

    A monomial is packed into one int: the total degree in the top
    field, then var 0 down to the last var, FIELD_BITS each; ``units``
    holds the key of each variable.  Integer order on keys is the graded
    lexicographic order on exponent tuples, the canonical term order.
    The ring interns the linear forms of its Factored values: a form is a
    tuple of coprime ints, one per variable, with a positive first nonzero
    entry, at its index in ``forms`` (``form_index`` inverts it).
    ``images`` memoizes a form's index -> its image's (g, index) per change
    of variables, keyed by its move (q, ((u, L), ...)): u -> L/q, L (index,
    int) pairs by index, no zero, in lowest terms; a binding has its move's key.
    """

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise AlgebraError("duplicate variable names")
        self.names = names
        self.index = {nm: i for i, nm in enumerate(names)}
        self.nvars = len(names)
        self.shifts = tuple(FIELD_BITS * (self.nvars - 1 - i) for i in range(self.nvars))
        self.top = FIELD_BITS * self.nvars  # shift of the total-degree field
        # the first key whose total degree sets its field's guard bit; the
        # total bounds every exponent, so this one test guards all fields
        self.limit = (MAX_DEGREE + 1) << self.top
        self.units = tuple((1 << self.top) | (1 << shift) for shift in self.shifts)
        self.zero = _poly(self, {}, 1)
        self.one = _poly(self, {0: 1}, 1)
        self.forms, self.form_index, self.images = [], {}, {}

    def pack(self, exp):
        """The key of an exponent tuple; AlgebraError outside the fields."""
        if len(exp) != self.nvars or min(exp, default=0) < 0 or sum(exp) > MAX_DEGREE:
            raise AlgebraError(f"exponent {exp} outside the {FIELD_BITS - 1}-bit fields of {self}")
        key = sum(exp)
        for e in exp:
            key = (key << FIELD_BITS) | e
        return key

    def unpack(self, key):
        return tuple((key >> s) & FIELD_MASK for s in self.shifts)

    def var(self, name):
        if name not in self.index:
            raise AlgebraError(f"unknown variable '{name}'")
        return _poly(self, {self.units[self.index[name]]: 1}, 1)

    def const(self, value):
        value = _as_fraction(value)
        return _canonical(self, {0: value.numerator}, value.denominator)

    def normal(self, ints):
        """(g, i) with ints = g * forms[i]; (0, None) for zero."""
        g = math.gcd(*ints)
        if not g:
            return 0, None
        for c in ints:
            if c:
                break
        if c < 0:
            g = -g
        form = tuple([c // g for c in ints]) if g != 1 else tuple(ints)
        i = self.form_index.get(form)
        if i is None:
            i = self.form_index[form] = len(self.forms)
            self.forms.append(form)
        return g, i

    def __eq__(self, other):
        return self is other or isinstance(other, PolyRing) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"PolyRing({', '.join(self.names)})"


def weight_ring(n):
    """The session ring Q[lam0..lam<n>, alpha, kappa, x] for P^n."""
    names = tuple(f"lam{i}" for i in range(n + 1)) + ("alpha", "kappa", "x")
    return PolyRing(names)


def _poly(ring, ints, den):
    """A Polynomial from ints and den already in canonical form."""
    p = object.__new__(Polynomial)
    p.ring, p.ints, p.den = ring, ints, den
    return p


def _canonical(ring, acc, den):
    """The Polynomial sum(acc[key] * key) / den, den > 0, in canonical
    form (acc is fresh and may be reused); AlgebraError when a key has
    reached the guard bit."""
    if acc and max(acc) >= ring.limit:
        raise AlgebraError(f"a total degree exceeds {MAX_DEGREE}, the exponent field of {ring}")
    ints = acc if all(acc.values()) else {k: c for k, c in acc.items() if c}
    g = math.gcd(den, *ints.values())
    if g != 1:
        ints = {k: c // g for k, c in ints.items()}
        den //= g
    return _poly(ring, ints, den)


def _binding(ring, bindings):
    """(index, value) of a one-entry {name: value} substitution in ring,
    a constant value as a Polynomial; AlgebraError on any other mapping."""
    if len(bindings) != 1:
        raise AlgebraError(f"a substitution binds exactly one variable, not {len(bindings)}")
    [(name, value)] = bindings.items()
    if name not in ring.index:
        raise AlgebraError(f"unknown variable '{name}'")
    if isinstance(value, (int, Fraction)):
        value = ring.const(value)
    if not isinstance(value, Polynomial) or value.ring != ring:
        raise AlgebraError(f"a binding must be a Polynomial or a constant of {ring}")
    return ring.index[name], value


class Polynomial(ExactValue):
    """Sparse multivariate polynomial with exact rational coefficients.

    Stored as ``ints`` (packed key -> nonzero int) over the positive
    common denominator ``den``, in canonical form, so equal polynomials
    have equal stored representations.  ``Polynomial(ring, terms)``
    builds one from exponent tuples mapped to ints or Fractions;
    ``terms`` is the read-only view back.  Instances are immutable.
    """

    __slots__ = ("ring", "ints", "den")

    def __init__(self, ring, terms):
        ints, den = _over_common_denominator([_as_fraction(c) for c in terms.values()])
        self.ring, self.den = ring, den
        self.ints = {ring.pack(e): c for e, c in zip(terms, ints) if c}

    @property
    def terms(self):
        """Exponent tuple -> nonzero Fraction, a read-only view built on each access."""
        unpack, den = self.ring.unpack, self.den
        return MappingProxyType({unpack(k): Fraction(c, den) for k, c in self.ints.items()})

    # -- constructors / coercion ------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise AlgebraError("mixed polynomial rings")
            return other
        return self.ring.const(other)

    # -- structure ---------------------------------------------------

    def is_zero(self):
        return not self.ints

    def sorted_terms(self):
        """(exponent tuple, Fraction) in descending graded-lex order (the
        canonical order)."""
        unpack, den = self.ring.unpack, self.den
        return [(unpack(k), Fraction(self.ints[k], den)) for k in sorted(self.ints, reverse=True)]

    def content_with_sign(self):
        """Rational content carrying the sign of the leading coefficient.

        Dividing by this makes the coefficients coprime integers with a
        positive leading coefficient.  Content of 0 is 0.
        """
        if not self.ints:
            return Fraction(0)
        content = Fraction(math.gcd(*self.ints.values()), self.den)
        return content if self.ints[max(self.ints)] > 0 else -content

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        acc = {k: c * sa for k, c in self.ints.items()}
        get = acc.get
        for k, c in other.ints.items():
            acc[k] = get(k, 0) + c * sb
        return _canonical(self.ring, acc, den)

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.ring, {k: -c for k, c in self.ints.items()}, self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            num = other.numerator
            return _canonical(self.ring, {k: c * num for k, c in self.ints.items()},
                              self.den * other.denominator)
        other = self._coerce(other)
        if self.den == 1 and self.ints == _UNIT:
            return other
        if other.den == 1 and other.ints == _UNIT:
            return self
        acc = {}
        get = acc.get
        for k1, c1 in self.ints.items():
            for k2, c2 in other.ints.items():
                k = k1 + k2
                acc[k] = get(k, 0) + c1 * c2
        return _canonical(self.ring, acc, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise AlgebraError("polynomial powers must be nonnegative integers")
        result = self.ring.one
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.den == other.den and self.ints == other.ints

    # -- substitution ---------------------------------------------------

    def substitute(self, bindings):
        """Substitution of a polynomial (or constant) value for one
        variable: the terms, grouped by their exponent e of it, each group
        with the variable dropped and times the cached power value**e."""
        ring = self.ring
        v, value = _binding(ring, bindings)
        shift, unit = ring.shifts[v], ring.units[v]
        groups = {}  # exponent e -> the terms that have it
        for k, c in self.ints.items():
            groups.setdefault((k >> shift) & FIELD_MASK, {})[k] = c
        powers = [ring.one, value]
        while len(powers) <= max(groups, default=0):
            powers.append(powers[-1] * value)
        den = math.lcm(*(powers[e].den for e in groups))
        acc = {}
        get = acc.get
        for e, group in groups.items():
            scale = den // powers[e].den
            # each key k of the group becomes k - e * unit + pk
            shifted = [(pk - e * unit, pc * scale) for pk, pc in powers[e].ints.items()]
            for k, c in group.items():
                for pk, pc in shifted:
                    key = k + pk
                    acc[key] = get(key, 0) + c * pc
        return _canonical(ring, acc, self.den * den)

    # -- rendering ------------------------------------------------------

    def __str__(self):
        out = ""
        for exp, c in self.sorted_terms():
            mono = "*".join(name if e == 1 else f"{name}^{e}"
                            for name, e in zip(self.ring.names, exp) if e)
            piece = (str(c) if not mono else mono if c == 1 else f"-{mono}" if c == -1
                     else f"{c}*{mono}")
            out += piece if not out else f" - {piece[1:]}" if piece[0] == "-" else f" + {piece}"
        return out or "0"


class RationalFunction(ExactValue):
    """Quotient of two polynomials; den != 0 and its content is 1.

    No polynomial gcd is taken: only the integer content of the
    denominator is cleared (leading coefficient positive), and equality
    is by cross-multiplication.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = num.ring.one
        if num.ring != den.ring:
            raise AlgebraError("numerator and denominator from different rings")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in rational function")
        if num.is_zero():
            den = num.ring.one
        else:
            content = den.content_with_sign()
            if content != 1:
                inv = 1 / content
                num = num * inv
                den = den * inv
        self.num = num
        self.den = den

    @property
    def ring(self):
        return self.num.ring

    @staticmethod
    def promote(ring, value):
        if isinstance(value, RationalFunction):
            if value.ring != ring:
                raise AlgebraError("mixed rings")
            return value
        if isinstance(value, Polynomial):
            return RationalFunction(value)
        if isinstance(value, Factored):
            return value.expand()
        return RationalFunction(ring.const(value))

    def is_zero(self):
        return self.num.is_zero()

    def _coerce(self, other):
        return RationalFunction.promote(self.ring, other)

    def __add__(self, other):
        other = self._coerce(other)
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __eq__(self, other):
        if isinstance(other, (RationalFunction, Polynomial, int, Fraction)):
            return rf_equal(self, self._coerce(other))
        return NotImplemented

    def substitute(self, bindings):
        """Substitute a polynomial or constant for one variable in num and
        den; SubstitutionError when the denominator collapses to zero."""
        num, den = self.num.substitute(bindings), self.den.substitute(bindings)
        if den.is_zero():
            raise SubstitutionError(*bindings)
        return RationalFunction(num, den)

    def alpha_degrees(self):
        """The alpha-degrees of the numerator and the denominator, read
        off the alpha field of their keys; NEG_INF for a zero numerator."""
        shift = self.ring.shifts[self.ring.index["alpha"]]
        return tuple(max(((k >> shift) & FIELD_MASK for k in p.ints), default=NEG_INF)
                     for p in (self.num, self.den))

    def __str__(self):
        if self.den == self.ring.one:
            return str(self.num)
        return f"({self.num}) / ({self.den})"


# -- factored values ---------------------------------------------------


def _linear(p):
    """A homogeneous linear Polynomial as (ints, den): one int per ring
    variable, over the denominator of p."""
    ints = [p.ints.get(k, 0) for k in p.ring.units]
    if len(p.ints) != len(ints) - ints.count(0):
        raise AlgebraError(f"{p} is not a homogeneous linear form")
    return ints, p.den


def _int_parts(ring, num, den=(), const=1):
    """(const, num, den) of the Factored value const * prod(num) / prod(den),
    each form given as (ints, q): one int per ring variable, over q > 0."""
    const = _as_fraction(const)
    scale, parts = [const.numerator, const.denominator], ({}, {})
    for side, forms in enumerate((num, den)):
        for ints, q in forms:
            g, i = ring.normal(ints)  # ints/q = g/q * forms[i]
            if i is None and side:
                raise ZeroDivisionError("zero linear form in a denominator")
            scale[side] *= g
            scale[1 - side] *= q
            if i is not None:
                parts[side][i] = parts[side].get(i, 0) + 1
    const = Fraction(*scale)
    return (const, *parts) if const else (const, {}, {})


def _factored(ring, const, num, den):
    """A Factored value from its parts, already in canonical form."""
    f = object.__new__(Factored)
    f.ring, f.const, f.num, f.den, f._expanded = ring, const, num, den, None
    return f


def _merge(a, b):
    """The multiset sum of two form -> exponent maps."""
    if not b:
        return a
    if not a:
        return b
    out = dict(a)
    for form, e in b.items():
        out[form] = out.get(form, 0) + e
    return out


class Factored:
    """const * prod(f ** e for f in num) / prod(f ** e for f in den),
    every f a homogeneous linear form, kept as its index in the ring's
    ``forms`` (``ring.normal`` interns it) mapped to its exponent.

    ``Factored(ring, num, den, const)`` takes the forms as linear
    Polynomials.  Numerator and denominator are kept apart, uncancelled,
    so ``expand`` gives the RationalFunction that the same products,
    bars and substitutions give on the expanded operands.  Equality
    cancels; that is exact because Q[vars] is a UFD and distinct forms
    are coprime irreducibles.  A zero value has no forms.  Instances are
    immutable.
    """

    __slots__ = ("ring", "const", "num", "den", "_expanded")

    def __init__(self, ring, num=(), den=(), const=1):
        self.ring, self._expanded = ring, None
        self.const, self.num, self.den = _int_parts(ring, map(_linear, num), map(_linear, den),
                                                    const)

    def is_zero(self):
        return not self.const

    def __mul__(self, other):
        if not isinstance(other, Factored):
            return NotImplemented
        if other.ring is not self.ring:
            raise AlgebraError("factored values of different ring instances")
        if not self.const or not other.const:
            return _factored(self.ring, Fraction(0), {}, {})
        return _factored(self.ring, self.const * other.const,
                         _merge(self.num, other.num), _merge(self.den, other.den))

    def __truediv__(self, other):
        if not isinstance(other, Factored):
            return NotImplemented
        if not other.const:
            raise ZeroDivisionError("division by a zero factored value")
        return self * _factored(other.ring, 1 / other.const, other.den, other.num)

    def __eq__(self, other):
        if not isinstance(other, Factored):
            return NotImplemented
        if other.ring is not self.ring:
            return self.expand() == other.expand()
        return (self.const == other.const
                and _merge(self.num, other.den) == _merge(other.num, self.den))

    def substitute(self, bindings):
        """Substitution of a homogeneous linear Polynomial for one variable: its move."""
        v, value = _binding(self.ring, bindings)
        ints, q = _linear(value)
        return _map_forms(self, q, ((v, tuple((w, c) for w, c in enumerate(ints) if c)),))

    def alpha_degrees(self):
        """The alpha-degrees of the numerator and the denominator."""
        if not self.const:
            return NEG_INF, 0
        ia, forms = self.ring.index["alpha"], self.ring.forms
        return tuple(sum(e for i, e in side.items() if forms[i][ia])
                     for side in (self.num, self.den))

    def expand(self):
        """The RationalFunction, built on first use."""
        if self._expanded is None:
            ring = self.ring

            def power(i, e):
                return _poly(ring, {k: c for k, c in zip(ring.units, ring.forms[i]) if c}, 1) ** e

            self._expanded = RationalFunction(
                math.prod(itertools.starmap(power, self.num.items()), start=ring.const(self.const)),
                math.prod(itertools.starmap(power, self.den.items()), start=ring.one))
        return self._expanded

    def __str__(self):
        return str(self.expand())


def _map_forms(p, q, moves):
    """p under the change of variables (q, moves): each u of moves, (u, L)
    pairs with L an integral form as (index, int) pairs, goes to L/q, and
    a form f to (q*f + sum f[u] * (L - q*e_u)) / q = g/q * forms[j], (g, j)
    the normal of that numerator, memoized in ``ring.images[q, moves]``.
    The denominator goes first: a vanishing form raises SubstitutionError
    there, naming the first u of moves, and gives zero in the numerator."""
    ring, parts = p.ring, ({}, {})
    images = ring.images.setdefault((q, moves), {})
    scale = [p.const.numerator * q ** sum(p.den.values()),
             p.const.denominator * q ** sum(p.num.values())]
    for side in (1, 0):
        out = parts[side]
        for i, e in (p.den if side else p.num).items():
            image = images.get(i)
            if image is None:
                form = ring.forms[i]
                ints = [q * c for c in form] if q != 1 else list(form)
                for u, target in moves:
                    ints[u] -= q * form[u]
                    for w, c in target:
                        ints[w] += form[u] * c
                image = images[i] = ring.normal(ints)
            g, j = image
            if j is None:
                if side:
                    raise SubstitutionError(ring.names[moves[0][0]])
                return _factored(ring, Fraction(0), {}, {})
            out[j] = out.get(j, 0) + e
            scale[side] *= g if e == 1 else g ** e
    return _factored(ring, Fraction(*scale), *parts)


def _moved(value, move):
    """value under the move (q, ((v, L),)), v -> L/q, as ``images`` keys it:
    Factored by ``_map_forms``, else by ``substitute`` with the Polynomial L/q."""
    if isinstance(value, Factored):
        return _map_forms(value, *move)
    (q, ((v, target),)), ring = move, value.ring
    return value.substitute({ring.names[v]: _poly(ring, {ring.units[w]: c for w, c in target}, q)})


def expanded(value):
    """A RationalFunction as is, a Factored value expanded."""
    return value.expand() if isinstance(value, Factored) else value


# -- module operations -------------------------------------------------


def bar_involution(p):
    """The involution alpha -> -alpha, every other variable fixed; on
    fixed-point restrictions, which are kappa-free, this is the bar
    involution.  Applying it twice is the identity."""
    if isinstance(p, RationalFunction):
        return RationalFunction(bar_involution(p.num), bar_involution(p.den))
    ia = p.ring.index.get("alpha")
    if ia is None:
        raise AlgebraError("ring has no alpha variable")
    if isinstance(p, Factored):  # the move alpha -> -alpha
        return _map_forms(p, 1, ((ia, ((ia, -1),)),))
    shift = p.ring.shifts[ia]
    return _poly(p.ring, {k: -c if k >> shift & 1 else c for k, c in p.ints.items()}, p.den)


def transposition(p, a, b):
    """The ring automorphism lam_a <-> lam_b: two fields of each key, or
    two ints of each form (the form map), swapped; a RationalFunction is
    rebuilt, since its leading sign may change."""
    ring = p.ring
    va, vb = ring.index[f"lam{a}"], ring.index[f"lam{b}"]
    if isinstance(p, RationalFunction):
        return RationalFunction(transposition(p.num, a, b), transposition(p.den, a, b))
    if isinstance(p, Polynomial):
        sa, sb = ring.shifts[va], ring.shifts[vb]
        both = (1 << sa) | (1 << sb)
        return _poly(ring, {k ^ ((k >> sa ^ k >> sb) & FIELD_MASK) * both: c
                            for k, c in p.ints.items()}, p.den)
    return _map_forms(p, 1, ((va, ((vb, 1),)), (vb, ((va, 1),))))


def rf_equal(f, g):
    """Exact equality of rational functions via cross-multiplication; of
    two Factored values, by their constants and cancelled forms; of one
    of each, by expansion."""
    if isinstance(f, Factored) and isinstance(g, Factored):
        return f == g
    f, g = expanded(f), expanded(g)
    return f.num * g.den == g.num * f.den
