"""Euler data: hypergeometric construction, restriction tables, and the
symbolic verifiers for the gluing, reciprocity, linking and degree-bound
identities, together with the Lagrange map and the mirror-group action
on degree-zero restriction sequences.

Closed-form data is a rule d -> P_d, a product of linear forms in
(kappa, alpha) and optionally x.  Verifiers consume restriction tables:
the values of P_d at the fixed-point weights kappa = lam_i + r*alpha.
An invertible class Omega supplies the d = 0 entry, and "bar" on
restrictions flips the sign of alpha only.

``to_table`` builds each P_d once and keeps each restriction (on a
lam-free rule made on first read, at p_0 and swapped from it, below) and
each Omega restriction as a ``Factored`` value: a constant times linear
forms.  The checks multiply, bar, substitute (by int moves) and compare
the forms and expand nothing; a value is expanded, once, only where a
RationalFunction is needed: ``entries``, ``entry`` (and so
``restriction_sequence`` and ``check_linked``) and a printed witness,
which prints as the same operations give it on expanded values.  A table
of RationalFunctions, such as ``lagrange_map`` builds, goes through the
same checks unexpanded.

Every verifier walks the (d, i, r) index grid through ``_grid`` and
records "pass", "fail" with a witness, or "inconclusive" when a
substitution hits a vanishing denominator.  Gluing, reciprocity and
linking decide by orbit: if the values at p_k are those at p_0 under
lam_0 <-> lam_k, and those at p_0 are fixed by each lam_1 <-> lam_k
(point symmetry), a permutation of the lam with 0 -> i, 1 -> j is a ring
automorphism that commutes with the bar and carries each identity at
(0, 1), binding included, to the one at (i, j), and gluing's at p_0 to
the one at p_i, so if those pass, all do, with no work; the degree bound
gives p_k p_0's verdict.  Point symmetry is one bool record, set where a
table or sequence is built: ``to_table`` decides it by Omega on a
lam-free rule, ``mirror_transform`` by its multiplier on recorded input,
and ``lagrange_map`` and ``restriction_sequence`` pass it on.  The checks
read it, and the transform and the Lagrange map build by it, at p_0 and
swapped to each p_k on read, as ``to_table`` does on a lam-free rule.  A
table or sequence from a constructor holds none: decided point by point.
The transform runs over alpha.  Every summand it adds to P_d(lam_i)
carries lam_i - lam_j - d*alpha, so ``check_mirror_linked`` decides
linking in closed form: at alpha = (lam_i - lam_j)/d it compares
P_d(lam_i) with (bar(Omega)/Omega) * P_d(lam_i), and runs no transform.
"""

import functools
import itertools
import json
import operator
from collections.abc import Mapping
from fractions import Fraction

from .algebra import (Factored, RationalFunction, SubstitutionError, _factored, _int_parts,
                      _moved, bar_involution, expanded, rf_equal, transposition, weight_ring)
from .bundles import Record, omega_class
from .qseries import ScalarQSeries, mirror_powers


class EulerDataError(ValueError):
    pass


# ---------------------------------------------------------------------
# closed-form data


class EulerDataClosed:
    """A sequence d -> P_d given in closed form, plus its invertible class.

    ``rule(d, ring)`` must return P_d as a Factored product of linear
    forms in kappa, alpha (and x for x-extended data), which ``factors``
    builds on each call; ``omega_restriction(i, ring)`` gives the
    Factored restriction of the invertible class at the i-th fixed point.
    """

    def __init__(self, n, rule, omega_restriction):
        self.n = n
        self.ring = weight_ring(n)
        self._rule = rule
        self._omega_restriction = omega_restriction

    def factors(self, d):
        if d < 1:
            raise EulerDataError("closed-form data is indexed by d >= 1")
        return self._rule(d, self.ring)

    def omega_restriction(self, i):
        if not 0 <= i <= self.n:
            raise EulerDataError(f"fixed point index {i} out of range")
        return self._omega_restriction(i, self.ring)


def build_hypergeom_data(st, with_x=False):
    """The hypergeometric Euler data attached to a splitting type.

    P_d is the product of the linear factors a*kappa + b*alpha of
    st.factors(d), the one source of them: (l*kappa - m*alpha) over
    m = 0..l*d for each convex degree l and (-k*kappa + m*alpha) over
    m = 1..k*d-1 for each concave degree k; with_x adds the inert x to
    every linear factor.  The forms of P_d and Omega are built as their
    ints, with no Polynomial arithmetic.  The trivial bundle gives 1.
    """
    def rule(d, ring):  # x + a*kappa + b*alpha in weight_ring's order: the lam, alpha, kappa, x
        lams = [0] * (ring.nvars - 3)
        return _factored(ring, *_int_parts(ring, ((lams + [b, a, int(with_x)], 1)
                                                  for a, b in st.factors(d))))

    def omega_restriction(i, ring):
        lam = f"lam{i}"
        if with_x:
            return _product(ring, [{"x": 1, lam: l} for l in st.convex],
                            [{"x": 1, lam: -k} for k in st.concave])
        om = omega_class(st)
        return _product(ring, [{lam: 1}] * om.h_exponent, [{lam: 1}] * -om.h_exponent, om.scalar)

    return EulerDataClosed(st.n, rule, omega_restriction)


def endpoint_weights_data(n):
    """The data Q_d = kappa*(kappa - d*alpha), whose restrictions are the
    weight products at the two ends of an orbit; its class restricts to
    lam_i^2."""
    def rule(d, ring):
        return _product(ring, [{"kappa": 1}, {"kappa": 1, "alpha": -d}])

    return EulerDataClosed(n, rule, lambda i, ring: _product(ring, [{f"lam{i}": 1}] * 2))


def _product(ring, num, den=(), const=1):
    """const * prod(num) / prod(den), each form {name: int}, built as its ints."""
    forms = [[([f.get(nm, 0) for nm in ring.names], 1) for f in side] for side in (num, den)]
    return _factored(ring, *_int_parts(ring, *forms, const))


def _move(ring, v, form, q=1):
    """The move (``algebra._moved``) of v -> form/q, form {name: int} coprime to q."""
    return q, ((ring.index[v], tuple(sorted((ring.index[u], c) for u, c in form.items() if c))),)


def _weight(ring, i, r):
    """The move of kappa -> lam_i + r*alpha."""
    return _move(ring, "kappa", {f"lam{i}": 1, "alpha": r})


def _upto(d):
    return range(d + 1)


def _grid(d_max, *axes):
    """Index tuples (d, a, b, ...) for 1 <= d <= d_max, d varying
    slowest and the last axis fastest; each axis is a range, or a
    function of d that returns one.  ``_grid(d_max, range(n + 1), _upto)``
    is the (d, i, r) grid of a restriction table."""
    for d in range(1, d_max + 1):
        for rest in itertools.product(*(ax(d) if callable(ax) else ax for ax in axes)):
            yield (d, *rest)


def to_table(ed, d_max):
    """All restrictions up to degree d_max, factored.  By orbit on a lam-free rule:
    each p_0 entry substituted on first read, which cannot raise (a*kappa + b*alpha + c*x
    goes to a*lam_i + (a*r + b)*alpha + c*x), and recorded point-symmetric if Omega is,
    decided here; a rule with a lam is substituted at every p_i here, where it raises."""
    if d_max < 1:
        raise EulerDataError("d_max must be >= 1")
    weight = functools.cache(functools.partial(_weight, ed.ring))
    factors = {d: ed.factors(d) for d in range(1, d_max + 1)}
    lam_free = not any(any(ed.ring.forms[f][:ed.n + 1]) for p in factors.values()
                       for f in itertools.chain(p.num, p.den))
    def at(i):
        values = _OnRead(_grid(d_max, _upto), lambda e: _moved(factors[e[0]], weight(i, e[1])))
        return values if lam_free else dict(values)
    value = _per_point(ed.n, lam_free, at)
    omega = {i: ed.omega_restriction(i) for i in range(ed.n + 1)}
    return _table(ed.n, d_max, ed.ring, value, omega,
                  lam_free and _point_symmetric([[w] for w in omega.values()]))


# ---------------------------------------------------------------------
# restriction tables


class _OnRead(Mapping):
    """key -> build(key) over the keys of ``keys``, each made on first read."""

    def __init__(self, keys, build):
        self._values, self._build = dict.fromkeys(keys), build

    def __getitem__(self, key):
        value = self._values[key]
        if value is None:
            value = self._values[key] = self._build(key)
        return value

    def __contains__(self, key):
        return key in self._values

    def __iter__(self):
        return iter(self._values)

    def __len__(self):
        return len(self._values)


def _table(n, d_max, ring, value, omega, symmetric):
    """Entries value(i, (d, r)), each made on its first read, Omega
    omega[i], and the record symmetric: whether all its values are
    point-symmetric, which only the builder decides."""
    entries = _OnRead(_grid(d_max, range(n + 1), _upto), lambda k: value(k[1], (k[0], k[2])))
    tbl = EulerDataTable(n, d_max, ring, entries, omega)
    tbl._symmetric = symmetric
    return tbl


class EulerDataTable:
    """All fixed-point restrictions of a data sequence for d <= d_max.

    entries[(d, i, r)] is the value at the weight lam_i + r*alpha;
    omega_restrictions[i] is the (nonzero) restriction of the class
    standing in degree zero, each a RationalFunction or a Factored value,
    which a mapping may make on first read; ``value`` returns it as
    given, and ``entry``, ``entries`` and ``omega_restrictions`` expanded.
    """

    _symmetric = False  # no record: each check decides point by point (``_table``)

    def __init__(self, n, d_max, ring, entries, omega_restrictions):
        self.n = n
        self.d_max = d_max
        self.ring = ring
        self._entries = entries
        self._omega = omega_restrictions
        for i in range(n + 1):
            if i not in omega_restrictions or omega_restrictions[i].is_zero():
                raise EulerDataError(f"omega restriction at p_{i} missing or zero")
        for key in _grid(d_max, range(n + 1), _upto):
            if key not in entries:
                raise EulerDataError(f"incomplete table: missing entry {key}")

    @functools.cached_property
    def entries(self):
        return {key: expanded(v) for key, v in self._entries.items()}

    @functools.cached_property
    def omega_restrictions(self):
        return {i: expanded(v) for i, v in self._omega.items()}

    def __getstate__(self):  # entries made first (one can add forms to the ring), no record
        return {**self.__dict__, "_entries": dict(self._entries), "_symmetric": False}

    def value(self, d, i, r):
        """The value at (d, i, r) as given; Omega at d = 0."""
        return self._omega[i] if d == 0 else self._entries[(d, i, r)]

    def entry(self, d, i, r):
        return expanded(self.value(d, i, r))

    def restriction_sequence(self):
        """The slice d -> entry(d, i, 0), d = 0 included, made on read, and the record."""
        entries, omega = self._entries, self._omega
        return _sequence(self, lambda d, i: expanded(entries[(d, i, 0)] if d else omega[i]),
                         self._symmetric)


class RestrictionSequence:
    """A sequence B_d given only through its n+1 fixed-point restrictions.

    values[(d, i)] for 0 <= d <= d_max; the d = 0 entry is the invertible
    class and must be nonzero at every fixed point.  The constructor keeps
    values as given, and no record; the library's are read-only, made on read.
    """

    _symmetric = False  # no record: transformed and mapped point by point (``_sequence``)

    def __init__(self, n, d_max, ring, values):
        self.n = n
        self.d_max = d_max
        self.ring = ring
        self.values = values
        for i in range(n + 1):
            if values[(0, i)].is_zero():
                raise EulerDataError(f"degree-zero restriction at p_{i} is zero")

    def __getstate__(self):  # values made first, no record, as for tables
        return {**self.__dict__, "values": dict(self.values), "_symmetric": False}

    def value(self, d, i):
        return self.values[(d, i)]


def _sequence(like, value, symmetric):
    """The n, d_max and ring of like, values value(d, i), each made on its
    first read (nonzero at d = 0, as like's), and the record symmetric."""
    seq, keys = object.__new__(RestrictionSequence), itertools.product(
        _upto(like.d_max), range(like.n + 1))
    vars(seq).update(n=like.n, d_max=like.d_max, ring=like.ring, _symmetric=symmetric,
                     values=_OnRead(keys, lambda k: value(*k)))
    return seq


# ---------------------------------------------------------------------
# verification reports


class CheckResult(Record):
    __slots__ = ("d", "i", "r", "status", "witness")  # status: "pass" | "fail" | "inconclusive"

    def __init__(self, d, i, r, status, witness=""):  # one per identity: no generic loop
        self.d, self.i, self.r, self.status, self.witness = d, i, r, status, witness


class VerificationReport(Record):
    __slots__ = ("check", "n", "d_max", "results")

    def __init__(self, check, n, d_max, results=None):
        super().__init__(check, n, d_max, [] if results is None else results)

    @property
    def all_pass(self):
        return all(r.status != "fail" for r in self.results)

    @property
    def failures(self):
        return [r for r in self.results if r.status == "fail"]

    @property
    def inconclusive(self):
        return [r for r in self.results if r.status == "inconclusive"]

    def to_dict(self):
        results = [{"d": r.d, "i": r.i, "r": r.r, "status": r.status, "witness": r.witness}
                   for r in self.results]
        return {"check": self.check, "n": self.n, "d_max": self.d_max, "results": results,
                "all_pass": self.all_pass}

    def to_json(self, indent=None):
        return json.dumps(self.to_dict(), indent=indent)


def _verdict(report, key, holds, witness, prefix="", note=""):
    """Append the result of one identity at key = (d, i, r).

    holds() is True (pass, witnessed by note), False (fail) or None
    (inconclusive); witness() is called only for the last two.  A
    SubstitutionError inside holds() makes the result inconclusive,
    witnessed by prefix and the error.
    """
    try:
        ok = holds()
    except SubstitutionError as exc:
        ok, text = None, f"{prefix}{exc}"
    else:
        text = note if ok else witness()
    status = "pass" if ok else "fail" if ok is False else "inconclusive"
    report.results.append(CheckResult(*key, status, text))


# ---------------------------------------------------------------------
# the identities


def check_gluing(tbl):
    """Omega(lam_i) * Q_d(lam_i + r*alpha) = bar(Q_r(lam_i)) * Q_{d-r}(lam_i)
    for every d <= d_max, 0 <= r <= d, 0 <= i <= n, with Q_0 the class.
    The identity at p_k reads p_k only: on point-symmetric values it is the
    one at p_0 under lam_0 <-> lam_k, a ring map that commutes with the bar.
    Decided by orbit on the table's record; each side is built on first
    need, so that route makes none at p_1..p_n."""
    @functools.cache
    def sides(d, i, r):
        return (tbl.value(0, i, 0) * tbl.value(d, i, r),
                bar_involution(tbl.value(r, i, 0)) * tbl.value(d - r, i, 0))

    def identities(firsts, seconds, work):
        for d, i, r in _grid(tbl.d_max, firsts, _upto):
            yield (d, i, r), work and (lambda: rf_equal(*sides(d, i, r)),
                                       lambda: "lhs={}; rhs={}".format(*sides(d, i, r)), "")

    return _decide(VerificationReport("gluing", tbl.n, tbl.d_max), identities, [tbl])


def _alpha_binding(ring, j, i, d):
    """The move of alpha -> (lam_j - lam_i)/d, j != i: a special alpha value."""
    return _move(ring, "alpha", {f"lam{j}": 1, f"lam{i}": -1}, d)


def _point_symmetric(points):
    """Whether the values points[k] at each p_k are points[0] under lam_0 <->
    lam_k, and points[0] are fixed by each lam_1 <-> lam_k, in stored form."""
    def same(u, v):
        return (type(u) is type(v) and u.num == v.num and u.den == v.den
                and (not isinstance(u, Factored) or (u.ring is v.ring and u.const == v.const)))

    base, rest = points[0], range(1, len(points))
    swaps = [(0, k, points[k]) for k in rest] + [(1, k, base) for k in rest[1:]]
    return all(all(map(same, (transposition(v, a, k) for v in base), vs)) for a, k, vs in swaps)


def _per_point(n, symmetric, build):
    """value(i, e) = build(i)[e], build(i) a mapping of values at p_i; by
    orbit if symmetric: build(0) only, at p_k swapped by lam_0 <-> lam_k."""
    if not symmetric:
        points = [build(i) for i in range(n + 1)]
        return lambda i, e: points[i][e]
    at_0 = build(0)
    return lambda i, e: transposition(at_0[e], 0, i) if i else at_0[e]


def _decide(report, identities, tables):
    """Append the verdict of each (key, work and (holds, witness, prefix))
    that identities(firsts, seconds, work) yields for i in firsts, j in
    seconds (if any j): by orbit, each key a pass and no work made, if those
    at i = 0, j = 1 pass and all tables record point symmetry; else by its work."""
    points, reps = range(report.n + 1), VerificationReport(report.check, report.n, report.d_max)
    for key, work in identities(points[:1], points[1:2], True):
        _verdict(reps, key, *work)
    if all(r.status == "pass" for r in reps.results) and all(tbl._symmetric for tbl in tables):
        report.results += [CheckResult(*k, "pass") for k, _ in identities(points, points, False)]
    else:
        for key, work in identities(points, points, True):
            _verdict(report, key, *work)
    return report


def check_reciprocity(tbl):
    """The three consequences of gluing:

    (i)   Q_d(lam_i + d*alpha) equals bar(Q_d(lam_i));
    (ii)  Q_d(lam_j) at alpha=(lam_j-lam_i)/d equals Q_d(lam_i) at
          alpha=(lam_i-lam_j)/d;
    (iii) Omega(lam_i) Q_d(lam_j) = Q_r(lam_j) Q_{d-r}(lam_i) at
          alpha=(lam_j-lam_i)/r, r = 1..d.

    Items (ii) and (iii) substitute each degree-zero restriction, and
    Omega, once per alpha-binding and multiply the results: exact, as
    substitution is a ring map and a product's denominator vanishes
    exactly when a factor's does, which makes the item inconclusive.
    Decided by orbit on the table's record.
    """
    binding = functools.cache(functools.partial(_alpha_binding, tbl.ring))
    @functools.cache
    def at(d, k, j, i, r):
        """value(d, k, 0) at alpha = (lam_j - lam_i)/r."""
        return _moved(tbl.value(d, k, 0), binding(j, i, r))

    def identities(firsts, seconds, work):
        for d, i in _grid(tbl.d_max, firsts):
            yield (d, i, d), work and (
                lambda: rf_equal(tbl.value(d, i, d), bar_involution(tbl.value(d, i, 0))),
                lambda: (f"item (i): lhs={tbl.value(d, i, d)}; "
                         f"rhs={bar_involution(tbl.value(d, i, 0))}"), "")
        for d, i, j in _grid(tbl.d_max, firsts, seconds):
            if j != i:
                yield (d, i, j), work and (lambda: rf_equal(at(d, j, j, i, d), at(d, i, i, j, d)),
                                           lambda: f"item (ii): j={j}", "item (ii): ")
        for d, r, i, j in _grid(tbl.d_max, lambda d: range(1, d + 1), firsts, seconds):
            if j != i:
                yield (d, i, r), work and (
                    lambda: rf_equal(at(0, i, j, i, r) * at(d, j, j, i, r),
                                     at(r, j, j, i, r) * at(d - r, i, j, i, r)),
                    lambda: f"item (iii): j={j}", f"item (iii): j={j}: ")

    return _decide(VerificationReport("reciprocity", tbl.n, tbl.d_max), identities, [tbl])


def _linking_report(sides, tbl, *others):
    """Record, for every d and i != j, whether the two sides
    sides(d, i, move) agree, move alpha -> (lam_i - lam_j)/d:
    decided by orbit on the records of tbl and others, and witnessed
    by the difference of the decided sides, expanded."""
    def at(d, i, j):
        return sides(d, i, _alpha_binding(tbl.ring, i, j, d))

    def identities(firsts, seconds, work):
        for d, i, j in _grid(tbl.d_max, firsts, seconds):
            if j != i:
                yield (d, i, j), work and (
                    lambda: rf_equal(*at(d, i, j)),
                    lambda: f"j={j}: residue={operator.sub(*map(expanded, at(d, i, j)))}", "")

    return _decide(VerificationReport("linking", tbl.n, tbl.d_max), identities, [tbl, *others])


def check_linked(table_a, table_b):
    """Both degree-zero restrictions agree at alpha = (lam_i - lam_j)/d:
    their expanded difference, substituted, against zero; read at p_0 only
    if both tables hold a record, as the difference at p_k is then that at
    p_0 swapped, a RationalFunction being stored normalized."""
    if table_a.n != table_b.n or table_a.d_max != table_b.d_max:
        raise EulerDataError("tables are not compatible")
    diff = functools.cache(lambda d, i: table_a.entry(d, i, 0) - table_b.entry(d, i, 0))
    zero = RationalFunction(table_a.ring.zero)
    return _linking_report(lambda d, i, move: (_moved(diff(d, i), move), zero), table_a, table_b)


def check_degree_bound(tbl):
    """alpha-degree of each degree-zero restriction against (n+1)d - 2.  On a table whose
    record holds, each p_k takes p_0's verdict and text (lam_0 <-> lam_k fixes is_zero and
    alpha-degrees), but for a denominator that involves alpha, which prints per point."""
    def decided(d, i):
        value = tbl.value(d, i, 0)
        bound = (tbl.n + 1) * d - 2
        deg, den_deg = value.alpha_degrees()
        if value.is_zero():
            return True, "deg=-inf"
        if den_deg > 0:
            return None, f"denominator involves alpha: {expanded(value).den}"
        return deg <= bound, f"deg={deg} bound={bound}"

    report = VerificationReport("degree-bound", tbl.n, tbl.d_max)
    for d, i in _grid(tbl.d_max, range(tbl.n + 1)):  # each d from p_0 on
        if i == 0:
            ok, text = p0 = decided(d, 0)
        else:
            ok, text = p0 if tbl._symmetric and p0[0] is not None else decided(d, i)
        _verdict(report, (d, i, 0), lambda: ok, lambda: text, note=text)
    return report


# ---------------------------------------------------------------------
# the Lagrange map and the mirror-group action


def lagrange_map(seq):
    """Rebuild a full table from a degree-zero restriction sequence:
    entry(d, i, r) = Omega(lam_i)^-1 * bar(B_r(lam_i)) * B_{d-r}(lam_i),
    each made on its first read, and by orbit: at p_0, and at p_k by
    lam_0 <-> lam_k, if the sequence records that the B_d are
    point-symmetric, else at every p_i.  The table takes that record,
    which covers Omega = B_0."""
    def at(i):
        omega_inv = RationalFunction(seq.ring.one) / seq.value(0, i)
        return _OnRead(_grid(seq.d_max, _upto), lambda e: (
            omega_inv * bar_involution(seq.value(e[1], i)) * seq.value(e[0] - e[1], i)))

    symmetric = seq._symmetric
    return _table(seq.n, seq.d_max, seq.ring, _per_point(seq.n, symmetric, at),
                  {i: seq.value(0, i) for i in range(seq.n + 1)}, symmetric)


def _product_factor(ring, n, i, r, d):
    """prod_{j=0..n} prod_{m=r+1..d} (lam_i - lam_j - m*alpha), built from its
    int forms and expanded once; mirror_transform's block(m) is (r, d) = (m - 1, m)."""
    return _product(ring, [{"alpha": -m} if j == i else {f"lam{i}": 1, f"lam{j}": -1, "alpha": -m}
                           for j in range(n + 1) for m in range(r + 1, d + 1)]).expand()


def _shift_series(shift, d_max):
    """The shift g as a scalar q-series to order d_max, zero constant term."""
    series = isinstance(shift, ScalarQSeries)
    if series and shift.order < d_max:
        raise EulerDataError("shift series truncated below d_max")
    g = shift.truncate(d_max) if series else ScalarQSeries(d_max, shift or ())
    if g[0] != 0:
        raise EulerDataError("shift must have zero constant term")
    return g


def mirror_transform(seq, multiplier=None, shift=None):
    """Transform a restriction sequence by e^(f/alpha) and t -> t + g.

    ``shift`` (g) is a scalar q-series with rational coefficients and
    zero constant term; ``multiplier`` (f) is a list of coefficients,
    rational functions in (lam, alpha), also with zero constant term.
    At each p_i the e^(dg) redistribution gives primed(d), then the series
    u = e^(f/alpha - lam_i*g/alpha) the transformed value.  The summand from
    degree r < d carries prod_{m=r+1..d} block(m), block(m) = prod_j (lam_i -
    lam_j - m*alpha): each sum is taken by Horner's rule in the d_max blocks,
    built once per point, and as every summand carries block(d), linked
    values are preserved.  Built once per orbit, at p_0 and swapped to p_k on
    read, if the B_d are recorded point-symmetric and so are f's nonzero
    coefficients (g is scalar), and so recorded; else at every p_i."""
    n, d_max, ring = seq.n, seq.d_max, seq.ring
    g = _shift_series(shift, d_max)
    f = [RationalFunction.promote(ring, c) for c in multiplier or ()][: d_max + 1]
    f += [RationalFunction(ring.zero)] * (d_max + 1 - len(f))
    if not f[0].is_zero():
        raise EulerDataError("multiplier series must have zero constant term")

    alpha, powers = RationalFunction(ring.var("alpha")), mirror_powers(g)

    def at(i):
        lam_i, zero = RationalFunction(ring.var(f"lam{i}")), RationalFunction(ring.zero)
        combined = [(f[s] - lam_i * g[s]) / alpha for s in range(d_max + 1)]
        block = functools.cache(lambda m: _product_factor(ring, n, i, m - 1, m))

        def horner(terms, last):
            """last + sum(t * factor(r, d) for r, t in enumerate(terms)), d = len(terms), a None
            t zero: the sum so far times block(r) at each r past its first term, then block(d)."""
            acc = None
            for r, t in enumerate(terms):
                acc = acc if acc is None else acc * block(r)
                acc = t if acc is None else acc if t is None else acc + t
            return last if acc is None else acc * block(len(terms)) + last

        u, primed, out_i = [RationalFunction(ring.one)], [], {}
        for d in range(1, d_max + 1):
            u.append(sum((combined[s] * u[d - s] * s for s in range(1, d + 1)
                          if not combined[s].is_zero()), zero) * Fraction(1, d))
        for d in range(d_max + 1):
            primed.append(horner([powers[r][d] * seq.value(r, i) if powers[r][d] else None
                                  for r in range(d)], seq.value(d, i)))
            out_i[d] = horner([None if u[d - r].is_zero() else u[d - r] * primed[r]
                               for r in range(d)], primed[d])
        return out_i

    symmetric = seq._symmetric and _point_symmetric([[c for c in f if not c.is_zero()]] * (n + 1))
    out = _per_point(n, symmetric, at)
    return _sequence(seq, lambda d, i: out(i, d), symmetric)


def check_mirror_linked(table):
    """Linking of a table with its mirror transforms, in closed form: the
    verdicts of check_linked(table, lagrange_map(mirror_transform(
    table.restriction_sequence(), None, g))) for every shift g.  Every
    summand the transform adds to P_d(lam_i) carries lam_i - lam_j -
    d*alpha, which vanishes at the binding alpha = (lam_i - lam_j)/d;
    there the transformed value is P_d(lam_i), and the Lagrange map's
    degree-zero entry is (bar(Omega)/Omega) * P_d(lam_i).
    """
    def sides(d, i, move):
        omega = table.value(0, i, 0)
        scale = _moved(bar_involution(omega) / omega, move)
        at = _moved(table.value(d, i, 0), move)
        return at, scale * at

    return _linking_report(sides, table)
