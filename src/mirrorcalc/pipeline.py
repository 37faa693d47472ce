"""End-to-end computation of Gromov-Witten numbers K_d and instanton
numbers n_d from a concavex splitting type.

The route: build the hypergeometric cohomology series in the
nonequivariant limit, one dense vector sigma_d in x = H/alpha per q^d,
each from the previous one; classify the bundle; normalize it into
canonical form with a scalar rescaling F0 = c/(c + S_h) and a coordinate
shift t -> t + g, g = -S_(h+1)/(c + S_h), both in closed form from the
columns S_i = sum_d sigma_d[i] q^d (c H^h = omega_class(st)); build the
normalized columns N_h..N_n by Horner's rule in g, check canonical form
(N_i = 0 for i <= n-2) and read the K_d off the integral over P^n,
N_n - (t+g) N_(n-1), with N_n an exact consistency assertion; and invert
K_d to n_d by the cubic multiple-cover relation, on ints.  f_0 is
inverted once, in the normalization.
"""

import enum
import math
import operator
from fractions import Fraction

from .bundles import Record, omega_class
from .cohomseries import CohomSeries, homogeneity_violations
from .qseries import NEG_INF, ScalarQSeries, TSeries, _append_over, mirror_powers


class PipelineError(RuntimeError):
    pass


class PipelineCase(enum.Enum):
    IDENTITY = "IDENTITY"
    CASE1 = "CASE1"
    CASE2 = "CASE2"
    CASE3 = "CASE3"
    UNSUPPORTED = "UNSUPPORTED"


def classify(st):
    """Which mirror transformation (if any) brings the data into
    canonical form.

    IDENTITY when d*total - N <= (n+1)d - 2 for every d >= 1 (no
    transformation needed); otherwise the three shapes that a shift
    and/or rescaling can handle; everything else is UNSUPPORTED.
    """
    n, total, num_concave = st.n, st.total, st.rank_concave
    if total <= n - 1:
        return PipelineCase.IDENTITY
    if total == n:
        return PipelineCase.IDENTITY if num_concave >= 1 else PipelineCase.CASE3
    if total == n + 1:
        if num_concave >= 2:
            return PipelineCase.IDENTITY
        if num_concave == 1:
            return PipelineCase.CASE2
        return PipelineCase.CASE1
    return PipelineCase.UNSUPPORTED


# ---------------------------------------------------------------------
# series construction


def build_hypergeom_series(st, order):
    """The cohomology-valued series e^(-Ht/alpha) * (Omega + sum of
    q^d Sigma_d) in the nonequivariant limit.  Each sigma_d is one int
    vector over one denominator: sigma_(d-1) times the factors a*x + b
    of P_d that P_(d-1) lacks (st.factors(d, d - 1), the one source of
    P_d's factors a*kappa + b*alpha, at kappa = H = x*alpha), over
    (x - d)^(n+1), whose inverse mod x^(n+1) is
    (-1)^(n+1) * sum_k C(n+k, k) d^(n-k) x^k / d^(2n+1); every factor
    carries one alpha, so the recorded alpha-degree is the factor count."""
    if order < 1:
        raise PipelineError("order must be >= 1")
    n = st.n
    sigma, den, degree = [1] + [0] * n, 1, 0
    rows, degrees = [([0] * (n + 1), 1)], [st.block_degree(0)]
    for d in range(1, order + 1):
        factors = st.factors(d, d - 1)
        for a, b in factors:
            sigma = [b * sigma[0]] + [b * sigma[i] + a * sigma[i - 1] for i in range(1, n + 1)]
        inv = [(-1) ** (n + 1) * math.comb(n + k, k) * d ** (n - k) for k in range(n + 1)]
        sigma = [sum(map(operator.mul, sigma[i::-1], inv)) for i in range(n + 1)]
        den *= d ** (2 * n + 1)
        g = math.gcd(den, *sigma)
        sigma, den = [c // g for c in sigma], den // g
        degree += len(factors) - (n + 1)
        rows.append((sigma, den))
        degrees.append(degree)
    common = math.lcm(*(den for _, den in rows))
    columns = zip(*([c * (common // den) for c in sigma] for sigma, den in rows))
    return CohomSeries(n, order, [ScalarQSeries._reduced(order, column, common)
                                  for column in columns], degrees)


# ---------------------------------------------------------------------
# Frobenius basis (CASE1)


def f0_closed_form(st, order):
    """sum_d prod_a (l_a d)! / (d!)^(n+1) q^d, as the ints
    (D!/d!)^(n+1) prod_a (l_a d)! over (D!)^(n+1)."""
    top = math.factorial(order)
    ints = [(top // math.factorial(d)) ** (st.n + 1)
            * math.prod(math.factorial(l * d) for l in st.convex) for d in range(order + 1)]
    return ScalarQSeries._reduced(order, ints, top ** (st.n + 1))


def g1_closed_form(st, order):
    """sum_d prod_a (l_a d)!/(d!)^(n+1) * sum_a l_a (H[l_a d] - H[d]) q^d,
    H[m] = sum_{k<=m} 1/k, on f_0's ints and H's over L = lcm(1..l_max D)."""
    f0 = f0_closed_form(st, order)
    top = max(st.convex, default=0) * order
    L, H = math.lcm(*range(1, top + 1)), [0]
    for m in range(1, top + 1):
        H.append(H[-1] + L // m)
    return ScalarQSeries._reduced(order, [0] + [
        f0.ints[d] * sum(l * (H[l * d] - H[d]) for l in st.convex)
        for d in range(1, order + 1)], f0.den * L)


def frobenius_basis(series, st):
    """Read the solution basis off the series: f_i is the alpha^(-i) part
    of the H^(h+i) coefficient, (-1)^i/c * sum_j (-t)^j/j! S_(h+i-j)
    + t^i/i!.  f_0 is t-free exactly when every S_i below h vanishes, and
    then f_i = sum_(j<=i) t^j/j! a_(i-j) with a_k = (-1)^k S_(h+k)/c
    + [k = 0], the t^0 row of f_k; a_0 = f_0 and a_1 = g_1 are
    cross-checked against their closed forms."""
    if classify(st) is not PipelineCase.CASE1 or not st.is_critical:
        raise PipelineError("Frobenius basis applies to critical convex types only")
    om = omega_class(st)
    c, h = om.scalar, om.h_exponent
    order = series.order
    if any(any(series.column(i).ints) for i in range(h)):
        raise PipelineError("f_0 acquired t-dependence")
    a = [series.column(h + k) * (Fraction((-1) ** k) / c) for k in range(4)]
    a[0] = a[0] + 1  # the omega summand's q^0 part
    if a[0] != f0_closed_form(st, order):
        raise PipelineError("f_0 disagrees with its closed form")
    if a[1] != g1_closed_form(st, order):
        raise PipelineError("f_1 disagrees with f_0*t + g_1")
    return [TSeries.from_rows(order, [a[i - j] * Fraction(1, math.factorial(j))
                                      for j in range(i + 1)]) for i in range(4)]


# ---------------------------------------------------------------------
# normalization


def compute_normalization(series, st):
    """The scalar rescaling F0 and the shift g that put the series into
    canonical form: every q^d block of F0 * e^(Hg/alpha) * (Omega + Sigma)
    - Omega must have alpha-degree <= -2.

    With x = H/alpha that block is alpha^h times the x-series
    F0 * e^(xg) * (c x^h + S(x)) - c x^h, and its x^h and x^(h+1)
    coefficients (alpha-degrees 0 and -1) vanish exactly when
    F0 = c / (c + S_h) and g = -S_(h+1) / (c + S_h).  For CASE1 this is
    F0 = 1/f_0 and g = g_1/f_0.  extract_euler_numbers checks the rest:
    the normalized columns below alpha-degree -1 must vanish.
    """
    if not st.is_critical:
        raise PipelineError("normalization requires a critical splitting type")
    om = omega_class(st)
    c, h = om.scalar, om.h_exponent
    inv = (series.column(h) + c).inverse()
    return inv * c, -(series.column(h + 1) * inv)


def _normalized_columns(series, om, scaling, shift):
    """{i: q-series}: for h <= i <= n the x^i coefficient N_i of
    F0 * e^(xg) * (c x^h + S(x)) - c x^h, at alpha-degree h - i, and for
    0 <= i < h the raw S_i, which vanish: sigma_d carries x^P (l*x - 0
    per convex l) and h = P - N <= P.  So N_i = 0 below h, and with
    A_h = c + S_h, A_i = S_i above, N_(h+k) = F0 sum_(j<=k) g^j/j!
    A_(h+k-j) - c [k = 0], by Horner's rule in g.  F0 is a unit and g(0)
    = 0, so a nonzero S_i below h shows first at the q^d where N_i would."""
    c, h, n = om.scalar, om.h_exponent, series.n
    out = {i: series.column(i) for i in range(h)}
    scaled = [(series.column(h) + c) * scaling] + [series.column(i) * scaling
                                                   for i in range(h + 1, n + 1)]
    steps = [shift * Fraction(1, j) for j in range(1, n - h + 1)]  # g/j
    for k in range(n - h + 1):
        acc = scaled[0]
        for j in range(1, k + 1):
            acc = scaled[j] + steps[k - j] * acc
        out[h + k] = acc - c if k == 0 else acc
    return out


def canonical_alpha_degrees(series, st, scaling, shift):
    """Max alpha-degree of each normalized q^d block (NEG_INF for empty);
    canonical form means every value is <= -2.  N_i sits at alpha-degree
    h - i = n - 3 - i, so that is N_i = 0 for i <= n - 2, the predicate
    extract_euler_numbers checks (q^0 vanishes when F0(0) = 1, g(0) = 0);
    this is its per-block report."""
    om = omega_class(st)
    columns = _normalized_columns(series, om, scaling, shift)
    return {d: max((om.h_exponent - i for i, s in columns.items() if s.ints[d]),
                   default=NEG_INF)
            for d in range(1, series.order + 1)}


# ---------------------------------------------------------------------
# K_d extraction and the multiple-cover inversion


def _solve_from_weighted_sum(target, powers):
    """Solve target = sum_d d*K_d*Q^d for the K_d to target's order, with
    powers = mirror_powers(g) the table of Q^d = q^d e^(dg); the ints ys
    over den hold d*K_d / powers[d].den, one dot product per D."""
    K, ys, den = [], [], 1
    for D in range(1, target.order + 1):
        dot = sum(y * powers[d].ints[D] for d, y in enumerate(ys, 1))
        val = Fraction(target.ints[D] * den - dot * target.den, target.den * den)
        K.append(val / D)
        den = _append_over(ys, den, val / powers[D].den)
    return K


def extract_euler_numbers(series, st, scaling, shift, prepotential=None):
    """Integrate the normalized series over P^n and match it against
    sum_d K_d (2 - d(t+g)) Q^d, Q = q e^g.  The integral is alpha^-3
    times sum_j (-t-g)^j/j! N_(n-j), N the normalized columns; canonical
    form leaves N_n - (t+g) N_(n-1).  N_(n-1) = sum_d d K_d Q^d fixes the
    K_d recursively, and N_n = 2 sum_d K_d Q^d must then hold exactly; the
    Q^d are mirror_powers(shift).  The t-degree bound N_i = 0 for
    i <= n - 2 is canonical form: every canonical_alpha_degrees <= -2.
    A given prepotential sum_d K_d Q^d (the CASE1 dual route) must be
    N_n / 2 exactly, which, the Q^d expansion being unique, is the same K.

    Returns K; any consistency failure raises PipelineError.
    """
    if not st.is_critical:
        raise PipelineError("K_d extraction requires a critical splitting type")
    n = series.n
    alpha_powers = sorted({deg - n for deg in series.degrees[1:]})
    if alpha_powers != [-3]:
        raise PipelineError(f"integral is not a pure alpha^-3 series: powers {alpha_powers}")

    columns = _normalized_columns(series, omega_class(st), scaling, shift)
    low = [d for i, s in columns.items() if i <= n - 2 for d, v in enumerate(s.ints) if v]
    if low:
        raise PipelineError(f"integrated series has t-degree > 1 at q^{min(low)}")

    powers = mirror_powers(shift)
    K = _solve_from_weighted_sum(columns[n - 1], powers)
    diff = columns[n] - _combine_rows(powers, K) * 2
    bad = next((d for d, v in enumerate(diff.ints) if v), None)
    if bad is not None:
        raise PipelineError(f"t-constant block disagrees first at q^{bad}")
    if prepotential is not None and prepotential * 2 != columns[n]:
        raise PipelineError("prepotential route disagrees with the integral route")
    return K


def _combine_rows(powers, weights):
    """sum_d weights[d-1] * powers[d] for d = 1..D; row d starts at q^d.
    The ints ys over den hold weights[d-1] / powers[d].den."""
    ys, den = [], 1
    for d, w in enumerate(weights, 1):
        den = _append_over(ys, den, w / powers[d].den)
    rows = [powers[d].ints for d in range(1, len(weights) + 1)]
    return ScalarQSeries._reduced(len(weights), [sum(map(operator.mul, ys, column))
                                                 for column in zip(*rows)], den)


def _cubic_convolution(values, weights):
    """[sum_(k|d) weights[k] values[d/k - 1] / k^3 for d = 1..D] on ints
    over lcm(denominators) * lcm(k^3, k <= D), where every / k^3 is exact."""
    D = len(values)
    cubes = math.lcm(*(k ** 3 for k in range(1, D + 1)))
    den = math.lcm(*(v.denominator for v in values)) * cubes
    ints = [v.numerator * (den // v.denominator) for v in values]
    out = [0] * D
    for k in range(1, D + 1):
        if weights[k]:
            for m in range(1, D // k + 1):
                out[k * m - 1] += weights[k] * (ints[m - 1] // k ** 3)
    return [Fraction(v, den) for v in out]


def invert_multicover(K):
    """n_d = sum_(k|d) mu(k) K_(d/k) / k^3, inverting K_d = sum_(k|d)
    n_(d/k) / k^3, as (d, n_d, is_integral) triples: non-integrality is
    reported, not rejected."""
    mu = [0, 1] + [0] * (len(K) - 1)  # sum_(k|d) mu(k) = [d = 1]
    for i in range(1, len(K) + 1):
        for j in range(2 * i, len(K) + 1, i):
            mu[j] -= mu[i]
    return [(d, v, v.denominator == 1) for d, v in enumerate(_cubic_convolution(K, mu), 1)]


def recompose_multicover(n_values):
    """Inverse of invert_multicover, for round-trip checking."""
    return _cubic_convolution([v for _, v, _ in n_values], [1] * (len(n_values) + 1))


# ---------------------------------------------------------------------
# orchestration


# The names of the identities run_pipeline asserts.  In every case:
# homogeneity, then alpha_purity, canonical_form (= t_degree_bound) and
# t0_consistency in extract_euler_numbers, then multicover_roundtrip.
# CASE1 adds phi_t_independent (S_i = 0 below h, so the f_i have the Frobenius
# shape and the prepotential is t-free) and frobenius_closed_forms, both in
# frobenius_basis, then scaling_match and mirror_map_match on the rows a_k,
# and dual_route_agreement (2 * prepotential == N_n) last in the extraction.
CHECKS = ("homogeneity", "alpha_purity", "canonical_form", "t_degree_bound",
          "t0_consistency", "multicover_roundtrip")
FROBENIUS_CHECKS = ("frobenius_closed_forms", "scaling_match", "mirror_map_match",
                    "phi_t_independent", "dual_route_agreement")


class PipelineResult(Record):
    # instanton: (d, value, is_integral) per degree; f_basis: a list, or None
    __slots__ = ("splitting", "order", "case", "K", "instanton", "mirror_shift", "scaling",
                 "f_basis")

    def __init__(self, splitting, order, case, K, instanton, mirror_shift, scaling, f_basis):
        super().__init__(splitting, order, case, K, instanton, mirror_shift, scaling, f_basis)

    @property
    def checks(self):
        """{name: True} for each identity run_pipeline asserts in this
        case: a failed one raises PipelineError, so a result never
        carries a false one."""
        frobenius = FROBENIUS_CHECKS if self.case is PipelineCase.CASE1 else ()
        return dict.fromkeys(CHECKS + frobenius, True)


def unsupported_reason(st):
    """Why run_pipeline has no K_d extraction for st, or None when it has."""
    if not st.is_critical:  # a critical type is never UNSUPPORTED
        supported = "critical types have sum of degrees n+1 and P-N = n-3 (see list-critical)"
        return f"no K_d extraction for {st} on P^{st.n} (case {classify(st).value}): {supported}"
    return None


def run_pipeline(st, order):
    """splitting type -> series -> normalization -> K_d -> n_d, with
    every identity of CHECKS (and FROBENIUS_CHECKS for CASE1) asserted
    along the way: each raises PipelineError when it fails."""
    reason = unsupported_reason(st)
    if reason:
        raise PipelineError(reason)
    case = classify(st)
    series = build_hypergeom_series(st, order)
    if homogeneity_violations(series, st):
        raise PipelineError("series violates the block homogeneity invariant")

    scaling, shift = compute_normalization(series, st)
    f_basis = prepotential = None
    if case is PipelineCase.CASE1:
        f_basis = frobenius_basis(series, st)
        a = [f.t_coefficient(0) for f in f_basis]
        if scaling * a[0] != 1 or shift != a[1] * scaling:
            raise PipelineError("normalization disagrees with the Frobenius route")
        prepotential = _mirror_conjecture_route(a, st, scaling, shift)

    K = extract_euler_numbers(series, st, scaling, shift, prepotential)
    instanton = invert_multicover(K)
    if recompose_multicover(instanton) != K:
        raise PipelineError("multiple-cover inversion does not recompose to K")
    return PipelineResult(st, order, case, K, instanton, shift, scaling, f_basis)


def _mirror_conjecture_route(a, st, inv_f0, shift):
    """The prepotential (c/2)(f1 f2/f0^2 - f3/f0) - (c/6)T^3 = sum_d K_d Q^d,
    T = t + g, from a_k, the t^0 row of f_k (not the normalized columns).
    frobenius_basis builds f_i = sum_(j<=i) t^j/j! a_(i-j), so F1 F2 - F3 -
    T^3/3 = b_1 b_2 - b_3 - g^3/3 for F_i = f_i/a_0, b_k = a_k/a_0; with
    b_1 = g and inv_f0 = 1/a_0 matched, it is (c/2)(g b_2 - b_3) - (c/6) g^3."""
    c = omega_class(st).scalar
    return (shift * (a[2] * inv_f0) - a[3] * inv_f0) * (c / 2) - shift * shift * shift * (c / 6)
