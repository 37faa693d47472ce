"""End-to-end computation of Gromov-Witten numbers K_d and instanton
numbers n_d from a concavex splitting type.

The route: build the hypergeometric cohomology series in the
nonequivariant limit, classify the bundle, normalize it into canonical
form (a scalar rescaling F0 and a coordinate shift t -> t + g solved
order by order), integrate over P^n, and read the K_d off the t-linear
block of the resulting alpha^-3 series, with the t-constant block as an
exact consistency assertion.  K_d then invert to n_d through the cubic
multiple-cover relation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import NEG_INF, nonzero
from .bundles import SplittingType, omega_class
from .cohomseries import (CohomSeries, homogeneity_violations, integrate_pn,
                          scale_by)
from .qseries import ScalarQSeries, TSeries, exp_multiples, harmonic_sum


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


def _block_mul_linear(block, n, h_coeff, a_coeff):
    """Multiply an (i, k) -> coeff block by (h_coeff*H + a_coeff*alpha)."""
    out = {}
    for (i, k), c in block.items():
        if h_coeff and i + 1 <= n:
            out[(i + 1, k)] = out.get((i + 1, k), 0) + h_coeff * c
        if a_coeff:
            out[(i, k + 1)] = out.get((i, k + 1), 0) + a_coeff * c
    return nonzero(out)


def _block_div_unit(block, n, m):
    """Divide a block by (H - m*alpha), m >= 1, exactly mod H^(n+1)."""
    inv = {}
    for s in range(n + 1):
        inv[(s, -s - 1)] = -Fraction(1, m) ** (s + 1)
    out = {}
    for (i1, k1), c1 in block.items():
        for (i2, k2), c2 in inv.items():
            if i1 + i2 > n:
                continue
            key = (i1 + i2, k1 + k2)
            out[key] = out.get(key, 0) + c1 * c2
    return nonzero(out)


def sigma_block(st, d):
    """The t-free q^d block: the degree-zero restriction of the
    hypergeometric data over prod_{m=1..d}(H - m*alpha)^(n+1)."""
    n = st.n
    block = {(0, 0): Fraction(1)}
    for l in st.convex:
        for m in range(l * d + 1):
            block = _block_mul_linear(block, n, Fraction(l), Fraction(-m))
    for k in st.concave:
        for m in range(1, k * d):
            block = _block_mul_linear(block, n, Fraction(-k), Fraction(m))
    for m in range(1, d + 1):
        for _ in range(n + 1):
            block = _block_div_unit(block, n, m)
    return block


def build_hypergeom_series(st, order):
    """The cohomology-valued series e^(-Ht/alpha) * (Omega + sum of
    q^d Sigma_d) in the nonequivariant limit: the Sigma_d blocks are
    stored once, Omega as a tagged closed form."""
    if order < 1:
        raise PipelineError("order must be >= 1")
    cells = {(d, i, k): c for d in range(1, order + 1)
             for (i, k), c in sigma_block(st, d).items()}
    return CohomSeries(st.n, order, cells, omega=omega_class(st))


# ---------------------------------------------------------------------
# Frobenius basis (CASE1)


def f0_closed_form(st, order):
    """sum_d prod_a (l_a d)! / (d!)^(n+1) q^d."""
    def coeff(d):
        num = 1
        for l in st.convex:
            num *= math.factorial(l * d)
        return Fraction(num, math.factorial(d) ** (st.n + 1))
    return ScalarQSeries.from_function(order, coeff)


def g1_closed_form(st, order):
    """sum_d prod_a (l_a d)!/(d!)^(n+1) * sum_a sum_{m=d+1..l_a d} l_a/m q^d."""
    f0 = f0_closed_form(st, order)
    coeffs = [Fraction(0)]
    for d in range(1, order + 1):
        tail = sum((l * harmonic_sum(d + 1, l * d) for l in st.convex), Fraction(0))
        coeffs.append(f0[d] * tail)
    return ScalarQSeries(order, coeffs)


def frobenius_basis(series, st):
    """Read the solution basis f_0..f_3 off the series coefficients of
    H^(h+i) alpha^(-i), and cross-check f_0 and f_1 = f_0*t + g_1
    against their closed forms."""
    if classify(st) is not PipelineCase.CASE1 or not st.is_critical:
        raise PipelineError("Frobenius basis applies to critical convex types only")
    om = omega_class(st)
    c, h = om.scalar, om.h_exponent
    order = series.order
    basis = []
    for i in range(4):
        terms = {}
        sign = Fraction((-1) ** i) / c
        for (d, j, k), v in series.h_coefficient(h + i).items():
            if k == -i:
                terms[(d, j)] = sign * v
        # the d = 0 part comes from the tagged omega summand
        terms[(0, i)] = terms.get((0, i), 0) + Fraction(1, math.factorial(i))
        basis.append(TSeries(order, terms))
    f0 = basis[0]
    if f0.t_degree() > 0:
        raise PipelineError("f_0 acquired t-dependence")
    if f0.t_coefficient(0) != f0_closed_form(st, order):
        raise PipelineError("f_0 disagrees with its closed form")
    expected_f1 = (TSeries.from_scalar(f0.t_coefficient(0)) * TSeries.t_monomial(order)
                   + TSeries.from_scalar(g1_closed_form(st, order)))
    if basis[1] != expected_f1:
        raise PipelineError("f_1 disagrees with f_0*t + g_1")
    return basis


# ---------------------------------------------------------------------
# normalization


def _coefficient_table(f0_coeffs, g_coeffs, order, i_max):
    """a[s][i] = coefficient of q^s in F0 * g^i / i!."""
    f0 = ScalarQSeries(order, f0_coeffs)
    g = ScalarQSeries(order, g_coeffs)
    table = []
    current = f0
    for i in range(i_max + 1):
        table.append(current * Fraction(1, math.factorial(i)) if i else f0)
        current = current * g
    return [[table[i].coeffs[s] for i in range(i_max + 1)] for s in range(order + 1)]


def _normalized_block(sigma, omega, a_table, n, D):
    """q^D block of F0 * e^(Hg/alpha) * Sigma - Omega as (i, k) -> coeff.

    H-exponents may be negative through the omega part; those cells must
    end up with alpha-degree <= -2 like all others (in practice they
    vanish).
    """
    c, h = omega.scalar, omega.h_exponent
    block = {}
    for s in range(D):
        sig = sigma[D - s]
        row = a_table[s]
        for ia, a in enumerate(row):
            if a == 0:
                continue
            for (i2, k2), c2 in sig.items():
                if ia + i2 > n:
                    continue
                key = (ia + i2, k2 - ia)
                block[key] = block.get(key, 0) + a * c2
    row = a_table[D]
    for ia, a in enumerate(row):
        if a == 0 or ia + h > n:
            continue
        key = (ia + h, -ia)
        block[key] = block.get(key, 0) + a * c
    return nonzero(block)


def compute_normalization(series, st):
    """Solve for the scalar rescaling F0 and the shift g that put the
    series into canonical form: every q^d block of
    F0 * e^(Hg/alpha) * Sigma - Omega must have alpha-degree <= -2.

    F0 adjusts the H^h cell (alpha-degree 0) and g the H^(h+1) cell
    (alpha-degree -1); any other cell of alpha-degree >= -1 that fails
    to vanish means there is no solution at that order.
    """
    if not st.is_critical:
        raise PipelineError("normalization requires a critical splitting type")
    order = series.order
    om = series.omega or omega_class(st)
    c, h = om.scalar, om.h_exponent
    sigma = series.blocks()
    i_max = max(st.n, st.n - h)
    f0_coeffs = [Fraction(1)] + [Fraction(0)] * order
    g_coeffs = [Fraction(0)] * (order + 1)
    # IDENTITY types are already canonical; the solve returns (1, 0) for them.
    for D in range(1, order + 1):
        a_table = _coefficient_table(f0_coeffs, g_coeffs, order, i_max)
        block = _normalized_block(sigma, om, a_table, st.n, D)
        f0_coeffs[D] = -block.pop((h, 0), Fraction(0)) / c
        g_coeffs[D] = -block.pop((h + 1, -1), Fraction(0)) / c
        stray = [(cell, v) for cell, v in block.items() if cell[1] >= -1]
        if stray:
            raise PipelineError(
                f"no canonical form at order {D}: residual cells {sorted(stray)}")
    return ScalarQSeries(order, f0_coeffs), ScalarQSeries(order, g_coeffs)


def canonical_alpha_degrees(series, st, scaling, shift):
    """Max alpha-degree of each normalized q^d block (NEG_INF for empty);
    canonical form means every value is <= -2."""
    order = series.order
    om = series.omega or omega_class(st)
    sigma = series.blocks()
    i_max = max(st.n, st.n - om.h_exponent)
    a_table = _coefficient_table(list(scaling.coeffs), list(shift.coeffs), order, i_max)
    degrees = {}
    for d in range(1, order + 1):
        block = _normalized_block(sigma, om, a_table, st.n, d)
        degrees[d] = max((k for (_, k) in block), default=NEG_INF)
    return degrees


# ---------------------------------------------------------------------
# K_d extraction and the multiple-cover inversion


def _solve_from_weighted_sum(target, exp_dg, order, weight):
    """Solve target = sum_d weight(d)*K_d*q^d*e^(dg) for the K_d."""
    K = {}
    for D in range(1, order + 1):
        val = target.coeffs[D]
        for d in range(1, D):
            val -= weight(d) * K[d] * exp_dg[d].coeffs[D - d]
        w = weight(D)
        K[D] = val / w
    return [K[d] for d in range(1, order + 1)]


def extract_euler_numbers(series, st, scaling, shift):
    """Integrate the normalized series over P^n and match it against
    sum_d K_d (2 - d(t+g)) q^d e^(dg): the t-linear block determines the
    K_d recursively and the t-constant block must then agree exactly.

    Returns (K, checks); any consistency failure raises PipelineError.
    """
    if not st.is_critical:
        raise PipelineError("K_d extraction requires a critical splitting type")
    order = series.order
    om = series.omega or omega_class(st)
    c, h = om.scalar, om.h_exponent
    if st.n - h != 3:
        raise PipelineError("critical type expected: n - h must be 3")
    checks = {}

    integrated = integrate_pn(scale_by(series.without_omega(), scaling))
    powers = integrated.alpha_powers()
    if any(k != -3 for k in powers):
        raise PipelineError(f"integral is not a pure alpha^-3 series: powers {powers}")
    checks["alpha_purity"] = True
    psi = integrated.alpha_coefficient(-3)

    # closed-form part: alpha^3 * integral of F0 e^(-Ht/a)Omega - e^(-H(t+g)/a)Omega
    t_cubed = TSeries.t_monomial(order, 3)
    shifted_t = TSeries.t_monomial(order) + TSeries.from_scalar(shift)
    omega_part = (TSeries.from_scalar(scaling) * t_cubed - shifted_t ** 3) * (-c / 6)
    psi = psi + omega_part

    if psi.t_degree() > 1:
        bad = min(d for (d, j) in psi.terms if j > 1)
        raise PipelineError(f"integrated series has t-degree > 1 at q^{bad}")
    checks["t_degree_bound"] = True

    exp_dg = exp_multiples(shift)

    K = _solve_from_weighted_sum(-psi.t_coefficient(1), exp_dg, order,
                                 lambda d: Fraction(d))

    expected_t0 = ScalarQSeries.zero(order)
    two = ScalarQSeries(order, (2,))
    for d in range(1, order + 1):
        term = (two - shift * d) * exp_dg[d]
        expected_t0 = expected_t0 + term.shift(d) * K[d - 1]
    if psi.t_coefficient(0) != expected_t0:
        diff = psi.t_coefficient(0) - expected_t0
        bad = next(d for d, v in enumerate(diff.coeffs) if v)
        raise PipelineError(f"t-constant block disagrees first at q^{bad}")
    checks["t0_consistency"] = True
    return K, checks


def invert_multicover(K):
    """n_d = K_d - sum over proper divisors via K_d = sum_{k|d} n_{d/k} k^-3.

    Returns (d, n_d, is_integral) triples; non-integrality is reported,
    not rejected.
    """
    values = {}
    out = []
    for d in range(1, len(K) + 1):
        val = K[d - 1]
        for k in range(2, d + 1):
            if d % k == 0:
                val -= values[d // k] * Fraction(1, k ** 3)
        values[d] = val
        out.append((d, val, val.denominator == 1))
    return out


def recompose_multicover(n_values):
    """Inverse of invert_multicover, for round-trip checking."""
    K = []
    for d in range(1, len(n_values) + 1):
        total = Fraction(0)
        for k in range(1, d + 1):
            if d % k == 0:
                total += n_values[d // k - 1][1] * Fraction(1, k ** 3)
        K.append(total)
    return K


# ---------------------------------------------------------------------
# orchestration


@dataclass
class PipelineResult:
    splitting: SplittingType
    order: int
    case: PipelineCase
    K: list
    instanton: list  # (d, value, is_integral)
    mirror_shift: ScalarQSeries
    scaling: ScalarQSeries
    f_basis: list | None
    checks: dict


def run_pipeline(st, order):
    """splitting type -> series -> normalization -> K_d -> n_d, with
    every internal identity asserted along the way."""
    case = classify(st)
    if case is PipelineCase.UNSUPPORTED or not st.is_critical:
        supported = "critical types have sum of degrees n+1 and P-N = n-3 (see list-critical)"
        raise PipelineError(
            f"no K_d extraction for {st} on P^{st.n} (case {case.value}): {supported}")
    series = build_hypergeom_series(st, order)
    checks = {"homogeneity": not homogeneity_violations(series, st)}
    if not checks["homogeneity"]:
        raise PipelineError("series violates the block homogeneity invariant")

    scaling, shift = compute_normalization(series, st)
    degrees = canonical_alpha_degrees(series, st, scaling, shift)
    checks["canonical_form"] = all(deg <= -2 for deg in degrees.values())
    if not checks["canonical_form"]:
        raise PipelineError("normalized series is not in canonical form")

    f_basis = None
    if case is PipelineCase.CASE1:
        f_basis = frobenius_basis(series, st)
        checks["frobenius_closed_forms"] = True
        f0 = f_basis[0].t_coefficient(0)
        g1 = f_basis[1].t_coefficient(0)
        checks["mirror_map_match"] = shift == g1 * f0.inverse()
        checks["scaling_match"] = scaling == f0.inverse()
        if not (checks["mirror_map_match"] and checks["scaling_match"]):
            raise PipelineError("normalization disagrees with the Frobenius route")

    K, extra = extract_euler_numbers(series, st, scaling, shift)
    checks.update(extra)

    if case is PipelineCase.CASE1:
        K_alt = _mirror_conjecture_route(f_basis, st, shift, order)
        checks["phi_t_independent"] = True  # enforced inside the route
        checks["dual_route_agreement"] = K_alt == K
        if not checks["dual_route_agreement"]:
            raise PipelineError("prepotential route disagrees with the integral route")

    instanton = invert_multicover(K)
    checks["multicover_roundtrip"] = recompose_multicover(instanton) == K
    return PipelineResult(st, order, case, K, instanton, shift, scaling, f_basis, checks)


def _mirror_conjecture_route(f_basis, st, shift, order):
    """K_d from the prepotential (c/2)(f1 f2/f0^2 - f3/f0) - (c/6)T^3,
    which must be t-free once T = t + g is subtracted off."""
    f0, f1, f2, f3 = f_basis
    c = Fraction(1)
    for l in st.convex:
        c *= l
    inv_f0 = f0.t_coefficient(0).inverse()
    script_f = (f1 * f2 * TSeries.from_scalar(inv_f0 * inv_f0)
                - f3 * TSeries.from_scalar(inv_f0)) * (c / 2)
    T = TSeries.t_monomial(order) + TSeries.from_scalar(shift)
    phi = script_f - T ** 3 * (c / 6)
    if phi.t_degree() > 0:
        raise PipelineError("prepotential retains polynomial t-dependence")
    exp_dg = exp_multiples(shift)
    return _solve_from_weighted_sum(phi.t_coefficient(0), exp_dg, order,
                                    lambda d: Fraction(1))
