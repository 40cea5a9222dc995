"""Constructors and checks for orthonormal two-qubit bases.

Closed forms exist for the PPPP pattern, the three PPEE cases, and two
families built around maximally entangled members: PMEE (one maximal member)
and MMEE (two maximal members, with diagonal and non-diagonal variants for
the remaining pair).  A PPPE basis cannot exist: completing any three
orthonormal product states always yields a fourth product state, which
`complete_ppp` demonstrates constructively.  Each basis constructor returns
an `OrthoSet` of four states whose ``parts`` (and ``schmidt``) hold all four
members' decompositions; `construct_pm` returns a pair.  The entangled
members of PPEE cases 2 and 3, PMEE and non-diagonal MMEE share closed-form
spectra, and those constructors hand their decompositions to
`pairs._ortho_set`; it decomposes every other member with `schmidt._parts`.
"""

from __future__ import annotations

import cmath
import math

from .errors import (InvalidArgumentError, NotOrthogonalError,
                     ZeroParameterError)
from .pairs import (A_SIDE, OrthoSet, _diagonal_pair, _entangled, _gamma_first,
                    _ortho_set, _rescale)
from .scalar import (DEFAULT_TOL, _KET00, _KET01, _KET10, _KET11, LazyNumpy,
                     _checked_complex, _concurrence, _max_overlap, _total,
                     _unit, _unit_members)
from .schmidt import _promised_branch, _reconstruct_parts
from .triples import _ppe_triple, construct_ppp

np = LazyNumpy(globals())

_SQRT_HALF = math.sqrt(0.5)


def _split_roots(total: float, product_neg: float) -> tuple[float, float]:
    """Roots (t0 >= 0 >= t1) of t^2 - total*t - product_neg = 0.

    ``product_neg`` is the positive magnitude of the (negative) root product.
    The larger-magnitude root is computed directly, the other from the
    product, so neither suffers cancellation.
    """
    disc = math.sqrt(total * total + 4.0 * product_neg)
    if total >= 0.0:
        t0 = 0.5 * (total + disc)
        t1 = -product_neg / t0 if t0 > 0.0 else 0.0
    else:
        t1 = 0.5 * (total - disc)
        t0 = -product_neg / t1
    return t0, t1


def construct_pppp(variant: str, basis) -> OrthoSet:
    """All-product orthonormal basis: the PPP triple of :func:`construct_ppp`
    completed by |10> (a-side variant) or |01> (b-side variant)."""
    triple = construct_ppp(variant, basis)
    members = (*triple.members, _KET10 if variant == A_SIDE else _KET01)
    return _ortho_set(members, "PPPP", triple.params, variant=variant)


def _det3(m) -> complex:
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def complete_ppp(triple):
    """Complete a PPP triple to an orthonormal basis.

    Returns the unique (up to phase) unit vector orthogonal to all three
    states, phase fixed so its first nonzero amplitude is real positive,
    together with that vector's concurrence.  No product triple has an
    entangled completion, so the returned concurrence never exceeds the
    product threshold `DEFAULT_TOL`; callers may assert it rather than
    trust it.  ``triple`` is an `OrthoSet` or a sequence of three states.
    """
    try:
        states = list(getattr(triple, "members", triple))
    except TypeError:
        raise InvalidArgumentError(
            f"need a sequence of 3 states, got {triple!r}") from None
    if len(states) != 3:
        raise InvalidArgumentError(f"need exactly 3 states, got {len(states)}")
    amps = _unit_members(states, 1e-8)
    for i, a in enumerate(amps):
        if _concurrence(*a) > DEFAULT_TOL:
            raise InvalidArgumentError(
                f"states[{i}] is entangled; the triple is not PPP")
    ov, i, j = _max_overlap(amps)
    if ov > 1e-8:
        raise NotOrthogonalError(f"states {i} and {j} are not orthogonal")

    rows = [[z.conjugate() for z in a] for a in amps]
    comp = []
    for k in range(4):
        minor = [[row[c] for c in range(4) if c != k] for row in rows]
        comp.append((-1) ** k * _det3(minor))
    # Cauchy-Binet: nrm^2 is the rows' Gram determinant, near 1 by now.
    comp = _unit(comp, _total(z.real * z.real + z.imag * z.imag for z in comp),
                 True, "the completion is zero", "completion")
    for z in comp:
        if abs(z) > 1e-9:
            phase = z.conjugate() / abs(z)
            comp = [w * phase for w in comp]
            break
    return np.array(comp), _concurrence(*comp)


def construct_ppee_case1(a, b) -> OrthoSet:
    """Basis (|00>, |11>, a|01> + b|10>, b^*|01> - a^*|10>).

    Both entangled members are diagonal and share the concurrence 2|ab|.
    """
    a, b, third = _diagonal_pair(a, b, "ab", "ppee-case1",
                                 "entangled members")
    fourth = (0.0j, b.conjugate(), -a.conjugate(), 0.0j)
    return _ortho_set((_KET00, _KET11, third, fourth), "PPEE",
                      {"a": a, "b": b}, case_id=1)


def construct_ppee_case2(a, b, c, d) -> OrthoSet:
    """Basis extending the case-2 PPE triple.

    The fourth member shares the third's Schmidt coefficients and, with the
    index order flipped, its B-side Schmidt basis; its A-side vectors are
    z_j = (b^* (k_j^2 - |c|^2), -a^* k_j^2) normalized, where k_j are the
    shared coefficients.
    """
    triple = _ppe_triple(2, a, b, c, d, "ppee-case2")
    a, b, c, d = (triple.params[k] for k in "abcd")
    dec3 = triple.parts[-1]
    k0, k1 = dec3[0]
    # t_j = k_j^2 - |c|^2: roots of a quadratic with sum 1 - 2|c|^2 and
    # product -|acd|^2, evaluated without cancellation.
    c2 = c.real * c.real + c.imag * c.imag
    prod = (a.real * a.real + a.imag * a.imag) * c2 \
        * (d.real * d.real + d.imag * d.imag)
    t0, t1 = _split_roots(1.0 - 2.0 * c2, prod)
    ac = a.conjugate()
    bc_ = b.conjugate()
    z0 = (bc_ * t0, -ac * k0 * k0)
    z1 = (bc_ * t1, -ac * k1 * k1)
    n0 = math.sqrt(abs(z0[0]) ** 2 + abs(z0[1]) ** 2)
    n1 = math.sqrt(abs(z1[0]) ** 2 + abs(z1[1]) ** 2)
    z0 = (z0[0] / n0, z0[1] / n0)
    z1 = (z1[0] / n1, z1[1] / n1)
    bb0, bb1 = dec3[2]
    dec4 = ((k0, k1), (z0, z1), (bb1, bb0), False)
    members = (*triple.members, _reconstruct_parts(dec4))
    return _ortho_set(members, "PPEE", triple.params, (dec3, dec4), case_id=2)


def construct_ppee_case3(a, b, c, d) -> OrthoSet:
    """Basis extending the case-3 PPE triple.

    Here the two entangled members share the A-side Schmidt basis with the
    index order flipped; the fourth member's B-side vectors are the
    conjugates of w_j = (-a^* b |c|^2, n_j^2 - |bc|^2) normalized, with n_j
    the shared coefficients.
    """
    triple = _ppe_triple(3, a, b, c, d, "ppee-case3")
    a, b, c, d = (triple.params[k] for k in "abcd")
    dec3 = triple.parts[-1]
    n0, n1 = dec3[0]
    b2 = b.real * b.real + b.imag * b.imag
    c2 = c.real * c.real + c.imag * c.imag
    prod = (a.real * a.real + a.imag * a.imag) * b2 * c2 * c2
    u0, u1 = _split_roots(1.0 - 2.0 * b2 * c2, prod)
    w0 = (-a.conjugate() * b * c2, complex(u0))
    w1 = (-a.conjugate() * b * c2, complex(u1))
    m0 = math.sqrt(abs(w0[0]) ** 2 + u0 * u0)
    m1 = math.sqrt(abs(w1[0]) ** 2 + u1 * u1)
    wc0 = (w0[0].conjugate() / m0, w0[1].conjugate() / m0)
    wc1 = (w1[0].conjugate() / m1, w1[1].conjugate() / m1)
    aa0, aa1 = dec3[1]
    dec4 = ((n0, n1), (aa1, aa0), (wc0, wc1), False)
    members = (*triple.members, _reconstruct_parts(dec4))
    return _ortho_set(members, "PPEE", triple.params, (dec3, dec4), case_id=3)


def _angle(value, name: str) -> float:
    """``value`` as a finite float modulo 2 pi; `math.fmod` is exact."""
    return math.fmod(_checked_complex(value, name, float), 2.0 * math.pi)


def _pm_second(theta: float, theta_prime: float) -> tuple:
    """(e^{i theta}|01> + e^{i theta'}|10>)/sqrt(2), the second member of the
    PM pair and of the PMEE and MMEE bases."""
    return (0.0j, cmath.exp(1j * theta) * _SQRT_HALF,
            cmath.exp(1j * theta_prime) * _SQRT_HALF, 0.0j)


def construct_pm(theta: float, theta_prime: float) -> OrthoSet:
    """Pair (|00>, (e^{i theta}|01> + e^{i theta'}|10>)/sqrt(2)).

    Every maximally entangled state orthogonal to |00> has this form; the
    second member's concurrence is exactly 1.  Angles are read modulo 2 pi.
    """
    theta = _angle(theta, "theta")
    theta_prime = _angle(theta_prime, "theta_prime")
    second = _pm_second(theta, theta_prime)
    return _ortho_set((_KET00, second), "PM",
                      {"theta": theta, "theta_prime": theta_prime})


def construct_pmee(theta: float, theta_prime: float, theta_dprime: float,
                   c) -> OrthoSet:
    """Basis with one product member, one maximally entangled member and two
    entangled members.

    The first two members are those of :func:`construct_pm`.  The other two
    take an angle ``theta_dprime`` (all angles are read modulo 2 pi) and
    ``c`` with 0 < |c| < 1/sqrt(2), strictly: at either boundary the
    set degrades to a PPEE pattern and those constructors apply instead.
    The third member has concurrence 2|c|^2, so |c| must exceed about 7.07e-6.
    Coefficients: xi_j = sqrt((1 +- sqrt(1 - 4|c|^4)) / 2) for the third
    member and ups_j = sqrt((1 +- 2|c| sqrt(1 - |c|^2)) / 2) for the fourth.
    """
    theta = _angle(theta, "theta")
    theta_prime = _angle(theta_prime, "theta_prime")
    theta_dprime = _angle(theta_dprime, "theta_dprime")
    c = _checked_complex(c, "c")
    mag = abs(c)
    if mag >= _SQRT_HALF - DEFAULT_TOL:
        raise InvalidArgumentError(
            f"|c| must lie below 1/sqrt(2), got {mag!r}; at the bound the "
            "basis degrades to a PPEE pattern, use the PPEE constructors")
    if mag <= DEFAULT_TOL:  # c^2 may underflow; the third member is a product
        raise ZeroParameterError(
            "parameters too small to yield an entangled third member")
    c2 = mag * mag
    # sqrt(1 - 4|c|^4) as a product, avoiding cancellation near the boundary.
    h_xi = math.sqrt((1.0 - 2.0 * c2) * (1.0 + 2.0 * c2))
    xi0 = math.sqrt(0.5 * (1.0 + h_xi))
    xi1 = c2 / xi0
    ups0 = math.sqrt(0.5 * (1.0 + 2.0 * mag * math.sqrt(1.0 - c2)))
    ups1 = (0.5 - c2) / ups0
    root_uu = math.sqrt(0.5 - c2)  # sqrt(ups0 * ups1)

    ph_dd = cmath.exp(1j * theta_dprime)
    ph_y = cmath.exp(-1j * (theta - theta_prime + theta_dprime))
    x0 = (c, ph_dd * xi0)
    x1 = (-c, ph_dd * xi1)
    ys0 = (-ph_y * c, complex(xi0))
    ys1 = (-ph_y * c, complex(-xi1))
    nx0 = math.sqrt(c2 + xi0 * xi0)
    nx1 = math.sqrt(c2 + xi1 * xi1)
    x0 = (x0[0] / nx0, x0[1] / nx0)
    x1 = (x1[0] / nx1, x1[1] / nx1)
    ys0 = (ys0[0] / nx0, ys0[1] / nx0)
    ys1 = (ys1[0] / nx1, ys1[1] / nx1)
    dec3 = ((xi0, xi1), (x0, x1), (ys0, ys1), False)

    cc = c.conjugate()
    z0 = (ph_dd.conjugate() * root_uu * mag, -cc * ups0)
    z1 = (-ph_dd.conjugate() * root_uu * mag, -cc * ups1)
    ws0 = (ph_y * root_uu * c, complex(mag * ups0))
    ws1 = (ph_y * root_uu * c, complex(-mag * ups1))
    nz0 = mag * math.sqrt(root_uu * root_uu + ups0 * ups0)
    nz1 = mag * math.sqrt(root_uu * root_uu + ups1 * ups1)
    z0 = (z0[0] / nz0, z0[1] / nz0)
    z1 = (z1[0] / nz1, z1[1] / nz1)
    ws0 = (ws0[0] / nz0, ws0[1] / nz0)
    ws1 = (ws1[0] / nz1, ws1[1] / nz1)
    dec4 = ((ups0, ups1), (z0, z1), (ws0, ws1), False)

    members = (_KET00, _pm_second(theta, theta_prime),
               _entangled(_reconstruct_parts(dec3), "an entangled third member"),
               _reconstruct_parts(dec4))
    return _ortho_set(members, "PMEE",
                      {"theta": theta, "theta_prime": theta_prime,
                       "theta_dprime": theta_dprime, "c": c}, (dec3, dec4))


def _mmee_conditions(theta, theta_prime, a, b) -> tuple:
    """(e^{i Delta/2}, E, D) of the MMEE docstrings, Delta = theta' - theta."""
    ph_half = cmath.exp(0.5j * (theta_prime - theta))
    big_e = abs(a * a - ph_half * ph_half * b * b)
    return ph_half, big_e, 2.0 * (ph_half * a.conjugate() * b).real


def _mmee_prepare(theta, theta_prime, a, b, what):
    """Angles modulo 2 pi, rescaled a and b, `_mmee_conditions` and the
    third member, if entangled."""
    theta = _angle(theta, "theta")
    theta_prime = _angle(theta_prime, "theta_prime")
    a = _checked_complex(a, "a")
    b = _checked_complex(b, "b")
    a, b = _rescale((a, b), (1.0, 1.0), 0.5, what)
    ph_half, big_e, d_real = _mmee_conditions(theta, theta_prime, a, b)
    third = _entangled((a, b, -(ph_half * ph_half) * b, -a),
                       "an entangled third member")
    return theta, theta_prime, a, b, ph_half, big_e, d_real, third


def construct_mmee_diagonal(theta: float, theta_prime: float, a, b) -> OrthoSet:
    """Basis of two maximally entangled members plus two diagonal members.

    The first two members are (|00> + |11>)/sqrt(2) and
    (e^{i theta}|01> + e^{i theta'}|10>)/sqrt(2), angles modulo 2 pi.  With
    |a|^2 + |b|^2 scaled to 1/2 and Delta = theta' - theta, the third member
    a|00> + b|01> - e^{i Delta} b|10> - a|11> must be entangled by
    `classify`'s rule and diagonal by `schmidt._branch`'s (its |g| is |D|):

    * entanglement:  e^{i Delta} b^2 != a^2
    * diagonality:   D = e^{i Delta/2} a^* b + e^{-i Delta/2} a b^* = 0

    All four members then turn out maximally entangled.
    """
    theta, theta_prime, a, b, ph_half, _, _, third = _mmee_prepare(
        theta, theta_prime, a, b, "mmee-diagonal")
    _promised_branch(third, True, "the third member")
    ph_full = ph_half * ph_half
    fourth = (b.conjugate(), -a.conjugate(), ph_full * a.conjugate(),
              -b.conjugate())
    # math.sqrt(0.5) entries, one ulp above those of PHI_PLUS.
    first, second = _gamma_first(0.5), _pm_second(theta, theta_prime)
    return _ortho_set((first, second, third, fourth), "MMEE",
                      {"theta": theta, "theta_prime": theta_prime, "a": a,
                       "b": b}, variant="diagonal")


def construct_mmee_nondiagonal(theta: float, theta_prime: float, a, b) -> OrthoSet:
    """Basis of two maximally entangled members plus two non-diagonal members.

    Same first two members, normalization and entanglement check as the
    diagonal variant, but the third member must be non-diagonal (D != 0)
    by `schmidt._branch`'s rule.  The last two members share
    the coefficients tau_j = sqrt((1 +- sqrt(1 - 4 E^2)) / 2) with
    E = |a^2 - e^{i Delta} b^2|, and the fourth member's Schmidt bases are
    the conjugates of the third's with the subsystems swapped and an
    alternating sign.
    """
    theta, theta_prime, a, b, ph_half, big_e, d_real, third = _mmee_prepare(
        theta, theta_prime, a, b, "mmee-nondiagonal")
    _promised_branch(third, False, "the third member")
    sigma = 1.0 if d_real > 0.0 else -1.0
    h = math.sqrt(max(1.0 - 4.0 * big_e * big_e, 0.0))
    tau0 = math.sqrt(0.5 * (1.0 + h))
    tau1 = min(big_e / tau0, tau0)  # E / tau0 can round one ulp above tau0

    sig_half = sigma * ph_half.conjugate()
    c0 = sig_half * a + b
    c1 = sig_half * a - b
    alpha_col = -sig_half  # shared first component of the A-side vectors
    beta_col = sigma * ph_half
    a0 = (c0 / abs(c0)) * _SQRT_HALF
    a1 = (c1 / abs(c1)) * _SQRT_HALF
    alpha0 = (a0 * alpha_col, a0)
    alpha1 = (a1 * alpha_col, -a1)
    beta0 = (beta_col * _SQRT_HALF, complex(_SQRT_HALF))
    beta1 = (beta_col * _SQRT_HALF, complex(-_SQRT_HALF))
    dec3 = ((tau0, tau1), (alpha0, alpha1), (beta0, beta1), False)

    bstar0 = (beta0[0].conjugate(), beta0[1].conjugate())
    bstar1 = (-beta1[0].conjugate(), -beta1[1].conjugate())
    astar0 = (alpha0[0].conjugate(), alpha0[1].conjugate())
    astar1 = (alpha1[0].conjugate(), alpha1[1].conjugate())
    dec4 = ((tau0, tau1), (bstar0, bstar1), (astar0, astar1), False)

    # math.sqrt(0.5) entries, one ulp above those of PHI_PLUS.
    first, second = _gamma_first(0.5), _pm_second(theta, theta_prime)
    return _ortho_set((first, second, _reconstruct_parts(dec3),
                       _reconstruct_parts(dec4)), "MMEE",
                      {"theta": theta, "theta_prime": theta_prime, "a": a,
                       "b": b}, (dec3, dec4), variant="nondiagonal")
