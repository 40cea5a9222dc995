"""Independent verification path and seeded random samplers.

`oracle_schmidt` decomposes a state through a from-scratch 2x2 Hermitian
eigensolver on the Gram matrix, a code path disjoint from the closed-form
branches, so the two routes check each other.  `verify_set` and `classify`
grade arbitrary 1..4-state sets.  `sample` draws parameters uniformly on
each constructor's constraint manifold from a splitmix64 stream, so runs
are reproducible bit for bit from the seed alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bases import (
    construct_mmee_diagonal,
    construct_mmee_nondiagonal,
    construct_pm,
    construct_pmee,
    construct_pppp,
    construct_ppee_case1,
    construct_ppee_case2,
    construct_ppee_case3,
)
from .core import DEFAULT_TOL, VERIFY_TOL, _ZERO_FLOOR, _dot, _norm, amplitudes
from .core import check_tol as _check_tol
from .errors import InvalidArgumentError, NotNormalizedError, UnknownTypeError
from .pairs import (
    A_SIDE,
    B_SIDE,
    construct_ee_diagonal,
    construct_ee_nondiagonal,
    construct_ep,
    construct_pe_diagonal,
    construct_pe_nondiagonal,
    construct_pp,
)
from .schmidt import SchmidtDecomposition, _parts, _reconstruct_parts, _wrap
from .triples import (
    construct_ppe_case1,
    construct_ppe_case2,
    construct_ppe_case3,
    construct_ppp,
)


def _oracle_parts(c00, c01, c10, c11):
    """Eigensolver route: spectral data of the Gram matrix, then the A-side
    vectors as normalized images of the eigenvectors."""
    g00 = c00.real * c00.real + c00.imag * c00.imag \
        + c10.real * c10.real + c10.imag * c10.imag
    g11 = c01.real * c01.real + c01.imag * c01.imag \
        + c11.real * c11.real + c11.imag * c11.imag
    g01 = c00.conjugate() * c01 + c10.conjugate() * c11
    q = g01.real * g01.real + g01.imag * g01.imag
    half_diff = 0.5 * (g00 - g11)
    gap_half = math.sqrt(half_diff * half_diff + q)
    m0 = 0.5 * (g00 + g11) + gap_half
    # The Gram determinant in its |det M|^2 form stays fully accurate near
    # rank deficiency; the smaller eigenvalue via det / m0 then keeps full
    # relative accuracy as well.
    det_m = c00 * c11 - c01 * c10
    det = det_m.real * det_m.real + det_m.imag * det_m.imag
    m1 = det / m0 if m0 > _ZERO_FLOOR else 0.0
    l0 = math.sqrt(m0)
    l1 = math.sqrt(m1)

    # Eigenvector of the larger eigenvalue, seeded from whichever row of
    # (G - m0 I) has the larger residual entry.
    d0 = m0 - g00
    d1 = m0 - g11
    if d0 >= d1:
        v = (g01, complex(d0))
    else:
        v = (complex(d1), g01.conjugate())
    nv = math.sqrt(abs(v[0]) ** 2 + abs(v[1]) ** 2)
    if nv <= _ZERO_FLOOR:
        phi0 = (1.0 + 0.0j, 0.0 + 0.0j)
    else:
        phi0 = (v[0] / nv, v[1] / nv)
    phi1 = (-phi0[1].conjugate(), phi0[0].conjugate())

    x00 = c00 * phi0[0] + c01 * phi0[1]
    x01 = c10 * phi0[0] + c11 * phi0[1]
    nx = math.sqrt(x00.real * x00.real + x00.imag * x00.imag
                   + x01.real * x01.real + x01.imag * x01.imag)
    if nx <= _ZERO_FLOOR:
        a0 = (1.0 + 0.0j, 0.0 + 0.0j)
    else:
        a0 = (x00 / nx, x01 / nx)
    w = (-a0[1].conjugate(), a0[0].conjugate())
    x10 = c00 * phi1[0] + c01 * phi1[1]
    x11 = c10 * phi1[0] + c11 * phi1[1]
    z = w[0].conjugate() * x10 + w[1].conjugate() * x11
    az = abs(z)
    phase = z / az if az > 0.0 else 1.0 + 0.0j
    a1 = (phase * w[0], phase * w[1])

    b0 = (phi0[0].conjugate(), phi0[1].conjugate())
    b1 = (phi1[0].conjugate(), phi1[1].conjugate())
    return (l0, l1), (a0, a1), (b0, b1), False


def oracle_schmidt(state) -> SchmidtDecomposition:
    """Schmidt decomposition through the eigensolver route."""
    return _wrap(_oracle_parts(*amplitudes(state)))


def _max_dev(r, a) -> float:
    return max(abs(r[0] - a[0]), abs(r[1] - a[1]), abs(r[2] - a[2]),
               abs(r[3] - a[3]))


def _concurrence_scalar(c00, c01, c10, c11) -> float:
    return 2.0 * abs(c00 * c11 - c01 * c10)


def _label(conc: float, tol: float, refine_m: bool = True) -> str:
    if conc <= tol:
        return "P"
    if refine_m and abs(conc - 1.0) <= tol:
        return "M"
    return "E"


@dataclass
class StateReport:
    """Per-state verification record."""

    reconstruction_error: float
    coefficient_mismatch_vs_oracle: float
    concurrence: float
    label: str


@dataclass
class VerificationReport:
    """Outcome of verifying a 1..4-state set.

    ``passed`` holds when every pairwise overlap, both routes' reconstruction
    errors (which fold in any unit-norm drift) and the closed-form/oracle
    coefficient mismatches sit below ``check_tol``.
    """

    max_pairwise_overlap: float
    per_state: list
    passed: bool


def verify_set(states, tol: float = DEFAULT_TOL,
               check_tol: float = VERIFY_TOL) -> VerificationReport:
    """Grade a set of 1..4 states: overlaps, dual-route decompositions,
    reconstruction errors and concurrence labels."""
    tol = _check_tol(tol)
    check_tol = _check_tol(check_tol)
    n = len(states)
    if not 1 <= n <= 4:
        raise InvalidArgumentError(f"verify_set takes 1..4 states, got {n}")
    amps = [amplitudes(s) for s in states]
    max_ov = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            ov = abs(_dot(amps[i], amps[j]))
            if ov > max_ov:
                max_ov = ov
    per = []
    ok = max_ov <= check_tol
    for a in amps:
        closed = _parts(*a, tol)
        orac = _oracle_parts(*a)
        mismatch = max(abs(closed[0][0] - orac[0][0]),
                       abs(closed[0][1] - orac[0][1]))
        rec = max(_max_dev(_reconstruct_parts(closed), a),
                  _max_dev(_reconstruct_parts(orac), a), abs(_norm(a) - 1.0))
        conc = _concurrence_scalar(*a)
        per.append(StateReport(
            reconstruction_error=rec,
            coefficient_mismatch_vs_oracle=mismatch,
            concurrence=conc,
            label=_label(conc, tol),
        ))
        if rec > check_tol or mismatch > check_tol:
            ok = False
    return VerificationReport(max_pairwise_overlap=max_ov, per_state=per,
                              passed=ok)


def classify(states, tol: float = DEFAULT_TOL, refine_m: bool = False) -> str:
    """Ordered pattern of product/entangled labels, e.g. ``"PPEE"``.

    With ``refine_m`` the maximally entangled members are labeled ``M``.
    All states must be unit norm within 1e-10.
    """
    tol = _check_tol(tol)
    n = len(states)
    if not 1 <= n <= 4:
        raise InvalidArgumentError(f"classify takes 1..4 states, got {n}")
    out = []
    for i, s in enumerate(states):
        a = amplitudes(s)
        nrm = _norm(a)
        if abs(nrm - 1.0) > 1e-10:
            raise NotNormalizedError(f"states[{i}] has norm {nrm!r}")
        out.append(_label(_concurrence_scalar(*a), tol, refine_m=refine_m))
    return "".join(out)


# ---------------------------------------------------------------------------
# Seeded sampling.

_MASK64 = (1 << 64) - 1
_TWO_NEG53 = 2.0 ** -53


class SplitMix64:
    """splitmix64: a published 64-bit mixing generator.

    Chosen so any implementation, in any language, reproduces the exact
    sample stream from the seed alone.
    """

    __slots__ = ("state", "_spare_gauss")

    def __init__(self, seed: int):
        self.state = int(seed) & _MASK64
        self._spare_gauss = None

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * _TWO_NEG53

    def angle(self) -> float:
        """Uniform angle in [0, 2 pi)."""
        return 2.0 * math.pi * self.uniform()

    def sign(self) -> int:
        return 1 if (self.next_u64() & 1) == 0 else -1

    def gauss(self) -> float:
        """Standard normal deviate (Box-Muller, pairwise)."""
        if self._spare_gauss is not None:
            g = self._spare_gauss
            self._spare_gauss = None
            return g
        r = math.sqrt(-2.0 * math.log(1.0 - self.uniform()))
        t = self.angle()
        self._spare_gauss = r * math.sin(t)
        return r * math.cos(t)

    def simplex(self, k: int, floor: float = 0.01):
        """Uniform point on the k-simplex with every coordinate >= floor.

        Rejection keeps the draw uniform on the restricted region; the
        floor gives the 1e-12-tolerance test suites numerical headroom.
        """
        while True:
            e = [-math.log(1.0 - self.uniform()) for _ in range(k)]
            total = sum(e)
            w = [x / total for x in e]
            if min(w) >= floor:
                return w


def random_qubit(rng: SplitMix64) -> np.ndarray:
    """Haar-random unit single-qubit vector."""
    v = np.array([complex(rng.gauss(), rng.gauss()),
                  complex(rng.gauss(), rng.gauss())])
    return v / np.linalg.norm(v)


def random_qubit_basis(rng: SplitMix64):
    """Haar-random orthonormal single-qubit basis."""
    v0 = random_qubit(rng)
    phase = complex(math.cos(t := rng.angle()), math.sin(t))
    v1 = np.array([-v0[1].conjugate(), v0[0].conjugate()]) * phase
    return v0, v1


def random_state(rng: SplitMix64) -> np.ndarray:
    """Haar-random two-qubit pure state."""
    v = np.array([complex(rng.gauss(), rng.gauss()) for _ in range(4)])
    return v / np.linalg.norm(v)


def random_unitary(rng: SplitMix64) -> np.ndarray:
    """Haar-random 2x2 unitary."""
    col0 = random_qubit(rng)
    phase = complex(math.cos(t := rng.angle()), math.sin(t))
    return np.array([
        [col0[0], -phase * col0[1].conjugate()],
        [col0[1], phase * col0[0].conjugate()],
    ])


@dataclass
class SampleSpec:
    """Request for seeded random sets of one constructible type.

    ``set_type`` is the pattern name (``"pp"``, ``"pe"``, ..., ``"mmee"``),
    ``case_id`` selects a PPE/PPEE case, ``variant`` a diagonal/nondiagonal
    or a-side/b-side sub-family where the type has one.
    """

    set_type: str
    case_id: int | None = None
    variant: str | None = None
    seed: int = 0
    count: int = 1


def _complex_from(rng: SplitMix64, mag2: float) -> complex:
    t = rng.angle()
    r = math.sqrt(mag2)
    return complex(r * math.cos(t), r * math.sin(t))


def _sample_pp(rng, tol):
    variant = A_SIDE if rng.sign() > 0 else B_SIDE
    return construct_pp(variant, random_qubit(rng), tol=tol)


def _sample_pe_diagonal(rng, tol):
    w = rng.simplex(2)
    return construct_pe_diagonal(_complex_from(rng, w[0]),
                                 _complex_from(rng, w[1]), tol=tol)


def _sample_pe_nondiagonal(rng, tol):
    w = rng.simplex(3)
    return construct_pe_nondiagonal(_complex_from(rng, w[0]),
                                    _complex_from(rng, w[1]),
                                    _complex_from(rng, w[2]), tol=tol)


def _sample_ep(rng, tol):
    gamma = 1e-3 + (1.0 - 2e-3) * rng.uniform()
    w = rng.simplex(2)
    a = _complex_from(rng, w[0])
    b = _complex_from(rng, w[1])
    return construct_ep(gamma, a, b, rng.sign(), tol=tol)


def _sample_ee_diagonal(rng, tol):
    gamma = 1e-3 + (1.0 - 2e-3) * rng.uniform()
    w = rng.simplex(2)
    a = _complex_from(rng, w[0] * (1.0 - gamma))
    c = _complex_from(rng, w[1] * (1.0 - gamma))
    # With a != 0 the diagonality condition pins b, and normalization plus
    # entanglement then hold automatically.
    phase_a2 = (a / abs(a)) ** 2
    b = math.sqrt(gamma / (1.0 - gamma)) * phase_a2 * c.conjugate()
    return construct_ee_diagonal(gamma, a, b, c, tol=tol)


def _sample_ee_nondiagonal(rng, tol):
    while True:
        gamma = 1e-3 + (1.0 - 2e-3) * rng.uniform()
        w = rng.simplex(3)
        a = _complex_from(rng, w[0] * (1.0 - gamma))
        b = _complex_from(rng, w[1])
        c = _complex_from(rng, w[2])
        sg = math.sqrt(gamma)
        s1g = math.sqrt(1.0 - gamma)
        if abs(sg * a * a + s1g * b * c) < 1e-2:
            continue
        if abs(sg * a * c.conjugate() - s1g * a.conjugate() * b) < 1e-2:
            continue
        return construct_ee_nondiagonal(gamma, a, b, c, tol=tol)


def _sample_ppp(rng, tol):
    variant = A_SIDE if rng.sign() > 0 else B_SIDE
    return construct_ppp(variant, random_qubit_basis(rng), tol=tol)


def _sample_ppe(rng, tol, case_id):
    if case_id == 1:
        w = rng.simplex(2)
        return construct_ppe_case1(_complex_from(rng, w[0]),
                                   _complex_from(rng, w[1]), tol=tol)
    w = rng.simplex(2)
    a = _complex_from(rng, w[0])
    b = _complex_from(rng, w[1])
    w = rng.simplex(2)
    c = _complex_from(rng, w[0])
    d = _complex_from(rng, w[1])
    ctor = construct_ppe_case2 if case_id == 2 else construct_ppe_case3
    return ctor(a, b, c, d, tol=tol)


def _sample_pppp(rng, tol):
    variant = A_SIDE if rng.sign() > 0 else B_SIDE
    return construct_pppp(variant, random_qubit_basis(rng), tol=tol)


def _sample_ppee(rng, tol, case_id):
    if case_id == 1:
        w = rng.simplex(2)
        return construct_ppee_case1(_complex_from(rng, w[0]),
                                    _complex_from(rng, w[1]), tol=tol)
    w = rng.simplex(2)
    a = _complex_from(rng, w[0])
    b = _complex_from(rng, w[1])
    w = rng.simplex(2)
    c = _complex_from(rng, w[0])
    d = _complex_from(rng, w[1])
    ctor = construct_ppee_case2 if case_id == 2 else construct_ppee_case3
    return ctor(a, b, c, d, tol=tol)


def _sample_pm(rng, tol):
    return construct_pm(rng.angle(), rng.angle(), tol=tol)


def _sample_pmee(rng, tol):
    theta = rng.angle()
    theta_prime = rng.angle()
    theta_dprime = rng.angle()
    mag2 = 0.005 + 0.49 * rng.uniform()
    return construct_pmee(theta, theta_prime, theta_dprime,
                          _complex_from(rng, mag2), tol=tol)


def _sample_mmee_diagonal(rng, tol):
    theta = rng.angle()
    theta_prime = rng.angle()
    w = rng.simplex(2)
    phi_a = rng.angle()
    ra = math.sqrt(0.5 * w[0])
    rb = math.sqrt(0.5 * w[1])
    # The diagonality scalar vanishes exactly when the phase of
    # e^{i Delta/2} a^* b is +-pi/2.
    phi_b = phi_a - 0.5 * (theta_prime - theta) + rng.sign() * 0.5 * math.pi
    a = complex(ra * math.cos(phi_a), ra * math.sin(phi_a))
    b = complex(rb * math.cos(phi_b), rb * math.sin(phi_b))
    return construct_mmee_diagonal(theta, theta_prime, a, b, tol=tol)


def _sample_mmee_nondiagonal(rng, tol):
    while True:
        theta = rng.angle()
        theta_prime = rng.angle()
        w = rng.simplex(2)
        a = _complex_from(rng, 0.5 * w[0])
        b = _complex_from(rng, 0.5 * w[1])
        delta_half = 0.5 * (theta_prime - theta)
        ph = complex(math.cos(delta_half), math.sin(delta_half))
        d_real = 2.0 * (ph * a.conjugate() * b).real
        big_e = abs(a * a - ph * ph * b * b)
        if not 1e-2 <= abs(d_real) <= 0.49:
            continue
        if big_e < 1e-2:
            continue
        return construct_mmee_nondiagonal(theta, theta_prime, a, b, tol=tol)


def sample(spec: SampleSpec, tol: float = DEFAULT_TOL) -> list:
    """Draw ``spec.count`` constructed sets, deterministically from the seed.

    Raises :class:`UnknownTypeError` for unknown or impossible requests; in
    particular a PPPE basis cannot exist, so asking for one is an error.
    """
    tol = _check_tol(tol)
    if spec.count < 1:
        raise InvalidArgumentError(f"count must be >= 1, got {spec.count!r}")
    set_type = spec.set_type.strip().lower()
    variant = spec.variant.strip().lower() if spec.variant else None
    case_id = spec.case_id

    if set_type == "pppe":
        raise UnknownTypeError(
            "no PPPE basis exists: completing three orthonormal product "
            "states always yields a fourth product state")

    def need_variant(options):
        if variant not in options:
            raise UnknownTypeError(
                f"type {set_type!r} needs variant in {sorted(options)}, "
                f"got {spec.variant!r}")

    def need_case():
        if case_id not in (1, 2, 3):
            raise UnknownTypeError(
                f"type {set_type!r} needs case_id in (1, 2, 3), got {case_id!r}")

    rng = SplitMix64(spec.seed)
    if set_type == "pp":
        draw = lambda: _sample_pp(rng, tol)
    elif set_type == "pe":
        need_variant({"diagonal", "nondiagonal"})
        draw = (lambda: _sample_pe_diagonal(rng, tol)) if variant == "diagonal" \
            else (lambda: _sample_pe_nondiagonal(rng, tol))
    elif set_type == "ep":
        draw = lambda: _sample_ep(rng, tol)
    elif set_type == "ee":
        need_variant({"diagonal", "nondiagonal"})
        draw = (lambda: _sample_ee_diagonal(rng, tol)) if variant == "diagonal" \
            else (lambda: _sample_ee_nondiagonal(rng, tol))
    elif set_type == "ppp":
        draw = lambda: _sample_ppp(rng, tol)
    elif set_type == "ppe":
        need_case()
        draw = lambda: _sample_ppe(rng, tol, case_id)
    elif set_type == "pppp":
        draw = lambda: _sample_pppp(rng, tol)
    elif set_type == "ppee":
        need_case()
        draw = lambda: _sample_ppee(rng, tol, case_id)
    elif set_type == "pm":
        draw = lambda: _sample_pm(rng, tol)
    elif set_type == "pmee":
        draw = lambda: _sample_pmee(rng, tol)
    elif set_type == "mmee":
        need_variant({"diagonal", "nondiagonal"})
        draw = (lambda: _sample_mmee_diagonal(rng, tol)) if variant == "diagonal" \
            else (lambda: _sample_mmee_nondiagonal(rng, tol))
    else:
        raise UnknownTypeError(f"unknown set type {spec.set_type!r}")
    return [draw() for _ in range(spec.count)]
