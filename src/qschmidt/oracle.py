"""Independent verification path.

`oracle_schmidt` decomposes a state through a from-scratch 2x2 Hermitian
eigensolver on the Gram matrix, a code path disjoint from the closed-form
branches, so the two routes check each other.  `verify_set` and `classify`
grade arbitrary 1..4-state sets.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import InvalidArgumentError, ZeroVectorError
from .scalar import (DEFAULT_TOL, VERIFY_TOL, _ZERO_FLOOR, _concurrence, _length,
                     _max_overlap, _norm, _unit_members, amplitudes)
from .schmidt import SchmidtDecomposition, _parts, _reconstruct_parts, _wrap


def _oracle_parts(c00, c01, c10, c11):
    """Eigensolver route: spectral data of the Gram matrix, then the A-side
    vectors as normalized images of the eigenvectors."""
    g00 = c00.real * c00.real + c00.imag * c00.imag \
        + c10.real * c10.real + c10.imag * c10.imag
    g11 = c01.real * c01.real + c01.imag * c01.imag \
        + c11.real * c11.real + c11.imag * c11.imag
    if g00 <= _ZERO_FLOOR and g11 <= _ZERO_FLOOR:
        raise ZeroVectorError("state vector is zero")
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
    if 0.0 < az < 1e-280:  # too few bits in a subnormal |z| for a unit z/|z|
        z *= 2.0 ** 600  # a power of two scales exactly
        az = abs(z)
    phase = z / az if az > 0.0 else 1.0 + 0.0j
    a1 = (phase * w[0], phase * w[1])

    b0 = (phi0[0].conjugate(), phi0[1].conjugate())
    b1 = (phi1[0].conjugate(), phi1[1].conjugate())
    return (l0, l1), (a0, a1), (b0, b1), False


def oracle_schmidt(state) -> SchmidtDecomposition:
    """Schmidt decomposition through the eigensolver route; like `schmidt`,
    of the state as given, not normalized."""
    return _wrap(_oracle_parts(*amplitudes(state)))


def _reconstruction_error(parts, a) -> float:
    """Largest |reconstruct(parts)[k] - a[k]|."""
    r0, r1, r2, r3 = _reconstruct_parts(parts)
    return max(abs(r0 - a[0]), abs(r1 - a[1]), abs(r2 - a[2]), abs(r3 - a[3]))


def _check_size(states, verb: str) -> None:
    n = _length(states, "states", InvalidArgumentError)
    if not 1 <= n <= 4:
        raise InvalidArgumentError(f"{verb} takes 1..4 states, got {n}")


def _label(conc: float, refine_m: bool = True) -> str:
    if conc <= DEFAULT_TOL:
        return "P"
    if refine_m and abs(conc - 1.0) <= DEFAULT_TOL:
        return "M"
    return "E"


class StateReport(NamedTuple):
    """Per-state verification record."""

    reconstruction_error: float
    coefficient_mismatch_vs_oracle: float
    concurrence: float
    label: str


class VerificationReport(NamedTuple):
    """Outcome of verifying a 1..4-state set.  Its fields, and those of each
    `StateReport`, are the keys of the ``verify`` JSON, in this order.

    ``passed`` holds when every pairwise overlap, both routes' reconstruction
    errors (which fold in any unit-norm drift) and the closed-form/oracle
    coefficient mismatches sit below `VERIFY_TOL`; each ``label`` is drawn
    at `DEFAULT_TOL`."""

    max_pairwise_overlap: float
    per_state: list
    passed: bool


def verify_set(states) -> VerificationReport:
    """Grade a set of 1..4 states: overlaps, dual-route decompositions,
    reconstruction errors and concurrence labels."""
    _check_size(states, "verify_set")
    amps = [amplitudes(s) for s in states]
    max_ov = _max_overlap(amps)[0]
    per = []
    ok = max_ov <= VERIFY_TOL
    for a in amps:
        closed = _parts(*a)
        orac = _oracle_parts(*a)
        mismatch = max(abs(closed[0][0] - orac[0][0]),
                       abs(closed[0][1] - orac[0][1]))
        rec = max(_reconstruction_error(closed, a),
                  _reconstruction_error(orac, a), abs(_norm(a) - 1.0))
        conc = _concurrence(*a)
        # `tuple.__new__` skips the ``__new__`` that `NamedTuple` writes in
        # Python, as `schmidt._wrap` does.
        per.append(tuple.__new__(StateReport,
                                 (rec, mismatch, conc, _label(conc))))
        if rec > VERIFY_TOL or mismatch > VERIFY_TOL:
            ok = False
    return tuple.__new__(VerificationReport, (max_ov, per, ok))


def classify(states, *, refine_m: bool = False) -> str:
    """Ordered pattern of product/entangled labels, e.g. ``"PPEE"``: a state
    is product when its concurrence is at most `DEFAULT_TOL`.

    With ``refine_m`` the maximally entangled members are labeled ``M``.
    All states must be unit norm within 1e-10.
    """
    _check_size(states, "classify")
    out = ""
    for a in _unit_members(states):
        out += _label(_concurrence(*a), refine_m)
    return out
