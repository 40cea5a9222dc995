"""Closed-form Schmidt decomposition of two-qubit pure states.

Two explicit formulas cover every state, selected by whether the state's
Gram matrix is diagonal:

* diagonal branch: the coefficients are the column norms of the coefficient
  matrix and the A-side basis is the normalized columns, with the
  computational basis on the B side;
* non-diagonal branch: the coefficients follow from the concurrence and the
  bases from the Gram-matrix eigenvectors written in closed form.

`_branch` alone decides the diagonal condition: for `schmidt`'s dispatch,
and through `_promised_branch` for both single-branch functions and every
constructor's diagonal guard.  `reconstruct` inverts any valid
decomposition exactly.

The branches compute on tuples of Python complex numbers.  Importing this
module does not import numpy: the first `SchmidtDecomposition` built or
`reconstruct` call does, since their arrays are the only part that needs it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import (DiagonalError, InvalidArgumentError, NotDiagonalError,
                     ZeroVectorError)
from .scalar import (DEFAULT_TOL, _ZERO_FLOOR, LazyNumpy, _concurrence,
                     amplitudes)

np = LazyNumpy(globals())

_E0 = (1.0 + 0.0j, 0.0 + 0.0j)
_E1 = (0.0 + 0.0j, 1.0 + 0.0j)


class SchmidtDecomposition(NamedTuple):
    """Coefficients and single-qubit bases of a two-qubit decomposition.

    ``coeffs`` holds the two non-negative coefficients in descending order;
    their squares sum to the input's squared norm, 1 for a unit state (the
    kernels take a state as given; `make_state`, ``decompose --strict`` and
    `classify` check the norm).  ``basis_a`` and ``basis_b`` are 2x2 complex
    arrays whose *rows* are the A-side and B-side basis vectors; row ``j``
    pairs with ``coeffs[j]``.  ``degenerate`` marks rank-1 inputs whose
    second basis pair was completed arbitrarily.  Decompositions built here
    hold ``basis_a`` and ``basis_b`` as views of one (2, 2, 2) buffer; each
    is C-contiguous.
    """

    coeffs: np.ndarray
    basis_a: np.ndarray
    basis_b: np.ndarray
    degenerate: bool = False


def _wrap(parts) -> SchmidtDecomposition:
    """One array build for both bases: they are views of a (2, 2, 2) buffer.
    `tuple.__new__` skips the ``__new__`` that `NamedTuple` writes in Python."""
    coeffs, (a0, a1), (b0, b1), degenerate = parts
    m = np.fromiter((*a0, *a1, *b0, *b1), complex, 8).reshape(2, 2, 2)
    return tuple.__new__(SchmidtDecomposition,
                         (np.array(coeffs), m[0], m[1], degenerate))


def _unwrap(d: SchmidtDecomposition) -> tuple:
    """The Schmidt data `_wrap` was given, as lists of Python numbers; any
    fields but real coefficients of shape (2,) and numeric bases of shape
    (2, 2) raise `InvalidArgumentError`."""
    try:
        coeffs, basis_a, basis_b = d.coeffs, d.basis_a, d.basis_b
        ok = coeffs.shape == (2,) and coeffs.dtype.kind in "iuf" \
            and basis_a.shape == basis_b.shape == (2, 2) \
            and basis_a.dtype.kind in "iufc" and basis_b.dtype.kind in "iufc"
    except AttributeError:
        ok = False
    if not ok:
        raise InvalidArgumentError("need a SchmidtDecomposition of numeric "
                                   f"(2,), (2, 2), (2, 2) arrays, got {d!r}")
    return coeffs.tolist(), basis_a.tolist(), basis_b.tolist(), d.degenerate


def _perp(v):
    return (-v[1].conjugate(), v[0].conjugate())


def _branch(c00, c01, c10, c11):
    """``(n0, n1, g)``: squared column norms and Gram off-diagonal, g
    ``None`` where |g| <= `DEFAULT_TOL` (the diagonal branch; a NaN g fails
    that test and takes the non-diagonal one)."""
    n0 = c00.real * c00.real + c00.imag * c00.imag \
        + c10.real * c10.real + c10.imag * c10.imag
    n1 = c01.real * c01.real + c01.imag * c01.imag \
        + c11.real * c11.real + c11.imag * c11.imag
    g = c00.conjugate() * c01 + c10.conjugate() * c11
    return n0, n1, (None if abs(g) <= DEFAULT_TOL else g)


def _promised_branch(c, diagonal: bool, member: str = ""):
    """`_branch`'s ``(n0, n1, g)`` of the amplitudes ``c``, promised the
    diagonal branch or, if not ``diagonal``, the other one.  The branch not
    promised raises `NotDiagonalError` or `DiagonalError`, naming
    ``member``, a constructor's member, or else the state given."""
    n0, n1, g = _branch(*c)
    if diagonal and g is not None:
        raise NotDiagonalError(
            (f"parameters put {member} off the diagonal branch: " if member
             else "") + f"Gram off-diagonal magnitude {abs(g)!r} exceeds "
            f"tol {DEFAULT_TOL!r}")
    if not diagonal and g is None:
        raise DiagonalError(
            f"parameters put {member} on the diagonal branch" if member else
            "state satisfies the diagonal condition; the non-diagonal "
            "formula's internal vectors vanish (use the diagonal branch)")
    return n0, n1, g


def _diag_parts(c00, c01, c10, c11, n0, n1):
    """Diagonal branch, given the squared column norms of `_branch`."""
    if n0 <= _ZERO_FLOOR or n1 <= _ZERO_FLOOR:
        if n0 <= _ZERO_FLOOR and n1 <= _ZERO_FLOOR:
            raise ZeroVectorError("state vector is zero")
        # Rank 1: one column vanishes.  Complete the bases with the
        # orthogonal computational complement and flag the result.
        if n0 > n1:
            l0 = math.sqrt(n0)
            a0 = (c00 / l0, c10 / l0)
            b0, b1 = _E0, _E1
        else:
            l0 = math.sqrt(n1)
            a0 = (c01 / l0, c11 / l0)
            b0, b1 = _E1, _E0
        return (l0, 0.0), (a0, _perp(a0)), (b0, b1), True
    l0 = math.sqrt(n0)
    l1 = math.sqrt(n1)
    a0 = (c00 / l0, c10 / l0)
    a1 = (c01 / l1, c11 / l1)
    if l1 > l0:
        return (l1, l0), (a1, a0), (_E1, _E0), False
    return (l0, l1), (a0, a1), (_E0, _E1), False


def _nondiag_parts(c00, c01, c10, c11, n0, n1, g):
    """Non-diagonal branch, given `_branch`'s norms and its g, not None."""
    g2 = g.real * g.real + g.imag * g.imag
    u = 0.5 * (n1 - n0)
    half_gap = math.sqrt(u * u + g2)
    lam0 = math.sqrt(0.5 * (n0 + n1) + half_gap)
    # stable for small concurrence
    lam1 = _concurrence(c00, c01, c10, c11) / (2.0 * lam0)

    # Second components of the eigenvector pair (g, s_j).  The smaller one
    # follows from s0 * s1 = -|g|^2, avoiding cancellation.
    if u >= 0.0:
        s0 = u + half_gap
        s1 = -g2 / s0
    else:
        s1 = u - half_gap
        s0 = -g2 / s1
    ny0 = math.sqrt(g2 + s0 * s0)
    ny1 = math.sqrt(g2 + s1 * s1)

    x00 = c00 * g + c01 * s0
    x01 = c10 * g + c11 * s0
    nx0 = math.sqrt(x00.real * x00.real + x00.imag * x00.imag
                    + x01.real * x01.real + x01.imag * x01.imag)
    e0, e1 = x00 / nx0, x01 / nx0
    # The second A-side vector is the exact orthogonal complement (w0, w1)
    # of the first, (e0, e1), phase aligned with the formula's (possibly
    # tiny) image vector; -e1 and e0 are w0's and w1's conjugates exactly.
    w0, w1 = -e1.conjugate(), e0.conjugate()
    x10 = c00 * g + c01 * s1
    x11 = c10 * g + c11 * s1
    z = -e1 * x10 + e0 * x11
    az = abs(z)
    if 0.0 < az < 1e-280:  # too few bits in a subnormal |z| for a unit z/|z|
        z *= 2.0 ** 600  # a power of two scales exactly
        az = abs(z)
    phase = z / az if az > 0.0 else 1.0 + 0.0j
    gc = g.conjugate()
    return ((lam0, lam1), ((e0, e1), (phase * w0, phase * w1)),
            ((gc / ny0, s0 / ny0), (gc / ny1, s1 / ny1)), False)


def _parts(c00, c01, c10, c11):
    n0, n1, g = _branch(c00, c01, c10, c11)
    if g is None:
        return _diag_parts(c00, c01, c10, c11, n0, n1)
    return _nondiag_parts(c00, c01, c10, c11, n0, n1, g)


def _reconstruct_parts(parts):
    """sum_j l_j a_j (x) b_j, each ``l_j * a_j`` entry formed once."""
    (l0, l1), (a0, a1), (b0, b1), _ = parts
    p0 = l0 * a0[0]
    p1 = l0 * a0[1]
    q0 = l1 * a1[0]
    q1 = l1 * a1[1]
    return (p0 * b0[0] + q0 * b1[0], p0 * b0[1] + q0 * b1[1],
            p1 * b0[0] + q1 * b1[0], p1 * b0[1] + q1 * b1[1])


def schmidt_diagonal(state, *, check: bool = True) -> SchmidtDecomposition:
    """Decompose a state whose coefficient-matrix columns are orthogonal,
    to within `DEFAULT_TOL`.

    Coefficients are the column norms sorted in descending order, the A-side
    basis the normalized columns, the B-side basis computational.  With
    ``check`` off the formula is applied regardless of the diagonal
    condition; on a non-diagonal state this reproduces the well-known
    failure mode in which the returned A-side vectors are not orthogonal.
    """
    c = amplitudes(state)
    n0, n1, _ = _promised_branch(c, True) if check else _branch(*c)
    return _wrap(_diag_parts(*c, n0, n1))


def schmidt_nondiagonal(state) -> SchmidtDecomposition:
    """Decompose a state that violates the diagonal condition.

    Raises :class:`DiagonalError` on diagonal input, where the formula's
    eigenvector seeds are zero vectors.
    """
    c = amplitudes(state)
    return _wrap(_nondiag_parts(*c, *_promised_branch(c, False)))


def schmidt(state) -> SchmidtDecomposition:
    """Schmidt decomposition of any two-qubit pure state.

    Dispatches on the diagonal condition, |g| <= `DEFAULT_TOL` for the
    Gram off-diagonal g; the boundary itself takes the diagonal branch,
    which is exact there.  The state is taken as given, not normalized (see
    `SchmidtDecomposition`).
    """
    return _wrap(_parts(*amplitudes(state)))


def reconstruct(decomposition: SchmidtDecomposition) -> np.ndarray:
    """Rebuild the state  sum_j coeffs[j] * basis_a[j] (x) basis_b[j]."""
    return np.array(_reconstruct_parts(_unwrap(decomposition)), dtype=complex)
