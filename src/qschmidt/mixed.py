"""Spectral construction of two-qubit mixed states and partial traces.

A mixed state with prescribed eigenstate structure is a convex combination
of mutually orthogonal pure projectors; its eigenvalues are then exactly
the mixing weights.  Reductions to either subsystem follow by partial
trace, and for a pure projector the reduced eigenvalues are the squared
Schmidt coefficients of the state.

The partial traces take a 4x4 density matrix (any array-like that numpy
reads as complex) that is finite, Hermitian within 1e-12 (largest
``|rho[i, j] - conj(rho[j, i])|``), of trace 1 within 1e-12 (real and
imaginary parts), and has no eigenvalue below -1e-12; each violation raises
`InvalidDensityError`, checked in that order.  Positivity is certified by an
LDL^H factorization of ``rho + (1e-12 - 1e-14) I``; only when a pivot is not
positive does ``np.linalg.eigvalsh`` decide.  The certificate accepts only
matrices whose ``eigvalsh`` spectrum starts at -1e-12 or above, so the
verdict is the one ``eigvalsh`` alone would give.

The densities are computed on Python numbers in the order `_mix_rows`
states, each entry below the diagonal as the exact conjugate of its mirror,
so they are exactly Hermitian and do not depend on numpy's SIMD loops,
which fuse the complex multiply on some CPUs only.
`spectral_mix`, `reduce_a` and `reduce_b` wrap the result in arrays; the
command line's ``mix`` writes the Python numbers themselves and never
imports numpy.  The checks need numpy only to read an array-like density
and when the positivity certificate fails.
"""

from __future__ import annotations

import math
from cmath import isfinite

from .errors import (InvalidArgumentError, InvalidDensityError, NotFiniteError,
                     NotOrthogonalError)
from .scalar import (DEFAULT_TOL, LazyNumpy, _is_bool, _length, _max_overlap,
                     _number, _total, _unit_members)

np = LazyNumpy(globals())


def _mix_rows(states, weights) -> list:
    """The four rows of sum_i w_i |s_i><s_i| as lists of Python complex,
    after the checks `spectral_mix` documents.

    Entry (r, c), r <= c, is summed over the states in order from ``0j`` as
    ``acc + w * (a[r] * a[c].conjugate())``, and entry (c, r) is that sum u
    mirrored, ``complex(u.real, 0.0 - u.imag)``, which is the sum over (c, r)
    bit for bit: per term the real parts are the same two products and the
    imaginary parts fl(A - B) and fl(B - A), opposite; a real w scales both
    alike, as ``w + 0j`` up to CPython 3.13 or by 3.14's mixed-mode rule,
    and opposite sums stay opposite.  A zero's sign alone could differ, but
    a sum from ``0j`` never has an imaginary -0.0, so ``0.0 - u.imag`` gives
    its +0.0.  The bits depend on CPython's complex arithmetic only.
    """
    n = _length(states, "states")
    if n == 0:
        raise InvalidArgumentError("need at least one state")
    if n != _length(weights, "weights"):
        raise InvalidArgumentError(f"{n} states but {len(weights)} weights")
    ws = [_number(float, w, "weights") for w in weights
          if not (_is_bool(w) or isinstance(w, (str, bytes)))]
    if len(ws) != n:
        raise NotFiniteError(f"weights must be numbers, got {list(weights)!r}")
    for w in ws:
        if not math.isfinite(w) or w <= 0.0:
            error = (InvalidArgumentError if math.isfinite(w)
                     else NotFiniteError)
            raise error(f"weights must be positive, got {w!r}")
    total = _total(ws)
    if abs(total - 1.0) > 1e-12:
        raise InvalidArgumentError(f"weights sum to {total!r}, expected 1")
    amps = _unit_members(states)
    ov, i, j = _max_overlap(amps)
    if ov > DEFAULT_TOL:
        raise NotOrthogonalError(
            f"states {i} and {j} overlap by {ov!r} (> {DEFAULT_TOL!r})")
    # One local per entry, so few complex objects are alive at once: more,
    # laid between small results a caller keeps, fragment the allocator.
    r00 = r01 = r02 = r03 = r11 = r12 = r13 = r22 = r23 = r33 = 0j
    for w, (a0, a1, a2, a3) in zip(ws, amps):
        b0, b1, b2, b3 = (a0.conjugate(), a1.conjugate(), a2.conjugate(),
                          a3.conjugate())
        r00 += w * (a0 * b0)
        r01 += w * (a0 * b1)
        r02 += w * (a0 * b2)
        r03 += w * (a0 * b3)
        r11 += w * (a1 * b1)
        r12 += w * (a1 * b2)
        r13 += w * (a1 * b3)
        r22 += w * (a2 * b2)
        r23 += w * (a2 * b3)
        r33 += w * (a3 * b3)
    return [[r00, r01, r02, r03],
            [complex(r01.real, 0.0 - r01.imag), r11, r12, r13],
            [complex(r02.real, 0.0 - r02.imag),
             complex(r12.real, 0.0 - r12.imag), r22, r23],
            [complex(r03.real, 0.0 - r03.imag),
             complex(r13.real, 0.0 - r13.imag),
             complex(r23.real, 0.0 - r23.imag), r33]]


def spectral_mix(states, weights) -> np.ndarray:
    """Density matrix sum_i w_i |s_i><s_i| from orthogonal unit states.

    ``states`` and ``weights`` must be sequences of the same non-zero
    length (`InvalidArgumentError`), and weights must be finite numbers,
    not bools or strings (`NotFiniteError`), strictly positive (a zero
    weight silently drops rank, which is treated as caller error) and sum
    to 1 within 1e-12 (`InvalidArgumentError`); states must have unit norm
    within 1e-10 (`NotNormalizedError`) and be pairwise orthogonal within
    `DEFAULT_TOL` (`NotOrthogonalError`).
    """
    return np.array(_mix_rows(states, weights))


# The positivity certificate factors rho + _SHIFT * I.  Success proves every
# eigenvalue of rho exceeds -1e-12, with 1e-14 to spare for rounding.
_SHIFT = 1e-12 - 1e-14


def _certified_positive(rows) -> bool:
    """True when an LDL^H factorization of the lower triangle of
    ``rows + _SHIFT * I`` has only positive pivots.

    That is the Hermitian matrix `np.linalg.eigvalsh` reads (lower triangle,
    real diagonal).  LDL^H is backward stable (Higham, *Accuracy and
    Stability of Numerical Algorithms*, Thm 10.3): positive computed pivots
    prove the shifted matrix positive definite up to a perturbation of a few
    ulps of its diagonal, which positive pivots and the trace check before
    this one bound by 1 + 4e-12, far below the margin in `_SHIFT`.  A False
    is no verdict; each pivot test is ``not d > 0.0``, so nan or overflow
    also returns False.
    """
    (a00, _, _, _), (a10, a11, _, _), (a20, a21, a22, _), \
        (a30, a31, a32, a33) = rows
    a00 = a00.real + _SHIFT
    if not a00 > 0.0:
        return False
    b1, b2, b3 = a10 / a00, a20 / a00, a30 / a00
    a11 = a11.real + _SHIFT - (b1 * a10.conjugate()).real
    a21 -= b2 * a10.conjugate()
    a31 -= b3 * a10.conjugate()
    a22 = a22.real + _SHIFT - (b2 * a20.conjugate()).real
    a32 -= b3 * a20.conjugate()
    a33 = a33.real + _SHIFT - (b3 * a30.conjugate()).real
    if not a11 > 0.0:
        return False
    b2, b3 = a21 / a11, a31 / a11
    a22 -= (b2 * a21.conjugate()).real
    a32 -= b3 * a21.conjugate()
    a33 -= (b3 * a31.conjugate()).real
    if not a22 > 0.0:
        return False
    a33 -= (a32 / a22 * a32.conjugate()).real
    return a33 > 0.0


def _check_density(rho) -> list:
    """Rows of ``rho`` as lists of Python complex, once it passes the density
    contract in the module docstring; each check raises
    `InvalidDensityError` in that order."""
    try:
        m = np.asarray(rho, dtype=complex)
    except OverflowError:  # an integer too large for a float
        raise InvalidDensityError("density matrix has non-finite entries") \
            from None
    except (TypeError, ValueError):  # entries that are not numbers, ragged rows
        raise InvalidDensityError(
            "density matrix must be a 4x4 array of numbers") from None
    if m.shape != (4, 4):
        raise InvalidDensityError(f"expected a 4x4 matrix, got {m.shape}")
    return _check_rows(m.tolist())


def _check_rows(rows) -> list:
    """``rows``, four sequences of four Python complex numbers, once they
    pass the density contract after its shape check."""
    r0, r1, r2, r3 = rows
    if not all(map(isfinite, r0 + r1 + r2 + r3)):
        raise InvalidDensityError("density matrix has non-finite entries")
    # |m[i, j] - conj(m[j, i])| is the same at (i, j) and (j, i), so the
    # upper triangle with the diagonal holds the largest of the 16 residuals.
    # abs() is libm's hypot, which can differ from numpy's SIMD complex
    # absolute in the last ulp.
    if max(abs(r0[0] - r0[0].conjugate()), abs(r0[1] - r1[0].conjugate()),
           abs(r0[2] - r2[0].conjugate()), abs(r0[3] - r3[0].conjugate()),
           abs(r1[1] - r1[1].conjugate()), abs(r1[2] - r2[1].conjugate()),
           abs(r1[3] - r3[1].conjugate()), abs(r2[2] - r2[2].conjugate()),
           abs(r2[3] - r3[2].conjugate()),
           abs(r3[3] - r3[3].conjugate())) > 1e-12:
        raise InvalidDensityError("density matrix is not Hermitian within 1e-12")
    # numpy 2.4.6 sums the trace of a 4x4 complex matrix in this grouping.
    # Other numpy builds may group differently, which can move a unit-scale
    # trace by one ulp at the +-1e-12 bound.
    tr = (r0[0] + r1[1]) + (r2[2] + r3[3])
    if abs(tr.real - 1.0) > 1e-12 or abs(tr.imag) > 1e-12:
        raise InvalidDensityError("density matrix trace is not 1 within 1e-12")
    if not _certified_positive(rows) \
            and np.linalg.eigvalsh(np.array(rows))[0] < -1e-12:
        raise InvalidDensityError("density matrix has an eigenvalue below -1e-12")
    return rows


def _reduced_rows(rows, system: str) -> tuple:
    """The 2x2 state of subsystem ``system`` ("a" or "b") of the density
    ``rows``, as two rows of Python complex: the partial trace over the
    other subsystem."""
    r0, r1, r2, r3 = rows
    if system == "a":
        return ((r0[0] + r1[1], r0[2] + r1[3]), (r2[0] + r3[1], r2[2] + r3[3]))
    return ((r0[0] + r2[2], r0[1] + r2[3]), (r1[0] + r3[2], r1[1] + r3[3]))


def reduce_a(rho) -> np.ndarray:
    """Partial trace over subsystem B, leaving the 2x2 state of A."""
    return np.array(_reduced_rows(_check_density(rho), "a"))


def reduce_b(rho) -> np.ndarray:
    """Partial trace over subsystem A, leaving the 2x2 state of B."""
    return np.array(_reduced_rows(_check_density(rho), "b"))
