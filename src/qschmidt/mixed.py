"""Spectral construction of two-qubit mixed states and partial traces.

A mixed state with prescribed eigenstate structure is a convex combination
of mutually orthogonal pure projectors; its eigenvalues are then exactly
the mixing weights.  Reductions to either subsystem follow by partial
trace, and for a pure projector the reduced eigenvalues are the squared
Schmidt coefficients of the state.
"""

from __future__ import annotations

import math

import numpy as np

from .core import DEFAULT_TOL, _dot, _norm, amplitudes, check_tol
from .errors import BadWeightsError, InvalidDensityError, NotOrthogonalError


def spectral_mix(states, weights, *, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Density matrix sum_i w_i |s_i><s_i| from orthogonal unit states.

    Weights must be strictly positive (a zero weight silently drops rank,
    which is treated as caller error) and sum to 1 within 1e-12; states
    must be pairwise orthogonal within ``tol``.
    """
    tol = check_tol(tol)
    if len(states) == 0:
        raise BadWeightsError("need at least one state")
    if len(states) != len(weights):
        raise BadWeightsError(
            f"{len(states)} states but {len(weights)} weights")
    ws = [float(w) for w in weights]
    for w in ws:
        if not math.isfinite(w) or w <= 0.0:
            raise BadWeightsError(f"weights must be positive, got {w!r}")
    if abs(sum(ws) - 1.0) > 1e-12:
        raise BadWeightsError(f"weights sum to {sum(ws)!r}, expected 1")
    amps = []
    for i, s in enumerate(states):
        a = amplitudes(s)
        nrm = _norm(a)
        if abs(nrm - 1.0) > 1e-10:
            raise NotOrthogonalError(f"states[{i}] has norm {nrm!r}")
        amps.append(a)
    for i in range(len(amps)):
        for j in range(i + 1, len(amps)):
            ov = abs(_dot(amps[i], amps[j]))
            if ov > tol:
                raise NotOrthogonalError(
                    f"states {i} and {j} overlap by {ov!r} (> {tol!r})")
    v = np.array(amps)
    terms = np.array(ws)[:, None, None] * (v[:, :, None] * v.conj()[:, None, :])
    # Summed in state order from +0.0, as a running sum into a zero matrix.
    return np.add.reduce(terms, axis=0, initial=0.0)


def _check_density(rho, dim: int) -> np.ndarray:
    m = np.asarray(rho, dtype=complex)
    if m.shape != (dim, dim):
        raise InvalidDensityError(f"expected a {dim}x{dim} matrix, got {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidDensityError("density matrix has non-finite entries")
    if np.abs(m - m.conj().T).max() > 1e-12:
        raise InvalidDensityError("density matrix is not Hermitian within 1e-12")
    tr = complex(m.trace())
    if abs(tr.real - 1.0) > 1e-12 or abs(tr.imag) > 1e-12:
        raise InvalidDensityError("density matrix trace is not 1 within 1e-12")
    if np.linalg.eigvalsh(m)[0] < -1e-12:
        raise InvalidDensityError("density matrix has an eigenvalue below -1e-12")
    return m


def reduce_a(rho) -> np.ndarray:
    """Partial trace over subsystem B, leaving the 2x2 state of A."""
    m = _check_density(rho, 4)
    return m[0::2, 0::2] + m[1::2, 1::2]


def reduce_b(rho) -> np.ndarray:
    """Partial trace over subsystem A, leaving the 2x2 state of B."""
    m = _check_density(rho, 4)
    return m[:2, :2] + m[2:, 2:]
