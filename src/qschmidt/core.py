"""Foundational two-qubit state operations.

A two-qubit pure state is a length-4 complex vector over the product basis,
with amplitudes ordered ``(c00, c01, c10, c11)``.  The first index labels
subsystem A, the second labels subsystem B, so the associated 2x2 coefficient
matrix is ``[[c00, c01], [c10, c11]]`` (rows indexed by A, columns by B).

All functions are pure: inputs are never mutated and identical inputs yield
bit-identical outputs.

Importing this module imports numpy: the named states and every function
that returns an array need it.  The tolerances, `check_tol`, `amplitudes`
and `concurrence` live in the numpy-free `scalar` module and are
re-exported here as the same objects; `tensor` is the array form of
`scalar._tensor`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotUnitaryError
from .scalar import (  # noqa: F401  (re-exported)
    DEFAULT_TOL,
    VERIFY_TOL,
    _check_unit,
    _checked_complex,
    _dot,
    _qubit,
    _tensor,
    _unit,
    amplitudes,
    check_tol,
    concurrence,
    unit_state,
)
from .schmidt import _offdiagonal

KET0 = np.array([1.0 + 0.0j, 0.0 + 0.0j])
KET1 = np.array([0.0 + 0.0j, 1.0 + 0.0j])
PLUS = np.array([1.0 + 0.0j, 1.0 + 0.0j]) / math.sqrt(2.0)
MINUS = np.array([1.0 + 0.0j, -1.0 + 0.0j]) / math.sqrt(2.0)

PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
PHI_MINUS = np.array([1.0, 0.0, 0.0, -1.0], dtype=complex) / math.sqrt(2.0)
PSI_PLUS = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / math.sqrt(2.0)
PSI_MINUS = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)


def make_state(c00, c01, c10, c11, normalize: bool = False) -> np.ndarray:
    """Build a unit-norm two-qubit state from four amplitudes.

    With ``normalize`` off, inputs whose norm deviates from 1 by more than
    1e-10 are rejected; tiny drift is still scaled away so the returned state
    is always unit norm.
    """
    return np.array(unit_state(c00, c01, c10, c11, normalize))


def make_qubit(v0, v1, normalize: bool = False) -> np.ndarray:
    """Build a unit-norm single-qubit vector from two amplitudes."""
    a, b, nrm2 = _qubit((v0, v1), "v", entries=("v0", "v1"))
    return np.array(_unit((a, b), nrm2, normalize, "both amplitudes are zero",
                          "vector"))


def inner(a, b) -> complex:
    """Inner product of two two-qubit states, conjugate linear in ``a``."""
    return _dot(amplitudes(a), amplitudes(b))


def coefficient_matrix(state) -> np.ndarray:
    """The state's 2x2 coefficient matrix, rows indexed by A, columns by B."""
    c00, c01, c10, c11 = amplitudes(state)
    return np.array([[c00, c01], [c10, c11]])


def gram(state) -> np.ndarray:
    """Gram matrix M^dagger M of the state's coefficient matrix M.

    Hermitian, positive semi-definite, unit trace for a unit state.
    """
    m = coefficient_matrix(state)
    return m.conj().T @ m


def gram_offdiagonal(state) -> complex:
    """The (0, 1) entry of the Gram matrix, c00^* c01 + c10^* c11.

    This single scalar decides which closed-form decomposition branch
    applies: it vanishes exactly when the coefficient-matrix columns are
    orthogonal.
    """
    return _offdiagonal(*amplitudes(state))


def is_diagonal(state, tol: float = DEFAULT_TOL) -> bool:
    """True when the Gram matrix is diagonal within ``tol``."""
    return abs(gram_offdiagonal(state)) <= check_tol(tol)


def tensor(a, b) -> np.ndarray:
    """Tensor product of two unit single-qubit vectors, c_jk = a_j * b_k."""
    return np.array(_tensor(a, b))


def is_unitary(u, tol: float = VERIFY_TOL) -> bool:
    """True when ``u`` is a 2x2 matrix with u^dagger u = I within ``tol``."""
    tol = check_tol(tol)
    try:
        m = np.asarray(u, dtype=complex)
    except (OverflowError, TypeError, ValueError):  # too large, not numbers
        return False
    if m.shape != (2, 2):
        return False
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        return False
    return bool(np.max(np.abs(m.conj().T @ m - np.eye(2))) <= tol)


def apply_local(state, u_a, u_b) -> np.ndarray:
    """Apply local unitaries to each subsystem: the coefficient matrix maps
    as M -> u_a M u_b^T.  Concurrence is invariant under this action."""
    if not is_unitary(u_a):
        raise NotUnitaryError("u_a is not unitary within 1e-12")
    if not is_unitary(u_b):
        raise NotUnitaryError("u_b is not unitary within 1e-12")
    m = coefficient_matrix(state)
    out = np.asarray(u_a, dtype=complex) @ m @ np.asarray(u_b, dtype=complex).T
    return out.reshape(4)


def orthogonal_complement(v) -> np.ndarray:
    """The unit vector orthogonal to a unit single-qubit vector ``v``.

    Raises `NotNormalizedError` when the norm of ``v`` is off 1 by more
    than 1e-10.
    """
    v0, v1, nrm2 = _qubit(v, "v")
    _check_unit(math.sqrt(nrm2), "v")
    return np.array([-v1.conjugate(), v0.conjugate()])
