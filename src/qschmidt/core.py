"""Foundational two-qubit state operations.

A two-qubit pure state is a length-4 complex vector over the product basis,
with amplitudes ordered ``(c00, c01, c10, c11)``.  The first index labels
subsystem A, the second labels subsystem B, so the associated 2x2 coefficient
matrix is ``[[c00, c01], [c10, c11]]`` (rows indexed by A, columns by B).

All functions are pure: inputs are never mutated and identical inputs yield
bit-identical outputs.

Importing this module imports numpy: the named states and every function
that returns an array need it.  `amplitudes` lives in the numpy-free
`scalar` module and is re-exported here as the same object; `tensor` is the
array form of `scalar._tensor`.
"""

from __future__ import annotations

import math

import numpy as np

from .scalar import (  # noqa: F401  (re-exported)
    _qubit,
    _tensor,
    _unit,
    amplitudes,
    unit_state,
)

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


def tensor(a, b) -> np.ndarray:
    """Tensor product of two unit single-qubit vectors, c_jk = a_j * b_k."""
    return np.array(_tensor(a, b))
