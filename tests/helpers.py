"""Shared fixtures and assertion helpers for the test suite."""

from __future__ import annotations

import math
from functools import reduce
from operator import add

import numpy as np

import qschmidt as q
from qschmidt import sampling

SQ2 = math.sqrt(2.0)
R12 = 1.0 / SQ2
R13 = math.sqrt(1.0 / 3.0)
R16 = math.sqrt(1.0 / 6.0)
R23 = math.sqrt(2.0 / 3.0)

# Golden states: one diagonal, one non-diagonal, and the entangled state the
# non-diagonal pair constructor yields from (1/sqrt(2), 1/2, 1/2).
GOLD_DIAG = np.array([R13, R16, R16, -R13], dtype=complex)
GOLD_NONDIAG = np.array([R13, R13, R16, -R16], dtype=complex)
GOLD_PE = np.array([0.0, R12, 0.5, 0.5], dtype=complex)

# Schmidt coefficients of GOLD_PE.
GOLD_PE_COEFFS = (math.sqrt(0.5 + 0.25 * SQ2), math.sqrt(0.5 - 0.25 * SQ2))

KET00 = np.array([1, 0, 0, 0], dtype=complex)
KET01 = np.array([0, 1, 0, 0], dtype=complex)
KET10 = np.array([0, 0, 1, 0], dtype=complex)
KET11 = np.array([0, 0, 0, 1], dtype=complex)

# The 18 constructible (type, case, variant) families.
FAMILIES = tuple(sampling.FAMILIES)


def in_order(values) -> float:
    """Floats added in order from 0.0, as ``sum`` adds them up to Python
    3.11; from 3.12 on ``sum`` compensates, so pinned references use this."""
    return reduce(add, values, 0.0)


def state_obj(v) -> list:
    """A state or qubit vector as the CLI reads it: each amplitude as
    ``[re, im]``."""
    return [[z.real, z.imag] for z in np.asarray(v, dtype=complex).tolist()]


def states_of(obj):
    return list(obj.states)


def set_gram(states) -> np.ndarray:
    m = np.array([np.asarray(s) for s in states])
    return m.conj() @ m.T


def assert_orthonormal_set(states, tol=1e-12):
    g = set_gram(states)
    assert np.max(np.abs(g - np.eye(len(states)))) <= tol


def phase_aligned_dev(expected, actual) -> float:
    """Componentwise deviation after removing one global phase."""
    e = np.asarray(expected, dtype=complex)
    a = np.asarray(actual, dtype=complex)
    ov = np.vdot(a, e)
    if abs(ov) == 0.0:
        return float(np.max(np.abs(e - a)))
    return float(np.max(np.abs(e - a * (ov / abs(ov)))))


def bases_match_as_sets(basis1, basis2, tol=1e-10) -> bool:
    """True when the rows of each 2x2 basis agree up to per-vector phase,
    allowing the index order to differ."""
    used = set()
    for u in basis1:
        hit = None
        for j, v in enumerate(basis2):
            if j in used:
                continue
            if 1.0 - abs(np.vdot(u, v)) <= tol:
                hit = j
                break
        if hit is None:
            return False
        used.add(hit)
    return True


def assert_valid_decomposition(dec, state=None, tol=1e-12):
    """The invariants every Schmidt decomposition must satisfy."""
    l0, l1 = float(dec.coeffs[0]), float(dec.coeffs[1])
    assert l0 >= l1 >= 0.0
    assert abs(l0 * l0 + l1 * l1 - 1.0) <= tol
    for row in (*dec.basis_a, *dec.basis_b):
        assert abs(np.linalg.norm(row) - 1.0) <= tol
    if l1 > 1e-10:
        assert abs(np.vdot(dec.basis_a[0], dec.basis_a[1])) <= tol
        assert abs(np.vdot(dec.basis_b[0], dec.basis_b[1])) <= tol
    if state is not None:
        assert np.max(np.abs(q.reconstruct(dec) - np.asarray(state))) <= tol


def numpy_schmidt_coeffs(state) -> np.ndarray:
    """Independent route: singular values of the coefficient matrix.

    Not the square roots of the reduced-density eigenvalues: those lose
    half their digits near rank 1, up to 1.8e-8 on product states.
    """
    m = np.asarray(state, dtype=complex).reshape(2, 2)
    return np.linalg.svd(m, compute_uv=False)
