import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qschmidt as q
from helpers import GOLD_DIAG, GOLD_PE, KET00


def states():
    """Strategy: unit two-qubit states from 8 bounded reals."""
    scalars = st.floats(-1.0, 1.0, allow_nan=False)
    return st.lists(scalars, min_size=8, max_size=8).filter(
        lambda v: sum(x * x for x in v) > 1e-4
    ).map(lambda v: q.make_state(
        complex(v[0], v[1]), complex(v[2], v[3]),
        complex(v[4], v[5]), complex(v[6], v[7]), normalize=True))


def unitaries():
    angles = st.floats(0.0, 2.0 * math.pi, allow_nan=False)
    def build(a, b, c, d):
        col = np.array([math.cos(a), math.sin(a) * np.exp(1j * b)])
        return np.exp(1j * d) * np.array([
            [col[0], -np.exp(1j * c) * col[1].conjugate()],
            [col[1], np.exp(1j * c) * col[0].conjugate()],
        ])
    return st.builds(build, angles, angles, angles, angles)


class TestMakeState:
    def test_basis_vector(self):
        np.testing.assert_array_equal(q.make_state(1, 0, 0, 0), KET00)

    def test_golden_diagonal_state(self):
        s = q.make_state(math.sqrt(1 / 3), math.sqrt(1 / 6),
                         math.sqrt(1 / 6), -math.sqrt(1 / 3))
        np.testing.assert_allclose(s, GOLD_DIAG, atol=1e-15)

    def test_normalize_removes_scale(self):
        np.testing.assert_array_equal(
            q.make_state(2, 0, 0, 0, normalize=True), KET00)

    def test_rejects_zero_vector(self):
        with pytest.raises(q.ZeroVectorError):
            q.make_state(0, 0, 0, 0, normalize=True)

    def test_rejects_unnormalized_without_flag(self):
        with pytest.raises(q.NotNormalizedError):
            q.make_state(2, 0, 0, 0)

    def test_rejects_nan_and_inf(self):
        with pytest.raises(q.NotFiniteError):
            q.make_state(float("nan"), 0, 0, 0, normalize=True)
        with pytest.raises(q.NotFiniteError):
            q.make_state(complex(0, float("inf")), 1, 0, 0, normalize=True)
        # Finite amplitudes whose squared norm overflows, which would
        # otherwise scale the vector to zero.
        for build in (
                lambda: q.make_state(1e200, 1e200, 0, 1e200, normalize=True),
                lambda: q.make_state(1e200, 0, 0, 0),
                lambda: q.make_qubit(1e200, 1e200j, normalize=True),
                lambda: q.construct_pp(q.A_SIDE, [1e200, 0]),
                lambda: q.orthonormal_qubit_basis([[0, 1e200], [1, 0]])):
            with pytest.raises(q.NotFiniteError, match="overflows"):
                build()


class TestConcurrence:
    def test_product(self):
        assert q.concurrence(KET00) == 0.0

    def test_maximal(self):
        assert q.concurrence(q.PHI_PLUS) == pytest.approx(1.0, abs=1e-15)

    def test_golden_pe_member(self):
        assert q.concurrence(GOLD_PE) == pytest.approx(2 ** -0.5, abs=1e-15)

    @given(states())
    def test_half_concurrence_is_det_magnitude(self, s):
        det = np.linalg.det(np.reshape(s, (2, 2)))
        assert q.concurrence(s) == pytest.approx(2 * abs(det), abs=1e-12)


class TestTensor:
    def test_computational(self):
        np.testing.assert_array_equal(q.tensor(q.KET0, q.KET0), KET00)

    def test_one_tensor_beta(self):
        beta = q.make_qubit(0.6, 0.8j)
        out = q.tensor(q.KET1, beta)
        np.testing.assert_allclose(out, [0, 0, beta[0], beta[1]], atol=1e-15)

    def test_plus_plus(self):
        np.testing.assert_allclose(q.tensor(q.PLUS, q.PLUS),
                                   np.full(4, 0.5), atol=1e-15)

    def test_rejects_unnormalized_factor(self):
        with pytest.raises(q.NotNormalizedError):
            q.tensor([1.0, 1.0], q.KET0)


class TestApplyLocal:
    """Concurrence under local unitaries u_a (x) u_b."""

    @given(states(), unitaries(), unitaries())
    def test_concurrence_invariant(self, s, ua, ub):
        out = np.kron(ua, ub) @ s
        assert q.concurrence(out) == pytest.approx(q.concurrence(s), abs=1e-12)

    def test_one_sided_keeps_maximal(self):
        rng = q.SplitMix64(5)
        ua = np.column_stack(q.random_qubit_basis(rng))
        out = np.kron(ua, np.eye(2)) @ q.PHI_PLUS
        assert q.concurrence(out) == pytest.approx(1.0, abs=1e-12)


def test_named_states_are_unit():
    for s in (q.PHI_PLUS, q.PHI_MINUS, q.PSI_PLUS, q.PSI_MINUS):
        assert abs(np.linalg.norm(s) - 1.0) <= 1e-15
    assert abs(np.linalg.norm(q.PLUS) - 1.0) <= 1e-15
