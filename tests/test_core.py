import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qschmidt as q
from helpers import GOLD_DIAG, GOLD_NONDIAG, GOLD_PE, KET00


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


class TestInner:
    def test_self_overlap(self):
        assert q.inner(KET00, KET00) == 1.0

    def test_orthogonal_to_pe_member(self):
        assert q.inner(KET00, GOLD_PE) == 0.0

    def test_bell_orthogonality(self):
        assert abs(q.inner(q.PHI_PLUS, q.PHI_MINUS)) == 0.0

    @given(states(), states())
    def test_conjugate_symmetry(self, a, b):
        assert q.inner(a, b) == pytest.approx(q.inner(b, a).conjugate())


class TestGram:
    def test_product_state(self):
        np.testing.assert_array_equal(q.gram(KET00), np.diag([1.0, 0.0]))

    def test_golden_diagonal_state(self):
        np.testing.assert_allclose(q.gram(GOLD_DIAG), np.eye(2) / 2, atol=1e-15)

    def test_maximally_entangled(self):
        np.testing.assert_allclose(q.gram(q.PHI_PLUS), np.eye(2) / 2, atol=1e-16)

    @given(states())
    def test_trace_one_hermitian(self, s):
        g = q.gram(s)
        assert abs(np.trace(g) - 1.0) <= 1e-12
        assert np.max(np.abs(g - g.conj().T)) <= 1e-14

    @given(states())
    def test_offdiagonal_matches_dedicated_scalar(self, s):
        assert q.gram(s)[0, 1] == pytest.approx(q.gram_offdiagonal(s), abs=1e-15)


class TestConcurrence:
    def test_product(self):
        assert q.concurrence(KET00) == 0.0

    def test_maximal(self):
        assert q.concurrence(q.PHI_PLUS) == pytest.approx(1.0, abs=1e-15)

    def test_golden_pe_member(self):
        assert q.concurrence(GOLD_PE) == pytest.approx(2 ** -0.5, abs=1e-15)

    @given(states())
    def test_half_concurrence_is_det_magnitude(self, s):
        det = np.linalg.det(q.coefficient_matrix(s))
        assert q.concurrence(s) == pytest.approx(2 * abs(det), abs=1e-12)


class TestDiagonalCondition:
    def test_golden_states(self):
        assert q.is_diagonal(GOLD_DIAG)
        assert not q.is_diagonal(GOLD_NONDIAG)
        assert q.is_diagonal(KET00)

    def test_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            q.is_diagonal(KET00, tol=0.0)


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
    X = np.array([[0, 1], [1, 0]], dtype=complex)

    def test_identity(self):
        out = q.apply_local(GOLD_PE, np.eye(2), np.eye(2))
        np.testing.assert_array_equal(out, GOLD_PE)

    def test_bit_flips(self):
        out = q.apply_local(KET00, self.X, self.X)
        np.testing.assert_array_equal(out, [0, 0, 0, 1])

    def test_rejects_non_unitary(self):
        with pytest.raises(q.NotUnitaryError):
            q.apply_local(KET00, np.ones((2, 2)), np.eye(2))

    @given(states(), unitaries(), unitaries())
    def test_concurrence_invariant(self, s, ua, ub):
        out = q.apply_local(s, ua, ub)
        assert q.concurrence(out) == pytest.approx(q.concurrence(s), abs=1e-12)

    def test_one_sided_keeps_maximal(self):
        rng = q.SplitMix64(5)
        out = q.apply_local(q.PHI_PLUS, q.random_unitary(rng), np.eye(2))
        assert q.concurrence(out) == pytest.approx(1.0, abs=1e-12)


def test_orthogonal_complement():
    v = q.make_qubit(0.6, 0.8j)
    w = q.orthogonal_complement(v)
    assert abs(np.vdot(v, w)) <= 1e-16
    assert abs(np.linalg.norm(w) - 1.0) <= 1e-15


def test_named_states_are_unit():
    for s in (q.PHI_PLUS, q.PHI_MINUS, q.PSI_PLUS, q.PSI_MINUS):
        assert abs(np.linalg.norm(s) - 1.0) <= 1e-15
    assert abs(np.linalg.norm(q.PLUS) - 1.0) <= 1e-15
