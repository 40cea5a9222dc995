import numpy as np
import pytest

import qschmidt as q
from helpers import (
    KET00,
    KET01,
    KET10,
    KET11,
    R12,
    R13,
    R23,
    assert_orthonormal_set,
    assert_valid_decomposition,
)


def assert_triple_invariants(triple):
    assert_orthonormal_set(triple.states)
    assert_valid_decomposition(triple.schmidt[0], triple.states[2])
    for state, label in zip(triple.states, triple.type_label):
        conc = q.concurrence(state)
        assert conc <= 1e-10 if label == "P" else conc > 1e-10


class TestPPP:
    def test_computational(self):
        t = q.construct_ppp("a-side", (q.KET0, q.KET1))
        np.testing.assert_array_equal(t.states[0], KET00)
        np.testing.assert_array_equal(t.states[1], KET01)
        np.testing.assert_array_equal(t.states[2], KET11)
        assert_triple_invariants(t)

    def test_plus_minus_basis(self):
        t = q.construct_ppp("a-side", (q.PLUS, q.MINUS))
        np.testing.assert_allclose(t.states[1], [0, R12, 0, R12], atol=1e-15)
        np.testing.assert_allclose(t.states[2], [0, R12, 0, -R12], atol=1e-15)
        assert_triple_invariants(t)

    def test_b_side(self):
        t = q.construct_ppp("b-side", (q.KET0, q.KET1))
        np.testing.assert_array_equal(t.states[1], KET10)
        np.testing.assert_array_equal(t.states[2], KET11)

    def test_rejects_non_orthonormal_basis(self):
        with pytest.raises(q.NotOrthogonalError):
            q.construct_ppp("a-side", (q.KET0, q.PLUS))


class TestPPECase1:
    def test_bell_third(self):
        t = q.construct_ppe_case1(R12, R12)
        np.testing.assert_allclose(t.states[2], q.PSI_PLUS, atol=1e-15)
        assert t.case_id == 1
        assert_triple_invariants(t)

    def test_sorted_coefficients(self):
        t = q.construct_ppe_case1(1j * R13, R23)
        np.testing.assert_allclose(t.schmidt[0].coeffs, [R23, R13],
                                   atol=1e-15)

    def test_disjoint_support_orthogonality(self):
        t = q.construct_ppe_case1(0.6j, 0.8)
        assert np.vdot(t.states[0], t.states[2]) == 0.0
        assert np.vdot(t.states[1], t.states[2]) == 0.0

    def test_rejects_zero(self):
        with pytest.raises(q.ZeroParameterError):
            q.construct_ppe_case1(1, 0)


class TestPPECase2:
    def test_balanced_coefficients(self):
        t = q.construct_ppe_case2(R12, R12, R12, R12)
        # 4|bcd|^2 = 1/2 pins the coefficient gap.
        h = np.sqrt(1.0 - 0.5)
        expect = [np.sqrt((1 + h) / 2), np.sqrt((1 - h) / 2)]
        np.testing.assert_allclose(t.schmidt[0].coeffs, expect, atol=1e-15)
        assert_triple_invariants(t)

    def test_identity_and_orthogonality_sweep(self):
        for t in q.sample(q.SampleSpec("ppe", case_id=2, seed=8, count=300)):
            c = t.schmidt[0].coeffs
            assert abs(c[0] ** 2 + c[1] ** 2 - 1.0) <= 1e-12
            assert_orthonormal_set(t.states)
            q.schmidt_nondiagonal(t.states[2])  # DiagonalError if diagonal

    def test_oracle_agreement(self):
        t = q.construct_ppe_case2(0.3 + 0.2j, 0.9, 0.5 - 0.5j, 0.6)
        o = q.oracle_schmidt(t.states[2])
        assert np.max(np.abs(t.schmidt[0].coeffs - o.coeffs)) <= 1e-12

    def test_rejects_zero(self):
        with pytest.raises(q.ZeroParameterError):
            q.construct_ppe_case2(0, R12, R12, R12)

    def test_rejects_product_third(self):
        with pytest.raises(q.ZeroParameterError, match="^parameters too small "
                           "to yield an entangled third member$"):
            q.construct_ppe_case2(1, 1e-11, 1, 1)


class TestPPECase3:
    def test_balanced_coefficients(self):
        t = q.construct_ppe_case3(R12, R12, R12, R12)
        h = np.sqrt(1.0 - 0.5)
        expect = [np.sqrt((1 + h) / 2), np.sqrt((1 - h) / 2)]
        np.testing.assert_allclose(t.schmidt[0].coeffs, expect, atol=1e-15)
        assert_triple_invariants(t)

    def test_second_member_is_product(self):
        t = q.construct_ppe_case3(0.6, 0.8j, R12, R12)
        assert q.concurrence(t.states[1]) == 0.0

    def test_round_trip(self):
        t = q.construct_ppe_case3(0.3 + 0.2j, 0.9, 0.5 - 0.5j, 0.6)
        rebuilt = q.reconstruct(t.schmidt[0])
        assert np.max(np.abs(rebuilt - t.states[2])) <= 1e-12

    def test_rejects_product_third(self):
        with pytest.raises(q.ZeroParameterError, match="^parameters too small "
                           "to yield an entangled third member$"):
            q.construct_ppe_case3(1, 1e-11, 1, 1)

    def test_nondiagonal_third_sweep(self):
        for t in q.sample(q.SampleSpec("ppe", case_id=3, seed=9, count=300)):
            q.schmidt_nondiagonal(t.states[2])  # DiagonalError if diagonal
            assert_orthonormal_set(t.states)
