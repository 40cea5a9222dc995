import math

import numpy as np
import pytest
from hypothesis import example, given

import qschmidt as q
from helpers import (
    GOLD_DIAG,
    GOLD_NONDIAG,
    KET00,
    R12,
    R13,
    R23,
    assert_valid_decomposition,
    numpy_schmidt_coeffs,
    phase_aligned_dev,
)
from test_core import states


class TestDiagonalBranch:
    def test_golden_state(self):
        d = q.schmidt_diagonal(GOLD_DIAG)
        np.testing.assert_allclose(d.coeffs, [R12, R12], atol=1e-15)
        assert phase_aligned_dev([R23, R13], d.basis_a[0]) <= 1e-12
        assert phase_aligned_dev([R13, -R23], d.basis_a[1]) <= 1e-12
        np.testing.assert_array_equal(d.basis_b, np.eye(2))
        assert not d.degenerate

    def test_product_state_flags_degenerate(self):
        d = q.schmidt_diagonal(KET00)
        assert d.degenerate
        np.testing.assert_allclose(d.coeffs, [1.0, 0.0], atol=1e-15)
        np.testing.assert_array_equal(d.basis_a[0], q.KET0)
        np.testing.assert_array_equal(d.basis_b[0], q.KET0)
        assert_valid_decomposition(d, KET00)

    def test_two_term_state_sorted(self):
        # The heavier column sits second, so the basis pairs must swap.
        s = q.make_state(0, R23 * 1j, R13, 0)
        d = q.schmidt_diagonal(s)
        np.testing.assert_allclose(d.coeffs, [R23, R13], atol=1e-15)
        np.testing.assert_array_equal(d.basis_b, [[0, 1], [1, 0]])
        assert_valid_decomposition(d, s)

    def test_rejects_nondiagonal(self):
        with pytest.raises(q.NotDiagonalError):
            q.schmidt_diagonal(GOLD_NONDIAG)

    def test_unchecked_application_breaks_orthogonality(self):
        # The documented failure mode of using the wrong branch: the A-side
        # vectors come out non-orthogonal on a non-diagonal state.
        d = q.schmidt_diagonal(GOLD_NONDIAG, check=False)
        overlap = abs(np.vdot(d.basis_a[0], d.basis_a[1]))
        assert overlap == pytest.approx(1.0 / 3.0, abs=1e-12)


class TestNondiagonalBranch:
    def test_golden_state(self):
        d = q.schmidt_nondiagonal(GOLD_NONDIAG)
        np.testing.assert_allclose(d.coeffs, [R23, R13], atol=1e-15)
        assert phase_aligned_dev(q.KET0, d.basis_a[0]) <= 1e-12
        assert phase_aligned_dev(q.KET1, d.basis_a[1]) <= 1e-12
        assert phase_aligned_dev(q.PLUS, d.basis_b[0]) <= 1e-12
        assert phase_aligned_dev(q.MINUS, d.basis_b[1]) <= 1e-12
        assert_valid_decomposition(d, GOLD_NONDIAG)

    def test_pe_amplitudes(self):
        s = q.make_state(0, R12, 0.5, 0.5)
        d = q.schmidt_nondiagonal(s)
        exp0 = math.sqrt(0.5 + 0.25 * math.sqrt(2))
        exp1 = math.sqrt(0.5 - 0.25 * math.sqrt(2))
        np.testing.assert_allclose(d.coeffs, [exp0, exp1], atol=1e-15)
        # A-side basis is {|+>, -|->} for these amplitudes, and the B-side
        # vectors come out proportional to (1, 1 +- sqrt(2)).
        np.testing.assert_allclose(d.basis_a[0], q.PLUS, atol=1e-14)
        np.testing.assert_allclose(d.basis_a[1], -q.MINUS, atol=1e-14)
        b0 = np.array([1.0, 1.0 + math.sqrt(2)]) \
            / (2.0 * math.sqrt(1.0 + R12))
        b1 = np.array([1.0, 1.0 - math.sqrt(2)]) \
            / (2.0 * math.sqrt(1.0 - R12))
        assert phase_aligned_dev(b0, d.basis_b[0]) <= 1e-12
        assert phase_aligned_dev(b1, d.basis_b[1]) <= 1e-12
        assert_valid_decomposition(d, s)

    def test_rejects_diagonal_state(self):
        with pytest.raises(q.DiagonalError):
            q.schmidt_nondiagonal(GOLD_DIAG)

    def test_nondiagonal_product_state(self):
        s = q.tensor(q.PLUS, q.PLUS)
        d = q.schmidt_nondiagonal(s)
        assert d.coeffs[1] <= 1e-8
        assert_valid_decomposition(d, s)


class TestDispatch:
    def test_routes_each_golden_state(self):
        assert q.schmidt(GOLD_DIAG).basis_b[0][0] == 1.0  # diagonal branch
        d = q.schmidt(GOLD_NONDIAG)
        np.testing.assert_allclose(d.coeffs, [R23, R13], atol=1e-15)

    def test_bell_state(self):
        d = q.schmidt(q.PHI_PLUS)
        np.testing.assert_allclose(d.coeffs, [R12, R12], atol=1e-15)
        np.testing.assert_array_equal(d.basis_b, np.eye(2))

    @given(states())
    def test_round_trip(self, s):
        d = q.schmidt(s)
        assert_valid_decomposition(d, s)

    @given(states())
    def test_concurrence_equals_coefficient_product(self, s):
        d = q.schmidt(s)
        assert q.concurrence(s) == pytest.approx(
            2.0 * d.coeffs[0] * d.coeffs[1], abs=1e-12)

    # A product state on which the eigenvalue-based reference was off by
    # 1.8e-8 (draw 4474 of the SplitMix64(3) sweep below).
    @example(np.array([-0.1444989581958676 + 0.15947215526277347j,
                       0.26675718849931307 - 0.5923474432775642j,
                       0.19051013202864117 - 0.12758224335281165j,
                       -0.42855062423860746 + 0.5435317974533077j]))
    @given(states())
    def test_coefficients_match_numpy_route(self, s):
        d = q.schmidt(s)
        assert np.max(np.abs(d.coeffs - numpy_schmidt_coeffs(s))) <= 1e-8

    def test_product_states_have_tiny_second_coefficient(self):
        rng = q.SplitMix64(11)
        for _ in range(300):
            s = q.tensor(q.random_qubit(rng), q.random_qubit(rng))
            assert q.schmidt(s).coeffs[1] <= 1e-8

    def test_product_states_match_numpy_route(self):
        # Deterministic sweep that the eigenvalue-based reference failed.
        rng = q.SplitMix64(3)
        for _ in range(20000):
            s = q.tensor(q.random_qubit(rng), q.random_qubit(rng))
            assert np.max(np.abs(q.schmidt(s).coeffs
                                 - numpy_schmidt_coeffs(s))) <= 1e-8

    def test_maximally_entangled_coefficient(self):
        rng = q.SplitMix64(12)
        for _ in range(300):
            ua, ub = (np.column_stack(q.random_qubit_basis(rng))
                      for _ in range(2))
            s = np.kron(ua, ub) @ q.PHI_PLUS
            d = q.schmidt(s)
            assert abs(d.coeffs[0] - R12) <= 1e-12

    def test_seeded_round_trip_sweep(self):
        rng = q.SplitMix64(13)
        for _ in range(500):
            s = q.make_state(*(complex(rng.gauss(), rng.gauss())
                               for _ in range(4)), normalize=True)
            assert_valid_decomposition(q.schmidt(s), s)

    # |g| is one ulp above 1e-10 by hypot but not by the sum of squares.
    BOUNDARY_STATE = [0.6, 4.100057480134888e-11 - 1.6154482549353533e-10j,
                      0.0, 0.8]

    def test_state_just_above_tol_takes_nondiagonal_branch(self):
        d = q.schmidt(self.BOUNDARY_STATE)
        np.testing.assert_allclose(d.coeffs, [0.8, 0.6], atol=1e-15)
        assert_valid_decomposition(d, self.BOUNDARY_STATE)
        assert q.verify_set([self.BOUNDARY_STATE]).passed

    def test_branches_split_states_at_tol(self):
        """States whose Gram off-diagonal g lies within a few ulps of tol,
        in each coordinate: `schmidt` never raises, and exactly one of the
        two branch functions accepts each state."""
        def ulps(x, k):
            for _ in range(abs(k)):
                x = math.nextafter(x, math.copysign(math.inf, k))
            return x

        rng = q.SplitMix64(21)
        for _ in range(200):
            c00 = 0.5 + 0.3 * rng.uniform()
            c11 = math.sqrt(1.0 - c00 * c00)
            phi = 2.0 * math.pi * rng.uniform()
            x, y = 1e-10 / c00 * math.cos(phi), 1e-10 / c00 * math.sin(phi)
            for dx in range(-2, 3):
                for dy in range(-2, 3):
                    s = [c00, complex(ulps(x, dx), ulps(y, dy)), 0.0, c11]
                    q.schmidt(s)
                    try:
                        q.schmidt_diagonal(s)
                    except q.NotDiagonalError:
                        diagonal = False
                    else:
                        diagonal = True
                    try:
                        q.schmidt_nondiagonal(s)
                    except q.DiagonalError:
                        assert diagonal
                    else:
                        assert not diagonal


class TestReconstruct:
    def test_nondiagonal_round_trip(self):
        d = q.schmidt(GOLD_NONDIAG)
        assert np.max(np.abs(q.reconstruct(d) - GOLD_NONDIAG)) <= 1e-12

    def test_rank_one(self):
        d = q.SchmidtDecomposition(
            coeffs=np.array([1.0, 0.0]),
            basis_a=np.eye(2, dtype=complex),
            basis_b=np.eye(2, dtype=complex),
            degenerate=True)
        np.testing.assert_array_equal(q.reconstruct(d), KET00)
