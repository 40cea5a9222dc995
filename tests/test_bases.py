import math

import numpy as np
import pytest

import qschmidt as q
from helpers import (
    KET00,
    KET01,
    KET10,
    R12,
    assert_orthonormal_set,
    assert_valid_decomposition,
    bases_match_as_sets,
    phase_aligned_dev,
)


def assert_basis_invariants(basis, labels=None):
    assert_orthonormal_set(basis.states)
    for state, dec in zip(basis.states, basis.schmidt):
        assert_valid_decomposition(dec, state)
    labels = labels or basis.type_label
    for state, label in zip(basis.states, labels):
        conc = q.concurrence(state)
        if label == "P":
            assert conc <= 1e-10
        elif label == "M":
            assert abs(conc - 1.0) <= 1e-10
        else:
            assert conc > 1e-10


class TestPPPP:
    def test_computational(self):
        b = q.construct_pppp("a-side", (q.KET0, q.KET1))
        expected = np.eye(4)[[0, 1, 3, 2]]
        np.testing.assert_array_equal(np.array(b.states), expected)
        assert_basis_invariants(b)

    def test_plus_minus(self):
        b = q.construct_pppp("a-side", (q.PLUS, q.MINUS))
        np.testing.assert_allclose(b.states[1], [0, R12, 0, R12], atol=1e-15)
        np.testing.assert_allclose(b.states[2], [0, R12, 0, -R12], atol=1e-15)
        np.testing.assert_array_equal(b.states[3], KET10)
        assert_basis_invariants(b)

    def test_b_side(self):
        b = q.construct_pppp("b-side", (q.KET0, q.KET1))
        assert_basis_invariants(b)
        np.testing.assert_array_equal(b.states[3], [0, 1, 0, 0])


class TestCompletePPP:
    def test_computational_triple(self):
        state, conc = q.complete_ppp([KET00, np.eye(4)[1], np.eye(4)[3]])
        np.testing.assert_allclose(state, KET10, atol=1e-15)
        assert conc == 0.0

    def test_plus_minus_triple(self):
        t = q.construct_ppp("a-side", (q.PLUS, q.MINUS))
        state, conc = q.complete_ppp(t)
        assert phase_aligned_dev(KET10, state) <= 1e-12
        assert conc <= 1e-10

    def test_phase_fix_is_deterministic(self):
        v0 = q.make_qubit(0.6, 0.8j)
        v1 = np.array([-v0[1], v0[0]]).conj() * np.exp(0.3j)
        t = q.construct_ppp("b-side", (v0, v1))
        s1, _ = q.complete_ppp(t)
        s2, _ = q.complete_ppp(t)
        np.testing.assert_array_equal(s1, s2)
        first_nonzero = s1[np.flatnonzero(np.abs(s1) > 1e-9)[0]]
        assert first_nonzero.imag == pytest.approx(0.0, abs=1e-14)
        assert first_nonzero.real > 0

    def test_random_triples_complete_to_products(self):
        for t in q.sample(q.SampleSpec("ppp", seed=21, count=300)):
            state, conc = q.complete_ppp(t)
            assert conc <= 1e-10
            assert_orthonormal_set([*t.states, state])

    def test_numpy_nullspace_cross_check(self):
        t = q.sample(q.SampleSpec("ppp", seed=5, count=1))[0]
        state, _ = q.complete_ppp(t)
        m = np.array(t.states)
        _, _, vh = np.linalg.svd(m.conj())
        null = vh[-1].conj()
        assert 1.0 - abs(np.vdot(null, state)) <= 1e-12

    def test_rejects_entangled_member(self):
        with pytest.raises(q.InvalidArgumentError):
            q.complete_ppp([KET00, q.PSI_PLUS, KET10])

    def test_rejects_member_off_unit_norm(self):
        with pytest.raises(q.NotNormalizedError,
                           match=r"^states\[0\] has norm 1\.001$"):
            q.complete_ppp([[1.001, 0, 0, 0], KET01, KET10])

    def test_rejects_overlapping_members(self):
        with pytest.raises(q.NotOrthogonalError,
                           match="^states 0 and 1 are not orthogonal$"):
            q.complete_ppp([KET00, KET00, KET10])


class TestPPEECase1:
    def test_bell_basis_form(self):
        b = q.construct_ppee_case1(R12, R12)
        np.testing.assert_allclose(b.states[2], q.PSI_PLUS, atol=1e-15)
        np.testing.assert_allclose(b.states[3], q.PSI_MINUS, atol=1e-15)
        assert_basis_invariants(b, "PPMM")

    def test_rejects_product_members(self):
        with pytest.raises(q.ZeroParameterError, match="^parameters too small "
                           "to yield entangled members$"):
            q.construct_ppee_case1(1, 1e-11)

    def test_shared_concurrence(self):
        b = q.construct_ppee_case1(0.6, 0.8j)
        c2, c3 = q.concurrence(b.states[2]), q.concurrence(b.states[3])
        assert c2 == pytest.approx(2 * 0.6 * 0.8, abs=1e-14)
        assert c2 == pytest.approx(c3, abs=1e-14)
        assert_basis_invariants(b)


class TestPPEECase2:
    def test_balanced(self):
        b = q.construct_ppee_case2(R12, R12, R12, R12)
        assert_basis_invariants(b)
        d2 = q.oracle_schmidt(b.states[2])
        d3 = q.oracle_schmidt(b.states[3])
        assert np.max(np.abs(d2.coeffs - d3.coeffs)) <= 1e-12
        assert bases_match_as_sets(d2.basis_b, d3.basis_b)

    def test_shared_schmidt_structure(self):
        b = q.construct_ppee_case2(0.3 + 0.2j, 0.9, 0.5 - 0.5j, 0.6)
        assert_basis_invariants(b)
        assert q.concurrence(b.states[2]) == pytest.approx(
            q.concurrence(b.states[3]), abs=1e-12)
        d2 = q.oracle_schmidt(b.states[2])
        d3 = q.oracle_schmidt(b.states[3])
        assert np.max(np.abs(d2.coeffs - d3.coeffs)) <= 1e-12
        assert bases_match_as_sets(d2.basis_b, d3.basis_b)

    def test_fourth_matches_direct_combination(self):
        a, bb, c, d = 0.3 + 0.2j, 0.9, 0.5 - 0.5j, 0.6
        b = q.construct_ppee_case2(a, bb, c, d)
        a, bb, c, d = (b.params[k] for k in "abcd")
        lc = np.conj(d) * np.array([0, np.conj(bb), 0, -np.conj(a)]) \
            - np.conj(c) * np.array([0, 0, 1, 0])
        assert 1.0 - abs(np.vdot(lc, b.states[3])) <= 1e-12


class TestPPEECase3:
    def test_balanced(self):
        b = q.construct_ppee_case3(R12, R12, R12, R12)
        assert_basis_invariants(b)
        d2 = q.oracle_schmidt(b.states[2])
        d3 = q.oracle_schmidt(b.states[3])
        assert np.max(np.abs(d2.coeffs - d3.coeffs)) <= 1e-12
        assert bases_match_as_sets(d2.basis_a, d3.basis_a)

    def test_shared_schmidt_structure(self):
        b = q.construct_ppee_case3(0.3 + 0.2j, 0.9, 0.5 - 0.5j, 0.6)
        assert_basis_invariants(b)
        d2 = q.oracle_schmidt(b.states[2])
        d3 = q.oracle_schmidt(b.states[3])
        assert np.max(np.abs(d2.coeffs - d3.coeffs)) <= 1e-12
        assert bases_match_as_sets(d2.basis_a, d3.basis_a)

    def test_fourth_matches_direct_combination(self):
        b = q.construct_ppee_case3(0.3 + 0.2j, 0.9, 0.5 - 0.5j, 0.6)
        a, bb, c, d = (b.params[k] for k in "abcd")
        lc = np.conj(d) * np.array([0, 1, 0, 0]) \
            - np.conj(c) * np.array([0, 0, np.conj(bb), -np.conj(a)])
        assert 1.0 - abs(np.vdot(lc, b.states[3])) <= 1e-12


class TestPM:
    def test_zero_angles(self):
        pair = q.construct_pm(0.0, 0.0)
        np.testing.assert_allclose(pair.states[1], q.PSI_PLUS, atol=1e-15)

    def test_pi_angle(self):
        pair = q.construct_pm(0.0, math.pi)
        assert phase_aligned_dev(q.PSI_MINUS, pair.states[1]) <= 1e-12

    def test_arbitrary_angles_maximal(self):
        pair = q.construct_pm(math.pi / 4, -math.pi / 3)
        assert q.concurrence(pair.states[1]) == pytest.approx(1.0, abs=1e-12)
        assert np.vdot(pair.states[0], pair.states[1]) == 0.0


class TestPMEE:
    def test_reference_coefficients(self):
        b = q.construct_pmee(0.0, 0.0, 0.0, 0.5)
        h = math.sqrt(3) / 2
        expect = [math.sqrt((1 + h) / 2), math.sqrt((1 - h) / 2)]
        np.testing.assert_allclose(b.schmidt[2].coeffs, expect, atol=1e-14)
        np.testing.assert_allclose(b.schmidt[3].coeffs, expect, atol=1e-14)
        assert_basis_invariants(b, "PMEE")

    def test_generic_parameters(self):
        b = q.construct_pmee(0.3, -1.1, 2.2, 0.31 + 0.4j)
        assert_basis_invariants(b, "PMEE")

    def test_a_side_magnitude_pattern(self):
        b = q.construct_pmee(0.9, 0.2, -0.6, 0.31 + 0.4j)
        mag_c = abs(b.params["c"])
        for j in range(2):
            xi_j = float(b.schmidt[2].coeffs[j])
            scale = math.sqrt(mag_c ** 2 + xi_j ** 2)
            vec = b.schmidt[2].basis_a[j]
            assert abs(abs(vec[0]) * scale - mag_c) <= 1e-12
            assert abs(abs(vec[1]) * scale - xi_j) <= 1e-12

    def test_boundary_rejection(self):
        # Every |c| too small for an entangled third member is one refusal,
        # also where c^2 underflows; only the upper bound is out of range.
        for c in (0.0, 1e-170, 1e-12, 5e-11, 2e-10, 7e-6j):
            with pytest.raises(q.ZeroParameterError, match="^parameters too "
                               "small to yield an entangled third member$"):
                q.construct_pmee(0, 0, 0, c)
        for c in (R12, 0.9):
            with pytest.raises(q.InvalidArgumentError):
                q.construct_pmee(0, 0, 0, c)


class TestMMEEDiagonal:
    def test_reference_third_member(self):
        b = q.construct_mmee_diagonal(0, 0, 0.5, 0.5j)
        np.testing.assert_allclose(b.states[2], [0.5, 0.5j, -0.5j, -0.5],
                                   atol=1e-15)
        assert q.concurrence(b.states[2]) == pytest.approx(1.0, abs=1e-14)
        assert_basis_invariants(b, "MMMM")

    def test_all_members_maximal(self):
        for b in q.sample(q.SampleSpec("mmee", variant="diagonal",
                                       seed=31, count=200)):
            for s in b.states:
                assert abs(q.concurrence(s) - 1.0) <= 1e-10

    def test_b_zero_gives_bell_type_basis(self):
        # All three admissibility conditions hold at b = 0; the result is the
        # standard Bell-type basis (third member (|00> - |11>)/sqrt(2)).
        b = q.construct_mmee_diagonal(0, 0, R12, 0)
        assert phase_aligned_dev(q.PHI_MINUS, b.states[2]) <= 1e-12
        assert_basis_invariants(b, "MMMM")

    def test_diagonal_guard(self):
        with pytest.raises(q.NotDiagonalError):
            q.construct_mmee_diagonal(0, 0, 0.5, 0.4 + 0.3j)

    def test_entangled_guard(self):
        with pytest.raises(q.ZeroParameterError):
            q.construct_mmee_diagonal(0, 0, 0.5, 0.5)


class TestMMEENondiagonal:
    def test_reference_parameters(self):
        a = math.sqrt(3 / 8)
        bb = math.sqrt(1 / 8)
        b = q.construct_mmee_nondiagonal(0, 0, a, bb)
        # D = 2ab = sqrt(3)/4 for these real parameters.
        h = math.sqrt(1 - 4 * (a * a - bb * bb) ** 2)
        expect = [math.sqrt((1 + h) / 2), math.sqrt((1 - h) / 2)]
        np.testing.assert_allclose(b.schmidt[2].coeffs, expect, atol=1e-14)
        np.testing.assert_allclose(b.schmidt[3].coeffs, expect, atol=1e-14)
        assert_basis_invariants(b, "MMEE")
        # A maximally entangled third member, where E / tau0 once rounded
        # one ulp above tau0: the carried coefficients still descend.
        b = q.construct_mmee_nondiagonal(
            0.0059691131538082585, 0.6798855383252025,
            -0.28920350187481597 - 0.2608862199119887j,
            -0.2281951822893584 + 0.5442670976122875j)
        for coeffs, *_ in b.parts[2:]:
            assert coeffs[0] >= coeffs[1]

    def test_entangled_guard(self):
        with pytest.raises(q.ZeroParameterError):
            q.construct_mmee_nondiagonal(0, 0, 0.5, 0.5)

    def test_diagonal_guard(self):
        with pytest.raises(q.DiagonalError):
            q.construct_mmee_nondiagonal(0, 0, 0.5, 0.5j)

    def test_coefficient_identity_sweep(self):
        for b in q.sample(q.SampleSpec("mmee", variant="nondiagonal",
                                       seed=32, count=200)):
            t = b.schmidt[2].coeffs
            assert abs(t[0] ** 2 + t[1] ** 2 - 1.0) <= 1e-12
            np.testing.assert_array_equal(t, b.schmidt[3].coeffs)

    def test_admissible_region_structure(self):
        # Under the half-norm constraint, E = |a^2 - e^{i Delta} b^2| and the
        # diagonality scalar D satisfy E^2 + D^2 = 1/4, so E = 0 (the excluded
        # product case) coincides with |D| = 1/2, the second coefficient
        # vanishes only there, and a vanishing phase coefficient C_j also
        # forces E = 0.  The degenerate-parameter guard is thus unreachable
        # through admissible input.
        rng = q.SplitMix64(4242)
        for _ in range(500):
            theta, theta_prime = rng.angle(), rng.angle()
            w = rng.simplex(2, floor=1e-6)
            phi_a, phi_b = rng.angle(), rng.angle()
            a = math.sqrt(0.5 * w[0]) * np.exp(1j * phi_a)
            b = math.sqrt(0.5 * w[1]) * np.exp(1j * phi_b)
            ph = np.exp(0.5j * (theta_prime - theta))
            big_e = abs(a * a - ph * ph * b * b)
            d_real = float(2.0 * (ph * np.conj(a) * b).real)
            assert big_e ** 2 + d_real ** 2 == pytest.approx(0.25, abs=1e-12)
            sigma = 1.0 if d_real >= 0 else -1.0
            for sign in (1.0, -1.0):
                c_j = abs(np.conj(ph) * sigma * a + sign * b)
                if c_j <= 1e-8:
                    assert big_e <= 1e-7


class TestTypeInvariance:
    def test_local_unitaries_preserve_patterns(self):
        rng = q.SplitMix64(123)
        objs = [
            q.construct_pppp("a-side", q.random_qubit_basis(rng)),
            q.construct_ppee_case2(0.3 + 0.2j, 0.9, 0.5 - 0.5j, 0.6),
            q.construct_pmee(0.3, -1.1, 2.2, 0.31 + 0.4j),
            q.construct_mmee_nondiagonal(0.7, -0.2, 0.4 + 0.3j, 0.25 - 0.35j),
        ]
        for obj in objs:
            ua, ub = (np.column_stack(q.random_qubit_basis(rng))
                      for _ in range(2))
            before = q.classify(obj.states, refine_m=True)
            after = q.classify([np.kron(ua, ub) @ s for s in obj.states],
                               refine_m=True)
            assert before == after


@pytest.mark.parametrize("construct, args", [
    (q.construct_pm, (1e308, -1e308)),
    (q.construct_pmee, (0.3, -1, 1e5, 0.3 - 0.2j)),
    (q.construct_pmee, (0.3, -1, 1e200, 0.3 - 0.2j)),
    (q.construct_pmee, (-1e308, 1e-21, -1e308, 0.5)),
    (q.construct_mmee_diagonal, (1e-10, 1e200, 1e-12, 0)),
    (q.construct_mmee_diagonal, (-1e308, 1e308, 1, 0)),
    (q.construct_mmee_nondiagonal, (1, 1e308, 1, 0.3 - 0.2j)),
    (q.construct_mmee_nondiagonal, (1e308, -1e308, 1, 0.3)),
])
def test_angles_are_read_modulo_two_pi(construct, args):
    # A large angle once swamped the small ones in a sum of angles, or the
    # sum overflowed: the set was not orthonormal, or its members NaN.
    s = construct(*args)
    assert q.verify_set(s.members).passed
    for name, value in zip(("theta", "theta_prime", "theta_dprime"), args):
        if name in s.params:
            assert s.params[name] == math.fmod(value, 2.0 * math.pi)
