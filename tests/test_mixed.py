import math

import numpy as np
import pytest

import qschmidt as q
from helpers import FAMILIES, GOLD_PE, KET00, states_of
from qschmidt import mixed


BELL = [q.PHI_PLUS, q.PHI_MINUS, q.PSI_PLUS, q.PSI_MINUS]


def reduced_a_reference(weight0: float) -> np.ndarray:
    """Reduction of weight0 |00><00| + weight1 |gold_pe><gold_pe| on A."""
    w1 = 1.0 - weight0
    ent = (1.0 / (2.0 * math.sqrt(2.0))) * np.array(
        [[math.sqrt(2.0), 1.0], [1.0, math.sqrt(2.0)]])
    return weight0 * np.array([[1.0, 0.0], [0.0, 0.0]]) + w1 * ent


class TestSpectralMix:
    def test_rank_two_eigenvalues_are_weights(self):
        rho = q.spectral_mix([KET00, GOLD_PE], [0.3, 0.7])
        ev = np.sort(np.linalg.eigvalsh(rho))[::-1]
        np.testing.assert_allclose(ev[:2], [0.7, 0.3], atol=1e-12)
        np.testing.assert_allclose(ev[2:], 0.0, atol=1e-12)

    def test_bell_quarter_mix_is_maximally_mixed(self):
        rho = q.spectral_mix(BELL, [0.25] * 4)
        np.testing.assert_allclose(rho, np.eye(4) / 4, atol=1e-15)

    def test_single_projector(self):
        rho = q.spectral_mix([KET00], [1.0])
        np.testing.assert_array_equal(rho, np.outer(KET00, KET00))

    def test_rejects_overlapping_states(self):
        with pytest.raises(q.NotOrthogonalError):
            q.spectral_mix([KET00, q.PHI_PLUS], [0.5, 0.5])

    def test_rejects_non_unit_state(self):
        with pytest.raises(q.NotNormalizedError, match=r"states\[1\] has norm"):
            q.spectral_mix([KET00, 2.0 * GOLD_PE], [0.5, 0.5])

    def test_rejects_bad_weights(self):
        with pytest.raises(q.InvalidArgumentError):
            q.spectral_mix([KET00, GOLD_PE], [0.5, 0.6])
        with pytest.raises(q.InvalidArgumentError):
            q.spectral_mix([KET00, GOLD_PE], [1.0, 0.0])
        with pytest.raises(q.InvalidArgumentError):
            q.spectral_mix([KET00, GOLD_PE], [1.5, -0.5])

    @pytest.mark.parametrize("weight", [True, np.True_, "1", b"1", np.str_("1")],
                             ids=repr)
    def test_rejects_bool_and_string_weights(self, weight):
        with pytest.raises(q.NotFiniteError, match="must be numbers"):
            q.spectral_mix([KET00], [weight])
        with pytest.raises(q.NotFiniteError, match="must be numbers"):
            q.spectral_mix([KET00, GOLD_PE], [0.5, weight])

    @pytest.mark.parametrize("weight", [1, 1.0, np.float64(1.0), np.int64(1),
                                        np.float32(1.0)], ids=repr)
    def test_accepts_number_weights(self, weight):
        np.testing.assert_array_equal(q.spectral_mix([KET00], [weight]),
                                      np.outer(KET00, KET00.conj()))


class TestReduce:
    @pytest.mark.parametrize("w0", [0.3, 0.5, 0.9, 0.42])
    def test_rank_two_reduction_formula(self, w0):
        rho = q.spectral_mix([KET00, GOLD_PE], [w0, 1.0 - w0])
        np.testing.assert_allclose(q.reduce_a(rho), reduced_a_reference(w0),
                                   atol=1e-12)

    def test_maximally_mixed(self):
        np.testing.assert_allclose(q.reduce_a(np.eye(4) / 4), np.eye(2) / 2,
                                   atol=1e-15)
        np.testing.assert_allclose(q.reduce_b(np.eye(4) / 4), np.eye(2) / 2,
                                   atol=1e-15)

    def test_pure_product_projector(self):
        rho = np.outer(KET00, KET00)
        np.testing.assert_array_equal(q.reduce_a(rho), [[1, 0], [0, 0]])
        np.testing.assert_array_equal(q.reduce_b(rho), [[1, 0], [0, 0]])

    def test_reduce_b_of_entangled_projector(self):
        rho = q.spectral_mix([q.PSI_PLUS], [1.0])
        np.testing.assert_allclose(q.reduce_b(rho), np.eye(2) / 2, atol=1e-15)

    def test_reduced_eigenvalues_are_squared_coefficients(self):
        rng = q.SplitMix64(33)
        for _ in range(300):
            s = q.make_state(*(complex(rng.gauss(), rng.gauss())
                               for _ in range(4)), normalize=True)
            d = q.schmidt(s)
            ev = np.sort(np.linalg.eigvalsh(q.reduce_a(np.outer(s, s.conj()))))
            expect = np.sort(np.array(d.coeffs) ** 2)
            assert np.max(np.abs(ev - expect)) <= 1e-12

    def test_trace_preserved(self):
        rng = q.SplitMix64(34)
        s = q.make_state(*(complex(rng.gauss(), rng.gauss())
                           for _ in range(4)), normalize=True)
        rho = q.spectral_mix([s], [1.0])
        assert np.trace(q.reduce_a(rho)) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_invalid_density(self):
        with pytest.raises(q.InvalidDensityError):
            q.reduce_a(np.eye(4))  # trace 4
        with pytest.raises(q.InvalidDensityError):
            q.reduce_a(np.diag([1.5, -0.5, 0.0, 0.0]))  # negative eigenvalue
        bad = np.eye(4, dtype=complex) / 4
        bad[0, 1] = 0.1
        with pytest.raises(q.InvalidDensityError):
            q.reduce_a(bad)  # not Hermitian


def parent_check_density(rho) -> np.ndarray:
    """The whole-array density check the Python-number rewrite replaced;
    the reference for every accept/reject decision, error class and
    message.  Input numpy cannot read as a complex array (entries that are
    not numbers, ragged rows) is a domain error too."""
    try:
        m = np.asarray(rho, dtype=complex)
    except (TypeError, ValueError):
        raise q.InvalidDensityError(
            "density matrix must be a 4x4 array of numbers") from None
    if m.shape != (4, 4):
        raise q.InvalidDensityError(f"expected a 4x4 matrix, got {m.shape}")
    if not np.isfinite(m).all():
        raise q.InvalidDensityError("density matrix has non-finite entries")
    if np.abs(m - m.conj().T).max() > 1e-12:
        raise q.InvalidDensityError("density matrix is not Hermitian within 1e-12")
    tr = complex(m.trace())
    if abs(tr.real - 1.0) > 1e-12 or abs(tr.imag) > 1e-12:
        raise q.InvalidDensityError("density matrix trace is not 1 within 1e-12")
    if np.linalg.eigvalsh(m)[0] < -1e-12:
        raise q.InvalidDensityError("density matrix has an eigenvalue below -1e-12")
    return m


def _outcome(reductions, rho):
    try:
        a, b = reductions(rho)
    except Exception as exc:  # the error class and message are compared
        return type(exc), str(exc)
    return "ok", (a.dtype, a.shape, a.tobytes(), b.dtype, b.shape, b.tobytes())


def _parent_reductions(rho):
    m = parent_check_density(rho)
    return m[0::2, 0::2] + m[1::2, 1::2], m[:2, :2] + m[2:, 2:]


def assert_same_decision(rho) -> bool:
    """reduce_a and reduce_b decide, fail and compute as the reference does;
    returns whether rho was accepted."""
    new = _outcome(lambda r: (q.reduce_a(r), q.reduce_b(r)), rho)
    assert new == _outcome(_parent_reductions, rho), rho
    return new[0] == "ok"


def haar_unitary(rng) -> np.ndarray:
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    u, r = np.linalg.qr(z)
    return u * (np.diag(r) / np.abs(np.diag(r)))


def density(u, lam) -> np.ndarray:
    """u diag(lam) u^H, made exactly Hermitian and trace 1 within an ulp."""
    m = (u * lam) @ u.conj().T
    m = (m + m.conj().T) / 2
    m[3, 3] += 1.0 - m.trace().real
    return m


def with_lambda_min(rng, lam_min, rank) -> np.ndarray:
    """A Haar-rotated density with eigenvalue lam_min, rank (1..3) positive
    eigenvalues and zeros for the rest."""
    lam = np.zeros(4)
    lam[1:1 + rank] = rng.uniform(0.05, 1.0, rank)
    lam[1:1 + rank] *= (1.0 - lam_min) / lam[1:1 + rank].sum()
    lam[0] = lam_min
    return density(haar_unitary(rng), lam)


class TestDensityCheckAgreement:
    """`_check_density` reads the matrix as Python numbers and certifies
    positivity with an LDL^H factorization before falling back to
    `eigvalsh`; every decision equals the whole-array reference's."""

    def test_mixes_of_one_to_four_states_are_certified(self):
        rng = q.SplitMix64(91)
        n = 0
        for i, (set_type, case_id, variant) in enumerate(FAMILIES):
            spec = q.SampleSpec(set_type=set_type, case_id=case_id,
                                variant=variant, seed=500 + i, count=8)
            for s in q.sample(spec):
                states = states_of(s)
                for k in range(1, len(states) + 1):
                    e = [0.05 + rng.uniform() for _ in range(k)]
                    rho = q.spectral_mix(states[:k], [x / sum(e) for x in e])
                    # No eigvalsh fallback on valid mixes.
                    assert mixed._certified_positive(rho.tolist())
                    assert assert_same_decision(rho)
                    n += 1
        assert n == 432

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_low_rank(self, rank):
        rng = np.random.default_rng(rank)
        for _ in range(100):
            assert assert_same_decision(with_lambda_min(rng, 0.0, rank))

    @pytest.mark.parametrize("factor", [0.0, 0.5, 0.9, 0.98, 0.995, 0.999,
                                        1.001, 1.005, 1.02, 1.1, 1.5, 1e3])
    def test_lambda_min_near_the_bound(self, factor):
        rng = np.random.default_rng(int(factor * 1e4))
        accepted = 0
        for rank in (1, 2, 3):
            for _ in range(40):
                rho = with_lambda_min(rng, -factor * 1e-12, rank)
                if factor < 0.99:
                    # At least 1e-14 above -1e-12: the certificate decides.
                    assert mixed._certified_positive(rho.tolist())
                accepted += assert_same_decision(rho)
        assert accepted == (120 if factor < 1.0 else 0)

    @pytest.mark.parametrize("factor", [0.991, 0.995, 0.999])
    def test_band_below_the_margin_falls_back_to_eigvalsh(self, factor):
        for k in range(4):
            lam = [0.25, 0.25, 0.25, 0.25]
            lam[k] = -factor * 1e-12
            lam[(k + 1) % 4] += 0.25 + factor * 1e-12
            rho = np.diag(lam).astype(complex)
            assert not mixed._certified_positive(rho.tolist())
            assert assert_same_decision(rho)
            lam[k] = -(2.0 - factor) * 1e-12
            assert not assert_same_decision(np.diag(lam))

    @pytest.mark.parametrize("i, j", [(0, 1), (1, 0), (2, 3), (3, 0), (1, 2)])
    @pytest.mark.parametrize("unit", [1.0, 1j])
    def test_hermitian_residual_at_the_bound(self, i, j, unit):
        for gap, accepted in ((0.999e-12, True), (1.001e-12, False)):
            rho = np.eye(4, dtype=complex) / 4
            rho[i, j] += gap * unit
            assert assert_same_decision(rho) == accepted

    @pytest.mark.parametrize("k", range(4))
    def test_imaginary_diagonal_at_the_bound(self, k):
        for im, accepted in ((0.4995e-12, True), (0.5005e-12, False)):
            rho = np.eye(4, dtype=complex) / 4
            rho[k, k] += im * 1j
            assert assert_same_decision(rho) == accepted

    @pytest.mark.parametrize("k", range(4))
    def test_trace_at_the_bound(self, k):
        for gap, accepted in ((0.999e-12, True), (-0.999e-12, True),
                              (1.001e-12, False), (-1.001e-12, False)):
            rho = np.eye(4, dtype=complex) / 4
            rho[k, k] += gap
            assert assert_same_decision(rho) == accepted
        for im, accepted in ((0.2499e-12, True), (0.2501e-12, False)):
            # Each diagonal residual 2 * im stays inside 1e-12, the
            # imaginary trace 4 * im crosses 1e-12.
            rho = np.eye(4, dtype=complex) / 4 + np.eye(4) * im * 1j
            assert assert_same_decision(rho) == accepted

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                     complex(0.0, math.nan),
                                     complex(0.25, -math.inf)])
    def test_non_finite_in_every_position(self, bad):
        for i in range(4):
            for j in range(4):
                rho = np.eye(4, dtype=complex) / 4
                rho[i, j] = bad
                assert not assert_same_decision(rho)

    @pytest.mark.parametrize("big", [1e150, 1e160, 1e200, 1e300, 1.7e308])
    def test_entries_that_overflow_the_factorization(self, big):
        off = np.eye(4, dtype=complex) / 4
        off[3, 1] = off[1, 3] = big * (0.6 + 0.8j)
        off[1, 3] = off[3, 1].conjugate()
        # The trace is 1 in every summation order.
        split = np.diag([big, -big, 0.5, 0.5]).astype(complex)
        tiny_pivot = np.diag([1e-300, 0.5, 0.5 - 1e-300, 0.0]).astype(complex)
        tiny_pivot[2, 0] = tiny_pivot[0, 2] = big
        for rho in (off, split, tiny_pivot):
            assert not mixed._certified_positive(rho.tolist())
            assert not assert_same_decision(rho)

    def test_adversarial_sweep(self):
        """Perturbed, low-rank and near-bound densities: the certificate
        never accepts what the reference rejects for its spectrum."""
        rng = np.random.default_rng(2026)
        certified = fallback = 0
        for n in range(1500):
            rho = with_lambda_min(rng, -1e-12 * rng.uniform(0.5, 1.5),
                                  1 + n % 3)
            if n % 2:
                i, j = sorted(rng.choice(4, 2, replace=False))
                rho[i, j] += 2e-13 * complex(*rng.standard_normal(2))
            cert = mixed._certified_positive(rho.tolist())
            if cert:
                assert np.linalg.eigvalsh(rho)[0] >= -1e-12
            accepted = assert_same_decision(rho)
            certified += cert
            fallback += accepted and not cert
        assert certified > 300 and fallback > 0

    @pytest.mark.parametrize("rho", [
        np.eye(3) / 3, np.full(4, 0.25), np.eye(2) / 2, np.eye(16) / 16,
        np.ones((4, 4, 1)) / 4, [[1.0, 0.0], [0.0, 0.0]], [], 0.25,
    ], ids=["3x3", "vector", "2x2", "16x16", "4x4x1", "list2x2", "empty",
            "scalar"])
    def test_wrong_shapes(self, rho):
        assert not assert_same_decision(rho)

    def test_ragged_list(self):
        ragged = [[0.25, 0.0, 0.0, 0.0], [0.0, 0.25], [0.0] * 4, [0.0] * 4]
        assert not assert_same_decision(ragged)

    @pytest.mark.parametrize("rho", [
        np.eye(4) / 4, (np.eye(4) / 4).tolist(), np.eye(4, dtype=np.float32) / 4,
        [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        np.asfortranarray(np.outer(GOLD_PE, GOLD_PE.conj())),
        np.outer(GOLD_PE, GOLD_PE.conj()).astype(np.complex64),
    ], ids=["real", "list", "float32", "int-list", "fortran", "complex64"])
    def test_real_and_list_input(self, rho):
        assert assert_same_decision(rho)


def _seeded_complex_mixes():
    """1..4 columns of seeded Haar unitaries with seeded weights."""
    rng = np.random.default_rng(2026)
    for _ in range(200):
        u = haar_unitary(rng)
        k = int(rng.integers(1, 5))
        e = rng.uniform(0.05, 1.0, k)
        yield list(u.T[:k]), [float(x) for x in e / e.sum()]


def _exactly_hermitian(m) -> bool:
    n = len(m)
    return all(m[r][c] == m[c][r].conjugate() for r in range(n)
               for c in range(n)) and all(m[r][r].imag == 0.0 for r in range(n))


def test_densities_are_exactly_hermitian():
    """Every density and reduced state is Hermitian to the last bit, with a
    real diagonal: numpy's FMA-fused complex multiply gave neither."""
    from test_bit_identity import family_sets

    mixes = [(states, weights) for states, _, weights in family_sets()]
    mixes += _seeded_complex_mixes()
    for states, weights in mixes:
        rho = q.spectral_mix(states, weights)
        assert _exactly_hermitian(rho.tolist())
        assert _exactly_hermitian(q.reduce_a(rho).tolist())
        assert _exactly_hermitian(q.reduce_b(rho).tolist())
    assert len(mixes) == 6 * len(FAMILIES) + 200
