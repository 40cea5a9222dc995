import numpy as np
import pytest

import qschmidt as q
from qschmidt import core, sampling
from qschmidt.oracle import _oracle_parts, _reconstruction_error
from qschmidt.schmidt import _parts, _reconstruct_parts
from helpers import (
    GOLD_DIAG,
    GOLD_NONDIAG,
    KET00,
    R12,
    R13,
    R23,
    assert_valid_decomposition,
    numpy_schmidt_coeffs,
    states_of,
)


class TestOracleSchmidt:
    def test_golden_diagonal(self):
        d = q.oracle_schmidt(GOLD_DIAG)
        np.testing.assert_allclose(d.coeffs, [R12, R12], atol=1e-15)
        assert_valid_decomposition(d, GOLD_DIAG)

    def test_golden_nondiagonal(self):
        d = q.oracle_schmidt(GOLD_NONDIAG)
        np.testing.assert_allclose(d.coeffs, [R23, R13], atol=1e-15)
        assert_valid_decomposition(d, GOLD_NONDIAG)

    def test_cross_path_agreement(self):
        rng = q.SplitMix64(17)
        for _ in range(500):
            s = q.make_state(*(complex(rng.gauss(), rng.gauss())
                               for _ in range(4)), normalize=True)
            closed = q.schmidt(s)
            orac = q.oracle_schmidt(s)
            assert np.max(np.abs(closed.coeffs - orac.coeffs)) <= 1e-12
            assert_valid_decomposition(orac, s)

    def test_handles_branch_boundary_uniformly(self):
        # The eigensolver has no diagonal/non-diagonal dispatch at all, so it
        # checks both closed-form branches near the boundary.
        for s in (GOLD_DIAG, GOLD_NONDIAG, KET00, q.PHI_PLUS,
                  q.tensor(q.PLUS, q.MINUS)):
            d = q.oracle_schmidt(s)
            assert_valid_decomposition(d, s)
            assert np.max(np.abs(d.coeffs - numpy_schmidt_coeffs(s))) <= 1e-8

    def test_refuses_the_states_schmidt_refuses(self):
        """A state is zero on both routes when both squared column norms
        are at or below the zero floor (1e-300), and on neither otherwise."""
        refused = 0
        for x in (0.0, 1e-200, 1e-160, 1e-151, 1e-150, 1e-149, 1e-140):
            for state in ([x, 0, 0, 0], [0, x, 0, x], [x, x, x, x]):
                outcomes = []
                for route in (q.schmidt, q.oracle_schmidt):
                    try:
                        route(state)
                    except q.ZeroVectorError as exc:
                        outcomes.append(str(exc))
                    else:
                        outcomes.append(None)
                assert outcomes[0] == outcomes[1], state
                refused += outcomes[0] is not None
        assert refused == 13  # 1e-150 squared is not above the floor

    @pytest.mark.parametrize("route", [
        q.oracle_schmidt, lambda state: q.verify_set([state])],
        ids=["oracle_schmidt", "verify_set"])
    def test_overflowing_eigenvector_norm_is_not_finite(self, route):
        """The eigenvector seed's squared norm, taken with float ``**``,
        overflows for this state, which raises `OverflowError` where ``*``
        would give inf; the oracle refuses it as `_checked_norm` refuses
        an overflowing squared norm.  The closed form returns coefficients
        ``[inf, 0]`` for it, a hole ROADMAP item 1a leaves open."""
        with pytest.raises(q.NotFiniteError,
                           match="^squared norm overflows: amplitudes too "
                                 "large$"):
            route([1e78, 3e78, 1e78j, 3e78j])


class TestVerifySet:
    def test_bell_basis(self):
        rep = q.verify_set([q.PHI_PLUS, q.PHI_MINUS, q.PSI_PLUS, q.PSI_MINUS])
        assert rep.passed
        assert [s.label for s in rep.per_state] == ["M", "M", "M", "M"]

    def test_computational_basis(self):
        rep = q.verify_set([np.eye(4)[i].astype(complex) for i in range(4)])
        assert rep.passed
        assert [s.label for s in rep.per_state] == ["P", "P", "P", "P"]

    def test_duplicate_fails(self):
        rep = q.verify_set([KET00, KET00])
        assert not rep.passed
        assert rep.max_pairwise_overlap == pytest.approx(1.0)

    def test_state_off_unit_norm_fails(self):
        # The norm drift 1e-9 is read into the reconstruction error.
        rep = q.verify_set([[1.0 + 1e-9, 0, 0, 0]])
        assert rep.max_pairwise_overlap == 0.0
        assert rep.per_state[0].reconstruction_error == pytest.approx(1e-9)
        assert rep.passed is False

    def test_count_bounds(self):
        with pytest.raises(ValueError):
            q.verify_set([])
        with pytest.raises(ValueError):
            q.verify_set([KET00] * 5)

    def test_reconstruction_error_matches_reconstruct(self):
        """The error `verify_set` reads is, bit for bit, the largest
        deviation of `_reconstruct_parts` from the state, on both routes."""
        rng = q.SplitMix64(29)
        states = [GOLD_DIAG, GOLD_NONDIAG, KET00, q.PHI_PLUS]
        states += [q.make_state(*(complex(rng.gauss(), rng.gauss())
                                  for _ in range(4)), normalize=True)
                   for _ in range(300)]
        for s in states:
            a = core.amplitudes(s)
            for parts in (_parts(*a), _oracle_parts(*a)):
                r = _reconstruct_parts(parts)
                assert _reconstruction_error(parts, a) == \
                    max(abs(r[k] - a[k]) for k in range(4))


class TestClassify:
    def test_pair_patterns(self):
        assert q.classify([KET00, q.PSI_PLUS]) == "PE"
        assert q.classify([KET00, q.PSI_PLUS], refine_m=True) == "PM"

    def test_single_entangled(self):
        pe = q.construct_pe_nondiagonal(R12, 0.5, 0.5)
        assert q.classify([pe.states[1]]) == "E"

    def test_closed_loop_with_constructor(self):
        b = q.construct_ppee_case2(0.6, 0.8, 0.6j, 0.8)
        assert q.classify(b.states) == "PPEE"

    def test_rejects_unnormalized(self):
        with pytest.raises(q.NotNormalizedError):
            q.classify([KET00 * 0.5])


class TestSplitMix64:
    def test_reference_stream_seed_zero(self):
        rng = q.SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_reference_stream_seed_1234567(self):
        rng = q.SplitMix64(1234567)
        assert [rng.next_u64() for _ in range(3)] == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
        ]

    def test_uniform_range(self):
        rng = q.SplitMix64(9)
        vals = [rng.uniform() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in vals)
        assert 0.4 < sum(vals) / len(vals) < 0.6

    def test_simplex_floor(self):
        rng = q.SplitMix64(10)
        for _ in range(200):
            w = rng.simplex(3)
            assert abs(sum(w) - 1.0) <= 1e-12
            assert min(w) >= 0.01


class TestRandomHelpers:
    def test_random_qubit_basis_orthonormal(self):
        rng = q.SplitMix64(22)
        v0, v1 = q.random_qubit_basis(rng)
        assert abs(np.vdot(v0, v1)) <= 1e-15


class TestSample:
    def test_deterministic(self):
        spec = q.SampleSpec("ppee", case_id=2, seed=7, count=3)
        first = q.sample(spec)
        second = q.sample(spec)
        for x, y in zip(first, second):
            np.testing.assert_array_equal(np.array(x.states),
                                          np.array(y.states))

    def test_ppee_samples_verify(self):
        for obj in q.sample(q.SampleSpec("ppee", case_id=2, seed=7, count=3)):
            assert q.verify_set(obj.states).passed

    def test_pppe_is_impossible(self):
        with pytest.raises(q.UnknownTypeError):
            q.sample(q.SampleSpec("pppe", seed=1))

    def test_unknown_type(self):
        with pytest.raises(q.UnknownTypeError):
            q.sample(q.SampleSpec("qqq", seed=1))

    def test_integer_seed_types_share_a_stream(self):
        spec = q.SampleSpec("pp", seed=7, count=2)
        for seed in (np.int64(7), 7 + 2 ** 64):
            same = q.sample(spec._replace(seed=seed))
            assert [s.members for s in same] \
                == [s.members for s in q.sample(spec)]

    def test_missing_variant(self):
        with pytest.raises(q.UnknownTypeError):
            q.sample(q.SampleSpec("pe", seed=1))

    def test_missing_case(self):
        with pytest.raises(q.UnknownTypeError):
            q.sample(q.SampleSpec("ppe", seed=1))

    def test_bad_count(self):
        with pytest.raises(ValueError):
            q.sample(q.SampleSpec("pp", seed=1, count=0))

    def test_pair_types_give_pairs(self):
        obj = q.sample(q.SampleSpec("pm", seed=2, count=1))[0]
        assert len(states_of(obj)) == 2
        assert q.classify(states_of(obj), refine_m=True) == "PM"

    @pytest.mark.parametrize("family, draw", [
        ("ee-nondiagonal", sampling.FAMILIES["ee", None, "nondiagonal"].draw),
        ("mmee-nondiagonal",
         sampling.FAMILIES["mmee", None, "nondiagonal"].draw),
    ])
    def test_rejection_loop_is_capped(self, family, draw):
        rng = _RejectingRng()
        with pytest.raises(q.RejectionLimitError, match=family):
            draw(rng)
        assert rng.draws == sampling._MAX_DRAWS

    def test_simplex_with_unreachable_floor_raises(self):
        rng = q.SplitMix64(5)
        with pytest.raises(q.RejectionLimitError, match=r"simplex\(3, 0\.4\)"):
            rng.simplex(3, 0.4)  # three weights of at least 0.4 sum past 1
        ref = q.SplitMix64(5)
        for _ in range(3 * sampling._MAX_DRAWS):
            ref.next_u64()
        assert rng.state == ref.state


class _RejectingRng:
    """Stands in for `SplitMix64` with draws both nondiagonal rejection
    samplers reject: all simplex weight on the last coordinate zeroes the
    first parameter (and, for ee, the second), so no draw is admissible."""

    def __init__(self):
        self.draws = 0

    def uniform(self):
        return 0.5

    def angle(self):
        return 0.0

    def simplex(self, k, floor=0.01):
        self.draws += 1  # one simplex per draw in both samplers
        return [0.0] * (k - 1) + [1.0]
