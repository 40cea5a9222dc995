import json
import math

import numpy as np
import pytest

import qschmidt as q
from qschmidt import jsonio, sampling, scalar
from qschmidt.cli import main
from qschmidt.schmidt import _parts
from helpers import (
    FAMILIES,
    GOLD_PE_COEFFS,
    KET00,
    KET01,
    KET11,
    R12,
    R13,
    R23,
    assert_orthonormal_set,
    assert_valid_decomposition,
)


def assert_pair_invariants(pair, labels=None):
    assert_orthonormal_set([pair.states[0], pair.states[1]])
    assert_valid_decomposition(pair.schmidt[0], pair.states[1])
    labels = labels or pair.type_label
    for state, label in zip((pair.states[0], pair.states[1]), labels):
        conc = q.concurrence(state)
        if label == "P":
            assert conc <= 1e-10
        elif label == "M":
            assert abs(conc - 1.0) <= 1e-10
        else:
            assert conc > 1e-10


class TestPP:
    def test_a_side_computational(self):
        pair = q.construct_pp("a-side", q.KET0)
        np.testing.assert_array_equal(pair.states[1], KET01)
        assert_pair_invariants(pair)

    def test_a_side_plus(self):
        pair = q.construct_pp("a-side", q.PLUS)
        np.testing.assert_allclose(pair.states[1], [0, R12, 0, R12], atol=1e-15)
        assert_pair_invariants(pair)

    def test_b_side(self):
        pair = q.construct_pp("b-side", q.KET1)
        np.testing.assert_array_equal(pair.states[1], KET11)

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            q.construct_pp("sideways", q.KET0)

    def test_off_norm_single_is_rescaled(self):
        pair = q.construct_pp("a-side", [1.0, 1.0])
        assert pair.params["single"] == (R12 + 0j, R12 + 0j)
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            q.construct_pp("a-side", [1.0, 1.0], strict=True)


class TestPEDiagonal:
    def test_bell_member(self):
        pair = q.construct_pe_diagonal(R12, R12)
        np.testing.assert_allclose(pair.states[1], q.PSI_PLUS, atol=1e-15)
        assert_pair_invariants(pair, "PM")

    def test_phase_pair_is_maximal(self):
        a = R12 * np.exp(0.7j)
        b = R12 * np.exp(-2.1j)
        pair = q.construct_pe_diagonal(a, b)
        assert q.concurrence(pair.states[1]) == pytest.approx(1.0, abs=1e-12)

    def test_sorted_coefficients(self):
        pair = q.construct_pe_diagonal(R13, R23)
        np.testing.assert_allclose(pair.schmidt[0].coeffs, [R23, R13],
                                   atol=1e-15)

    def test_rejects_zero_parameter(self):
        with pytest.raises(q.ZeroParameterError):
            q.construct_pe_diagonal(0, 1)

    def test_rejects_product_member(self):
        with pytest.raises(q.ZeroParameterError, match="^parameters too small "
                           "to yield an entangled member$"):
            q.construct_pe_diagonal(1, 1e-11)

    def test_rescales_unnormalized_input(self):
        pair = q.construct_pe_diagonal(3, 4)
        np.testing.assert_allclose(pair.schmidt[0].coeffs, [0.8, 0.6],
                                   atol=1e-15)


class TestPENondiagonal:
    def test_golden_coefficients(self):
        pair = q.construct_pe_nondiagonal(R12, 0.5, 0.5)
        np.testing.assert_allclose(pair.schmidt[0].coeffs, GOLD_PE_COEFFS,
                                   atol=1e-15)
        assert_pair_invariants(pair)

    def test_second_has_no_first_amplitude(self):
        pair = q.construct_pe_nondiagonal(0.3 + 0.1j, 0.4 - 0.2j, 0.6j)
        assert pair.states[1][0] == 0.0
        assert np.vdot(KET00, pair.states[1]) == 0.0

    def test_coefficients_match_oracle(self):
        pair = q.construct_pe_nondiagonal(0.5, 0.5, R12)
        o = q.oracle_schmidt(pair.states[1])
        assert np.max(np.abs(pair.schmidt[0].coeffs - o.coeffs)) <= 1e-12

    def test_rejects_zero_c(self):
        with pytest.raises(q.ZeroParameterError):
            q.construct_pe_nondiagonal(R12, R12, 0)


class TestEP:
    def test_b_zero_collapses_to_ket01(self):
        pair = q.construct_ep(0.5, 1, 0, 1)
        assert abs(abs(np.vdot(KET01, pair.states[1])) - 1.0) <= 1e-12
        assert_pair_invariants(pair)

    def test_balanced_parameters(self):
        pair = q.construct_ep(0.5, 1, 1, 1)
        assert abs(np.vdot(pair.states[0], pair.states[1])) <= 1e-12
        assert q.concurrence(pair.states[1]) <= 1e-10
        # For gamma = 1/2, a = b = 1 the |00> amplitude is i/2.
        assert pair.states[1][0] == pytest.approx(0.5j, abs=1e-12)

    def test_minus_branch(self):
        pair = q.construct_ep(1 / 3, 1, 1, -1)
        assert abs(np.vdot(pair.states[0], pair.states[1])) <= 1e-12
        assert q.concurrence(pair.states[1]) <= 1e-10

    def test_gamma_bounds(self):
        constructors = (
            lambda gamma: q.construct_ep(gamma, 1, 1),
            lambda gamma: q.construct_ee_diagonal(gamma, 0, R12, R12),
            lambda gamma: q.construct_ee_nondiagonal(gamma, 0.5, 0.5, 0.5),
        )
        for gamma in (0.0, 1.0, -0.2, 1.7, math.nan, math.inf, -math.inf):
            message = f"^gamma must lie in \\(0, 1\\), got {gamma!r}$"
            for construct in constructors:
                with pytest.raises(q.GammaOutOfRangeError, match=message):
                    construct(gamma)

    def test_rejects_double_zero(self):
        with pytest.raises(q.DegenerateParametersError):
            q.construct_ep(0.5, 0, 0)

    @pytest.mark.parametrize("a,b", [(1e-320, 0), (0, 1e-300j)], ids=repr)
    def test_rejects_a_factor_of_underflowing_norm(self, a, b):
        with pytest.raises(q.DegenerateParametersError, match="zero norm"):
            q.construct_ep(0.5, a, b)

    @pytest.mark.parametrize("sign", (True, np.True_), ids=repr)
    def test_rejects_bool_sign(self, sign):
        with pytest.raises(q.InvalidArgumentError, match="sign must be"):
            q.construct_ep(0.5, 1, 1, sign=sign)

    @pytest.mark.parametrize("sign", (1, -1, 1.0, -1.0), ids=repr)
    def test_sign_is_recorded_as_the_int_construct_reads(self, capsys, sign):
        params = json.loads(jsonio.set_to_json(
            q.construct_ep(0.4, 1, 0.5j, sign)))["params"]
        assert type(params["sign"]) is int and params["sign"] == sign
        assert main(["construct", "--type", "ep",
                     "--params", json.dumps(params)]) == 0
        assert json.loads(capsys.readouterr().out)["params"] == params

    def test_unnormalized_norm_identity(self):
        # The squared norm of the raw (unnormalized) product form factors as
        # (|a| + sqrt(g/(1-g))|b|) (|a| + sqrt((1-g)/g)|b|); the plus signs
        # are what make the second member unit once each factor is scaled.
        rng = q.SplitMix64(77)
        for _ in range(100):
            gamma = 0.05 + 0.9 * rng.uniform()
            a = complex(rng.gauss(), rng.gauss())
            b = complex(rng.gauss(), rng.gauss())
            sa, sb = np.sqrt(complex(a)), np.sqrt(complex(b))
            up = (gamma / (1 - gamma)) ** 0.25
            dn = ((1 - gamma) / gamma) ** 0.25
            fa = np.array([sa, -1j * up * sb])
            fb = np.array([1j * dn * sb, sa])
            raw_sq = (np.linalg.norm(fa) * np.linalg.norm(fb)) ** 2
            plus_form = ((abs(a) + math.sqrt(gamma / (1 - gamma)) * abs(b))
                         * (abs(a) + math.sqrt((1 - gamma) / gamma) * abs(b)))
            assert raw_sq == pytest.approx(plus_form, rel=1e-12)


class TestEEDiagonal:
    def test_a_zero_bell_member(self):
        pair = q.construct_ee_diagonal(0.5, 0, R12, R12)
        np.testing.assert_allclose(pair.states[1], q.PSI_PLUS, atol=1e-15)
        np.testing.assert_allclose(pair.schmidt[0].coeffs, [R12, R12],
                                   atol=1e-15)

    def test_complex_parameters(self):
        pair = q.construct_ee_diagonal(0.5, 0, 1j * R12, R12)
        assert_pair_invariants(pair, "EE")
        o = q.oracle_schmidt(pair.states[1])
        assert np.max(np.abs(pair.schmidt[0].coeffs - o.coeffs)) <= 1e-12

    def test_generic_family(self):
        # With a != 0 the diagonality condition pins b; all conditions hold.
        gamma = 0.37
        a = 0.31 * np.exp(0.4j)
        c = 0.52 * np.exp(-1.2j)
        b = math.sqrt(gamma / (1 - gamma)) * (a / abs(a)) ** 2 * np.conj(c)
        scale = math.sqrt(abs(a) ** 2 / (1 - gamma) + abs(b) ** 2 + abs(c) ** 2)
        pair = q.construct_ee_diagonal(gamma, a / scale, b / scale, c / scale)
        assert_pair_invariants(pair, "EE")
        zeta = pair.schmidt[0].coeffs
        assert abs(zeta[0] ** 2 + zeta[1] ** 2 - 1.0) <= 1e-12

    def test_condition_guard(self):
        with pytest.raises(q.ConditionViolatedError) as err:
            q.construct_ee_diagonal(0.5, 0.4, 0.5, 0.3)
        assert err.value.which == "diagonal"

    def test_entanglement_guard(self):
        # b or c zero with a = 0 leaves a product second member.
        with pytest.raises(q.ConditionViolatedError) as err:
            q.construct_ee_diagonal(0.5, 0, 1, 0)
        assert err.value.which == "entangled"

    def test_admitted_member_off_the_diagonal_branch(self):
        # The diagonality residual is within tol, but the member's Gram
        # off-diagonal is 1.29e-10: the diagonal formula would return
        # A-side vectors that overlap by 4.3e-10.
        pair = q.construct_ee_diagonal(
            0.9, 0.2 + 0.1j, 0.48000000127000014 + 1.1400000000000003j,
            0.4 - 0.1j)
        m = np.reshape(pair.states[1], (2, 2))
        assert abs(np.vdot(m[:, 0], m[:, 1])) > 1e-10
        basis_a = pair.schmidt[0].basis_a
        assert np.max(np.abs(basis_a.conj() @ basis_a.T - np.eye(2))) <= 1e-12


class TestEENondiagonal:
    def test_balanced_input(self):
        pair = q.construct_ee_nondiagonal(0.4, 0.5, 0.5, 0.5)
        assert_pair_invariants(pair, "EE")
        o = q.oracle_schmidt(pair.states[1])
        assert np.max(np.abs(pair.schmidt[0].coeffs - o.coeffs)) <= 1e-12

    def test_equal_parameters_at_half_gamma_are_diagonal(self):
        # At gamma = 1/2 equal real parameters satisfy the diagonal
        # condition exactly, so the non-diagonal constructor must refuse.
        with pytest.raises(q.AccidentallyDiagonalError):
            q.construct_ee_nondiagonal(0.5, 0.5, 0.5, 0.5)

    def test_coefficient_identity_sweep(self):
        for obj in q.sample(q.SampleSpec("ee", variant="nondiagonal",
                                         seed=3, count=300)):
            c = obj.schmidt[0].coeffs
            assert abs(c[0] ** 2 + c[1] ** 2 - 1.0) <= 1e-12
            assert abs(np.vdot(obj.states[0], obj.states[1])) <= 1e-12

    def test_rejects_diagonal_parameters(self):
        with pytest.raises(q.AccidentallyDiagonalError):
            q.construct_ee_nondiagonal(0.5, 0, R12, R12)

    def test_entanglement_guard(self):
        with pytest.raises(q.ConditionViolatedError, match="^second member "
                           "would be a product state$") as err:
            q.construct_ee_nondiagonal(0.5, 0, 1, 0)
        assert err.value.which == "entangled"


class TestTypeInvariance:
    def test_local_unitaries_preserve_labels(self):
        rng = q.SplitMix64(99)
        samples = [
            q.construct_pp("a-side", q.random_qubit(rng)),
            q.construct_pe_diagonal(0.6, 0.8j),
            q.construct_pe_nondiagonal(0.5, 0.5, R12),
            q.construct_ep(0.4, 1, 0.5j),
            q.construct_ee_nondiagonal(0.4, 0.5, 0.5, 0.5),
        ]
        for pair in samples:
            ua, ub = (np.column_stack(q.random_qubit_basis(rng))
                      for _ in range(2))
            before = q.classify([pair.states[0], pair.states[1]])
            after = q.classify([np.kron(ua, ub) @ pair.states[0],
                                np.kron(ua, ub) @ pair.states[1]])
            assert before == after == pair.type_label.replace("M", "E")


class TestRescaleOverflow:
    """Parameters whose weighted squared sum overflows are not finite input,
    not parameters too small or a violated condition."""

    @pytest.mark.parametrize("build", [
        lambda: q.construct_pe_diagonal(1e200, 1e200),
        lambda: q.construct_pe_nondiagonal(1e200, 1e200, 1e200),
        lambda: q.construct_ee_nondiagonal(0.5, 1e200, 1e200, 1e200),
        lambda: q.construct_ppe_case1(1e200, 1e200),
        lambda: q.construct_ppee_case2(1e200, 1e200, 1, 1),
        lambda: q.construct_mmee_diagonal(0, 0, 1e200, 1e200j),
        lambda: q.construct_mmee_nondiagonal(0, 0, 1e200, 1e200),
    ], ids=["pe-diagonal", "pe-nondiagonal", "ee-nondiagonal", "ppe-1",
            "ppee-2", "mmee-diagonal", "mmee-nondiagonal"])
    def test_overflow_is_not_finite(self, build):
        with pytest.raises(q.NotFiniteError,
                           match="squared norm overflows: amplitudes too large"):
            build()


@pytest.mark.parametrize("key", FAMILIES,
                         ids=lambda k: "-".join(str(x) for x in k if x))
def test_orthoset_arrays_are_built_once_and_owned(key):
    """``states`` and ``schmidt`` are built from the tuples on first read,
    then kept; each set owns its arrays."""
    f = sampling.FAMILIES[key]
    first, second = (f.construct(*f.draw(q.SplitMix64(5))) for _ in range(2))
    states, decs = first.states, first.schmidt
    assert first.states is states and first.schmidt is decs
    for s, m in zip(states, first.members):
        assert s.dtype == np.complex128 and s.shape == (4,)
        assert s.flags.c_contiguous and s.flags.writeable
        assert s.tobytes() == np.array(m, dtype=complex).tobytes()
    for d, p in zip(decs, first.parts):
        assert d.coeffs.dtype == np.float64 and d.basis_a.dtype == np.complex128
        assert d.basis_a.base is d.basis_b.base
        assert d.basis_a.flags.c_contiguous and d.basis_b.flags.c_contiguous
        assert jsonio.schmidt_to_obj(d) == jsonio.schmidt_to_obj(p)
    for s in states:
        s[:] = 7.0
    for d in decs:
        d.coeffs[:] = 7.0
        d.basis_a[:] = 7.0
    again = f.construct(*f.draw(q.SplitMix64(5)))
    for s, t, m in zip(second.states, again.states, first.members):
        assert s.tobytes() == t.tobytes() == np.array(m, dtype=complex).tobytes()
    for d, e in zip(second.schmidt, again.schmidt):
        assert jsonio.schmidt_to_obj(d) == jsonio.schmidt_to_obj(e)
    assert (scalar._KET00, scalar._KET11) == ((1, 0, 0, 0), (0, 0, 0, 1))


#: Families whose last two members carry closed-form decompositions.
_CLOSED_FORM = {("ppee", 2, None), ("ppee", 3, None), ("pmee", None, None),
                ("mmee", None, "nondiagonal")}


@pytest.mark.parametrize("key", FAMILIES,
                         ids=lambda k: "-".join(str(x) for x in k if x))
def test_carried_members_are_decomposed_by_parts(key):
    """The second member of a pair, the third of a triple and all four of a
    basis carry decompositions; each one that is not closed-form is
    ``_parts(*member)`` bit for bit."""
    f = sampling.FAMILIES[key]
    closed = 2 if key in _CLOSED_FORM else 0
    for seed in range(20):
        s = f.construct(*f.draw(q.SplitMix64(seed)))
        n = len(s.members)
        carried = s.members if n == 4 else s.members[n - 1:]
        assert len(s.parts) == len(carried)
        for m, p in zip(carried[:len(carried) - closed], s.parts):
            assert repr(p) == repr(_parts(*m))
