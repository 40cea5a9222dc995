"""Input parsing, fixed tolerances and result layout at the public API."""

import inspect
import math

import numpy as np
import pytest

import qschmidt as q
from qschmidt import core, jsonio, sampling, scalar
from helpers import GOLD_NONDIAG, KET00, KET11

BAD_TOLS = (math.nan, math.inf, 0.0, -1e-10)
NAMES = ("c00", "c01", "c10", "c11")


def _outcome(fn, state):
    try:
        return fn(state)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def per_element(state):
    """The per-element parse every non-ndarray input takes."""
    if len(state) != 4:
        raise q.InvalidArgumentError(
            f"a two-qubit state has 4 amplitudes, got {len(state)}")
    return tuple(scalar._checked_complex(state[k], NAMES[k]) for k in range(4))


class TestAmplitudesFastPath:
    VALUES = {
        np.complex128: [0.5 + 0.25j, -1.5, 3j, 0.1 - 0.7j],
        np.complex64: [0.5 + 0.25j, -1.5, 3j, 0.1 - 0.7j],
        np.float32: [0.5, -1.5, 3.0, 0.1],
        np.int64: [1, -2, 3, 0],
        np.bool_: [True, False, False, True],
    }

    @pytest.mark.parametrize("dtype", list(VALUES), ids=lambda t: t.__name__)
    def test_dtypes_match_per_element_parse(self, dtype):
        a = np.array(self.VALUES[dtype], dtype=dtype)
        got = core.amplitudes(a)
        assert got == per_element(a)
        assert all(type(z) is complex for z in got)

    @pytest.mark.parametrize("kind", (list, tuple))
    def test_sequences_match_arrays(self, kind):
        values = self.VALUES[np.complex128]
        assert core.amplitudes(kind(values)) == core.amplitudes(np.array(values))

    def test_byte_swapped_complex128(self):
        a = np.array(self.VALUES[np.complex128], dtype=">c16")
        got = core.amplitudes(a)
        assert got == per_element(a)
        assert all(type(z) is complex for z in got)

    def test_non_contiguous_view(self):
        a = np.array(self.VALUES[np.complex128] * 2)[::2]
        assert core.amplitudes(a) == per_element(a)

    def test_column_array_takes_per_element_path(self):
        a = np.array(self.VALUES[np.complex128]).reshape(4, 1)
        assert _outcome(core.amplitudes, a) == _outcome(per_element, a)

    @pytest.mark.parametrize("bad", (math.nan, math.inf, complex(0, -math.inf)))
    @pytest.mark.parametrize("k", range(4))
    def test_non_finite_message_is_unchanged(self, k, bad):
        a = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
        a[k] = bad
        with pytest.raises(q.NotFiniteError) as info:
            core.amplitudes(a)
        assert str(info.value) == \
            f"{NAMES[k]} must be finite, got {a.tolist()[k]!r}"
        assert _outcome(core.amplitudes, list(a)) == _outcome(per_element, list(a))

    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    @pytest.mark.parametrize("dtype", (float, complex), ids=("float", "complex"))
    @pytest.mark.parametrize("k", range(4))
    def test_non_finite_array_reports_like_its_list(self, k, dtype, bad):
        """An array with a non-finite entry raises the type and message
        its ``tolist()`` does, not the repr of a numpy scalar."""
        a = np.array([0.5, 0.5, 0.5, 0.5], dtype=dtype)
        a[k] = bad
        got = _outcome(core.amplitudes, a)
        assert got == _outcome(core.amplitudes, a.tolist())
        assert got == (q.NotFiniteError,
                       f"{NAMES[k]} must be finite, got {dtype(bad)!r}")

    @pytest.mark.parametrize("n", (3, 5))
    def test_wrong_length(self, n):
        with pytest.raises(q.InvalidArgumentError, match=f"got {n}"):
            core.amplitudes(np.zeros(n, dtype=complex))


def _decompositions():
    basis = q.construct_ppee_case2(0.6, 0.8, 0.6, 0.8)
    return [q.schmidt(GOLD_NONDIAG), q.schmidt(KET00),
            q.oracle_schmidt(GOLD_NONDIAG), *basis.schmidt]


@pytest.mark.parametrize("d", _decompositions())
def test_result_layout(d):
    """float64 coefficients and complex128 bases with C-contiguous rows."""
    assert d.coeffs.dtype == np.float64 and d.coeffs.shape == (2,)
    for basis in (d.basis_a, d.basis_b):
        assert basis.dtype == np.complex128 and basis.shape == (2, 2)
        assert basis.flags.c_contiguous
        assert np.ascontiguousarray(basis, dtype=complex) is basis


class TestToleranceChecks:
    """The thresholds are the fixed `DEFAULT_TOL` and `VERIFY_TOL`.  No entry
    point takes a tolerance, so a value passed for one, bad or not, is
    refused with `TypeError`, and each entry point runs without one."""

    # Each entry point, passing on its keyword arguments, and the name its
    # tolerance parameter had.
    ENTRY_POINTS = {
        "schmidt": (lambda **kw: q.schmidt(GOLD_NONDIAG, **kw), "tol"),
        "schmidt_diagonal": (lambda **kw: q.schmidt_diagonal(KET00, **kw),
                             "tol"),
        "schmidt_nondiagonal": (
            lambda **kw: q.schmidt_nondiagonal(GOLD_NONDIAG, **kw), "tol"),
        "verify_set.tol": (lambda **kw: q.verify_set([KET00, KET11], **kw),
                           "tol"),
        "verify_set.check_tol": (
            lambda **kw: q.verify_set([KET00, KET11], **kw), "check_tol"),
        "classify": (lambda **kw: q.classify([KET00], **kw), "tol"),
        "sample": (lambda **kw: q.sample(q.SampleSpec("pp"), **kw), "tol"),
        "spectral_mix": (lambda **kw: q.spectral_mix([KET00], [1.0], **kw),
                         "tol"),
        "orthonormal_qubit_basis": (
            lambda **kw: q.orthonormal_qubit_basis([[1, 0], [0, 1]], **kw),
            "tol"),
        "complete_ppp": (lambda **kw: q.complete_ppp(
            [KET00, KET11, q.make_state(0, 1, 0, 0)], **kw), "tol"),
        # Each constructor on its family's seeded draw.
        **{f.construct.__name__: (lambda f=f, args=f.draw(q.SplitMix64(3)), **kw:
                                  f.construct(*args, **kw), "tol")
           for f in sampling.FAMILIES.values()},
    }

    @pytest.mark.parametrize("tol", BAD_TOLS, ids=repr)
    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_bad_tol_is_rejected(self, entry, tol):
        call, name = self.ENTRY_POINTS[entry]
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            call(**{name: tol})

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_default_tol_still_works(self, entry):
        self.ENTRY_POINTS[entry][0]()

    @pytest.mark.parametrize("call", [
        lambda: q.schmidt_diagonal(GOLD_NONDIAG, 1e-8),
        lambda: q.classify([q.PHI_PLUS], 1e-10),
    ], ids=["schmidt_diagonal", "classify"])
    def test_positional_tol_is_refused(self, call):
        """A tolerance passed by position, where the second parameter once
        was ``tol``, must not land in ``check`` or ``refine_m``."""
        with pytest.raises(TypeError):
            call()

    def test_no_public_callable_takes_a_tolerance(self):
        """Checked on every signature, so a new public call cannot bring a
        tolerance parameter, or the ``strict`` switch that refused off-norm
        constructor parameters, back."""
        for name in q.__all__:
            obj = getattr(q, name)
            try:
                params = inspect.signature(obj).parameters
            except (TypeError, ValueError):  # a module, or a builtin __init__
                continue
            assert not {"tol", "check_tol", "strict"} & set(params), name


_BIG = 10 ** 400  # an integer too large for a float


class TestHugeIntegers:
    """An integer too large for a float raises a `QuantumStateError` from
    every entry point, never `OverflowError`."""

    ENTRY_POINTS = {
        "schmidt": (lambda: q.schmidt([_BIG, 0, 0, 1]), q.NotFiniteError),
        "make_state": (lambda: q.make_state(_BIG, 0, 0, 1), q.NotFiniteError),
        "verify_set": (lambda: q.verify_set([[_BIG, 0, 0, 1]]),
                       q.NotFiniteError),
        "construct_pe_diagonal": (lambda: q.construct_pe_diagonal(_BIG, 1),
                                  q.NotFiniteError),
        "construct_ep.gamma": (lambda: q.construct_ep(_BIG, 1, 1),
                               q.NotFiniteError),
        "construct_ep.a": (lambda: q.construct_ep(0.4, _BIG, 1),
                           q.NotFiniteError),
        "construct_ee_diagonal.gamma": (
            lambda: q.construct_ee_diagonal(_BIG, 1, 1, 1), q.NotFiniteError),
        "construct_pm.theta": (lambda: q.construct_pm(_BIG, 0),
                               q.NotFiniteError),
        "construct_mmee_diagonal.theta": (
            lambda: q.construct_mmee_diagonal(_BIG, 0, 0.3, 0.4),
            q.NotFiniteError),
        "spectral_mix.weights": (lambda: q.spectral_mix([KET00], [_BIG]),
                                 q.BadWeightsError),
        "spectral_mix.states": (lambda: q.spectral_mix([[_BIG, 0, 0, 0]], [1]),
                                q.NotFiniteError),
        "pair_to_complex": (lambda: jsonio.pair_to_complex([0, _BIG]),
                            q.NotFiniteError),
        "reduce_a": (lambda: q.reduce_a([[_BIG, 0, 0, 0]] + [[0] * 4] * 3),
                     q.InvalidDensityError),
    }

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_raises_domain_error(self, entry):
        call, error = self.ENTRY_POINTS[entry]
        with pytest.raises(q.QuantumStateError) as info:
            call()
        assert type(info.value) is error


_RAGGED = [[1, 0, 0, 0], [0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]


class TestNonNumericScalars:
    """A value that is not a number, or a state that is not a sequence,
    raises a `QuantumStateError`, never a bare `TypeError` or `ValueError`."""

    ENTRY_POINTS = {
        "schmidt.str": (lambda: q.schmidt(["a", 0, 0, 1]), q.NotFiniteError),
        "schmidt.none": (lambda: q.schmidt([None, 0, 0, 1]),
                         q.NotFiniteError),
        "schmidt.not_a_sequence": (lambda: q.schmidt(5),
                                   q.InvalidArgumentError),
        "make_state": (lambda: q.make_state("x", 0, 0, 1), q.NotFiniteError),
        "construct_pe_diagonal": (lambda: q.construct_pe_diagonal("x", 1),
                                  q.NotFiniteError),
        "construct_ep.gamma": (lambda: q.construct_ep(None, 1, 1),
                               q.NotFiniteError),
        "construct_pp.single": (lambda: q.construct_pp("a-side", ["a", 1]),
                                q.NotFiniteError),
        "spectral_mix.weights": (
            lambda: q.spectral_mix([[1, 0, 0, 0]], [None]), q.BadWeightsError),
        "reduce_a.str": (lambda: q.reduce_a("abc"), q.InvalidDensityError),
        "reduce_a.ragged": (lambda: q.reduce_a(_RAGGED),
                            q.InvalidDensityError),
    }

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_raises_domain_error(self, entry):
        call, error = self.ENTRY_POINTS[entry]
        with pytest.raises(q.QuantumStateError) as info:
            call()
        assert type(info.value) is error


class TestContainerShapes:
    """An argument that should be a sequence, a `SampleSpec` or a
    decomposition of arrays, a member of the wrong shape inside one, or a
    `SampleSpec` field or seed of the wrong type raises the
    `QuantumStateError` subclass its function uses for a malformed
    argument, never a bare `TypeError`, `IndexError`, `ValueError` or
    `AttributeError`, and no entry is dropped silently."""

    ENTRY_POINTS = {
        "verify_set": (lambda: q.verify_set(5), q.InvalidArgumentError),
        "classify": (lambda: q.classify(5), q.InvalidArgumentError),
        "spectral_mix.states": (lambda: q.spectral_mix(5, [1.0]),
                                q.BadWeightsError),
        "spectral_mix.weights": (lambda: q.spectral_mix([(1, 0, 0, 0)], 5),
                                 q.BadWeightsError),
        "spectral_mix.weights_none": (
            lambda: q.spectral_mix([(1, 0, 0, 0)], None), q.BadWeightsError),
        "construct_ppp": (lambda: q.construct_ppp("a-side", 5),
                          q.NotOrthonormalBasisError),
        "complete_ppp": (lambda: q.bases.complete_ppp(5), q.NotPPPError),
        "sample.count": (lambda: q.sample(q.SampleSpec("pp", count="x")),
                         q.InvalidArgumentError),
        "complete_ppp.member": (lambda: q.complete_ppp([5, 5, 5]),
                                q.InvalidArgumentError),
        "complete_ppp.short_member": (
            lambda: q.complete_ppp([[1, 0, 0]] * 3), q.InvalidArgumentError),
        "construct_ppp.basis_member": (
            lambda: q.construct_ppp("a-side", [5, 5]),
            q.NotOrthonormalBasisError),
        "construct_pp.single": (lambda: q.construct_pp("a-side", 5),
                                q.InvalidArgumentError),
        "construct_pp.short_single": (lambda: q.construct_pp("a-side", [1]),
                                      q.InvalidArgumentError),
        "construct_pp.long_single": (
            lambda: q.construct_pp("a-side", [1, 0, 7]),
            q.InvalidArgumentError),
        "tensor": (lambda: core.tensor(5, 5), q.InvalidArgumentError),
        "sample.seed": (lambda: q.sample(q.SampleSpec("pp", seed="x")),
                        q.InvalidArgumentError),
        "sample.float_seed": (lambda: q.sample(q.SampleSpec("pp", seed=1.5)),
                              q.InvalidArgumentError),
        "sample.set_type": (lambda: q.sample(q.SampleSpec(5)),
                            q.UnknownTypeError),
        "sample.variant": (lambda: q.sample(q.SampleSpec("pe", variant=5)),
                           q.UnknownTypeError),
        "sample.not_a_spec": (lambda: q.sample("pp"), q.InvalidArgumentError),
        "sample.tuple": (lambda: q.sample(("pp", None, None, 0, 1)),
                         q.InvalidArgumentError),
        "SplitMix64.float_seed": (lambda: q.SplitMix64(2.7),
                                  q.InvalidArgumentError),
        "SplitMix64.str_seed": (lambda: q.SplitMix64("7"),
                                q.InvalidArgumentError),
        "SplitMix64.none_seed": (lambda: q.SplitMix64(None),
                                 q.InvalidArgumentError),
        "reconstruct.tuple": (lambda: q.reconstruct(([1, 0], [[1, 0], [0, 1]],
                                                     [[1, 0], [0, 1]], False)),
                              q.InvalidArgumentError),
        "reconstruct.list_fields": (
            lambda: q.reconstruct(q.SchmidtDecomposition(
                [1, 0], [[1, 0], [0, 1]], [[1, 0], [0, 1]])),
            q.InvalidArgumentError),
        "reconstruct.number": (lambda: q.reconstruct(5),
                               q.InvalidArgumentError),
        "schmidt_to_obj.list_fields": (
            lambda: jsonio.schmidt_to_obj(q.SchmidtDecomposition(
                [1, 0], [[1, 0], [0, 1]], [[1, 0], [0, 1]])),
            q.InvalidArgumentError),
        "sample.unhashable_case": (
            lambda: q.sample(q.SampleSpec("ppe", case_id=[2])),
            q.UnknownTypeError),
        "reconstruct.short_coeffs": (
            lambda: q.reconstruct(q.SchmidtDecomposition(
                np.array([1.0]), np.eye(2), np.eye(2))),
            q.InvalidArgumentError),
        "reconstruct.string_coeffs": (
            lambda: q.reconstruct(q.SchmidtDecomposition(
                np.array(["1", "0"]), np.eye(2), np.eye(2))),
            q.InvalidArgumentError),
        "schmidt_to_obj.3x3_basis": (
            lambda: jsonio.schmidt_to_obj(q.SchmidtDecomposition(
                np.array([1.0, 0.0]), np.eye(3), np.eye(2))),
            q.InvalidArgumentError),
    }

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_raises_domain_error(self, entry):
        call, error = self.ENTRY_POINTS[entry]
        with pytest.raises(q.QuantumStateError) as info:
            call()
        assert type(info.value) is error


def test_unused_unhashable_case_is_ignored():
    """A case the type does not use is ignored, hashable or not."""
    spec = q.SampleSpec("pe", variant="diagonal", seed=3)
    got = q.sample(spec._replace(case_id=[2]))
    assert [s.members for s in got] == [s.members for s in q.sample(spec)]


@pytest.mark.parametrize("call", [
    lambda x: q.construct_pm(x, 0.0),
    lambda x: q.construct_pm(0.0, x),
    lambda x: q.construct_pmee(x, 0.0, 0.0, 0.3),
    lambda x: q.construct_pmee(0.0, 0.0, x, 0.3),
    lambda x: q.construct_mmee_diagonal(x, 0.0, 0.3, 0.4j),
    lambda x: q.construct_mmee_nondiagonal(0.0, x, 0.3, 0.4),
], ids=["pm.theta", "pm.theta_prime", "pmee.theta", "pmee.theta_dprime",
        "mmee_diagonal.theta", "mmee_nondiagonal.theta_prime"])
@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf), ids=repr)
def test_non_finite_angle_is_rejected(call, bad):
    """Angles are checked where they enter, since the kernels take the
    members a constructor builds without checking them again."""
    with pytest.raises(q.NotFiniteError, match="must be finite"):
        call(bad)


@pytest.mark.parametrize("key", list(sampling.FAMILIES), ids=str)
def test_members_are_finite_complex_tuples(key):
    """Every member a constructor builds is a 4-tuple of finite Python
    complex numbers, the form the kernels read without `amplitudes`."""
    family = sampling.FAMILIES[key]
    for seed in range(5):
        s = family.construct(*family.draw(q.SplitMix64(seed)))
        for m in s.members:
            assert type(m) is tuple and len(m) == 4
            assert all(type(z) is complex and math.isfinite(z.real)
                       and math.isfinite(z.imag) for z in m)
