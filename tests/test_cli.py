import contextlib
import io
import json
import math
import re
import shlex
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qschmidt as q
from qschmidt.cli import main
from qschmidt import jsonio, sampling
from helpers import FAMILIES, GOLD_PE, KET00, R12, state_obj


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecompose:
    def test_state_just_above_tol(self, capsys):
        """|g| one ulp above tol by hypot, not by the sum of squares: the
        non-diagonal branch decomposes it."""
        state = ("[[0.6, 0.0], [4.100057480134888e-11, -1.6154482549353533e-10],"
                 " [0.0, 0.0], [0.8, 0.0]]")
        code, out, err = run(capsys, "decompose", "--state", state)
        assert code == 0, err
        assert json.loads(out)["coeffs"] == pytest.approx([0.8, 0.6], abs=1e-15)
        code, out, err = run(capsys, "verify", "--set", "[" + state + "]")
        assert code == 0, err
        assert json.loads(out)["passed"]

    def test_five_decimal_amplitudes_are_normalized(self, capsys):
        code, out, _ = run(capsys, "decompose", "--state",
                           "[[0.57735,0],[0.40825,0],[0.40825,0],[-0.57735,0]]")
        assert code == 0
        payload = json.loads(out)
        assert payload["coeffs"] == pytest.approx([R12, R12], abs=1e-4)
        assert payload["basis_a"][0][0][0] == pytest.approx(math.sqrt(2 / 3),
                                                            abs=1e-4)

    def test_strict_rejects_off_norm(self, capsys):
        code, _, err = run(capsys, "decompose", "--strict", "--state",
                           "[[0.57735,0],[0.40825,0],[0.40825,0],[-0.57735,0]]")
        assert code == 1
        assert json.loads(err)["error"] == "NotNormalizedError"

    def test_exact_state_round_trips(self, capsys):
        state_json = json.dumps(state_obj(GOLD_PE))
        code, out, _ = run(capsys, "decompose", "--state", state_json)
        assert code == 0
        payload = json.loads(out)
        dec = q.SchmidtDecomposition(
            coeffs=np.array(payload["coeffs"]),
            basis_a=np.array([[complex(*p) for p in row]
                              for row in payload["basis_a"]]),
            basis_b=np.array([[complex(*p) for p in row]
                              for row in payload["basis_b"]]),
        )
        assert np.max(np.abs(q.reconstruct(dec) - GOLD_PE)) <= 1e-12

    def test_bad_json_is_domain_error(self, capsys):
        code, _, err = run(capsys, "decompose", "--state", "[[oops")
        assert code == 1
        assert "error" in json.loads(err)


class TestConstruct:
    def test_ppee_case1_bell_members(self, capsys):
        code, out, _ = run(capsys, "construct", "--type", "ppee", "--case", "1",
                           "--params",
                           '{"a":[0.7071067811865476,0],'
                           '"b":[0.7071067811865476,0]}')
        assert code == 0
        payload = json.loads(out)
        states = [jsonio.state_from_obj(s) for s in payload["states"]]
        np.testing.assert_array_equal(states[0], KET00)
        np.testing.assert_allclose(states[2], q.PSI_PLUS, atol=1e-12)
        np.testing.assert_allclose(states[3], q.PSI_MINUS, atol=1e-12)
        assert payload["case"] == 1

    def test_construct_pipes_into_verify(self, capsys, monkeypatch):
        code, out, _ = run(capsys, "construct", "--type", "mmee",
                           "--variant", "nondiagonal", "--params",
                           '{"theta":0.4,"theta_prime":-0.9,'
                           '"a":[0.61237243569579447,0],"b":[0.35355339059327379,0]}')
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        code2, out2, _ = run(capsys, "verify")
        assert code2 == 0
        report = json.loads(out2)
        assert report["passed"] is True
        assert report["max_pairwise_overlap"] <= 1e-12

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run(capsys, "construct", "--type", "pe",
                           "--variant", "diagonal",
                           "--params", '{"a":[0,0],"b":[1,0]}')
        assert code == 1
        assert json.loads(err)["error"] == "ZeroParameterError"

    def test_basis_overlap_message_is_the_same_on_every_numpy(self, capsys):
        """The overlap prints as a Python float, not as numpy's scalar repr
        (``np.float64(0.6)`` from numpy 2 on)."""
        code, out, err = run(capsys, "construct", "--type", "ppp",
                             "--variant", "a-side", "--params",
                             '{"basis": [[[1,0],[0,0]], [[0.6,0],[0.8,0]]]}')
        assert (code, out) == (1, "")
        assert err == ('{"error": "NotOrthonormalBasisError", "message": '
                       '"basis vectors overlap by 0.6 (> 1e-12)"}\n')

    def test_missing_variant_is_domain_error(self, capsys):
        code, _, err = run(capsys, "construct", "--type", "pe",
                           "--params", '{"a":[1,0],"b":[1,0]}')
        assert code == 1
        assert "variant" in json.loads(err)["message"]

    def test_every_type_constructs(self, capsys):
        invocations = [
            ("pp", None, "a-side", '{"single":[[1,0],[0,0]]}'),
            ("pe", None, "diagonal", '{"a":[0.6,0],"b":[0,0.8]}'),
            ("pe", None, "nondiagonal",
             '{"a":[0.7071067811865476,0],"b":[0.5,0],"c":[0.5,0]}'),
            ("ep", None, None, '{"gamma":0.4,"a":[1,0],"b":[0.5,0.5],"sign":"-"}'),
            ("ee", None, "diagonal",
             '{"gamma":0.5,"a":[0,0],"b":[0,0.7071067811865476],'
             '"c":[0.7071067811865476,0]}'),
            ("ee", None, "nondiagonal",
             '{"gamma":0.4,"a":[0.5,0],"b":[0.5,0],"c":[0.5,0]}'),
            ("ppp", None, "b-side", '{"basis":[[[1,0],[0,0]],[[0,0],[1,0]]]}'),
            ("ppe", 1, None, '{"c":[0.6,0],"d":[0,0.8]}'),
            ("ppe", 2, None,
             '{"a":[0.6,0],"b":[0.8,0],"c":[0.6,0],"d":[0.8,0]}'),
            ("ppe", 3, None,
             '{"a":[0.6,0],"b":[0.8,0],"c":[0.6,0],"d":[0.8,0]}'),
            ("pppp", None, "a-side", '{"basis":[[[1,0],[0,0]],[[0,0],[1,0]]]}'),
            ("ppee", 2, None,
             '{"a":[0.6,0],"b":[0.8,0],"c":[0.6,0],"d":[0.8,0]}'),
            ("ppee", 3, None,
             '{"a":[0.6,0],"b":[0.8,0],"c":[0.6,0],"d":[0.8,0]}'),
            ("pm", None, None, '{"theta":0.785,"theta_prime":-1.047}'),
            ("pmee", None, None,
             '{"theta":0,"theta_prime":0.5,"theta_dprime":1.0,"c":[0.3,0.3]}'),
            ("mmee", None, "diagonal",
             '{"theta":0,"theta_prime":0,"a":[0.5,0],"b":[0,0.5]}'),
        ]
        for set_type, case, variant, params in invocations:
            argv = ["construct", "--type", set_type, "--params", params]
            if case:
                argv += ["--case", str(case)]
            if variant:
                argv += ["--variant", variant]
            code, out, err = run(capsys, *argv)
            assert code == 0, (set_type, err)
            payload = json.loads(out)
            states = jsonio.states_from_obj(payload)
            assert q.verify_set(states).passed, set_type


class TestClassify:
    def test_pattern_and_refinement(self, capsys):
        set_json = json.dumps([state_obj(KET00), state_obj(q.PSI_PLUS)])
        code, out, _ = run(capsys, "classify", "--set", set_json)
        assert code == 0 and json.loads(out)["pattern"] == "PE"
        code, out, _ = run(capsys, "classify", "--refine-m", "--set", set_json)
        assert code == 0 and json.loads(out)["pattern"] == "PM"


class TestSample:
    def test_deterministic_output(self, capsys):
        args = ("sample", "--type", "ee", "--variant", "nondiagonal",
                "--seed", "7", "--count", "2")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert len(payload) == 2
        for item in payload:
            assert q.verify_set(jsonio.states_from_obj(item)).passed

    def test_pppe_rejected(self, capsys):
        code, _, err = run(capsys, "sample", "--type", "pppe", "--seed", "1")
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "UnknownTypeError"
        assert "exist" in payload["message"]

    def test_failing_draw_writes_no_set(self, capsys, monkeypatch):
        """Set 129 (counted from 0) of this stream is drawn with a zero
        parameter; the 129 sets drawn before it are never written."""
        key = ("ppee", 2, None)
        construct, draw = sampling.FAMILIES[key]
        calls = []

        def failing_draw(rng):
            calls.append(None)
            args = draw(rng)
            return args[:3] + (0j,) if len(calls) == 130 else args

        monkeypatch.setitem(sampling.FAMILIES, key,
                            sampling.Family(construct, failing_draw))
        code, out, err = run(capsys, "sample", "--type", "ppee", "--case", "2",
                             "--seed", "0", "--count", "200")
        assert (code, out, len(calls)) == (1, "", 130)
        [line] = err.splitlines()
        assert json.loads(line)["error"] == "ZeroParameterError"

    def test_bulk_peak_memory_is_about_its_output(self):
        """The bulk call holds one drawn set at a time and writes its texts
        without a joined copy, so the memory it allocates at its peak is
        close to the bytes it writes, not a multiple of them."""
        argv = ["sample", "--type", "ppee", "--case", "2", "--seed", "3"]
        sink = _ByteCount()
        with contextlib.redirect_stdout(sink):
            assert main(argv) == 0  # imports and first-call caches
            sink.n = 0
            tracemalloc.start()
            try:
                code = main(argv + ["--count", "500"])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak <= 1.5 * sink.n, (peak, sink.n)


class _ByteCount(io.TextIOBase):
    """A text stream that keeps only the count of UTF-8 bytes written."""

    n = 0

    def write(self, text):
        self.n += len(text.encode())
        return len(text)


_K00 = "[[1,0],[0,0],[0,0],[0,0]]"
_K01 = "[[0,0],[1,0],[0,0],[0,0]]"
# Two orthonormal states, and weights that sum to 1 + 0.99987e-12; the
# trace of their mix rounds to 1 + 1.00009e-12, so only a reduction, which
# checks the density, refuses them.
_TRACE_EDGE = ("[[[0.9768736248974969, 0.0], [0.0, 0.0], [0.0, 0.0], "
               "[0.21243979119438502, -0.024233367428210747]], "
               "[[-0.21243979119438502, -0.024233367428210747], [0.0, 0.0], "
               "[0.0, 0.0], [0.9768736248974969, -0.0]]]")
_TRACE_EDGE_WEIGHTS = "[0.5780946061328242, 0.42190539386817577]"


class TestMix:
    def test_full_density_and_reduction(self, capsys):
        set_json = json.dumps([state_obj(KET00), state_obj(GOLD_PE)])
        code, out, _ = run(capsys, "mix", "--set", set_json,
                           "--weights", "[0.3, 0.7]")
        assert code == 0
        payload = json.loads(out)
        assert payload["system"] == "ab"
        rho = np.array([[complex(*p) for p in row]
                        for row in payload["density"]])
        assert rho.shape == (4, 4)
        assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)

        code, out, _ = run(capsys, "mix", "--set", set_json,
                           "--weights", "[0.3, 0.7]", "--reduce", "a")
        payload = json.loads(out)
        ra = np.array([[complex(*p) for p in row]
                       for row in payload["density"]])
        expect = 0.3 * np.array([[1, 0], [0, 0]]) \
            + 0.7 / (2 * math.sqrt(2)) * np.array(
                [[math.sqrt(2), 1], [1, math.sqrt(2)]])
        np.testing.assert_allclose(ra, expect, atol=1e-12)

    def test_bad_weights_domain_error(self, capsys):
        set_json = json.dumps([state_obj(KET00)])
        code, _, err = run(capsys, "mix", "--set", set_json,
                           "--weights", "[0.5]")
        assert code == 1
        assert json.loads(err)["error"] == "BadWeightsError"

    @pytest.mark.parametrize("argv,error,message", [
        (["--set", f"[{_K00}, {_K01}]", "--weights", "[0.5, 0.6]"],
         "BadWeightsError", "weights sum to 1.1, expected 1"),
        (["--set", f"[{_K00}, {_K01}]", "--weights", "[1.0, 0.0]"],
         "BadWeightsError", "weights must be positive, got 0.0"),
        (["--set", f"[{_K00}, {_K01}]", "--weights", "[1.0]"],
         "BadWeightsError", "2 states but 1 weights"),
        (["--set", f"[{_K00}]", "--weights", '{"w": 1}'],
         "QuantumStateError", "--weights must be a JSON list of numbers"),
        (["--set", f"[{_K00}, [[1,0],[0,0],[0,0],[1,0]]]",
          "--weights", "[0.5, 0.5]"], "NotOrthogonalError",
         "states 0 and 1 overlap by 0.7071067811865475 (> 1e-10)"),
        (["--set", "[[[0,0],[0,0],[0,0],[0,0]]]", "--weights", "[1]"],
         "ZeroVectorError", "all four amplitudes are zero"),
        (["--set", "[[[1e200,0],[1e200,0],[0,0],[0,0]]]", "--weights", "[1]"],
         "NotFiniteError", "squared norm overflows: amplitudes too large"),
        (["--set", _TRACE_EDGE, "--weights", _TRACE_EDGE_WEIGHTS,
          "--reduce", "a"], "InvalidDensityError",
         "density matrix trace is not 1 within 1e-12"),
        (["--set", _TRACE_EDGE, "--weights", _TRACE_EDGE_WEIGHTS,
          "--reduce", "b"], "InvalidDensityError",
         "density matrix trace is not 1 within 1e-12"),
    ], ids=["weights-sum", "weights-zero", "weights-count", "weights-object",
            "overlap", "zero-norm", "norm-overflow", "reduce-a-trace",
            "reduce-b-trace"])
    def test_error_class_and_message(self, capsys, argv, error, message):
        """Each error as the array-based ``mix`` reported it, class and
        message alike."""
        code, out, err = run(capsys, "mix", *argv)
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": error, "message": message}

    def test_trace_is_checked_only_for_a_reduction(self, capsys):
        code, out, _ = run(capsys, "mix", "--set", _TRACE_EDGE,
                           "--weights", _TRACE_EDGE_WEIGHTS)
        assert code == 0
        assert json.loads(out)["system"] == "ab"


class TestUsageErrors:
    def test_unknown_verb_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["decompose"])
        assert exc.value.code == 2


_STATE = "[[0.5,0],[0.5,0],[0.5,0],[0.5,0]]"
_FIVE_STATES = "[" + ",".join([_STATE] * 5) + "]"
_AB = '{"a":[0.6,0],"b":[0.8,0]}'
# An integer too large for a float, and one of more digits than the
# interpreter converts from text.
_BIG = "1" + "0" * 400
_HUGE = "1" + "0" * 4300
_DEEP = "[" * 100000


@pytest.mark.parametrize("argv,flag", [
    (["decompose", "--state", _STATE], ["--tol", "nan"]),
    (["decompose", "--state", _STATE], ["--tol", "0"]),
    (["construct", "--type", "pm", "--params",
      '{"theta": 0, "theta_prime": 0}'], ["--tol", "1e-10"]),
    (["verify", "--set", "[" + _STATE + "]"], ["--tol", "nan"]),
    (["classify", "--set", "[" + _STATE + "]"], ["--tol=-1e-10"]),
    (["sample", "--type", "pm"], ["--tol", "inf"]),
    (["mix", "--set", "[" + _STATE + "]", "--weights", "[1]"],
     ["--tol", "1e-10"]),
    (["construct", "--type", "pe", "--variant", "diagonal", "--params", _AB],
     ["--strict"]),
], ids=["decompose", "decompose-tol-zero", "construct", "verify", "classify",
        "sample", "mix", "construct-strict"])
def test_tol_flag_is_a_usage_error(capsys, argv, flag):
    """The tolerances are fixed, so ``--tol`` is an unknown flag on every
    verb, whatever its value, and ``construct`` always rescales its params,
    so ``--strict`` is unknown there: argparse exits 2 with its usage
    message, not a traceback."""
    with pytest.raises(SystemExit) as exc:
        main(argv + flag)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: " + " ".join(flag) in err
    assert "Traceback" not in err


class TestDomainErrorsNotTracebacks:
    """Bad arguments that once escaped as tracebacks exit 1 with error JSON."""

    @pytest.mark.parametrize("argv,error", [
        (["sample", "--type", "pp", "--count", "0"], "InvalidArgumentError"),
        (["sample", "--type", "pp", "--count", "-1"], "InvalidArgumentError"),
        (["verify", "--set", _FIVE_STATES], "InvalidArgumentError"),
        (["classify", "--set", _FIVE_STATES], "InvalidArgumentError"),
        (["construct", "--type", "pp", "--variant", "diagonal",
          "--params", '{"single":[[1,0],[0,0]]}'], "UnknownTypeError"),
        (["construct", "--type", "qqq", "--params", _AB], "UnknownTypeError"),
        (["construct", "--type", "pe", "--params", _AB], "UnknownTypeError"),
        (["construct", "--type", "ppe", "--params", _AB], "UnknownTypeError"),
        (["construct", "--type", "pppe", "--params", _AB], "UnknownTypeError"),
        (["construct", "--type", "pe", "--variant", "a-side", "--params", _AB],
         "UnknownTypeError"),
        (["decompose", "--state", "[[1e200,0],[0,0],[0,0],[1e200,0]]"],
         "NotFiniteError"),
        (["construct", "--type", "pe", "--variant", "diagonal",
          "--params", '{"a":[1e200,0],"b":[1e200,0]}'], "NotFiniteError"),
        (["sample", "--type", "pppe", "--count", "0"], "UnknownTypeError"),
        (["sample", "--type", "qqq", "--count", "0"], "UnknownTypeError"),
        (["decompose", "--state", "[[true,0],[0,0],[0,0],[false,1]]"],
         "QuantumStateError"),
        (["construct", "--type", "pm",
          "--params", '{"theta": true, "theta_prime": false}'],
         "QuantumStateError"),
        (["mix", "--set", "[" + _STATE + "]", "--weights", "[true]"],
         "QuantumStateError"),
        (["mix", "--set", "[" + _STATE + "]", "--weights", '["abc"]'],
         "QuantumStateError"),
        (["construct", "--type", "ep", "--params",
          '{"gamma": 0.4, "a": [1, 0], "b": [0.5, 0.5], "sign": true}'],
         "QuantumStateError"),
        (["decompose", "--state", f"[[{_BIG},0],[0,0],[0,0],[1,0]]"],
         "NotFiniteError"),
        (["decompose", "--state", f"[{_BIG},0,0,1]"], "NotFiniteError"),
        (["construct", "--type", "pe", "--variant", "diagonal",
          "--params", f'{{"a":[{_BIG},0],"b":[1,0]}}'], "NotFiniteError"),
        (["construct", "--type", "ep", "--params",
          f'{{"gamma": {_BIG}, "a": [1, 0], "b": [0.5, 0.5]}}'],
         "NotFiniteError"),
        (["construct", "--type", "pm",
          "--params", f'{{"theta": {_BIG}, "theta_prime": 0}}'],
         "NotFiniteError"),
        (["construct", "--type", "pmee", "--params",
          '{"theta": 0, "theta_prime": 0, "theta_dprime": NaN, "c": 0.3}'],
         "NotFiniteError"),
        (["mix", "--set", "[" + _STATE + "]", "--weights", f"[{_BIG}]"],
         "BadWeightsError"),
        (["decompose", "--state", f"[[{_HUGE},0],[0,0],[0,0],[1,0]]"],
         "QuantumStateError"),
        (["verify", "--set", _DEEP], "QuantumStateError"),
        (["construct", "--type", "pp", "--variant", "a-side",
          "--params", '{"single": 5}'], "QuantumStateError"),
        (["decompose", "--state", "[[1,0],[0,0],[0,0]]"], "QuantumStateError"),
    ], ids=["count-0", "count-negative", "verify-5-states", "classify-5-states",
            "pp-diagonal-variant", "construct-unknown-type",
            "construct-pe-no-variant", "construct-ppe-no-case",
            "construct-pppe", "construct-pe-side-variant",
            "decompose-norm-overflow", "construct-rescale-overflow",
            "sample-pppe-count-0", "sample-unknown-type-count-0",
            "decompose-boolean-amplitude", "construct-boolean-real",
            "mix-boolean-weight", "mix-string-weight",
            "construct-boolean-sign", "decompose-huge-int-pair",
            "decompose-huge-int-real", "construct-huge-int-complex",
            "construct-huge-int-gamma", "construct-huge-int-theta",
            "construct-nan-theta-dprime", "mix-huge-int-weight",
            "decompose-int-over-digit-limit", "verify-deep-nesting",
            "construct-scalar-single", "decompose-3-pair-state"])
    def test_exit_1_with_error_json(self, capsys, argv, error):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == error

    @pytest.mark.parametrize("text", [_DEEP, "[" + _HUGE + "]"],
                             ids=["deep-nesting", "int-over-digit-limit"])
    def test_bad_json_on_stdin(self, capsys, monkeypatch, text):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run(capsys, "verify")
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "QuantumStateError"


def _selectors(set_type, case_id, variant) -> list:
    argv = ["--type", set_type]
    if case_id is not None:
        argv += ["--case", str(case_id)]
    if variant is not None:
        argv += ["--variant", variant]
    return argv


def _construct_argv(set_type, item, params) -> list:
    """``construct`` argv rebuilding a `sample` output ``item`` from
    ``params``, with the case and variant the item prints."""
    argv = ["construct", "--type", set_type, "--params", json.dumps(params)]
    if "case" in item:
        argv += ["--case", str(item["case"])]
    if "variant" in item:
        argv += ["--variant", item["variant"]]
    return argv


@pytest.mark.parametrize("set_type,case_id,variant", FAMILIES)
def test_sample_params_construct_again(capsys, set_type, case_id, variant):
    """The params, case and variant that `sample` prints rebuild a valid set
    through `construct`: both verbs read one family table."""
    selectors = _selectors(set_type, case_id, variant)
    for seed in range(20):
        code, out, err = run(capsys, "sample", *selectors, "--seed", str(seed),
                             "--count", "3")
        assert code == 0, err
        for item in json.loads(out):
            argv = _construct_argv(set_type, item, item["params"])
            code, out2, err = run(capsys, *argv)
            assert code == 0, (argv, err)
            states = jsonio.states_from_obj(json.loads(out2))
            assert q.verify_set(states).passed, argv


#: Every constructor's positional parameter names.  `construct` reads them
#: as its --params keys (but ``variant``, which --variant carries), so a new
#: name must first be given its JSON kind in `cli._KINDS`.
PARAM_NAMES = {"variant", "single", "basis", "gamma", "sign", "theta",
               "theta_prime", "theta_dprime", "a", "b", "c", "d"}
#: The families whose constructor records its params as given: ep's a and
#: b need no normalization, pm takes angles only and pmee's c is bounded.
AS_GIVEN = {"ep", "pm", "pmee"}


def _scaled(value):
    """Every number in a list-valued param times 1.1: each complex pair and
    each entry of a qubit or a basis."""
    return [_scaled(v) for v in value] if isinstance(value, list) else 1.1 * value


def _floats(value) -> list:
    """The numbers of a param value, flattened."""
    if isinstance(value, list):
        return [x for v in value for x in _floats(v)]
    return [value]


def test_construct_rescales_off_norm_params(capsys):
    """With every complex param and qubit entry 10 % too large, each of the
    15 constructors that normalize their params still builds the set and
    records the params the sampled set recorded, to rounding; ep, pm and
    pmee record the scaled params as given."""
    names = set()
    for set_type, case_id, variant in FAMILIES:
        code = sampling.FAMILIES[set_type, case_id, variant].construct.__code__
        names.update(code.co_varnames[:code.co_argcount])
        _, out, _ = run(capsys, "sample", *_selectors(set_type, case_id, variant),
                        "--seed", "1")
        item = json.loads(out)[0]
        params = {k: _scaled(v) if isinstance(v, list) else v
                  for k, v in item["params"].items()}
        argv = _construct_argv(set_type, item, params)
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        got = json.loads(out)["params"]
        want = params if set_type in AS_GIVEN else item["params"]
        assert got.keys() == want.keys(), argv
        for k in want:
            assert _floats(got[k]) == pytest.approx(_floats(want[k]),
                                                    rel=0, abs=1e-15), (argv, k)
    assert names == PARAM_NAMES


def test_underflow_message_names_the_family_asked_for(capsys):
    """PPEE cases 2 and 3 check their params as the PPE triple they extend
    does, but a refusal of a parameter pair whose squares underflow names
    the PPEE case."""
    unit = {"a": [0.6, 0], "b": [0.8, 0], "c": [0.6, 0], "d": [0.8, 0]}
    tiny = {"a": [1e-160, 0], "b": [1e-160, 0], "c": [1e-160, 0],
            "d": [1e-160, 0]}
    for set_type in ("ppe", "ppee"):
        for case_id in (2, 3):
            for names in ("ab", "cd"):
                params = {k: (tiny if k in names else unit)[k] for k in "abcd"}
                code, out, err = run(
                    capsys, "construct", "--type", set_type, "--case",
                    str(case_id), "--params", json.dumps(params))
                assert (code, out) == (1, ""), err
                assert json.loads(err) == {
                    "error": "ZeroVectorError",
                    "message": f"{set_type}-case{case_id} ({names[0]}, "
                               f"{names[1]}): parameters are all zero"}


def _readme_commands() -> list:
    """The ``qschmidt`` command lines of the ``sh`` block under "Command
    line" in README.md, continuations joined, each with the exit code its
    ``# exit N`` comment documents (0 where there is none)."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    lines = block.split("```", 1)[0].replace("\\\n", " ").splitlines()
    return [(line, int(m[1]) if (m := re.search(r"# exit (\d+)", line)) else 0)
            for line in lines if line.startswith("qschmidt ")]


def test_readme_command_line_examples_run(capsys, monkeypatch):
    """Each README example runs through `main`, each stage of a pipeline
    reading the previous stage's stdout, and exits as documented."""
    commands = _readme_commands()
    assert len(commands) == 7
    for line, expected in commands:
        stdin, stages = "", [[]]
        for token in shlex.split(line, comments=True):
            if token == "|":
                stages.append([])
            else:
                stages[-1].append(token)
        for i, argv in enumerate(stages):
            assert argv[0] == "qschmidt", line
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
            code, stdin, err = run(capsys, *argv[1:])
            assert code == (expected if i == len(stages) - 1 else 0), (line, err)


class TestJsonRoundTrip:
    def test_output_reverifies_without_drift(self, capsys):
        code, out, _ = run(capsys, "construct", "--type", "pmee", "--params",
                           '{"theta":0.2,"theta_prime":1.3,'
                           '"theta_dprime":-0.7,"c":[0.35,0.2]}')
        assert code == 0
        states = jsonio.states_from_obj(json.loads(out))
        report = q.verify_set(states)
        assert report.passed
        assert report.max_pairwise_overlap <= 1e-12
