"""The numpy-free state path against numpy on the running machine.

``decompose``, ``verify`` and ``classify`` parse and normalize states as
tuples of Python complex numbers (`scalar.unit_state`).  These tests hold
that path to the array path it replaced, bit for bit and error for error:
``np.array(c) / norm``, then `schmidt` and `jsonio.schmidt_to_obj`.  Every
qubit a constructor is given or a sampler draws is held to `make_qubit`, the
one route to a unit qubit.  Nothing here is a pinned digest; each comparison
runs against the numpy build installed.
"""

import contextlib
import io
import json
import math
import sys

import numpy as np
import pytest

import qschmidt as q
from qschmidt import jsonio, scalar
from qschmidt.cli import main
from helpers import in_order
from test_bit_identity import decompose_pool

NAMES = ("c00", "c01", "c10", "c11")


def old_make_state(c, normalize):
    """`make_state` as written on arrays: checked amplitudes, the squared
    norm summed in order, then one complex array division by the norm."""
    c = [scalar._checked_complex(v, n) for v, n in zip(c, NAMES)]
    nrm = scalar._checked_norm(
        in_order(z.real * z.real + z.imag * z.imag for z in c),
        "all four amplitudes are zero")
    if not normalize and abs(nrm - 1.0) > 1e-10:
        raise q.NotNormalizedError(
            f"state norm is {nrm!r}; pass normalize=True to rescale")
    return np.array(c, dtype=complex) / nrm


def outcome(build, *args):
    """The result's bytes, or the error's class name and message."""
    try:
        return np.array(build(*args), dtype=complex).tobytes()
    except q.QuantumStateError as exc:
        return type(exc).__name__, str(exc)


def amplitude_rows(n, seed):
    """``n`` rows of four complex amplitudes: a state scale 1e-150..1e150,
    parts spread up to 40 decades below it (held at 1e-150 and above),
    random signs, and a quarter of the parts +0.0 or -0.0."""
    rng = np.random.default_rng(seed)
    scale = rng.uniform(-150.0, 150.0, size=(n, 1))
    exp = np.maximum(scale - rng.uniform(0.0, 40.0, size=(n, 8)), -150.0)
    parts = rng.uniform(1.0, 10.0, size=(n, 8)) * 10.0 ** exp
    parts *= rng.choice([-1.0, 1.0], size=(n, 8))
    zero = rng.random((n, 8)) < 0.25
    parts[zero] = rng.choice([-0.0, 0.0], size=int(zero.sum()))
    return [[complex(r[0], r[1]), complex(r[2], r[3]), complex(r[4], r[5]),
             complex(r[6], r[7])] for r in parts.tolist()]


class TestNormalization:
    N = 100_000

    def test_normalize_matches_array_division(self):
        rows = amplitude_rows(self.N, seed=2026)
        mismatched = [c for c in rows
                      if outcome(scalar.unit_state, *c, True)
                      != outcome(old_make_state, c, True)]
        assert mismatched == []

    def test_strict_matches_array_division(self):
        # Rows scaled to unit norm by Python's division, which rounds
        # differently, so the strict check passes and the norm is a few
        # ulps off 1; the rest fail the check in both.
        rows = amplitude_rows(self.N, seed=2027)
        near_unit = []
        for c in rows:
            n = math.sqrt(in_order(z.real * z.real + z.imag * z.imag for z in c))
            near_unit.append([z / n for z in c] if n > 1e-150 else c)
        mismatched = [c for c in near_unit
                      if outcome(scalar.unit_state, *c, False)
                      != outcome(old_make_state, c, False)]
        assert mismatched == []
        ok = sum(isinstance(outcome(scalar.unit_state, *c, False), bytes)
                 for c in near_unit[:1000])
        assert ok > 900

    def test_make_state_is_the_tuple_as_an_array(self):
        for c in amplitude_rows(2_000, seed=2028):
            for normalize in (True, False):
                assert outcome(q.make_state, *c, normalize) \
                    == outcome(old_make_state, c, normalize)

    def test_make_qubit_matches_array_division(self):
        def old_make_qubit(a, b, normalize):
            nrm = scalar._checked_norm(
                a.real * a.real + a.imag * a.imag + b.real * b.real
                + b.imag * b.imag, "both amplitudes are zero")
            if not normalize and abs(nrm - 1.0) > 1e-10:
                raise q.NotNormalizedError(
                    f"vector norm is {nrm!r}; pass normalize=True to rescale")
            return np.array([a, b], dtype=complex) / nrm

        for c in amplitude_rows(20_000, seed=2029):
            assert outcome(q.make_qubit, c[0], c[1], True) \
                == outcome(old_make_qubit, c[0], c[1], True)

    def test_given_qubits_take_make_qubits_route(self):
        """`construct_pp` and `orthonormal_qubit_basis` scale a qubit bit
        for bit as `make_qubit` does, and refuse the qubits it refuses (by
        class: each message names its own argument)."""
        def kind(got):
            return got if isinstance(got, bytes) else got[0]

        for c in amplitude_rows(5_000, seed=2031):
            for v in (c[:2], c[2:]):
                perp = [-v[1].conjugate(), v[0].conjugate()]
                want = kind(outcome(q.make_qubit, *v, True))
                assert kind(outcome(lambda: q.construct_pp(
                    "a-side", v).params["single"])) == want
                assert kind(outcome(lambda: q.orthonormal_qubit_basis(
                    [v, perp])[0])) == want

    def test_random_qubit_is_make_qubit_of_its_gaussians(self):
        for seed in range(100):
            rng, twin = q.SplitMix64(seed), q.SplitMix64(seed)
            for _ in range(40):
                g = [twin.gauss() for _ in range(4)]
                assert outcome(q.random_qubit, rng) == outcome(
                    q.make_qubit, complex(g[0], g[1]), complex(g[2], g[3]),
                    True)


def run(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def state_json(c) -> str:
    return json.dumps([[z.real, z.imag] for z in map(complex, c)])


def error_line(exc) -> str:
    return json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"


def array_path(c, strict):
    """What ``decompose`` printed when it parsed states to arrays."""
    try:
        state = old_make_state(c, not strict)
    except q.QuantumStateError as exc:
        return 1, "", error_line(exc)
    return 0, json.dumps(jsonio.schmidt_to_obj(q.schmidt(state))) + "\n", ""


@pytest.mark.parametrize("strict", [False, True], ids=["normalize", "strict"])
def test_decompose_matches_array_path(strict):
    flag = ["--strict"] if strict else []
    seen = set()
    for s in decompose_pool():
        c = [complex(z) for z in s]
        got = run(["decompose", "--state", state_json(c), *flag])
        want = array_path(c, strict)
        assert got == want, c
        seen.add(got[0])
    assert seen == ({0, 1} if strict else {0})


BAD_STATES = {
    "nan": "[[NaN, 0], [0, 0], [0, 0], [1, 0]]",
    "inf": "[[0, Infinity], [0, 0], [0, 0], [1, 0]]",
    "zero": "[[0, 0], [-0.0, 0], [0, -0.0], [0, 0]]",
    "underflow": "[[1e-170, 0], [0, 0], [0, 0], [0, 1e-170]]",
    "overflow": "[[1e200, 0], [0, 0], [0, 0], [1e200, 0]]",
    "wrong-norm": "[[0.6, 0], [0, 0], [0, 0], [0.6, 0]]",
}


@pytest.mark.parametrize("name", BAD_STATES)
@pytest.mark.parametrize("argv", [["decompose", "--strict"], ["decompose"],
                                  ["verify"], ["classify"]],
                         ids=["decompose-strict", "decompose", "verify",
                              "classify"])
def test_bad_state_errors_match_array_path(argv, name):
    text = BAD_STATES[name]
    if argv[0] == "decompose":
        got = run([*argv, "--state", text])
    else:
        got = run([*argv, "--set", "[" + text + "]"])
    try:
        old_make_state([jsonio.pair_to_complex(x) for x in json.loads(text)],
                       argv == ["decompose"])
    except q.QuantumStateError as exc:
        assert got == (1, "", error_line(exc))
    else:
        assert name == "wrong-norm" and argv == ["decompose"]
        assert got[0] == 0
