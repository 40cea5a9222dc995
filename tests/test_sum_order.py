"""Pinned bits do not depend on the interpreter's ``sum``.

Up to Python 3.11 ``sum`` adds floats in order; from 3.12 on it compensates
them (Neumaier's algorithm, CPython gh-100425), which can move the last bit
of a total.  The package's float totals (state norms, parameter rescaling,
simplex draws, the PPP completion and the mixing weights) feed bits that
the digests pin, so they must not go through ``sum``.  These tests install
a 3.12-style ``sum`` in every package module and check that the digests,
the normalization and the messages are those of the plain run.
"""

import hashlib
import importlib
import math
import sys
from functools import reduce
from operator import add

import numpy as np
import pytest

import qschmidt as q
from qschmidt import scalar
from qschmidt.cli import main
from helpers import KET00, KET01, KET10, in_order
from test_bit_identity import (MIXED_DIGEST, SETS_DIGEST, mixed_digest,
                               sets_digest)
from test_jsonio_bytes import FAMILIES, SAMPLE_STDOUT_DIGEST, SEEDS, sample_argv
from test_numpy_free import amplitude_rows, outcome


def compensated_sum(values, start=0):
    """``sum`` as Python 3.12 computes it: exact while the total is an
    integer, then Neumaier's compensated float sum."""
    it = iter(values)
    total = start
    for x in it:
        total = total + x
        if type(total) is float:
            break
    comp = 0.0
    for x in it:
        x = float(x)
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
    if comp and math.isfinite(comp):
        total += comp
    return total


MODULES = ("bases", "cli", "core", "errors", "jsonio", "mixed", "oracle",
           "pairs", "sampling", "scalar", "schmidt", "triples")


@pytest.fixture
def compensated(monkeypatch):
    """Call to put a 3.12-style ``sum`` in every package module."""
    def install():
        for name in MODULES:
            module = importlib.import_module("qschmidt." + name)
            monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    return install


def test_compensated_sum_differs_from_in_order():
    assert compensated_sum([0.1] * 10) == 1.0
    assert in_order([0.1] * 10) == reduce(add, [0.1] * 10) == 0.9999999999999999
    if sys.version_info >= (3, 12):
        rng = q.SplitMix64(9)
        for n in range(1, 40):
            xs = [rng.gauss() * 10.0 ** (20 * rng.uniform() - 10)
                  for _ in range(n)]
            assert compensated_sum(xs) == sum(xs)


def test_digests_hold(compensated, capsys):
    compensated()
    assert sets_digest() == SETS_DIGEST
    assert mixed_digest() == MIXED_DIGEST
    out = []
    for set_type, case_id, variant in FAMILIES:
        for seed in SEEDS:
            assert main(sample_argv(set_type, case_id, variant, seed)) == 0
            out.append(capsys.readouterr().out)
    assert hashlib.sha256("".join(out).encode()).hexdigest() \
        == SAMPLE_STDOUT_DIGEST


def test_normalization_holds(compensated):
    rows = amplitude_rows(20_000, seed=2030)
    plain = [outcome(scalar.unit_state, *c, True) for c in rows]
    compensated()
    assert [outcome(scalar.unit_state, *c, True) for c in rows] == plain


def test_ppp_completion_holds(compensated):
    # Local unitaries spread the completion over all four amplitudes.
    rng = q.SplitMix64(12)
    triples = []
    for _ in range(200):
        ua, ub = (np.column_stack(q.random_qubit_basis(rng)) for _ in range(2))
        triples.append([np.kron(ua, ub) @ s for s in (KET00, KET01, KET10)])

    def completions():
        return [(c.tobytes(), conc) for c, conc in map(q.complete_ppp, triples)]

    plain = completions()
    compensated()
    assert completions() == plain


def test_weight_total_holds(compensated):
    def message():
        with pytest.raises(q.InvalidArgumentError) as err:
            q.spectral_mix([KET00] * 11, [0.1] * 10 + [1e-11])
        return str(err.value)

    plain = message()
    compensated()
    assert message() == plain
