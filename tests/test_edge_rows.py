"""Fixed edge states that the property tests found at some seeds only.

Hypothesis draws a fresh seed each run, so a counterexample it found once
may not come back.  Each row here is run through both routes on every run.
"""

import numpy as np
import pytest

import qschmidt as q

ROWS = {
    # The image vector z of the second A-side vector has a subnormal modulus,
    # so |z| carries about 35 significant bits and z/|z| was not unit: the
    # A-side error was 3.8e-11 (closed form) and 1.2e-11 (oracle).
    "subnormal-image": [0, 1.57e-313 * (1 + 1j), 0.7071067811865476j,
                        0.7071067811865476j],
    "subnormal-image-normalized": q.make_state(
        0, 2.20789156e-311 * (1 + 1j), 0.12403473495843921j,
        0.9922778766675138j, normalize=True),
}


@pytest.mark.parametrize("route", [q.schmidt, q.oracle_schmidt],
                         ids=["closed-form", "oracle"])
@pytest.mark.parametrize("state", list(ROWS.values()), ids=list(ROWS))
def test_bases_are_orthonormal(route, state):
    d = route(state)
    for basis in (d.basis_a, d.basis_b):
        gram = basis.conj() @ basis.T
        assert np.max(np.abs(gram - np.eye(2))) <= 1e-12
    assert np.max(np.abs(q.reconstruct(d) - np.asarray(state))) <= 1e-12
