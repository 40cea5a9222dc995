"""The CLI's stdout bytes are a stable contract.

`old_*` below is the per-element encoder the array-level serializers in
`jsonio` replaced, kept here as the reference: every emitted byte must
match what it, fed to ``json.dumps``, produced.  The CLI writes sets with
`jsonio.set_to_json`, whose text must be ``json.dumps(set_to_obj(s))``.
`old_report_to_obj` and `old_parts_writer` are the key-by-key writers of
the ``verify`` report and the ``decompose`` Schmidt data that
`report_to_obj` and `schmidt_to_obj` replaced.
"""

import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

import qschmidt as q
from qschmidt import jsonio
from qschmidt.cli import main
from qschmidt.schmidt import _parts
from helpers import FAMILIES, R12, state_obj

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"

SEEDS = (0, 7, 2024)
COUNT = 20

# sha256 of the ``sample`` stdout of every family at every seed in SEEDS, in
# FAMILIES order.  It holds the pair, triple and basis layouts byte for byte
# independently of the result types the reference encoder below reads.  The
# sets hash the same decompositions as `test_bit_identity.SETS_DIGEST`, so
# the digest depends on the machine no more than that one does.
SAMPLE_STDOUT_DIGEST = \
    "3d45c70571a0b8f9ef7ac3dab9bc755cbeab5fceb07226dfe9e0a2bbdf7ffdda"

# The same stream per family: sha256 of each ``sample`` call's exit code, a
# newline and its stdout, at every seed in SEEDS, as
# ``scripts/check_interpreters.py`` hashes it, so that a moved stream names
# its family and the script's lines compare with these.
FAMILY_SAMPLE_DIGESTS = {
    "pp":
        "ac6555e910646dba1856a1dbaf36db210a6f978ea934f06dbab2b2fb8669910c",
    "pe-diagonal":
        "a6f08cdd7a54b2a5d5fa884ecacd8aa564598947c713d1ae4fb15cbefd4b559a",
    "pe-nondiagonal":
        "2c0d5149af379972ac3f6a9e370ac1c08b11a4c55d4d8fa22f909075ef18e0b5",
    "ep":
        "6d716e541bd3a43c9e38839129601e79517227b7fd4ce703df3ba8b1cd1d7676",
    "ee-diagonal":
        "6468c8792c46fe3600465796c69083f7cfa1da1803a3987f2e557ac4601de8df",
    "ee-nondiagonal":
        "b0b572014540b9a19c34a2d26854d9aff5e4a318510c0c070c91da9d11ef5f02",
    "ppp":
        "bdb821ffaf8db5ab846c1a27e70efe9683e95910f4cc8e05a7639ec285296a78",
    "ppe-1":
        "36a2b33028c7beb49b06e5a210ed650228754eb2e8b50c54e324133cc2c235fd",
    "ppe-2":
        "d3f3c264c37ddbfe634c700eb89f57901f8b0864be6e24716674614cf1718b0e",
    "ppe-3":
        "f30e7911b37dd842dc03eb3159d516544ad1307497f8b865a97848bd16ed9034",
    "pppp":
        "d83dd3dfa43c19248b975fc336a9777cafe13efca12ae718b2c13a18a446c8c2",
    "ppee-1":
        "974ded76cdb9d1d7bb590ea18e21a8af2b0797ce1ceea9a520e625474da4e4b0",
    "ppee-2":
        "08b104ceb76e5121fa9b7df54db3f7cf6fcbe7bec373e25a14072cc3e2cbcab7",
    "ppee-3":
        "aa6effd8ee6fdf89496000e3c24cc585f027825cff3446870806ca45263b3838",
    "pm":
        "970b3bcc2630221afa8f75b9d9de2114b9c3181262546e0864cb3c028e3e8843",
    "pmee":
        "304a94d85e544622d175c1c627e1d83da8be87d4d751e31cd3d488f43e5cff01",
    "mmee-diagonal":
        "edc442c9758aa9add66e714dbd557c69fbfa3322b813a100ad225477caff0b75",
    "mmee-nondiagonal":
        "c640f940d1f1622bde863ebdb44b084f4e22b59b1fd16fe8858faccf19850c8f",
}


def old_complex_to_pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def old_vector_to_obj(v) -> list:
    return [old_complex_to_pair(z) for z in v]


def old_schmidt_to_obj(d) -> dict:
    return {
        "coeffs": [float(d.coeffs[0]), float(d.coeffs[1])],
        "basis_a": [old_vector_to_obj(d.basis_a[0]), old_vector_to_obj(d.basis_a[1])],
        "basis_b": [old_vector_to_obj(d.basis_b[0]), old_vector_to_obj(d.basis_b[1])],
        "degenerate": bool(d.degenerate),
    }


def old_parts_writer(parts) -> dict:
    coeffs, basis_a, basis_b, degenerate = parts
    return {
        "coeffs": list(coeffs),
        "basis_a": [[[z.real, z.imag] for z in row] for row in basis_a],
        "basis_b": [[[z.real, z.imag] for z in row] for row in basis_b],
        "degenerate": bool(degenerate),
    }


def old_report_to_obj(r) -> dict:
    return {
        "max_pairwise_overlap": float(r.max_pairwise_overlap),
        "per_state": [
            {
                "reconstruction_error": float(s.reconstruction_error),
                "coefficient_mismatch_vs_oracle":
                    float(s.coefficient_mismatch_vs_oracle),
                "concurrence": float(s.concurrence),
                "label": s.label,
            }
            for s in r.per_state
        ],
        "passed": bool(r.passed),
    }


def old_params_to_obj(params: dict) -> dict:
    out = {}
    for key, value in params.items():
        if isinstance(value, complex):
            out[key] = old_complex_to_pair(value)
        elif isinstance(value, (list, tuple)):
            out[key] = [old_complex_to_pair(v) if isinstance(v, (complex,)) else
                        (old_vector_to_obj(v) if not np.isscalar(v) else v)
                        for v in value]
        else:
            out[key] = value
    return out


def old_set_to_obj(obj) -> dict:
    if len(obj.states) == 2:
        out = {
            "type": obj.type_label,
            "first": old_vector_to_obj(obj.states[0]),
            "second": old_vector_to_obj(obj.states[1]),
            "schmidt_second": old_schmidt_to_obj(obj.schmidt[0]),
            "params": old_params_to_obj(obj.params),
        }
    elif len(obj.states) == 3:
        out = {
            "type": obj.type_label,
            "states": [old_vector_to_obj(s) for s in obj.states],
            "schmidt_third": old_schmidt_to_obj(obj.schmidt[0]),
            "params": old_params_to_obj(obj.params),
        }
    else:
        out = {
            "type": obj.type_label,
            "states": [old_vector_to_obj(s) for s in obj.states],
            "schmidt": [old_schmidt_to_obj(d) for d in obj.schmidt],
            "params": old_params_to_obj(obj.params),
        }
    if getattr(obj, "case_id", None) is not None:
        out["case"] = obj.case_id
    if obj.variant:
        out["variant"] = obj.variant
    return out


def sample_argv(set_type, case_id, variant, seed):
    argv = ["sample", "--type", set_type, "--seed", str(seed),
            "--count", str(COUNT)]
    if case_id is not None:
        argv += ["--case", str(case_id)]
    if variant is not None:
        argv += ["--variant", variant]
    return argv


def construct_argv(set_type, case_id, variant, params):
    argv = ["construct", "--type", set_type, "--params", json.dumps(params)]
    if case_id is not None:
        argv += ["--case", str(case_id)]
    if variant is not None:
        argv += ["--variant", variant]
    return argv


@pytest.mark.parametrize("set_type,case_id,variant", FAMILIES)
def test_sample_stdout_matches_reference_encoder(capsys, set_type, case_id,
                                                 variant):
    for seed in SEEDS:
        assert main(sample_argv(set_type, case_id, variant, seed)) == 0
        out = capsys.readouterr().out
        spec = q.SampleSpec(set_type=set_type, case_id=case_id,
                            variant=variant, seed=seed, count=COUNT)
        sets = q.sample(spec)
        want = json.dumps([old_set_to_obj(s) for s in sets]) + "\n"
        assert out == want, (set_type, case_id, variant, seed)
        for s in sets:
            assert jsonio.set_to_json(s) == json.dumps(jsonio.set_to_obj(s))


@pytest.mark.parametrize("set_type,case_id,variant", FAMILIES)
def test_construct_stdout_is_set_to_json(capsys, monkeypatch, set_type,
                                         case_id, variant):
    """``construct`` fed the params, case and variant ``sample`` printed
    writes ``json.dumps(set_to_obj(s))`` of the set it built."""
    built = []
    set_to_json = jsonio.set_to_json
    monkeypatch.setattr(jsonio, "set_to_json",
                        lambda s: built.append(s) or set_to_json(s))
    for seed in SEEDS:
        assert main(sample_argv(set_type, case_id, variant, seed)) == 0
        printed = json.loads(capsys.readouterr().out)
        for obj in printed:
            built.clear()
            argv = construct_argv(set_type, obj.get("case"),
                                  obj.get("variant"), obj["params"])
            assert main(argv) == 0
            s, = built
            want = json.dumps(jsonio.set_to_obj(s))
            assert want == json.dumps(old_set_to_obj(s))
            assert capsys.readouterr().out == want + "\n"


def _hand_built_set():
    """A pair whose floats include a negative zero and a real basis, with a
    degenerate decomposition and both optional keys."""
    members = ((1.0 + 0j, 0j, 0j, 0j), (0j, complex(-0.0, 1.0), 0j, 0j))
    parts = ((1.0, 0.0), ((1.0, 0.0), (0.0, 1.0)), ((-0.0, 1j), (1.0, 0.0)),
             True)
    return q.OrthoSet(members, "PP", (parts,), {"a": complex(-0.0, 0.5)},
                      case_id=1, variant="a-side")


@pytest.mark.parametrize("s,fragments", [
    (_hand_built_set(), ('"degenerate": true', "[-0.0, 1.0]", '"case": 1',
                         '"variant": "a-side"')),
    (q.construct_ppee_case2(0.6, 0.8, 0.6, 0.8),
     ('"degenerate": true', "-0.0]", '"case": 2')),
    (q.sample(q.SampleSpec(set_type="mmee", variant="nondiagonal", seed=0))[0],
     ("-0.0", '"variant": "nondiagonal"')),
], ids=["hand-built", "ppee-2", "mmee-nondiagonal"])
def test_set_to_json_edge_values(s, fragments):
    text = jsonio.set_to_json(s)
    assert text == json.dumps(jsonio.set_to_obj(s))
    assert text == json.dumps(old_set_to_obj(s))
    for fragment in fragments:
        assert fragment in text


def test_sample_stdout_digest(capsys):
    h = hashlib.sha256()
    for set_type, case_id, variant in FAMILIES:
        for seed in SEEDS:
            assert main(sample_argv(set_type, case_id, variant, seed)) == 0
            h.update(capsys.readouterr().out.encode())
    assert h.hexdigest() == SAMPLE_STDOUT_DIGEST


@pytest.mark.parametrize("set_type,case_id,variant", FAMILIES)
def test_sample_stdout_digest_per_family(capsys, set_type, case_id, variant):
    h = hashlib.sha256()
    for seed in SEEDS:
        code = main(sample_argv(set_type, case_id, variant, seed))
        h.update(f"{code}\n{capsys.readouterr().out}".encode())
    name = "-".join(str(x) for x in (set_type, case_id, variant)
                    if x is not None)
    assert h.hexdigest() == FAMILY_SAMPLE_DIGESTS[name]


@pytest.mark.parametrize("entry", json.loads(GOLDEN.read_text()),
                         ids=lambda e: e["name"])
def test_golden_transcript_bytes(capsys, monkeypatch, entry):
    monkeypatch.setattr("sys.stdin", io.StringIO(entry["stdin"]))
    assert main(list(entry["argv"])) == entry["exit"]
    captured = capsys.readouterr()
    assert captured.out == entry["stdout"]
    assert captured.err == entry["stderr"]


def test_verify_report_bytes_match_reference():
    """Reports on every family's sets, on one state and on a failing set."""
    from test_bit_identity import family_sets

    reports = [q.verify_set(states) for states, _, _ in family_sets()]
    reports.append(q.verify_set([q.PSI_PLUS]))
    failing = q.verify_set([[1.0 + 1e-9, 0, 0, 0]])
    assert not failing.passed
    reports.append(failing)
    for r in reports:
        assert json.dumps(jsonio.report_to_obj(r)) == \
            json.dumps(old_report_to_obj(r))


def test_decompose_stdout_matches_reference(capsys):
    """Haar states, an exactly diagonal state, and two rank-1 states: one
    diagonal (a degenerate decomposition), one not."""
    rng = q.SplitMix64(31)
    states = [q.make_state(*(complex(rng.gauss(), rng.gauss())
                             for _ in range(4)), normalize=True)
              for _ in range(200)]
    states += [np.array([0.6, 0, 0, 0.8]), np.array([0, 0, 1, 0]),
               q.tensor([0.6, 0.8], [R12, 1j * R12])]
    for v in states:
        obj = state_obj(v)
        assert main(["decompose", "--state", json.dumps(obj)]) == 0
        parts = _parts(*jsonio.state_from_obj(obj, normalize=True))
        assert capsys.readouterr().out == \
            json.dumps(old_parts_writer(parts)) + "\n"
