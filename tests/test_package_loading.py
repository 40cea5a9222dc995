"""What importing the package and running one CLI verb loads, and the public
names the package keeps while most of it loads on first use.

Each check runs in a fresh interpreter, because this test process has long
since imported every module; a call with no golden transcript is compared
with the same call made in this process.
"""

import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qschmidt as q
from qschmidt import sampling
from qschmidt.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "perfbench" / "golden.json").read_text())

# Every public name `import qschmidt` bound before its submodules loaded
# lazily (the names `from qschmidt import *` bound, submodules included).
PUBLIC_NAMES = (
    "A_SIDE", "B_SIDE", "DEFAULT_TOL", "DiagonalError", "InvalidArgumentError",
    "InvalidDensityError", "KET0", "KET1", "MINUS", "NotDiagonalError",
    "NotFiniteError", "NotNormalizedError", "NotOrthogonalError", "OrthoSet",
    "PHI_MINUS", "PHI_PLUS", "PLUS", "PSI_MINUS", "PSI_PLUS",
    "QuantumStateError", "RejectionLimitError", "SampleSpec",
    "SchmidtDecomposition", "SplitMix64", "StateReport", "UnknownTypeError",
    "VERIFY_TOL", "VerificationReport", "ZeroParameterError",
    "ZeroVectorError", "bases", "classify", "complete_ppp", "concurrence",
    "construct_ee_diagonal", "construct_ee_nondiagonal", "construct_ep",
    "construct_mmee_diagonal", "construct_mmee_nondiagonal",
    "construct_pe_diagonal", "construct_pe_nondiagonal", "construct_pm",
    "construct_pmee", "construct_pp", "construct_ppe_case1",
    "construct_ppe_case2", "construct_ppe_case3", "construct_ppee_case1",
    "construct_ppee_case2", "construct_ppee_case3", "construct_ppp",
    "construct_pppp", "core", "errors", "make_qubit", "make_state", "mixed",
    "oracle", "oracle_schmidt", "orthonormal_qubit_basis", "pairs",
    "random_qubit", "random_qubit_basis", "reconstruct", "reduce_a",
    "reduce_b", "sample", "sampling", "scalar", "schmidt", "schmidt_diagonal",
    "schmidt_nondiagonal", "spectral_mix", "tensor", "triples", "verify_set",
)

# Every defaulted parameter of a public callable, as (name, parameter): the
# knobs the CI "Source size" step counts.  A new knob has to edit this pin.
DEFAULTED_PARAMETERS = (
    ("SampleSpec", "case_id"), ("SampleSpec", "count"),
    ("SampleSpec", "seed"), ("SampleSpec", "variant"),
    ("SchmidtDecomposition", "degenerate"), ("classify", "refine_m"),
    ("construct_ep", "sign"), ("make_qubit", "normalize"),
    ("make_state", "normalize"), ("schmidt_diagonal", "check"),
)

# Every `QuantumStateError` subclass, one per fault: the error classes the
# CI "Source size" step counts.  A new class has to edit this pin.
ERROR_CLASSES = (
    "DiagonalError", "InvalidArgumentError", "InvalidDensityError",
    "NotDiagonalError", "NotFiniteError", "NotNormalizedError",
    "NotOrthogonalError", "QuantumStateError", "RejectionLimitError",
    "UnknownTypeError", "ZeroParameterError", "ZeroVectorError",
)

# Names the package exported before each fault got one error class.
REMOVED_ERROR_CLASSES = (
    "BadWeightsError", "COutOfRangeError", "DegenerateParametersError",
    "GammaOutOfRangeError", "NotOrthonormalBasisError", "NotPPPError",
)

BASE_MODULES = ["cli", "errors", "jsonio", "scalar", "schmidt"]

# The package modules each golden call adds to `import qschmidt.cli`.
ADDED_MODULES = {
    "decompose": [],
    "construct": ["bases", "pairs", "sampling", "triples"],
    "classify": ["oracle"],
    "mix": ["mixed"],
    "verify": ["oracle"],
    "sample": ["bases", "pairs", "sampling", "triples"],
    "sample-refused": [],
}

VERB_PROBE = """
import contextlib, io, json, sys
import qschmidt, qschmidt.cli

def loaded():
    return {m[len("qschmidt."):] for m in sys.modules
            if m.startswith("qschmidt.")}

before = loaded()
numpy_before = "numpy" in sys.modules
argv, stdin = json.loads(sys.argv[1])
sys.stdin = io.StringIO(stdin)
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = qschmidt.cli.main(argv)
print(json.dumps({"before": sorted(before), "numpy_before": numpy_before,
                  "added": sorted(loaded() - before), "exit": code,
                  "numpy": "numpy" in sys.modules,
                  "dataclasses": "dataclasses" in sys.modules}))
"""

SURFACE_PROBE = """
import json, sys, types
import qschmidt as q

names = json.loads(sys.argv[1])
not_in_dir = sorted(set(names) - set(dir(q)))  # before any name resolves
unresolved = [n for n in names if not hasattr(q, n)]
star = {}
exec("from qschmidt import *", star)
not_star_bound = [n for n in names if n not in star]
submodules = [m for key, m in sys.modules.items() if key.startswith("qschmidt.")]
not_same = []
for n in names:
    value = getattr(q, n)
    if isinstance(value, types.ModuleType):
        same = value is sys.modules["qschmidt." + n]
    else:
        binders = [m for m in submodules if n in vars(m)]
        same = bool(binders) and all(vars(m)[n] is value for m in binders)
    if not same or star.get(n) is not value:
        not_same.append(n)
print(json.dumps({"unresolved": unresolved, "not_in_dir": not_in_dir,
                  "not_star_bound": not_star_bound, "not_same": not_same}))
"""


def fresh(code: str, *args: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    p = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                       text=True, env=env, cwd=ROOT, timeout=120)
    assert p.returncode == 0, p.stderr
    return json.loads(p.stdout)


@pytest.mark.parametrize("entry", GOLDEN, ids=lambda e: e["name"])
def test_each_verb_loads_only_its_modules(entry):
    got = fresh(VERB_PROBE, json.dumps([entry["argv"], entry["stdin"]]))
    assert got["exit"] == entry["exit"]
    assert got["before"] == BASE_MODULES
    assert not got["numpy_before"]
    assert got["added"] == ADDED_MODULES[entry["name"]]
    assert not got["numpy"]  # no golden call imports numpy
    # The result records are NamedTuples; numpy does not load dataclasses
    # either, so no call, with or without site-packages, pays for it.
    assert not got["dataclasses"]


def without_site_packages(argv, stdin: str = "") -> tuple:
    """Exit code, stdout and stderr of ``python -S -m qschmidt``: ``-S``
    leaves site-packages, and so numpy, off the path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    p = subprocess.run([sys.executable, "-S", "-m", "qschmidt", *argv],
                       input=stdin, capture_output=True, text=True, env=env,
                       cwd=ROOT, timeout=120)
    return p.returncode, p.stdout, p.stderr


def in_process(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def selectors(set_type, case_id, variant) -> list:
    argv = ["--type", set_type]
    if case_id is not None:
        argv += ["--case", str(case_id)]
    if variant is not None:
        argv += ["--variant", variant]
    return argv


def family_id(key) -> str:
    return "-".join(str(x) for x in key if x is not None)


@pytest.mark.parametrize("entry", GOLDEN, ids=lambda e: e["name"])
def test_numpy_free_call_runs_without_site_packages(entry):
    """Every golden call gives its golden bytes with no numpy to import."""
    assert without_site_packages(entry["argv"], entry["stdin"]) == (
        entry["exit"], entry["stdout"], entry["stderr"])


@pytest.mark.parametrize("key", list(sampling.FAMILIES), ids=family_id)
def test_sample_runs_without_site_packages(key):
    """Every family draws and constructs on Python numbers."""
    argv = ["sample", *selectors(*key), "--seed", "11", "--count", "3"]
    want = in_process(argv)
    assert want[0] == 0
    assert without_site_packages(argv) == want


@pytest.mark.parametrize("key", list(sampling.FAMILIES), ids=family_id)
def test_construct_runs_without_site_packages(key):
    """`construct` fed the params that `sample` printed."""
    code, out, _ = in_process(["sample", *selectors(*key), "--seed", "11",
                               "--count", "3"])
    assert code == 0
    for item in json.loads(out):
        argv = ["construct", *selectors(key[0], item.get("case"),
                                        item.get("variant")),
                "--params", json.dumps(item["params"])]
        want = in_process(argv)
        assert want[0] == 0
        assert without_site_packages(argv) == want


def test_public_names_resolve_lazily():
    got = fresh(SURFACE_PROBE, json.dumps(PUBLIC_NAMES))
    assert got == {"unresolved": [], "not_in_dir": [], "not_star_bound": [],
                   "not_same": []}


def test_defaulted_public_parameters_are_pinned():
    """Read as the CI "Source size" step reads them."""
    got = []
    for name in q.__all__:
        try:
            params = inspect.signature(getattr(q, name)).parameters
        except (TypeError, ValueError):  # a module, or a builtin __init__
            continue
        got += [(name, p.name) for p in params.values()
                if p.default is not p.empty]
    assert sorted(got) == sorted(DEFAULTED_PARAMETERS)


def test_error_classes_are_pinned():
    """Read as the CI "Source size" step reads them; the base class is
    counted with its subclasses."""
    got = [name for name in q.__all__
           if isinstance(getattr(q, name), type)
           and issubclass(getattr(q, name), q.QuantumStateError)]
    assert sorted(got) == sorted(ERROR_CLASSES)
    defined = [name for name, value in vars(q.errors).items()
               if isinstance(value, type)
               and issubclass(value, q.QuantumStateError)]
    assert sorted(defined) == sorted(ERROR_CLASSES)
    assert len(q.__all__) == len(PUBLIC_NAMES) == 76


@pytest.mark.parametrize("name", REMOVED_ERROR_CLASSES)
def test_removed_error_classes_do_not_resolve(name):
    assert not hasattr(q, name)
    assert not hasattr(q.errors, name)


def test_schmidt_stays_the_function_after_submodule_imports():
    got = fresh(
        "import json, sys\n"
        "import qschmidt.schmidt, qschmidt.cli, qschmidt.sampling\n"
        "import qschmidt\n"
        "print(json.dumps(qschmidt.schmidt is "
        "sys.modules['qschmidt.schmidt'].schmidt))\n")
    assert got is True


def test_unknown_attribute_raises_attribute_error():
    assert not hasattr(q, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        q.no_such_name


def test_concurrence_does_not_load_numpy():
    """`concurrence` is the numpy-free `scalar` function, bound on import."""
    got = fresh(
        "import json, sys\n"
        "import qschmidt\n"
        "c = qschmidt.concurrence([0.6, 0, 0, 0.8])\n"
        "print(json.dumps([c, 'numpy' in sys.modules]))\n")
    assert got == [q.concurrence([0.6, 0, 0, 0.8]), False]


def test_benchmark_trace_targets_resolve():
    """Every public call the benchmark traces by name still exists, so
    dropping one fails here rather than in every benchmark run."""
    got = fresh(
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import run\n"
        "print(json.dumps({span: callable(fn)\n"
        "                  for fn, span, _ in run.trace_targets()}))\n",
        str(ROOT / "perfbench"))
    assert "core.amplitudes" in got
    assert all(got.values()), got
