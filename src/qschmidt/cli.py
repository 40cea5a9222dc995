"""Command-line front end.

Verbs map one-to-one onto library operations and speak the shared JSON
conventions on stdin/stdout: ``decompose``, ``construct``, ``verify``,
``classify``, ``sample`` and ``mix``.  Exit codes: 0 success, 1 domain
error (error JSON on stderr), 2 usage error.

Each verb imports the modules it needs when it runs, so one call loads
only its own verb's part of the package.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

from . import jsonio
from .core import DEFAULT_TOL, check_tol
from .errors import QuantumStateError
from .schmidt import schmidt


_TOL = ("--tol", {"type": float, "default": DEFAULT_TOL})
_CASE = ("--case", {"type": int, "choices": [1, 2, 3]})
_VARIANT = ("--variant",
            {"choices": ["diagonal", "nondiagonal", "a-side", "b-side"]})

# Each verb's help line and its arguments, in the order --help lists them.
_VERBS = {
    "decompose": ("Schmidt-decompose a state", [
        ("--state", {"required": True, "help": "state as JSON: "
                     "[[re,im],[re,im],[re,im],[re,im]]"}),
        _TOL,
        ("--strict", {"action": "store_true",
                      "help": "reject input whose norm is off by more than "
                              "1e-10 instead of normalizing"}),
    ]),
    "construct": ("construct an orthogonal set", [
        ("--type", {"required": True, "dest": "set_type",
                    "choices": ["pp", "pe", "ep", "ee", "ppp", "ppe", "pppp",
                                "ppee", "pm", "pmee", "mmee"]}),
        _CASE,
        _VARIANT,
        ("--params", {"required": True,
                      "help": "constructor parameters as JSON"}),
        _TOL,
        ("--strict", {"action": "store_true"}),
    ]),
    "verify": ("verify a set of 1..4 states", [
        ("--set", {"dest": "set_json", "help": "states as JSON (defaults to "
                   "stdin; accepts construct output)"}),
        _TOL,
    ]),
    "classify": ("label a set of states", [
        ("--set", {"dest": "set_json"}),
        ("--refine-m", {"action": "store_true", "help": "label maximally "
                        "entangled members M instead of E"}),
        _TOL,
    ]),
    "sample": ("draw seeded random sets of one type", [
        ("--type", {"required": True, "dest": "set_type"}),
        _CASE,
        _VARIANT,
        ("--seed", {"type": int, "default": 0}),
        ("--count", {"type": int, "default": 1}),
        _TOL,
    ]),
    "mix": ("spectrally mix orthogonal states", [
        ("--set", {"dest": "set_json"}),
        ("--weights", {"required": True,
                       "help": "positive weights as JSON"}),
        ("--reduce", {"choices": ["a", "b"],
                      "help": "also trace out the other subsystem"}),
        _TOL,
    ]),
}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qschmidt",
        description="Schmidt decompositions and orthogonal-set construction "
                    "for two-qubit states (JSON in, JSON out).")
    sub = p.add_subparsers(dest="verb", required=True)
    for verb, (help_, arguments) in _VERBS.items():
        v = sub.add_parser(verb, help=help_)
        for flag, kwargs in arguments:
            v.add_argument(flag, **kwargs)
    return p


def _load_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise QuantumStateError(f"invalid JSON for {what}: {exc}") from exc


def _set_input(args):
    text = args.set_json if args.set_json is not None else sys.stdin.read()
    return _load_json(text, "--set")


def _get_complex(params: dict, key: str) -> complex:
    if key not in params:
        raise QuantumStateError(f"params missing required key {key!r}")
    return jsonio.pair_to_complex(params[key])


def _get_real(params: dict, key: str) -> float:
    if key not in params:
        raise QuantumStateError(f"params missing required key {key!r}")
    value = params[key]
    if not isinstance(value, (int, float)):
        raise QuantumStateError(f"params[{key!r}] must be a real number")
    return float(value)


def _get_basis(params: dict):
    if "basis" not in params:
        raise QuantumStateError("params missing required key 'basis'")
    basis = params["basis"]
    if not isinstance(basis, (list, tuple)) or len(basis) != 2:
        raise QuantumStateError("params['basis'] must hold two qubit vectors")
    return [jsonio.qubit_from_obj(v) for v in basis]


def _need(value, flag: str, why: str):
    if value is None:
        raise QuantumStateError(f"{flag} is required {why}")
    return value


def _construct(args):
    from . import bases, pairs, triples

    params = _load_json(args.params, "--params")
    if not isinstance(params, dict):
        raise QuantumStateError("--params must be a JSON object")
    t = args.set_type
    variant = args.variant
    case = args.case
    tol = args.tol
    strict = args.strict
    if t == "pp":
        if "single" not in params:
            raise QuantumStateError("params missing required key 'single'")
        obj = pairs.construct_pp(
            _need(variant, "--variant", "for type pp (a-side or b-side)"),
            jsonio.qubit_from_obj(params["single"]), strict=strict, tol=tol)
    elif t == "pe":
        _need(variant, "--variant", "for type pe (diagonal or nondiagonal)")
        if variant == "diagonal":
            obj = pairs.construct_pe_diagonal(
                _get_complex(params, "a"), _get_complex(params, "b"),
                strict=strict, tol=tol)
        else:
            obj = pairs.construct_pe_nondiagonal(
                _get_complex(params, "a"), _get_complex(params, "b"),
                _get_complex(params, "c"), strict=strict, tol=tol)
    elif t == "ep":
        sign = params.get("sign", "+")
        if sign in ("+", 1, "+1"):
            sign = 1
        elif sign in ("-", -1, "-1"):
            sign = -1
        else:
            raise QuantumStateError(f"params['sign'] must be '+' or '-', got {sign!r}")
        obj = pairs.construct_ep(
            _get_real(params, "gamma"), _get_complex(params, "a"),
            _get_complex(params, "b"), sign, tol=tol)
    elif t == "ee":
        _need(variant, "--variant", "for type ee (diagonal or nondiagonal)")
        ctor = pairs.construct_ee_diagonal if variant == "diagonal" \
            else pairs.construct_ee_nondiagonal
        obj = ctor(_get_real(params, "gamma"), _get_complex(params, "a"),
                   _get_complex(params, "b"), _get_complex(params, "c"),
                   strict=strict, tol=tol)
    elif t == "ppp":
        obj = triples.construct_ppp(
            _need(variant, "--variant", "for type ppp"), _get_basis(params),
            strict=strict, tol=tol)
    elif t == "ppe":
        case = _need(case, "--case", "for type ppe")
        if case == 1:
            obj = triples.construct_ppe_case1(
                _get_complex(params, "c"), _get_complex(params, "d"),
                strict=strict, tol=tol)
        else:
            ctor = triples.construct_ppe_case2 if case == 2 \
                else triples.construct_ppe_case3
            obj = ctor(_get_complex(params, "a"), _get_complex(params, "b"),
                       _get_complex(params, "c"), _get_complex(params, "d"),
                       strict=strict, tol=tol)
    elif t == "pppp":
        obj = bases.construct_pppp(
            _need(variant, "--variant", "for type pppp"), _get_basis(params),
            strict=strict, tol=tol)
    elif t == "ppee":
        case = _need(case, "--case", "for type ppee")
        if case == 1:
            obj = bases.construct_ppee_case1(
                _get_complex(params, "a"), _get_complex(params, "b"),
                strict=strict, tol=tol)
        else:
            ctor = bases.construct_ppee_case2 if case == 2 \
                else bases.construct_ppee_case3
            obj = ctor(_get_complex(params, "a"), _get_complex(params, "b"),
                       _get_complex(params, "c"), _get_complex(params, "d"),
                       strict=strict, tol=tol)
    elif t == "pm":
        obj = bases.construct_pm(_get_real(params, "theta"),
                                 _get_real(params, "theta_prime"), tol=tol)
    elif t == "pmee":
        obj = bases.construct_pmee(
            _get_real(params, "theta"), _get_real(params, "theta_prime"),
            _get_real(params, "theta_dprime"), _get_complex(params, "c"),
            tol=tol)
    else:  # mmee
        _need(variant, "--variant", "for type mmee (diagonal or nondiagonal)")
        ctor = bases.construct_mmee_diagonal if variant == "diagonal" \
            else bases.construct_mmee_nondiagonal
        obj = ctor(_get_real(params, "theta"), _get_real(params, "theta_prime"),
                   _get_complex(params, "a"), _get_complex(params, "b"),
                   strict=strict, tol=tol)
    return jsonio.set_to_obj(obj)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        check_tol(args.tol)
        if args.verb == "decompose":
            state = jsonio.state_from_obj(
                _load_json(args.state, "--state"), normalize=not args.strict)
            payload = jsonio.schmidt_to_obj(schmidt(state, args.tol))
        elif args.verb == "construct":
            payload = _construct(args)
        elif args.verb == "verify":
            from . import oracle

            states = jsonio.states_from_obj(_set_input(args))
            payload = jsonio.report_to_obj(oracle.verify_set(states, args.tol))
        elif args.verb == "classify":
            from . import oracle

            states = jsonio.states_from_obj(_set_input(args))
            payload = {"pattern": oracle.classify(states, args.tol,
                                                  refine_m=args.refine_m)}
        elif args.verb == "sample":
            from . import sampling

            spec = sampling.SampleSpec(
                set_type=args.set_type, case_id=args.case,
                variant=args.variant, seed=args.seed, count=args.count)
            # One set at a time: the same bytes as dumping the whole list,
            # without holding every set's payload at once.
            sets = [json.dumps(jsonio.set_to_obj(s))
                    for s in sampling.sample(spec, args.tol)]
            sys.stdout.write("[" + ", ".join(sets) + "]\n")
            return 0
        else:  # mix
            from . import mixed

            states = jsonio.states_from_obj(_set_input(args), normalize=True)
            weights = _load_json(args.weights, "--weights")
            if not isinstance(weights, list):
                raise QuantumStateError("--weights must be a JSON list")
            rho = mixed.spectral_mix(states, weights, tol=args.tol)
            if args.reduce == "a":
                payload = {"system": "a", "density": jsonio.matrix_to_obj(mixed.reduce_a(rho))}
            elif args.reduce == "b":
                payload = {"system": "b", "density": jsonio.matrix_to_obj(mixed.reduce_b(rho))}
            else:
                payload = {"system": "ab", "density": jsonio.matrix_to_obj(rho)}
    except QuantumStateError as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__,
                                     "message": str(exc)}) + "\n")
        return 1
    # json.dumps runs the C encoder; json.dump to a stream never does.
    sys.stdout.write(json.dumps(payload) + "\n")
    return 0


def entry() -> int:
    """Process entry point of ``python -m qschmidt`` and the installed
    ``qschmidt`` command.

    It freezes the garbage collector's view of everything imported so far
    (numpy and the package), so the full collections that interpreter
    shutdown runs skip that heap.  `main` never freezes: tests and
    benchmarks call it in-process.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
