"""Command-line front end.

Verbs map one-to-one onto library operations and speak the shared JSON
conventions on stdin/stdout: ``decompose``, ``construct``, ``verify``,
``classify``, ``sample`` and ``mix``.  Exit codes: 0 success, 1 domain
error (error JSON on stderr), 2 usage error.

Each verb imports the modules it needs when it runs, so one call loads
only its own verb's part of the package.  No call imports numpy: every
verb, ``construct`` and ``sample`` of all 18 families and ``mix``
included, computes and encodes on Python numbers.

``sample`` encodes each set as it is drawn, holding one set at a time, and
encodes every set before it writes a byte, so a draw that fails leaves
stdout empty.  It then writes the texts with their brackets and separators
16 sets at a time; no joined copy of the whole output is built.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from typing import Iterable

from . import jsonio
from .errors import QuantumStateError, refuse_pppe
from .scalar import _number
from .schmidt import _parts


_TYPE = ("--type", {"required": True, "dest": "set_type"})
_CASE = ("--case", {"type": int, "choices": [1, 2, 3]})
_VARIANT = ("--variant",
            {"choices": ["diagonal", "nondiagonal", "a-side", "b-side"]})

# Each verb's help line and its arguments, in the order --help lists them.
_VERBS = {
    "decompose": ("Schmidt-decompose a state", [
        ("--state", {"required": True, "help": "state as JSON: "
                     "[[re,im],[re,im],[re,im],[re,im]]"}),
        ("--strict", {"action": "store_true",
                      "help": "reject input whose norm is off by more than "
                              "1e-10 instead of normalizing"}),
    ]),
    "construct": ("construct an orthogonal set", [
        _TYPE,
        _CASE,
        _VARIANT,
        ("--params", {"required": True,
                      "help": "constructor parameters as JSON"}),
    ]),
    "verify": ("verify a set of 1..4 states", [
        ("--set", {"dest": "set_json", "help": "states as JSON (defaults to "
                   "stdin; accepts construct output)"}),
    ]),
    "classify": ("label a set of states", [
        ("--set", {"dest": "set_json"}),
        ("--refine-m", {"action": "store_true", "help": "label maximally "
                        "entangled members M instead of E"}),
    ]),
    "sample": ("draw seeded random sets of one type", [
        _TYPE,
        _CASE,
        _VARIANT,
        ("--seed", {"type": int, "default": 0}),
        ("--count", {"type": int, "default": 1}),
    ]),
    "mix": ("spectrally mix orthogonal states", [
        ("--set", {"dest": "set_json"}),
        ("--weights", {"required": True,
                       "help": "positive weights as JSON"}),
        ("--reduce", {"choices": ["a", "b"],
                      "help": "also trace out the other subsystem"}),
    ]),
}


def _parser(argv: list) -> argparse.ArgumentParser:
    """The parser of ``argv``: every verb is a choice, but only the one
    ``argv[0]`` names, or all when it names none, get their arguments."""
    p = argparse.ArgumentParser(
        prog="qschmidt",
        description="Schmidt decompositions and orthogonal-set construction "
                    "for two-qubit states (JSON in, JSON out).")
    sub = p.add_subparsers(dest="verb", required=True)
    chosen = argv[0] if argv and argv[0] in _VERBS else None
    for verb, (help_, arguments) in _VERBS.items():
        v = sub.add_parser(verb, help=help_)
        if chosen in (None, verb):
            for flag, kwargs in arguments:
                v.add_argument(flag, **kwargs)
    return p


def _load_json(text: str, what: str):
    """``json.loads(text)``.  Malformed text, an integer of more digits than
    the interpreter converts (both `ValueError`) and nesting deeper than the
    recursion limit (`RecursionError`) raise `QuantumStateError`."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise QuantumStateError(f"invalid JSON for {what}: {exc}") from exc


def _set_input(args):
    text = args.set_json if args.set_json is not None else sys.stdin.read()
    return _load_json(text, "--set")


# The JSON kind of each constructor parameter that is not a complex pair.
_KINDS = {"gamma": "real", "theta": "real", "theta_prime": "real",
          "theta_dprime": "real", "sign": "sign", "single": "qubit",
          "basis": "basis"}


def _param(params: dict, name: str):
    """``params[name]`` parsed as constructor argument ``name``, of kind
    ``_KINDS[name]`` or else a ``[re, im]`` pair; a missing sign is '+'."""
    kind = _KINDS.get(name, "complex")
    if kind == "sign":
        sign = params.get(name, "+")
        if sign in ("+", "+1") or jsonio.is_number(sign) and sign == 1:
            return 1
        if sign in ("-", "-1") or jsonio.is_number(sign) and sign == -1:
            return -1
        raise QuantumStateError(f"params[{name!r}] must be '+' or '-', got {sign!r}")
    if name not in params:
        raise QuantumStateError(f"params missing required key {name!r}")
    value = params[name]
    if kind == "complex":
        return jsonio.pair_to_complex(value)
    if kind == "qubit":
        return jsonio.qubit_from_obj(value)
    if kind == "real":
        if not jsonio.is_number(value):
            raise QuantumStateError(f"params[{name!r}] must be a real number")
        return _number(float, value, f"params[{name!r}]")
    if not isinstance(value, (list, tuple)) or len(value) != 2:  # basis
        raise QuantumStateError(f"params[{name!r}] must hold two qubit vectors")
    return [jsonio.qubit_from_obj(v) for v in value]


def _sets(args) -> Iterable[str]:
    """The JSON text, newline included, of the set ``construct`` builds or
    of the list of sets ``sample`` draws, as pieces to write in turn (see
    the module docstring); each set is written by `jsonio.set_to_json`."""
    if args.verb == "construct":
        params = _load_json(args.params, "--params")
        if not isinstance(params, dict):
            raise QuantumStateError("--params must be a JSON object")
    refuse_pppe(args.set_type)
    from . import sampling

    if args.verb == "sample":
        spec = sampling.SampleSpec(
            set_type=args.set_type, case_id=args.case,
            variant=args.variant, seed=args.seed, count=args.count)
        texts = list(map(jsonio.set_to_json, sampling._stream(spec)))
        # Separated as json.dumps separates the items of a list, and written
        # 16 sets at a time: on an unbuffered stdout (python -u) each write
        # is a system call, and 1,000 of them cost more than the copy.
        pieces = [", "] * (2 * len(texts) + 1)
        pieces[0], pieces[1::2], pieces[-1] = "[", texts, "]\n"
        return ("".join(pieces[i:i + 32]) for i in range(0, len(pieces), 32))
    construct = sampling.family(args.set_type, args.case, args.variant).construct
    # Positional names are --params keys; --variant carries the side.
    code = construct.__code__
    values = [args.variant if name == "variant" else _param(params, name)
              for name in code.co_varnames[:code.co_argcount]]
    text = jsonio.set_to_json(construct(*values))
    return [text + "\n"]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parser(argv).parse_args(argv)
    try:
        if args.verb == "decompose":
            state = jsonio.state_from_obj(
                _load_json(args.state, "--state"), normalize=not args.strict)
            payload = jsonio.schmidt_to_obj(_parts(*state))
        elif args.verb in ("construct", "sample"):
            sys.stdout.writelines(_sets(args))
            return 0
        elif args.verb == "verify":
            from . import oracle

            states = jsonio.states_from_obj(_set_input(args))
            payload = jsonio.report_to_obj(oracle.verify_set(states))
        elif args.verb == "classify":
            from . import oracle

            states = jsonio.states_from_obj(_set_input(args))
            payload = {"pattern": oracle.classify(states,
                                                  refine_m=args.refine_m)}
        else:  # mix
            from . import mixed

            states = jsonio.states_from_obj(_set_input(args), normalize=True)
            weights = _load_json(args.weights, "--weights")
            if not isinstance(weights, list) \
                    or not all(map(jsonio.is_number, weights)):
                raise QuantumStateError("--weights must be a JSON list of numbers")
            rows = mixed._mix_rows(states, weights)
            if args.reduce:
                rows = mixed._reduced_rows(mixed._check_rows(rows), args.reduce)
            payload = {"system": args.reduce or "ab",
                       "density": jsonio.rows_to_obj(rows)}
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

    It freezes the garbage collector's view of everything imported so far,
    so full collections skip that heap, and freezes again after `main`,
    whose verb imported its own modules, so the collections that
    interpreter shutdown runs skip that heap too.  `main` never freezes:
    tests and benchmarks call it in-process.
    """
    gc.freeze()
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry())
