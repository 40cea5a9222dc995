"""JSON conventions shared by the CLI and the library.

A complex scalar serializes as ``[re, im]``; a two-qubit state as an array
of four such pairs in the fixed amplitude order; a Schmidt decomposition as
``{"coeffs": [l0, l1], "basis_a": [[..], [..]], "basis_b": [[..], [..]]}``
where each basis row is a 2-vector of complex pairs.  Floats keep Python's
shortest round-trip representation, so nothing is lost to formatting.
`set_to_obj` encodes a constructed set (`OrthoSet`) as a dict in the pair,
triple or basis layout its size selects; `set_to_json`, the CLI's set
writer, gives the bytes ``json.dumps`` makes of that dict from one
``%``-format template per layout.  A JSON boolean is never read as a number.

Each record has one writer (`schmidt_to_obj`, `set_to_obj`, `report_to_obj`,
and `complex_array_to_obj` for arrays).  Importing this module does not
import numpy: states and qubit vectors parse to tuples of Python complex
numbers, sets and Schmidt data serialize from their constructors' tuples,
and `rows_to_obj` writes a ``mix`` density's rows of Python numbers; only
`complex_array_to_obj`, and `schmidt_to_obj` given a `SchmidtDecomposition`,
work on arrays.
"""

from __future__ import annotations

import json
import math

from .errors import NotFiniteError, QuantumStateError
from .scalar import LazyNumpy, _number, unit_state

np = LazyNumpy(globals())


def complex_array_to_obj(a) -> list:
    """Nested lists of the shape of ``a`` with each complex entry as
    ``[re, im]``; one ``tolist`` call instead of a loop over entries."""
    c = np.ascontiguousarray(a, dtype=complex)
    return c.view(float).reshape(c.shape + (2,)).tolist()


def is_number(x) -> bool:
    """True for an int or float that is not a bool."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def pair_to_complex(obj) -> complex:
    """Parse ``[re, im]`` (or a bare real number) into a complex scalar."""
    if is_number(obj):
        z = _number(complex, obj, "complex scalar")
    elif isinstance(obj, (list, tuple)) and len(obj) == 2 \
            and is_number(obj[0]) and is_number(obj[1]):
        z = complex(_number(float, obj[0], "complex scalar"),
                    _number(float, obj[1], "complex scalar"))
    else:
        raise QuantumStateError(
            f"expected a complex scalar as [re, im], got {obj!r}")
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise NotFiniteError(f"complex scalar must be finite, got {obj!r}")
    return z


def state_from_obj(obj, *, normalize: bool = False) -> tuple:
    """A state as a tuple of four Python complex numbers, unit norm as
    `core.make_state` makes it (``np.array`` of it is that array)."""
    if not isinstance(obj, (list, tuple)) or len(obj) != 4:
        raise QuantumStateError(
            f"expected a state as 4 complex pairs, got {obj!r}")
    return unit_state(*[pair_to_complex(x) for x in obj], normalize=normalize)


def qubit_from_obj(obj) -> tuple:
    """A single-qubit vector as a tuple of two Python complex numbers."""
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise QuantumStateError(
            f"expected a single-qubit vector as 2 complex pairs, got {obj!r}")
    return pair_to_complex(obj[0]), pair_to_complex(obj[1])


def rows_to_obj(rows) -> list:
    """Rows of complex (or real) numbers, each entry as ``[re, im]``: the
    layout of `complex_array_to_obj`, read from Python numbers."""
    return [[[z.real, z.imag] for z in row] for row in rows]


def schmidt_to_obj(d) -> dict:
    """Serialize a `SchmidtDecomposition`, or Schmidt data as the plain tuple
    ``(coeffs, basis_a, basis_b, degenerate)`` that `schmidt._parts` returns,
    each basis two rows of two complex (or real) numbers."""
    if type(d) is not tuple:
        d = d.coeffs.tolist(), d.basis_a.tolist(), d.basis_b.tolist(), \
            d.degenerate
    coeffs, basis_a, basis_b, degenerate = d
    return {
        "coeffs": list(coeffs),
        "basis_a": rows_to_obj(basis_a),
        "basis_b": rows_to_obj(basis_b),
        "degenerate": bool(degenerate),
    }


def params_to_obj(params):
    """Constructor parameters with every complex number, also inside a
    list or tuple, as ``[re, im]``."""
    if isinstance(params, dict):
        return {key: params_to_obj(value) for key, value in params.items()}
    if isinstance(params, complex):
        return [params.real, params.imag]
    if isinstance(params, (list, tuple)):
        return [params_to_obj(v) for v in params]
    return params


def set_to_obj(s) -> dict:
    """Serialize an `OrthoSet` in the layout its size selects: a pair as
    ``first``/``second``/``schmidt_second``, a triple as
    ``states``/``schmidt_third``, a basis as ``states``/``schmidt``.  It
    reads the set's tuples, so no array is built."""
    states = rows_to_obj(s.members)
    decs = [schmidt_to_obj(p) for p in s.parts]
    if len(states) == 2:
        out = {"type": s.type_label, "first": states[0], "second": states[1],
               "schmidt_second": decs[0]}
    elif len(states) == 3:
        out = {"type": s.type_label, "states": states, "schmidt_third": decs[0]}
    else:
        out = {"type": s.type_label, "states": states, "schmidt": decs}
    out.update(_trailing_keys(s))
    return out


def _trailing_keys(s) -> dict:
    """``params``, then ``case`` and ``variant`` where the set has them."""
    keys = {"params": params_to_obj(s.params)}
    if s.case_id is not None:
        keys["case"] = s.case_id
    if s.variant:
        keys["variant"] = s.variant
    return keys


# The text of each set layout under ``json.dumps`` up to its params, keyed
# by the number of members; ``%r`` prints a Python float as JSON does.
_STATE = "[%s]" % ", ".join(["[%r, %r]"] * 4)
_BASIS = "[[[%r, %r], [%r, %r]], [[%r, %r], [%r, %r]]]"
_DEC = '{"coeffs": [%%r, %%r], "basis_a": %s, "basis_b": %s, "degenerate": %%s}' \
    % (_BASIS, _BASIS)
_SET_TEMPLATES = {
    2: '{"type": %%s, "first": %s, "second": %s, "schmidt_second": %s, '
       % (_STATE, _STATE, _DEC),
    3: '{"type": %%s, "states": [%s], "schmidt_third": %s, '
       % (", ".join([_STATE] * 3), _DEC),
    4: '{"type": %%s, "states": [%s], "schmidt": [%s], '
       % (", ".join([_STATE] * 4), ", ".join([_DEC] * 4))}


def set_to_json(s) -> str:
    """The text of ``json.dumps(set_to_obj(s))``: the set's floats, read
    from its tuples, fill the template of its layout."""
    values = [json.dumps(s.type_label)]
    for a, b, c, d in s.members:
        values += a.real, a.imag, b.real, b.imag, c.real, c.imag, d.real, d.imag
    for coeffs, ((a, b), (c, d)), ((e, f), (g, h)), degenerate in s.parts:
        values += (*coeffs, a.real, a.imag, b.real, b.imag, c.real, c.imag,
                   d.real, d.imag, e.real, e.imag, f.real, f.imag, g.real,
                   g.imag, h.real, h.imag, "true" if degenerate else "false")
    # The trailing keys as json.dumps writes them, less the opening brace.
    return _SET_TEMPLATES[len(s.members)] % tuple(values) \
        + json.dumps(_trailing_keys(s))[1:]


def states_from_obj(obj, *, normalize: bool = False) -> list:
    """Extract a list of states from any of the JSON shapes the CLI emits.

    Accepts a bare list of states, an object with a ``"states"`` key, or a
    pair object with ``"first"``/``"second"`` keys.
    """
    if isinstance(obj, dict):
        if "states" in obj:
            obj = obj["states"]
        elif "first" in obj and "second" in obj:
            obj = [obj["first"], obj["second"]]
        else:
            raise QuantumStateError(
                "object form needs a 'states' key or 'first'/'second' keys")
    if not isinstance(obj, (list, tuple)) or len(obj) == 0:
        raise QuantumStateError("expected a non-empty list of states")
    if len(obj) == 4 and all(isinstance(x, (list, tuple)) and len(x) == 2
                             for x in obj):
        # A bare 4-amplitude state; treat as a one-state set.
        return [state_from_obj(obj, normalize=normalize)]
    return [state_from_obj(s, normalize=normalize) for s in obj]


def report_to_obj(r) -> dict:
    """Serialize a `VerificationReport`: its fields, in order, are the keys,
    and so are those of each `StateReport`."""
    return {**r._asdict(), "per_state": [p._asdict() for p in r.per_state]}
