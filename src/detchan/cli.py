"""Command-line front end.

Subcommands: ``check`` (feasibility verdict), ``synth`` (Kraus synthesis),
``apply`` (channel application), ``coherence`` (purity probe + unitary
test), ``sweep`` (one-parameter family to CSV) and ``gen`` (seeded random
state sets).  All structured output is deterministic JSON (17-significant-
digit floats); sweeps emit CSV.  Exit codes: 0 positive outcome, 1
negative outcome (infeasible / decohering), 2 input or usage error,
3 an ``Undetermined`` check.  Configuration is explicit: flags only, no
environment variables.
"""

from __future__ import annotations

import ast
import functools
import math
import operator
import sys
from typing import TYPE_CHECKING

import numpy as np

from .errors import DetchanError, NotFeasibleError, SchemaError
from .feasibility import FEASIBLE, INFEASIBLE, _check, feasibility_check
from .numerics import DEFAULT_PURITY_TOL, DEFAULT_TOL
from .states import StateSet, random_state_set, superpose

if TYPE_CHECKING:
    import argparse

# serialize, synthesis and coherence are imported inside the commands that
# use them, so a fresh process loads only what its first call runs.

_EXIT_BY_VERDICT = {FEASIBLE: 0, INFEASIBLE: 1}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DetchanError, OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first ``main`` call and kept for
    the process: ``parse_args`` returns a fresh namespace each call and
    leaves the parser unchanged, and every default is immutable."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="detchan",
        description="Deterministic transformations between pure-state sets: "
        "feasibility, Kraus synthesis, coherence analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="feasibility verdict for a state-set pair")
    p.add_argument("initial", help="initial state-set JSON file")
    p.add_argument("final", help="final state-set JSON file")
    _add_flags(p, "tol")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("synth", help="synthesize Kraus operators for a feasible pair")
    p.add_argument("initial")
    p.add_argument("final")
    _add_flags(p, "tol")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("apply", help="apply a Kraus channel to a state or density matrix")
    p.add_argument("kraus", help="Kraus-set JSON file")
    p.add_argument("state", help="single-state StateSet JSON or density-matrix JSON")
    _add_flags(p)
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("coherence", help="purity probe plus unitary-relation test")
    p.add_argument("initial")
    p.add_argument("final")
    p.add_argument(
        "--coeffs",
        required=True,
        help="comma-separated superposition coefficients (python complex "
        "literals, e.g. '1,1' or '0.5+0.5j,1'); at least two nonzero",
    )
    _add_flags(p, "tol", "purity-tol")
    p.set_defaults(func=_cmd_coherence)

    p = sub.add_parser("sweep", help="one-parameter family of instances to CSV")
    p.add_argument("template", help="template JSON with expressions in the parameter")
    p.add_argument("--param", default="theta", help="parameter name (default theta)")
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--steps", type=int, required=True, help="grid size (>= 2)")
    _add_flags(p, "tol")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("gen", help="seeded random state set")
    p.add_argument("dimension", type=int)
    p.add_argument("n_states", type=int)
    p.add_argument("--mode", default="generic", choices=["generic", "independent", "unitary_image"])
    p.add_argument("--base", help="base state-set JSON (unitary_image mode)")
    _add_flags(p, "seed")
    p.set_defaults(func=_cmd_gen)
    return parser


#: Optional flags by name; each subcommand takes only those it reads.
_FLAGS = {
    "tol": dict(type=float, default=DEFAULT_TOL),
    "purity-tol": dict(type=float, default=DEFAULT_PURITY_TOL),
    "seed": dict(type=int, default=0),
}


def _add_flags(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        p.add_argument(f"--{name}", **_FLAGS[name])
    p.add_argument("--out", help="write output to this file instead of stdout")


def _load_state_set(path) -> StateSet:
    from . import serialize

    return serialize.state_set_from_obj(serialize.load_document(path))


def _write(text: str, out_path) -> None:
    # The document is fully rendered before any write, so failures never
    # leave a partial file behind.
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_check(args) -> int:
    from . import serialize

    initial = _load_state_set(args.initial)
    final = _load_state_set(args.final)
    report = feasibility_check(initial, final, args.tol)
    _write(serialize.dumps(serialize.feasibility_report_to_obj(report)), args.out)
    return _EXIT_BY_VERDICT.get(report.verdict, 3)


def _cmd_synth(args) -> int:
    from . import serialize
    from .synthesis import synthesize, transform_report, verify_completeness

    initial = _load_state_set(args.initial)
    final = _load_state_set(args.final)
    try:
        ks = synthesize(initial, final, args.tol)
    except NotFeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    obj = serialize.kraus_set_to_obj(ks)
    obj["verification"] = {
        "kraus_count": ks.kraus_count,
        "completeness_residual": verify_completeness(ks),
        "states": [
            {
                "index": rec.index,
                "fidelity": rec.fidelity,
                "total_probability": rec.total_probability,
            }
            for rec in transform_report(ks, initial, final)
        ],
    }
    _write(serialize.dumps(obj), args.out)
    return 0


def _cmd_apply(args) -> int:
    from . import serialize
    from .coherence import purity
    from .synthesis import apply_channel, state_to_density, validate_density

    ks = serialize.kraus_set_from_obj(serialize.load_document(args.kraus))
    doc = serialize.load_document(args.state)
    if isinstance(doc, dict) and "states" in doc:
        state_set = serialize.state_set_from_obj(doc)
        if state_set.n != 1:
            raise SchemaError(f"apply expects a single state, got {state_set.n}")
        rho = state_to_density(state_set.states[0])
    elif isinstance(doc, dict) and "matrix" in doc:
        rho = validate_density(serialize.density_from_obj(doc))
    else:
        raise SchemaError("input must be a StateSet or density-matrix document")
    out = apply_channel(ks, rho)
    obj = serialize.density_to_obj(out)
    obj["purity"] = purity(out)
    _write(serialize.dumps(obj), args.out)
    return 0


def _cmd_coherence(args) -> int:
    from . import serialize
    from .coherence import UNITARY_RELATED, coherence_roundtrip

    initial = _load_state_set(args.initial)
    final = _load_state_set(args.final)
    try:
        coeffs = [complex(tok.strip()) for tok in args.coeffs.split(",")]
    except ValueError as exc:
        raise SchemaError(f"unparseable coefficient list {args.coeffs!r}: {exc}") from exc
    if len(coeffs) != initial.n:
        raise SchemaError(f"{len(coeffs)} coefficients for {initial.n} states")
    if sum(1 for c in coeffs if c != 0) < 2:
        raise SchemaError("need at least two nonzero coefficients")
    rec = coherence_roundtrip(initial, final, coeffs, args.tol, purity_tol=args.purity_tol)
    _write(serialize.dumps(serialize.roundtrip_to_obj(rec)), args.out)
    return 0 if (rec.agree and rec.test.verdict == UNITARY_RELATED) else 1


_TEMPLATE_FUNCTIONS = {
    "cos": math.cos,
    "sin": math.sin,
    "tan": math.tan,
    "sqrt": math.sqrt,
    "exp": math.exp,
}
_BINARY_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
}
_UNARY_OPS = {ast.UAdd: operator.pos, ast.USub: operator.neg}


def _compile_component(value, param: str):
    """Template amplitude component as a function of the parameter.

    Strings are parsed once into a tree of float operations.  Only number
    literals, ``+ - * / **``, unary signs, the parameter, ``pi`` and
    one-argument calls to the functions above are accepted; nothing else
    is ever evaluated.  A number, bare or literal, must fit a double.
    """
    try:
        # JSON true/false load as bool, a subclass of int; they are not numbers.
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            constant = float(value)
            return lambda theta: constant
        if isinstance(value, str):
            return _compile_node(ast.parse(value, mode="eval").body, param)
    # The parser reports nesting too deep for it as MemoryError.
    except (SyntaxError, ValueError, OverflowError, RecursionError, MemoryError) as exc:
        raise SchemaError(f"bad template expression {value!r}: {exc}") from exc
    raise SchemaError(f"template amplitude component must be a number or string, got {value!r}")


def _compile_node(node, param: str):
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        constant = float(node.value)
        return lambda theta: constant
    if isinstance(node, ast.Name) and node.id == param:
        return lambda theta: theta
    if isinstance(node, ast.Name) and node.id == "pi":
        return lambda theta: math.pi
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY_OPS:
        op = _BINARY_OPS[type(node.op)]
        left, right = _compile_node(node.left, param), _compile_node(node.right, param)
        return lambda theta: op(left(theta), right(theta))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY_OPS:
        op, operand = _UNARY_OPS[type(node.op)], _compile_node(node.operand, param)
        return lambda theta: op(operand(theta))
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _TEMPLATE_FUNCTIONS
        and len(node.args) == 1
        and not node.keywords
    ):
        fn, arg = _TEMPLATE_FUNCTIONS[node.func.id], _compile_node(node.args[0], param)
        return lambda theta: fn(arg(theta))
    raise ValueError(f"unsupported syntax {ast.unparse(node)!r}")


def _compile_template(entries, param: str):
    """Per state, per amplitude: (real, imaginary) component functions."""
    if not isinstance(entries, list) or not entries:
        raise SchemaError("template state list must be a non-empty list")
    if not all(isinstance(state, list) and all(isinstance(pair, list) and len(pair) == 2
                                               for pair in state) for state in entries):
        raise SchemaError("template states must be lists of [re, im] pairs")
    return [
        [
            (_compile_component(pair[0], param), _compile_component(pair[1], param))
            for pair in state
        ]
        for state in entries
    ]


def _template_state_set(compiled, theta: float) -> StateSet:
    try:
        vectors = [
            [complex(float(re(theta)), float(im(theta))) for re, im in state]
            for state in compiled
        ]
    except (ArithmeticError, ValueError, TypeError, RecursionError) as exc:
        raise SchemaError(f"template expression failed at {theta!r}: {exc}") from exc
    return StateSet.from_vectors(vectors, normalize=True)


def _cmd_sweep(args) -> int:
    from . import serialize
    from .coherence import purity
    from .synthesis import _synthesize_from, apply_channel, state_to_density

    if args.steps < 2:
        raise SchemaError(f"sweep needs at least 2 steps, got {args.steps}")
    doc = serialize.load_document(args.template)
    if not isinstance(doc, dict) or "initial" not in doc or "final" not in doc:
        raise SchemaError("template needs 'initial' and 'final' state lists")
    initial_template = _compile_template(doc["initial"], args.param)
    final_template = _compile_template(doc["final"], args.param)

    def cell(x) -> str:
        """A CSV cell: the float with 17 significant digits, empty for None."""
        return "" if x is None else serialize.format_float(x)

    rows = ["theta,min_eigenvalue,verdict,max_abs_mu,uniform_purity"]
    for theta in np.linspace(args.start, args.stop, args.steps):
        theta = float(theta)
        initial = _template_state_set(initial_template, theta)
        final = _template_state_set(final_template, theta)
        report = _check(initial, final, args.tol, build=True)
        m = report.ratio_matrix
        offdiag = np.array(m.defined)
        np.fill_diagonal(offdiag, False)
        max_mu = float(np.max(np.abs(m.entries[offdiag]))) if np.any(offdiag) else None
        uniform_purity = None
        if report.verdict == FEASIBLE:
            ks = _synthesize_from(report, initial, final, args.tol)
            vec, _ = superpose(initial, np.ones(initial.n), args.tol)
            uniform_purity = purity(apply_channel(ks, state_to_density(vec)))
        cells = [cell(theta), cell(report.min_eigenvalue), report.verdict]
        cells += [cell(max_mu), cell(uniform_purity)]
        rows.append(",".join(cells))
    _write("\n".join(rows) + "\n", args.out)
    return 0


def _cmd_gen(args) -> int:
    from . import serialize

    base = _load_state_set(args.base) if args.base else None
    s = random_state_set(
        args.dimension, args.n_states, args.seed, mode=args.mode, base=base
    )
    _write(serialize.dumps(serialize.state_set_to_obj(s)), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
