"""Command-line front end: six subcommands, each named with its help and
arguments in ``_COMMANDS``.  All structured output is deterministic JSON
(17-significant-digit floats); sweeps emit CSV.  Exit codes: 0 positive
outcome, 1 negative outcome (infeasible / decohering / synth refused), 2
input or usage error, 3 an ``Undetermined`` check.  Configuration is
explicit: flags only, no environment variables.
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
    """Run one subcommand and write its outcome: its document, rendered whole,
    to ``--out`` or stdout, or else one ``error:`` line to stderr."""
    args = _build_parser().parse_args(argv)
    try:
        code, document = args.func(args)
        from . import serialize

        text = document if isinstance(document, str) else serialize.dumps(document)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return code
    except (DetchanError, OSError, ValueError, KeyError, TypeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # synth refusing a pair that is not Feasible is its negative outcome.
        return 1 if args.command == "synth" and isinstance(exc, NotFeasibleError) else 2


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
    for name, (help_text, command, *arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for argument in (*arguments, "--out"):
            p.add_argument(argument, **_ARGUMENTS[argument])
        p.set_defaults(func=command)
    return parser


#: Every positional and flag of every subcommand, defined once: the keywords
#: its ``add_argument`` call takes.  ``_COMMANDS`` names those a subcommand reads.
_ARGUMENTS = {
    "initial": dict(help="initial state-set JSON file"),
    "final": dict(help="final state-set JSON file"),
    "kraus": dict(help="Kraus-set JSON file"),
    "state": dict(help="single-state StateSet JSON or density-matrix JSON"),
    "template": dict(help="template JSON with expressions in the parameter"),
    "dimension": dict(type=int),
    "n_states": dict(type=int),
    "--coeffs": dict(
        required=True,
        help="comma-separated superposition coefficients (python complex "
        "literals, e.g. '1,1' or '0.5+0.5j,1'); at least two nonzero",
    ),
    "--param": dict(default="theta", help="parameter name (default theta)"),
    "--start": dict(type=float, required=True),
    "--stop": dict(type=float, required=True),
    "--steps": dict(type=int, required=True, help="grid size (>= 2)"),
    "--mode": dict(default="generic", choices=("generic", "independent", "unitary_image")),
    "--base": dict(help="base state-set JSON (unitary_image mode)"),
    "--tol": dict(type=float, default=DEFAULT_TOL),
    "--purity-tol": dict(type=float, default=DEFAULT_PURITY_TOL),
    "--seed": dict(type=int, default=0),
    "--out": dict(help="write output to this file instead of stdout"),
}


def _load_state_sets(*paths) -> tuple[StateSet, ...]:
    from . import serialize

    return tuple(serialize.state_set_from_obj(serialize.load_document(path)) for path in paths)


def _cmd_check(args) -> tuple[int, object]:
    from . import serialize

    initial, final = _load_state_sets(args.initial, args.final)
    report = feasibility_check(initial, final, args.tol)
    return _EXIT_BY_VERDICT.get(report.verdict, 3), serialize.feasibility_report_to_obj(report)


def _cmd_synth(args) -> tuple[int, object]:
    from . import serialize
    from .synthesis import _pure_output, synthesize, verify_completeness

    initial, final = _load_state_sets(args.initial, args.final)
    ks = synthesize(initial, final, args.tol)
    obj = serialize.kraus_set_to_obj(ks)
    # Per state, from the amplitudes B (column k is A_k psi1) and rho = B B^dag:
    # the fidelity <psi2|rho|psi2> and sum_k |c_k|^2 over c_k = <psi2|A_k|psi1>.
    records = []
    for j, (psi1, psi2) in enumerate(zip(initial.states, final.states)):
        b, rho = _pure_output(ks, psi1)
        records.append({
            "index": j,
            "fidelity": float(np.real(psi2.conj() @ rho @ psi2)),
            "total_probability": float(np.sum(np.abs(psi2.conj() @ b) ** 2)),
        })
    obj["verification"] = {
        "kraus_count": ks.kraus_count,
        "completeness_residual": verify_completeness(ks),
        "states": records,
    }
    return 0, obj


def _cmd_apply(args) -> tuple[int, object]:
    from . import serialize
    from .synthesis import _pure_output, apply_channel, purity, validate_density

    ks = serialize.kraus_set_from_obj(serialize.load_document(args.kraus))
    doc = serialize.load_document(args.state)
    if isinstance(doc, dict) and "states" in doc:
        state_set = serialize.state_set_from_obj(doc)
        if state_set.n != 1:
            raise SchemaError(f"apply expects a single state, got {state_set.n}")
        out = _pure_output(ks, state_set.states[0])[1]
    elif isinstance(doc, dict) and "matrix" in doc:
        out = apply_channel(ks, validate_density(serialize.density_from_obj(doc)))
    else:
        raise SchemaError("input must be a StateSet or density-matrix document")
    obj = serialize.density_to_obj(out)
    obj["purity"] = purity(out)
    return 0, obj


def _cmd_coherence(args) -> tuple[int, object]:
    from . import serialize
    from .coherence import UNITARY_RELATED, coherence_roundtrip

    initial, final = _load_state_sets(args.initial, args.final)
    try:
        coeffs = [complex(tok.strip()) for tok in args.coeffs.split(",")]
    except ValueError as exc:
        raise SchemaError(f"unparseable coefficient list {args.coeffs!r}: {exc}") from exc
    rec = coherence_roundtrip(initial, final, coeffs, args.tol, purity_tol=args.purity_tol)
    code = 0 if (rec.agree and rec.test.verdict == UNITARY_RELATED) else 1
    return code, serialize.roundtrip_to_obj(rec)


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
    is ever evaluated.  A bare number is read as that literal: a finite double.
    """
    try:
        if isinstance(value, str):
            return _compile_node(ast.parse(value, mode="eval").body, param)
        # JSON true/false load as bool, a subclass of int; they are not numbers.
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return _compile_node(ast.Constant(value), param)
    # The parser reports nesting too deep for it as MemoryError.
    except (SyntaxError, ValueError, OverflowError, RecursionError, MemoryError) as exc:
        raise SchemaError(f"bad template expression {value!r}: {exc}") from exc
    raise SchemaError(f"template amplitude component must be a number or string, got {value!r}")


def _compile_node(node, param: str):
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        constant = float(node.value)  # OverflowError for an integer past the doubles
        if not math.isfinite(constant):
            raise ValueError(f"number {node.value!r} is not a finite double")
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


def _cmd_sweep(args) -> tuple[int, object]:
    from . import serialize
    from .synthesis import _pure_output, _synthesize_from, purity

    if args.steps < 2:
        raise SchemaError(f"sweep needs at least 2 steps, got {args.steps}")
    for flag, value in (("--start", args.start), ("--stop", args.stop)):
        if not math.isfinite(value):
            raise SchemaError(f"sweep {flag} must be finite, got {value!r}")
    if not math.isfinite(args.stop - args.start):
        raise SchemaError(f"sweep range {args.start!r} to {args.stop!r} overflows a double")
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
        report, pair = _check(initial, final, args.tol, build=True)
        m = report.ratio_matrix
        upper = m.entries[np.triu(m.defined, 1)]  # m is Hermitian: this holds every |mu|
        max_mu = float(np.max(np.abs(upper))) if upper.size else None
        uniform_purity = None
        if report.verdict == FEASIBLE:
            ks = _synthesize_from(report, pair, initial, final, args.tol)
            vec, _ = superpose(initial, np.ones(initial.n), args.tol)
            uniform_purity = purity(_pure_output(ks, vec)[1])
        cells = [cell(theta), cell(report.min_eigenvalue), report.verdict]
        cells += [cell(max_mu), cell(uniform_purity)]
        rows.append(",".join(cells))
    return 0, "\n".join(rows) + "\n"


def _cmd_gen(args) -> tuple[int, object]:
    from . import serialize

    base = _load_state_sets(args.base)[0] if args.base else None
    s = random_state_set(
        args.dimension, args.n_states, args.seed, mode=args.mode, base=base
    )
    return 0, serialize.state_set_to_obj(s)


#: Per subcommand: its help, the function that runs it, and the arguments
#: it reads besides ``--out``, in usage order.
_COMMANDS = {
    "check": ("feasibility verdict for a state-set pair", _cmd_check, "initial", "final", "--tol"),
    "synth": ("synthesize Kraus operators for a feasible pair",
              _cmd_synth, "initial", "final", "--tol"),
    "apply": ("apply a Kraus channel to a state or density matrix", _cmd_apply, "kraus", "state"),
    "coherence": ("purity probe plus unitary-relation test",
                  _cmd_coherence, "initial", "final", "--coeffs", "--tol", "--purity-tol"),
    "sweep": ("one-parameter family of instances to CSV",
              _cmd_sweep, "template", "--param", "--start", "--stop", "--steps", "--tol"),
    "gen": ("seeded random state set",
            _cmd_gen, "dimension", "n_states", "--mode", "--base", "--seed"),
}

if __name__ == "__main__":
    sys.exit(main())
