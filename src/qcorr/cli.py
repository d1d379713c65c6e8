"""Command-line surface: classify, counterparts, complexity, simulate,
speedup.  Every subcommand prints a single JSON document on stdout.

Exit codes: 0 success, 2 malformed input, 3 non-unitary matrix, 4 size limit
exceeded.  QCORR_TOL overrides the default tolerance; an explicit --tol flag
wins over the environment.  A negative, infinite or NaN tolerance exits 2,
as does a ``simulate`` tolerance too tight for the simulation's own checks.
No NaN or infinity is ever printed.

The problems (``--problem``) and the named classical oracles (``complexity
--oracle``) are the keys of ``querylab.PROBLEMS`` and ``querylab.ORACLES``;
an oracle used on a problem it is not defined on exits 2.  ``extracted:WORD``
uses the standard oracle's counterpart under that basis word instead.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .matrixcore import (
    DEFAULT_TOL,
    NonUnitaryError,
    SizeLimitError,
    cycle_notation,
    matrix_from_json,
    num_bits,
)
from .oracleforge import (
    BooleanFunction,
    BVInstance,
    bv_function,
    phase_oracle,
    standard_oracle,
)
from .correspondence import (
    CosetId,
    PauliGrid,
    RandomSample,
    _check_space,
    _counterparts,
    classify_triple,
    makhlin_invariants,
    parse_basis_word,
)
from . import querylab

_COSET_ORDER = list(CosetId)


def _resolve_tol(args) -> float:
    """--tol, else QCORR_TOL, else the default; a negative, infinite or NaN
    value is malformed input."""
    if args.tol is not None:
        tol, source = args.tol, "--tol"
    elif (env := os.environ.get("QCORR_TOL")) is not None:
        try:
            tol, source = float(env), "QCORR_TOL"
        except ValueError:
            raise ValueError(f"QCORR_TOL is not a number: {env!r}") from None
    else:
        return DEFAULT_TOL
    if not tol >= 0.0:
        raise ValueError(f"{source} must be a number >= 0, got {tol!r}")
    if math.isinf(tol):
        raise ValueError(f"{source} must be finite, got {tol!r}")
    return tol


def _load_json_file(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc


def _check_bits(text: str, flag: str) -> None:
    if not text or not set(text) <= {"0", "1"}:
        raise ValueError(f"{flag} must be a nonempty string of 0s and 1s, got {text!r}")


def _parse_bits(text: str, flag: str) -> tuple[int, ...]:
    _check_bits(text, flag)
    return tuple(map(int, text))


def _cc_class_names(cc) -> list[str]:
    return [rep.name for rep in _COSET_ORDER if rep in cc]


def cmd_classify(args) -> dict:
    tol = _resolve_tol(args)
    mat = matrix_from_json(_load_json_file(args.matrix))
    if mat.shape != (4, 4):
        raise ValueError(f"classify needs a 4x4 matrix, got {mat.shape[0]}x{mat.shape[1]}")
    triple = makhlin_invariants(mat, tol)
    warnings = []
    if abs(triple.gamma_imag) >= tol:
        warnings.append(
            f"gamma has imaginary part {triple.gamma_imag:.3e} at or above tolerance"
        )
    return {
        "alpha": triple.alpha,
        "beta": triple.beta,
        "gamma": triple.gamma,
        "cc_class": _cc_class_names(classify_triple(triple, tol)),
        "warnings": warnings,
    }


def _oracle_input(args):
    """(m, build): the named oracle's qubit count, from its file, and its builder."""
    if args.function is not None and (args.bv is not None or args.oracle == "phase"):
        raise ValueError("--function goes with a standard oracle and no --bv")
    if args.oracle == "standard":
        if args.function:
            f = BooleanFunction.from_json(_load_json_file(args.function))
            return f.n + 1, lambda: standard_oracle(f)
        if args.bv:
            inst = BVInstance.from_json(_load_json_file(args.bv))
            return inst.n + 1, lambda: standard_oracle(bv_function(inst))
        raise ValueError("standard oracle needs --function or --bv")
    if args.bv is None:
        raise ValueError("phase oracle needs --bv")
    inst = BVInstance.from_json(_load_json_file(args.bv))
    return inst.n, lambda: phase_oracle(inst)


def _parse_space(text: str, m: int):
    if text.upper() == "GRID":
        return PauliGrid()
    if text.lower().startswith("random:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"random space must look like random:COUNT:SEED, got {text!r}")
        numbers = []
        for field, part in zip(("COUNT", "SEED"), parts[1:]):
            try:
                numbers.append(int(part))
            except ValueError:
                raise ValueError(f"random space {field} must be an integer, got {part!r}") from None
        count, seed = numbers
        if count < 1:
            raise ValueError(f"random space needs a COUNT of at least 1, got {text!r}")
        return RandomSample(count, seed)
    return parse_basis_word(text, m)


def cmd_counterparts(args) -> list:
    tol = _resolve_tol(args)
    m, build = _oracle_input(args)
    space = _parse_space(args.bases, m)
    _check_space(space, m)  # before the 2^m entries of the oracle are built
    return [
        {
            "bases": name,
            "perm": cycle_notation(gp._perm.tolist()),
            "phases_present": bool((np.abs(gp._phases - 1.0) > tol).any()),
        }
        for name, _, gp in _counterparts(build(), space, tol)
    ]


def cmd_complexity(args) -> dict:
    tol = _resolve_tol(args)
    problem = querylab.PROBLEMS[args.problem][0](args.n)
    if args.oracle.startswith("extracted:"):
        bases = parse_basis_word(args.oracle.split(":", 1)[1], problem.n + 1)
        fam = querylab.family_extracted(problem, bases, tol)
        if fam is None:
            raise ValueError("extraction fails for some hypothesis under those bases")
    else:
        fam = querylab.named_family(problem, args.oracle)
    depth = querylab.deterministic_query_complexity(problem, fam)
    return {"queries": None if math.isinf(depth) else int(depth)}


def _checked_run(run, instance, tol: float):
    """The quantum run's result; its checks hold at the default tolerance, so
    one that fails means a tolerance too tight to meet: malformed input."""
    try:
        return run(instance, tol=tol)
    except RuntimeError as exc:
        raise ValueError(f"simulation check failed at tolerance {tol!r}: {exc}") from None


def cmd_simulate(args) -> dict:
    tol = _resolve_tol(args)
    if args.algorithm == "bv":
        if args.function is not None or args.truth is not None:
            raise ValueError("bv simulation takes --k and --k0, not --function or --truth")
        if args.k is None:
            raise ValueError("bv simulation needs --k")
        k = _parse_bits(args.k, "--k")
        n = args.n if args.n is not None else len(k)
        if n != len(k):
            raise ValueError(f"--n {n} does not match --k length {len(k)}")
        inst = BVInstance(n, 0 if args.k0 is None else args.k0, k)
        recovered, queries = _checked_run(querylab.run_bv_quantum, inst, tol)
        return {"k": "".join(str(b) for b in recovered), "queries": queries}
    if args.k is not None or args.k0 is not None:
        raise ValueError("parity simulation takes --function or --truth, not --k or --k0")
    if args.function is not None and args.truth is not None:
        raise ValueError("parity simulation takes --function or --truth, not both")
    f = None
    if args.function:
        f = BooleanFunction.from_json(_load_json_file(args.function))
        n = f.n
    elif args.truth:
        _check_bits(args.truth, "--truth")
        try:
            n = num_bits(len(args.truth))
        except ValueError as exc:
            raise ValueError(f"--truth length: {exc}") from None
    else:
        raise ValueError("parity simulation needs --function or --truth")
    if args.n is not None and args.n != n:
        raise ValueError(f"--n {args.n} does not match the truth table's n={n}")
    # An over-limit --truth is refused before its tuple and function are built.
    querylab.check_simulation_size("parity", n, querylab.PARITY_SIMULATION_LIMIT)
    if f is None:
        f = BooleanFunction(n, tuple(map(int, args.truth)))
    parity, queries = _checked_run(querylab.run_parity_quantum, f, tol)
    return {"parity": parity, "queries": queries}


def cmd_speedup(args) -> dict:
    tol = _resolve_tol(args)
    problem = querylab.PROBLEMS[args.problem][0](args.n)
    report = querylab.speedup_report(problem, tol=tol)
    return report.as_dict()


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="qcorr",
        description="Classical counterparts of quantum oracles and query-complexity audits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--tol", type=float, default=None, help="tolerance (default 1e-9, or QCORR_TOL)")
        p.add_argument("--pretty", action="store_true", help="indent the JSON output")

    p = sub.add_parser("classify", help="two-qubit invariants and counterpart class")
    p.add_argument("--matrix", required=True, help="JSON matrix file")
    add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("counterparts", help="search basis assignments for classical counterparts")
    p.add_argument("--oracle", required=True, choices=["standard", "phase"])
    p.add_argument("--function", help="JSON truth-table file")
    p.add_argument("--bv", help="JSON promise-instance file")
    p.add_argument("--bases", required=True, help="GRID, a C/H word, or random:COUNT:SEED")
    add_common(p)
    p.set_defaults(func=cmd_counterparts)

    p = sub.add_parser("complexity", help="exact deterministic query count")
    p.add_argument("--problem", required=True, choices=list(querylab.PROBLEMS))
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--oracle", required=True,
                   help=", ".join(querylab.ORACLES) + ", or extracted:WORD")
    add_common(p)
    p.set_defaults(func=cmd_complexity)

    p = sub.add_parser("simulate", help="run the quantum algorithm and count queries")
    p.add_argument("--algorithm", required=True, choices=["bv", "parity"])
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", help="hidden bit string for bv")
    p.add_argument("--k0", type=int, default=None, choices=[0, 1], help="k0 for bv (default 0)")
    p.add_argument("--function", help="JSON truth-table file for parity")
    p.add_argument("--truth", help="inline truth table bits for parity")
    add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("speedup", help="full genuine-speed-up report")
    p.add_argument("--problem", required=True, choices=list(querylab.PROBLEMS))
    p.add_argument("--n", required=True, type=int)
    add_common(p)
    p.set_defaults(func=cmd_speedup)

    return parser


def _floats(obj):
    """Every float in a result, in lists and dict values at any depth."""
    if isinstance(obj, float):
        yield obj
    elif isinstance(obj, (dict, list, tuple)):
        for value in obj.values() if isinstance(obj, dict) else obj:
            yield from _floats(value)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.func(args)
    except NonUnitaryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Written as it is encoded, never whole: a NaN or infinity is refused first.
    if not all(map(math.isfinite, _floats(result))):
        raise ValueError("Out of range float values are not JSON compliant")
    json.dump(result, sys.stdout, indent=2 if args.pretty else None, allow_nan=False)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
