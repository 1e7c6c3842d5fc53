"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 parse/config errors,
3 hypothesis violation (the ideal meets the parameter ring), 4 budget
exhaustion.  The one-shot commands run under the default ``Budgets`` of an
experiment sample, its deadline included.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .context import context as make_context
from .errors import (BudgetExceededError, ConfigError, HypothesisViolationError,
                     PolynomialSyntaxError, PrimespecError)
from .experiments import (Budgets, emit_report, read_experiment_config, run_experiment,
                          verify_report)
from .factor import factor_univariate
from .groebner import Ideal
from .orders import grevlex, lex
from .parse import (IDENTIFIER, NUMBER, parse_polynomial, parse_polynomial_lines,
                    read_ideal_file, source_lines)
from .primality import DEFAULT_TRIALS, is_prime
from .specialize import specialize_polynomial, specialize_scalar

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_HYPOTHESIS = 3
EXIT_BUDGET = 4


def _load_ideal(path) -> Ideal:
    ctx, gens = read_ideal_file(path)
    return Ideal(ctx, gens)


def _print_ideal(ideal: Ideal):
    if ideal.context.param_names:
        print("params:", ", ".join(ideal.context.param_names))
    print("vars:", ", ".join(ideal.context.var_names))
    print("gens:")
    if ideal.is_zero:
        print("0")
    for g in ideal.generators:
        print(g)


def _cmd_gb(args):
    ideal = _load_ideal(args.file)
    order = lex if args.order == "lex" else grevlex
    for p in ideal.groebner(order, Budgets().limits()):
        print(p.to_string(order))
    return EXIT_OK


def _cmd_dim(args):
    print(_load_ideal(args.file).dimension(Budgets().limits()))
    return EXIT_OK


def _cmd_prime(args):
    verdict = is_prime(_load_ideal(args.file), trials=args.trials, seed=args.seed,
                       limits=Budgets().limits())
    print(f"status: {verdict.status}")
    if verdict.certificate:
        f, g = verdict.certificate
        print(f"certificate f: {f}")
        print(f"certificate g: {g}")
    if verdict.status == "prime" and verdict.sections:
        field = verdict.sections[-1]
        print(f"U: ({', '.join(field.independent)})")
        print(f"u: ({', '.join(map(str, field.point))})")
        print(f"linear form: {field.linear_form}")
        print(f"minimal polynomial: {field.minimal_poly}")
    if verdict.reason:
        print(f"reason: {verdict.reason}")
    return EXIT_OK


def _cmd_factor(args):
    names = sorted(set(re.findall(IDENTIFIER, args.poly)))
    if len(names) > 1:
        raise ConfigError(f"factor expects a univariate polynomial, found variables {names}")
    ctx = make_context(tuple(names) or ("Y",))
    p = parse_polynomial(args.poly, ctx)
    unit, factors = factor_univariate(p, Budgets().limits())
    print(f"unit: {unit}")
    for factor, multiplicity in factors:
        print(f"factor: {factor}  multiplicity: {multiplicity}")
    return EXIT_OK


def _cmd_specialize(args):
    ideal = _load_ideal(args.file)
    if args.at is not None:
        values = tuple(part.strip() for part in args.at.split(","))
        if not all(re.fullmatch(rf"[-+]?{NUMBER}(/{NUMBER})?", part) for part in values):
            raise ConfigError(f"--at expects rationals such as -3 or 5/2, got {args.at!r}")
        result = specialize_scalar(ideal, tuple(map(Fraction, values)), Budgets().limits())
    else:
        y_ctx = ideal.context.without_params()
        with open(args.poly_at, "r", encoding="ascii") as handle:
            polys = parse_polynomial_lines(source_lines(handle.read()), y_ctx)
        result = specialize_polynomial(ideal, polys, Budgets().limits())
    _print_ideal(result)
    return EXIT_OK


def _cmd_experiment(args):
    config = read_experiment_config(args.config)
    report = run_experiment(config)
    aggregate = report["aggregate"]
    print(f"n={config.samples} good={aggregate['good']} bad={aggregate['bad']} "
          f"inconclusive={aggregate['inconclusive']} density={aggregate['density_exact']}",
          file=sys.stderr)
    if args.out:
        emit_report(report, "json", args.out)
    else:
        json.dump(report, sys.stdout, indent=2)
        print()
    if args.csv:
        emit_report(report, "csv", args.csv)
    return EXIT_OK


def _cmd_verify_report(args):
    with open(args.report, "r", encoding="ascii") as handle:
        report = json.load(handle)
    for message in verify_report(report):
        print(message)
    print("all checks confirmed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primespec",
        description="Exact specialization experiments on parametrized prime ideals over Q.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gb", help="print a reduced Groebner basis")
    p.add_argument("file")
    p.add_argument("--order", choices=("lex", "grevlex"), default="grevlex")
    p.set_defaults(func=_cmd_gb)

    p = sub.add_parser("dim", help="print the dimension of the quotient ring")
    p.add_argument("file")
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("prime", help="primality verdict for an ideal")
    p.add_argument("file")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_prime)

    p = sub.add_parser("factor", help="factor a univariate polynomial over Q")
    p.add_argument("poly")
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("specialize", help="specialize the parameters of an ideal")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--at", help="comma-separated rational values for T")
    group.add_argument("--poly-at", dest="poly_at",
                       help="file with one polynomial per line, one per parameter")
    p.set_defaults(func=_cmd_specialize)

    p = sub.add_parser("experiment", help="run a sampling experiment from a config file")
    p.add_argument("config")
    p.add_argument("--out", "-o", help="write the JSON report here instead of stdout")
    p.add_argument("--csv", help="also write a CSV report here")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("verify-report", help="re-run every sample of a report and compare it with its record")
    p.add_argument("report")
    p.set_defaults(func=_cmd_verify_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HypothesisViolationError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (ConfigError, PolynomialSyntaxError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PrimespecError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
