"""Command-line front end.

Phases are given in units of pi (0.5 means pi/2).  Exit codes: 0 on
success, 1 on usage errors, 2 on computation or validation errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .errors import SimulationError
from .montecarlo import NoiseModel
from .reports import (
    EXPRESSIONS,
    TESTS,
    RunConfig,
    render_report_text,
    replay,
    run_exp1_report,
    run_exp2_report,
    scan_csv_text,
    scan_phase,
    threshold_study,
    write_report_json,
    write_scan_csv,
)

# Default generator seed; fixed so that a bare invocation reproduces.
DEFAULT_SEED = 42

USAGE_EXIT = 1
COMPUTATION_EXIT = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; this package reserves 2
    for computation errors, so usage failures are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _phase_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) * math.pi for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad phase list {text!r}") from None


def _sweep(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"sweep must be start:stop:steps, got {text!r}"
        )
    try:
        start, stop = float(parts[0]) * math.pi, float(parts[1]) * math.pi
        steps = int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad sweep {text!r}") from None
    return start, stop, steps


def _add_noise_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--visibility", type=float, default=1.0,
                        help="interference contrast in [0, 1] (default 1)")
    parser.add_argument("--efficiency", type=float, default=1.0,
                        help="per-pair detection probability in (0, 1] (default 1)")
    parser.add_argument("--background", type=float, default=0.0,
                        help="uniform background fraction in [0, 1) (default 0)")
    parser.add_argument("--trials", type=int, default=10000,
                        help="emitted pairs per setting (default 10000)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"generator seed (default {DEFAULT_SEED})")


def _add_inequality_phase_flags(parser: argparse.ArgumentParser, experiment: str):
    a, ap = TESTS[experiment].ideal
    parser.add_argument("--phi-a", type=float, default=a,
                        help=f"first beam-splitter phase, units of pi (default {a})")
    parser.add_argument("--phi-a-prime", type=float, default=ap,
                        help=f"second beam-splitter phase, units of pi (default {ap})")


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and its subparsers, built on first use and shared by every
    later call in the process; callers must leave its defaults as they found
    them."""
    parser = _Parser(
        prog="nchvsim",
        description=(
            "Simulate two linked interferometric tests of noncontextual "
            "hidden-variable models and analyze the resulting correlations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="sweep phi_a and write a fringe CSV")
    scan.add_argument("--experiment", choices=("exp1", "exp2"), required=True)
    _add_noise_flags(scan)
    scan.add_argument("--phi-b", type=_phase_list, default=(0.0,),
                      help="comma-separated fixed phi_b values, units of pi (default 0)")
    scan.add_argument("--phi-c", type=_phase_list, default=None,
                      help="comma-separated fixed phi_c values, units of pi "
                           "(exp1 default 0; forbidden for exp2)")
    scan.add_argument("--sweep", type=_sweep, default="-1:1:25",
                      help="phi_a sweep start:stop:steps, units of pi (default -1:1:25)")
    scan.add_argument("--out", help="CSV output path (default: stdout)")
    scan.add_argument("--config", help="JSON file with defaults for these flags")

    exp1 = sub.add_parser("exp1", help="run the three-analyzer inequality report")
    _add_noise_flags(exp1)
    _add_inequality_phase_flags(exp1, "exp1")
    exp1.add_argument("--out", help="JSON report path")
    exp1.add_argument("--config", help="JSON file with defaults for these flags")

    exp2 = sub.add_parser("exp2", help="run the event-ready CHSH report")
    _add_noise_flags(exp2)
    _add_inequality_phase_flags(exp2, "exp2")
    exp2.add_argument("--out", help="JSON report path")
    exp2.add_argument("--config", help="JSON file with defaults for these flags")

    bound = sub.add_parser("nchv-bound", help="enumerate a classical bound")
    bound.add_argument("--expression", choices=sorted(EXPRESSIONS), required=True)
    bound.add_argument("--out", help="JSON output path")

    threshold = sub.add_parser(
        "threshold", help="minimum visibility that still violates the bound"
    )
    threshold.add_argument("--expression", choices=sorted(EXPRESSIONS), required=True)
    threshold.add_argument("--resolution", type=float, default=1e-4,
                           help="visibility scan step (default 1e-4)")
    threshold.add_argument("--out", help="JSON output path")

    rep = sub.add_parser(
        "replay", help="recompute derived quantities from measured correlations"
    )
    rep.add_argument("values_file",
                     help="CSV with header phi_a,phi_b,phi_c,E,sigma; phases in "
                          "units of pi, phi_c blank for event-ready rows")
    rep.add_argument("--out", help="JSON report path")

    return parser, {
        "scan": scan,
        "exp1": exp1,
        "exp2": exp2,
        "nchv-bound": bound,
        "threshold": threshold,
        "replay": rep,
    }


def _config_path(argv: list[str]) -> str | None:
    for index, token in enumerate(argv):
        if token == "--config":
            if index + 1 >= len(argv):
                return ""
            return argv[index + 1]
        if token.startswith("--config="):
            return token.split("=", 1)[1]
    return None


def _apply_config_file(
    parser: argparse.ArgumentParser,
    subparsers: dict[str, argparse.ArgumentParser],
    argv: list[str],
) -> tuple[argparse.ArgumentParser, dict]:
    """Read a JSON config file into defaults for the active subcommand.

    Returns the subparser and its converted defaults, or the top-level
    parser and no defaults when no ``--config`` is given.  Each value goes
    through its flag's own argparse ``type`` as ``str(value)``, and a flag
    without a ``type`` takes only a JSON string, so a config file obeys the
    rules of the command line.  Explicit flags still win
    because argparse applies them after defaults."""
    path = _config_path(argv)
    if path is None:
        return parser, {}
    if path == "":
        parser.error("--config needs a file path")
    command = next((token for token in argv if token in subparsers), None)
    if command is None:
        parser.error("--config requires a subcommand")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            values = json.load(handle)
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        parser.error(f"bad config file: {exc}")
    if not isinstance(values, dict):
        parser.error("config file must hold a JSON object")
    target = subparsers[command]
    actions = {action.dest: action for action in target._actions}
    defaults = {}
    for key, value in values.items():
        name = key.replace("-", "_")
        if name not in actions or name in ("help", "config"):
            parser.error(f"config key {key!r} is not a flag of {command!r}")
        convert = actions[name].type
        if convert is None:
            if not isinstance(value, str):
                parser.error(f"config key {key!r}: expected a JSON string, got {value!r}")
        else:
            try:
                value = convert(str(value))
            except (argparse.ArgumentTypeError, ValueError) as exc:
                parser.error(f"config key {key!r}: {exc}")
        defaults[name] = value
    return target, defaults


def _noise_from_args(args) -> NoiseModel:
    return NoiseModel(args.visibility, args.efficiency, args.background)


def _run_scan(args) -> int:
    phi_c = args.phi_c
    if phi_c is None:
        phi_c = (0.0,) if args.experiment == "exp1" else ()
    config = RunConfig(
        experiment=args.experiment,
        noise=_noise_from_args(args),
        trials_per_setting=args.trials,
        seed=args.seed,
        phi_a=0.0,
        phi_b_values=args.phi_b,
        phi_c_values=phi_c,
        sweep=args.sweep,
    )
    rows = scan_phase(config)
    if args.out:
        write_scan_csv(rows, args.out)
        print(f"wrote {len(rows)} scan rows to {args.out}")
    else:
        sys.stdout.write(scan_csv_text(rows))
    return 0


def _run_report(args) -> int:
    if args.command == "replay":
        report = replay(args.values_file)
    else:
        config = RunConfig(
            experiment=args.command,
            noise=_noise_from_args(args),
            trials_per_setting=args.trials,
            seed=args.seed,
            phi_a=args.phi_a * math.pi,
            phi_a_prime=args.phi_a_prime * math.pi,
        )
        run = run_exp1_report if args.command == "exp1" else run_exp2_report
        report = run(config)
    if args.out:
        write_report_json(report, args.out)
    sys.stdout.write(render_report_text(report))
    return 0


def _write_json(payload: dict, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _run_bound(args) -> int:
    test = EXPRESSIONS[args.expression]
    payload = {
        "expression": args.expression,
        "classical_bound": test.bound,
        "assignments_enumerated": 2 ** test.grid.total_bits(),
    }
    if args.out:
        _write_json(payload, args.out)
    print(
        f"{args.expression}: classical bound {test.bound:g} "
        f"({payload['assignments_enumerated']} assignments enumerated)"
    )
    return 0


def _run_threshold(args) -> int:
    result = threshold_study(args.expression, args.resolution)
    if args.out:
        _write_json(result, args.out)
    print(
        f"{result['expression']}: violation requires visibility > "
        f"{result['threshold_visibility']:.4f} "
        f"(classical bound {result['classical_bound']:g}, resolution "
        f"{result['resolution']:g})"
    )
    return 0


# Values of these flags may start with "-" (negative phases) without looking
# like plain negative numbers to argparse; fold them into --flag=value form.
_MERGED_VALUE_FLAGS = ("--sweep", "--phi-b", "--phi-c")


def _merge_flag_values(argv: list[str]) -> list[str]:
    merged = []
    skip = False
    for index, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if token in _MERGED_VALUE_FLAGS and index + 1 < len(argv):
            merged.append(f"{token}={argv[index + 1]}")
            skip = True
        else:
            merged.append(token)
    return merged


def main(argv: list[str] | None = None) -> int:
    argv = _merge_flag_values(list(sys.argv[1:] if argv is None else argv))
    parser, subparsers = build_parser()
    target, defaults = _apply_config_file(parser, subparsers, argv)
    saved = {name: target.get_default(name) for name in defaults}
    target.set_defaults(**defaults)
    try:
        args = parser.parse_args(argv)
    finally:
        target.set_defaults(**saved)
    handlers = {
        "scan": _run_scan,
        "exp1": _run_report,
        "exp2": _run_report,
        "nchv-bound": _run_bound,
        "threshold": _run_threshold,
        "replay": _run_report,
    }
    try:
        return handlers[args.command](args)
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return COMPUTATION_EXIT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return COMPUTATION_EXIT


if __name__ == "__main__":
    sys.exit(main())
