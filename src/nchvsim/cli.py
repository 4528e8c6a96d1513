"""Command-line front end.

Phases are given in units of pi (0.5 means pi/2).  Exit codes: 0 on
success, 1 on usage errors, 2 on computation or validation errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

from .errors import SimulationError
from .montecarlo import NoiseModel
from .reports import (
    EXPRESSIONS,
    TESTS,
    RunConfig,
    json_text,
    render_report_text,
    replay,
    report_json_text,
    run_exp1_report,
    run_exp2_report,
    scan_csv_text,
    scan_phase,
    threshold_study,
)

# Default generator seed; fixed so that a bare invocation reproduces.
DEFAULT_SEED = 42

USAGE_EXIT = 1
COMPUTATION_EXIT = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; this package reserves 2
    for computation errors, so usage failures are remapped to 1."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern takes -1:1:25, -0.5,0.5 and -1e-3 for flags;
        # no flag here starts like a negative number, so every such token is a
        # value.  Subparsers are built from type(self) and inherit this.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

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


def _add_noise_flags(parser: argparse.ArgumentParser, pairs: str):
    parser.add_argument("--visibility", type=float, default=1.0,
                        help="interference contrast in [0, 1] (default 1)")
    parser.add_argument("--efficiency", type=float, default=1.0,
                        help="per-pair detection probability in (0, 1] (default 1)")
    parser.add_argument("--background", type=float, default=0.0,
                        help="uniform background fraction in [0, 1) (default 0)")
    parser.add_argument("--trials", type=int, default=10000,
                        help=f"{pairs} per setting (default 10000)")
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
    later call in the process; nothing modifies them after they are built.
    Each subparser's ``run`` default is its handler."""
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
    _add_noise_flags(scan, "pairs, emitted for exp1 and heralded for exp2,")
    scan.add_argument("--phi-b", type=_phase_list, default=(0.0,),
                      help="comma-separated fixed phi_b values, units of pi (default 0)")
    scan.add_argument("--phi-c", type=_phase_list, default=None,
                      help="comma-separated fixed phi_c values, units of pi "
                           "(exp1 default 0; forbidden for exp2)")
    scan.add_argument("--sweep", type=_sweep, default="-1:1:25",
                      help="phi_a sweep start:stop:steps, units of pi (default -1:1:25)")
    scan.add_argument("--out", help="CSV output path (default: stdout)")
    scan.add_argument("--config", help="JSON file with defaults for these flags")
    scan.set_defaults(run=_run_scan)

    for name, help_text, pairs in (
        ("exp1", "run the three-analyzer inequality report", "emitted pairs"),
        ("exp2", "run the event-ready CHSH report",
         "heralded pairs, each standing for about two emitted pairs,"),
    ):
        report = sub.add_parser(name, help=help_text)
        _add_noise_flags(report, pairs)
        _add_inequality_phase_flags(report, name)
        report.add_argument("--out", help="JSON report path")
        report.add_argument("--config", help="JSON file with defaults for these flags")
        report.set_defaults(run=_run_report)

    bound = sub.add_parser("nchv-bound", help="enumerate a classical bound")
    bound.add_argument("--expression", choices=sorted(EXPRESSIONS), required=True)
    bound.add_argument("--out", help="JSON output path")
    bound.set_defaults(run=_run_bound)

    threshold = sub.add_parser(
        "threshold", help="minimum visibility that still violates the bound"
    )
    threshold.add_argument("--expression", choices=sorted(EXPRESSIONS), required=True)
    threshold.add_argument("--resolution", type=float, default=1e-4,
                           help="visibility scan step (default 1e-4)")
    threshold.add_argument("--out", help="JSON output path")
    threshold.set_defaults(run=_run_threshold)

    rep = sub.add_parser(
        "replay", help="recompute derived quantities from measured correlations"
    )
    rep.add_argument("values_file",
                     help="CSV with header phi_a,phi_b,phi_c,E,sigma; phases in "
                          "units of pi, phi_c blank for event-ready rows")
    rep.add_argument("--out", help="JSON report path")
    rep.set_defaults(run=_run_report)

    return parser, dict(sub.choices)


def _config_defaults(parser: argparse.ArgumentParser, target: argparse.ArgumentParser,
                     command: str, path: str) -> dict:
    """Read a JSON config file into converted defaults for ``target``, the
    subparser of ``command``.

    Each value goes through its flag's own argparse ``type`` as
    ``str(value)``, and a flag without a ``type`` takes only a JSON string,
    so a config file obeys the rules of the command line.  Errors go
    through the top-level ``parser``."""
    if path == "":
        parser.error("--config needs a file path")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            values = json.load(handle)
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        parser.error(f"bad config file: {exc}")
    if not isinstance(values, dict):
        parser.error("config file must hold a JSON object")
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
    return defaults


def _noise_from_args(args) -> NoiseModel:
    return NoiseModel(args.visibility, args.efficiency, args.background)


def _run_scan(args) -> tuple[str | None, str]:
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
    text = scan_csv_text(rows)
    if args.out:
        return text, f"wrote {len(rows)} scan rows to {args.out}\n"
    return None, text


def _run_report(args) -> tuple[str | None, str]:
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
    return report_json_text(report) if args.out else None, render_report_text(report)


def _run_bound(args) -> tuple[str | None, str]:
    test = EXPRESSIONS[args.expression]
    payload = {
        "expression": args.expression,
        "classical_bound": test.bound,
        "assignments_enumerated": 2 ** test.grid.total_bits(),
    }
    return json_text(payload) if args.out else None, (
        f"{args.expression}: classical bound {test.bound:g} "
        f"({payload['assignments_enumerated']} assignments enumerated)\n"
    )


def _run_threshold(args) -> tuple[str | None, str]:
    result = threshold_study(args.expression, args.resolution)
    return json_text(result) if args.out else None, (
        f"{result['expression']}: violation requires visibility > "
        f"{result['threshold_visibility']:.4f} "
        f"(classical bound {result['classical_bound']:g}, resolution "
        f"{result['resolution']:g})\n"
    )


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand.  Its handler returns the ``--out`` text (None
    without ``--out``) and the stdout text, and only this function writes
    them, so a failed write exits 2 like a failed computation."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None) is not None:
        # Parse the subcommand's tokens again onto the config values: argparse
        # fills in only the defaults a namespace lacks, so explicit flags win.
        # The subparser is called directly because the top-level parse would
        # start it from a fresh namespace.
        target = subparsers[args.command]
        defaults = _config_defaults(parser, target, args.command, args.config)
        namespace = argparse.Namespace(command=args.command, **defaults)
        args = target.parse_args(argv[argv.index(args.command) + 1:], namespace)
    try:
        file_text, stdout_text = args.run(args)
        if file_text is not None:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(file_text)
        sys.stdout.write(stdout_text)
    except (SimulationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return COMPUTATION_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())
