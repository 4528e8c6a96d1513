"""Benchmark of the nchvsim package.

Run from the repository root, which must hold ``src/nchvsim``:

    python3 bench/run.py --workload fringe-scan --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 36

Each workload (see BENCHMARK.json and workloads.py) is a closed loop: one
client in one process and one thread sends the next op when the previous
one has returned.  Inputs are generated from ``--seed``; every output is
checked, and an op that raises or fails a check counts as failed.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``ops_per_s``: ops completed per second of wall time spent in the
  package's calls (input generation and checks are not counted);
* ``op_p50_ms``, ``op_p90_ms``: median and 90th-percentile op latency,
  over at least 100 ops;
* ``setup_s``: median wall time, over fresh interpreters started before,
  between and after the passes, to ``import nchvsim`` and ``nchvsim.cli``;
* ``peak_rss_mb``: peak resident memory of the workload process;
* ``success_rate``: ops that passed every check over ops attempted, i.e.
  one minus the error rate.

The ops are timed in several passes (workloads.py): each later pass runs
a twin of every op, with the same cost and fresh inputs, and an op's
latency is the lowest of its passes.  On a shared machine, whose slow
spells last seconds, this drops most of the time lost to other tenants.

With ``--trace 1`` the run wraps every public function of each layer
module in a span tracer (tracing.py), reports per-layer metrics, and then
runs the same ops again untraced to measure the tracing overhead.

Every result, with the Python and numpy versions, the git revision, a
digest of the package source, ``nproc`` and the thread variables, is saved
under ``.bench_work/results`` and compared with the previous result of the
same workload and mode.  The last line of output is the result as JSON.
"""

from __future__ import annotations

import os

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_VARIABLES:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from datetime import datetime, timezone  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

LAYERS = ("hilbert", "experiment", "nchv", "montecarlo", "reports", "cli")
MIN_OPS = 100  # so that at least ten latencies lie beyond the 90th percentile
# Fresh interpreters timed for setup_s, spread over the pauses before,
# between and after the passes, so that the median spans the run's slow and
# fast spells.
SETUP_PROBES = 9
WARMUP_SECONDS = 1.0
TRACED_SHARE = 0.6  # of --seconds spent in the traced loop
MAX_REPORTED_PROBLEMS = 5

SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import nchvsim, nchvsim.cli
print(time.perf_counter() - start)
print(nchvsim.__file__)
"""


class Loop:
    """Latencies, failures and (optionally) specs of one closed loop."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0
        self.problems: list[str] = []
        self.specs: list = []
        self.first = None  # (spec, output bytes) of the first op

    def record(self, problems: list[str]):
        if problems:
            self.failed += 1
            room = MAX_REPORTED_PROBLEMS - len(self.problems)
            self.problems += problems[:max(room, 0)]


def timed_op(workload, op):
    """Run one op; return its latency, its problems and its output bytes."""
    start = time.perf_counter()
    try:
        raw = workload.run(op)
    except Exception:  # the loop must go on; the op counts as failed
        return time.perf_counter() - start, [traceback.format_exc()], None
    latency = time.perf_counter() - start
    try:
        problems, data = workload.check(op, raw)
    except Exception:
        problems, data = [f"check failed: {traceback.format_exc()}"], None
    return latency, problems, data


def closed_loop(workload, ops, seconds, min_ops, tracer=None, keep=False) -> Loop:
    loop = Loop()
    deadline = time.perf_counter() + seconds
    while len(loop.latencies) < min_ops or time.perf_counter() < deadline:
        op = next(ops)
        if tracer is not None:
            tracer.op = len(loop.latencies)
        latency, problems, data = timed_op(workload, op)
        if loop.first is None:
            loop.first = (op, data)
        if keep:
            loop.specs.append(op)
        loop.latencies.append(latency)
        loop.record(problems)
    return loop


def warm_up(workload, ops) -> None:
    """Run ops unchecked for a moment, so that lazy set-up is done before
    timing; a failure here shows again, counted, in the measured loop."""
    deadline = time.perf_counter() + WARMUP_SECONDS
    while time.perf_counter() < deadline:
        with contextlib.suppress(Exception):
            workload.run(next(ops))


def measure(workload, ops, seconds, rng, pause) -> Loop:
    """Time ops in workload.PASSES passes that share ``seconds``.  The first
    pass draws at least MIN_OPS ops from the stream; each later pass runs a
    twin of every op, with the same cost and fresh inputs.  An op's latency
    is the lowest of its passes.  ``pause()`` runs between passes."""
    loop = closed_loop(workload, ops, seconds / workload.PASSES, MIN_OPS, keep=True)
    for _ in range(workload.PASSES - 1):
        pause()
        twins = (workload.twin(op, rng) for op in loop.specs)
        again = closed_loop(workload, twins, 0.0, len(loop.specs))
        loop.latencies = [min(a, b) for a, b in zip(loop.latencies, again.latencies)]
        loop.failed += again.failed
        loop.problems += again.problems
    return loop


def rerun_first(workload, loop: Loop) -> list[str]:
    """The first op again, with the same inputs, must give the same bytes."""
    op, data = loop.first
    _, problems, again = timed_op(workload, op)
    if not problems and again != data:
        problems = ["first op rerun with its seed gave different output bytes"]
    return problems


def setup_probe() -> float:
    """Seconds a fresh interpreter takes to import nchvsim and nchvsim.cli."""
    probe = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True, cwd=ROOT,
    )
    seconds, module_file = probe.stdout.split("\n")[:2]
    if not Path(module_file).resolve().is_relative_to(SRC):
        raise RuntimeError(f"fresh interpreter imported {module_file}, not {SRC}")
    return float(seconds)


def environment() -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "nchvsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    revision = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError):
            probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=30)
            revision = probe.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": revision,
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {name: os.environ[name] for name in THREAD_VARIABLES},
        "platform": platform.platform(),
    }


def end_to_end(loop: Loop, attempted: int, setup: float) -> dict:
    latencies = loop.latencies
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": (attempted - loop.failed) / attempted,
    }


def trace_hooks(counts: dict, bound_inputs: set):
    """Counters recorded at layer boundaries, keyed by traced function."""
    import inspect

    from nchvsim import nchv

    bound_signature = inspect.signature(nchv.classical_bound)

    def add(key, amount):
        counts[key] = counts.get(key, 0) + amount

    def bound_input(args, kwargs, result):
        arguments = bound_signature.bind(*args, **kwargs).arguments
        bound_inputs.add((tuple(arguments["expression"]), arguments["grid"]))

    def output_bytes(args, kwargs, result):
        add("bytes_out", len(result.encode()))

    return {
        "montecarlo.sample_counts": lambda a, k, result: add("trials", result.trials),
        "nchv.classical_bound": bound_input,
        "reports.scan_phase": lambda a, k, result: add("settings", len(result)),
        "reports.scan_csv_text": output_bytes,
        "reports.report_json_text": output_bytes,
        "reports.render_report_text": output_bytes,
    }


def per_layer(tracer, counts, bound_inputs, loop: Loop, untraced_seconds: float) -> dict:
    ops = len(loop.latencies)
    traced_seconds = sum(loop.latencies)
    metrics = {}
    for layer in LAYERS:
        calls, self_seconds, errors = tracer.layer(layer)
        metrics[f"{layer}.calls_per_op"] = calls / ops
        metrics[f"{layer}.self_ms_per_op"] = self_seconds * 1e3 / ops
        metrics[f"{layer}.errors"] = errors

    def us_per(names, per=None):
        calls, seconds = tracer.function(*names)
        per = calls if per is None else per
        return seconds * 1e6 / per if per else 0.0

    _, sample_seconds = tracer.function("montecarlo.sample_counts")
    bound_calls, _ = tracer.function("nchv.classical_bound")
    metrics.update({
        "montecarlo.sample_counts.us_per_call": us_per(["montecarlo.sample_counts"]),
        "montecarlo.ns_per_trial": (sample_seconds * 1e9 / counts["trials"]
                                    if counts.get("trials") else 0.0),
        "experiment.joint_probability.us_per_call": us_per(["experiment.joint_probability"]),
        "experiment.correlation_qm3.us_per_call": us_per(["experiment.correlation_qm3"]),
        "experiment.correlation_qm2.us_per_call": us_per(["experiment.correlation_qm2"]),
        "nchv.classical_bound.us_per_call": us_per(["nchv.classical_bound"]),
        "nchv.classical_bound.distinct_ratio": (len(bound_inputs) / bound_calls
                                                if bound_calls else 0.0),
        "reports.scan_phase.us_per_setting": us_per(["reports.scan_phase"],
                                                     counts.get("settings", 0)),
        "reports.run_report.us_per_call": us_per(["reports.run_exp1_report",
                                                  "reports.run_exp2_report"]),
        "reports.replay.us_per_call": us_per(["reports.replay"]),
        "reports.serialize.us_per_call": us_per(["reports.scan_csv_text",
                                                 "reports.report_json_text",
                                                 "reports.render_report_text"]),
        "reports.bytes_out_per_op": counts.get("bytes_out", 0) / ops,
        "cli.main.us_per_call": us_per(["cli.main"]),
        "trace.overhead_ratio": untraced_seconds / traced_seconds,
        "trace.ms_per_op": traced_seconds * 1e3 / ops,
    })
    return metrics


def stamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%fZ")


def save_and_compare(record: dict) -> None:
    """Save the result and print each metric's change from the previous one."""
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    prefix = f"{record['workload']}.trace{record['trace']}."
    earlier = sorted(results.glob(prefix + "*.json"))
    path = results / f"{prefix}{stamp()}.{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    if not earlier:
        print(f"saved {path.relative_to(ROOT)}; no earlier result to compare with")
        return
    previous = json.loads(earlier[-1].read_text(encoding="utf-8"))
    print(f"change from {earlier[-1].relative_to(ROOT)} (seed {previous['seed']}, "
          f"revision {previous['env']['git_revision']}):")
    for name, metric in record["metrics"].items():
        old = previous["metrics"].get(name, {}).get("value")
        new = metric["value"]
        change = f"{(new - old) / old:+.1%}" if old else "n/a"
        print(f"  {name:42s} {old!s:>22} -> {new:<22.6g} {change}")


def print_table(record: dict, loop: Loop) -> None:
    print(f"nchvsim benchmark: workload {record['workload']}, seed {record['seed']}, "
          f"{record['seconds']} s, trace {record['trace']}")
    env = record["env"]
    print(f"  python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"revision {env['git_revision']}, source {env['source_sha256'][:12]}")
    attempted, failed = record["attempted"], record["failed"]
    print(f"  {attempted} ops attempted, {failed} failed: error_rate {failed / attempted:g}")
    n = len(loop.latencies)
    for name, metric in record["metrics"].items():
        note = ""
        if name == "op_p90_ms":
            beyond = sum(1 for t in loop.latencies if t * 1e3 > metric["value"])
            note = f"  ({n} samples, {beyond} beyond the 90th percentile)"
        print(f"  {name:42s} {metric['value']:14.6g} {metric['unit']}{note}")
    if record["trace"]:
        per_op = record["metrics"]["trace.ms_per_op"]["value"]
        shares = ", ".join(
            f"{layer} {record['metrics'][f'{layer}.self_ms_per_op']['value'] / per_op:.1%}"
            for layer in LAYERS)
        print(f"  self time as a share of the traced op time: {shares}")
    for problem in loop.problems:
        print(f"  problem: {problem.strip()}", file=sys.stderr)


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    import nchvsim

    if not Path(nchvsim.__file__).resolve().is_relative_to(SRC):
        print(f"imported nchvsim from {nchvsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads
    from nchvsim import cli, experiment, hilbert, montecarlo, nchv, reports

    if not args.trace:
        setup_probe()  # compiles the package's bytecode; not counted
    setup_times = []

    def pause():
        per_pause = -(-SETUP_PROBES // (workload.PASSES + 1))
        setup_times.extend(setup_probe() for _ in range(per_pause))

    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        rng = random.Random(f"{args.workload}/{args.seed}")
        workload = workloads.make(args.workload, workdir, rng)
        ops = workload.ops(rng)
        warm_up(workload, workload.ops(random.Random(f"warm-up/{args.seed}")))
        if args.trace:
            counts, bound_inputs = {}, set()
            layers = dict(zip(LAYERS, (hilbert, experiment, nchv, montecarlo, reports, cli)))
            tracer = tracing.Tracer(layers, trace_hooks(counts, bound_inputs))
            namespaces = [module for name, module in list(sys.modules.items())
                          if name == "nchvsim" or name.startswith("nchvsim.")]
            with tracer.installed(namespaces + [workloads]):
                loop = closed_loop(workload, ops, args.seconds * TRACED_SHARE, min_ops=1,
                                   tracer=tracer, keep=True)
            run_problems = workload.finish()
            untraced = closed_loop(workload, iter(loop.specs), 0.0, min_ops=len(loop.specs))
            loop.failed += untraced.failed
            loop.problems += untraced.problems
            metrics = per_layer(tracer, counts, bound_inputs, loop, sum(untraced.latencies))
            traces = WORK / "traces"
            traces.mkdir(exist_ok=True)
            tracer.write(traces / f"{args.workload}.seed{args.seed}.{stamp()}.jsonl")
            attempted = 2 * len(loop.latencies) + 1
        else:
            pause()
            loop = measure(workload, ops, args.seconds, rng, pause)
            pause()
            run_problems = workload.finish()
            attempted = workload.PASSES * len(loop.latencies) + 1
        loop.record(rerun_first(workload, loop))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        metrics = end_to_end(loop, attempted, statistics.median(setup_times))
    section = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in SPEC[section]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(units) ^ set(metrics))} do not match "
                           f"BENCHMARK.json")
    loop.problems += run_problems
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
        "correct": loop.failed == 0 and not run_problems,
        "attempted": attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print_table(record, loop)
    save_and_compare(record)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        child = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            print(f"workload {workload} exited with {child.returncode}", file=sys.stderr)
            return child.returncode
        result = json.loads(child.stdout.strip().split("\n")[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nchvsim" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'nchvsim'}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
