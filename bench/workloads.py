"""The benchmark's three workloads.

A workload turns a seeded ``random.Random`` into an endless stream of op
specs, runs one op through the package's public functions (the timed
part), and checks the op's output against ``reference`` (untimed).  Specs
are plain data, so an op can be run again with the same inputs.

A run times its ops in several passes: the first draws ops from the
stream, each later pass runs a twin of every op, with the same cost but
fresh seeds and phases, so that no pass can be served from a cache.

Ops come in shuffled blocks of fixed composition: each block holds the
same number of ops of each kind.  Every run, whatever its seed, therefore
completes nearly the same mix, and the mix puts the median and the 90th
percentile inside one op kind rather than on the boundary between two.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os

import reference
from nchvsim import cli, experiment, nchv, reports
from nchvsim.montecarlo import NoiseModel

HALF_PI = math.pi / 2.0


# Steps of the R2 Kronecker sequence: the points (offset + k * R2) mod 1,
# k = 0, 1, ..., cover the unit square evenly in every prefix.
R2 = (0.7548776662466927, 0.5698402909980532)


def _noise(rng, efficiency: float) -> tuple[float, float, float]:
    return rng.uniform(0.85, 0.95), efficiency, rng.uniform(0.0, 0.05)


def _check_estimate(problems, z_scores, where, value, n, truth):
    if not 0 < n:
        problems.append(f"{where}: sample size {n}")
    elif not reference.estimate_consistent(value, n, truth):
        problems.append(f"{where}: estimate {value!r} from {n} events is implausible "
                        f"around {truth!r}")
    else:
        z_scores.append(reference.z_score(value, n, truth))


def _grid_phases(rng, sizes):
    """Distinct analyzer phases per block; the bound does not depend on them."""
    return tuple(
        tuple(offset + k * math.pi / n for k in range(n))
        for n, offset in zip(sizes, (rng.uniform(-1.0, 1.0) for _ in sizes))
    )


class Workload:
    """Shared run-level check: no bias across all sampled estimates."""

    PASSES = 12

    def __init__(self):
        self.z_scores: list[float] = []

    def finish(self) -> list[str]:
        if not self.z_scores:
            return []
        bias = math.fsum(self.z_scores) / math.sqrt(len(self.z_scores))
        if abs(bias) > reference.MAX_RUN_BIAS:
            return [f"{len(self.z_scores)} estimates are biased: "
                    f"sum(z)/sqrt(n) = {bias:.2f}"]
        return []


class FringeScan(Workload):
    """One op is ``scan_phase`` plus ``scan_csv_text``."""

    TRIALS = 100_000
    PASSES = 3  # a pass must hold 100 ops of ~0.1 s
    # (experiment, fixed analyzer combinations) per block.
    BLOCK = (("exp1", 1),) * 7 + (("exp1", 2),) + (("exp2", 1),) * 7 + (("exp2", 2),)

    def ops(self, rng):
        # Sweep length and efficiency, which set an op's cost, follow one R2
        # sequence per kind, so any run's ops of a kind span both ranges.
        # Sweep lengths are log-uniform over 25..101: short scans, like the
        # CLI's default of 25 points, are the common case.
        offsets = {kind: (rng.random(), rng.random()) for kind in self.BLOCK}
        drawn = dict.fromkeys(self.BLOCK, 0)
        while True:
            block = []
            for kind in self.BLOCK:
                name, pairs = kind
                k = drawn[kind]
                drawn[kind] += 1
                u, w = ((offset + k * step) % 1.0 for offset, step in zip(offsets[kind], R2))
                fixed = tuple(rng.uniform(-math.pi, math.pi) for _ in range(pairs))
                block.append({
                    "experiment": name,
                    "noise": _noise(rng, 0.5 + 0.5 * w),
                    "seed": rng.getrandbits(31),
                    "phi_b": fixed if name == "exp2" else (rng.uniform(-math.pi, math.pi),),
                    "phi_c": fixed if name == "exp1" else (),
                    "sweep": (rng.uniform(-math.pi, -HALF_PI), rng.uniform(HALF_PI, math.pi),
                              int(25 * (102 / 25) ** u)),
                })
            rng.shuffle(block)
            yield from block

    def twin(self, op, rng):
        return dict(op, seed=rng.getrandbits(31),
                    phi_b=tuple(rng.uniform(-math.pi, math.pi) for _ in op["phi_b"]),
                    phi_c=tuple(rng.uniform(-math.pi, math.pi) for _ in op["phi_c"]))

    def run(self, op):
        config = reports.RunConfig(
            experiment=op["experiment"],
            noise=NoiseModel(*op["noise"]),
            trials_per_setting=self.TRIALS,
            seed=op["seed"],
            phi_a=0.0,
            phi_b_values=op["phi_b"],
            phi_c_values=op["phi_c"],
            sweep=op["sweep"],
        )
        return reports.scan_csv_text(reports.scan_phase(config))

    def check(self, op, text):
        problems = []
        lines = text.split("\n")
        if lines[0] != reference.SCAN_CSV_HEADER or lines[-1] != "":
            return ["CSV header or final newline wrong"], text.encode()
        start, stop, steps = op["sweep"]
        sweep = [start + (stop - start) * k / (steps - 1) for k in range(steps)]
        if op["experiment"] == "exp1":
            fixed = [(b, c) for b in op["phi_b"] for c in op["phi_c"]]
        else:
            fixed = [(b, None) for b in op["phi_b"]]
        settings = [(a, b, c) for b, c in fixed for a in sweep]
        rows = lines[1:-1]
        if len(rows) != len(settings):
            return [f"{len(rows)} CSV rows for {len(settings)} settings"], text.encode()
        visibility, _, background = op["noise"]
        for line_number, (line, (a, b, c)) in enumerate(zip(rows, settings), start=2):
            fields = line.split(",")
            where = f"CSV line {line_number}"
            if len(fields) != 7:
                problems.append(f"{where}: {len(fields)} fields")
                continue
            if (not reference.same_phase(float(fields[0]), a)
                    or not reference.same_phase(float(fields[1]), b)
                    or (c is None) != (fields[2] == "")
                    or (c is not None and not reference.same_phase(float(fields[2]), c))):
                problems.append(f"{where}: phases {fields[:3]} are not the setting")
                continue
            truth = reference.analytic_correlation(visibility, background, a + b + (c or 0.0))
            if abs(float(fields[6]) - truth) > 1e-9:
                problems.append(f"{where}: E_analytic {fields[6]} is not {truth!r}")
            n = int(fields[5])
            if n > self.TRIALS:
                problems.append(f"{where}: {n} events from {self.TRIALS} trials")
            _check_estimate(problems, self.z_scores, where, float(fields[3]), n, truth)
        return problems, text.encode()


class ExactPhysics(Workload):
    """One op is one exact evaluation, with no sampling."""

    # Kinds per block of 20.  Sorted by cost, the cheap kinds fill 0-40%, the
    # cross-checks 40-75% (the median), and the Mermin threshold with the
    # 8x8x8 bound, of like cost, 75-100% (the 90th percentile).
    BLOCK = (
        ("forcing",), ("conditional",),
        ("bound", "chsh"), ("bound", "mermin"), ("bound", "small"), ("bound", "small"),
        ("bound", "ceiling2"), ("threshold", "chsh"),
        *(("cross",),) * 7,
        *(("threshold", "mermin"),) * 4,
        ("bound", "ceiling3"),
    )
    CONSTRAINTS = tuple(itertools.product((+1, -1), repeat=3))

    def ops(self, rng):
        while True:
            block = [self._spec(rng, kind) for kind in self.BLOCK]
            rng.shuffle(block)
            yield from block

    @staticmethod
    def _spec(rng, kind):
        if kind[0] == "cross":
            return ("cross", *(rng.uniform(-math.pi, math.pi) for _ in range(3)))
        if kind[0] != "bound":
            return kind
        if kind[1] == "chsh":
            sizes = (2, 2, 0)
        elif kind[1] == "mermin":
            sizes = (2, 2, 2)
        elif kind[1] == "ceiling2":
            sizes = (12, 12, 0)  # 24 binary choices, the enumeration ceiling
        elif kind[1] == "ceiling3":
            sizes = (8, 8, 8)
        elif rng.random() < 0.5:
            sizes = (rng.randint(2, 8), rng.randint(2, 8), 0)
        else:
            sizes = (rng.randint(2, 5), rng.randint(2, 5), rng.randint(2, 5))
        terms = tuple(
            (rng.choice((+1, -1)), *(rng.randrange(n) if n else None for n in sizes))
            for _ in range(rng.randint(2, 5))
        )
        return ("bound", kind[1], terms, _grid_phases(rng, sizes))

    def twin(self, op, rng):
        if op[0] == "cross":
            return self._spec(rng, op)
        if op[0] == "bound":
            _, name, terms, phases = op
            return ("bound", name, terms, _grid_phases(rng, [len(p) for p in phases]))
        return op  # these kinds take no inputs that could vary

    def run(self, op):
        kind = op[0]
        if kind == "forcing":
            return [nchv.ghz_forcing_enumerated(*c) for c in self.CONSTRAINTS]
        if kind == "conditional":
            return experiment.conditional_state_after_trigger()
        if kind == "threshold":
            return reports.threshold_study(op[1])
        if kind == "bound":
            _, name, terms, phases = op
            grid = nchv.PhaseGrid(*phases)
            if name == "chsh":
                return nchv.classical_bound(nchv.chsh_expression(), grid)
            if name == "mermin":
                return nchv.classical_bound(nchv.mermin_expression(), grid)
            return nchv.classical_bound(tuple(nchv.ExpressionTerm(*t) for t in terms), grid)
        _, a, b, c = op
        triple = experiment.PhaseSetting(a, b, c)
        pair = experiment.PhaseSetting(a, b)
        return {
            "qm3": experiment.correlation_qm3(triple),
            "qm2": experiment.correlation_qm2(pair),
            "triple": [(o.a, o.b, o.c, experiment.joint_probability(o, triple),
                        experiment.joint_probability_closed_form(o, triple))
                       for o in experiment.TRIPLE_OUTCOMES],
            "pair": [(o.a, o.b, experiment.joint_probability_eventready(o, pair),
                      experiment.joint_probability_eventready_closed_form(o, pair))
                     for o in experiment.PAIR_OUTCOMES],
        }

    def check(self, op, result):
        kind = op[0]
        problems = []
        if kind == "forcing":
            expected = [reference.forced_product(*c) for c in self.CONSTRAINTS]
            if result != expected:
                problems.append(f"forced products {result} are not {expected}")
        elif kind == "conditional":
            result = [[z.real, z.imag] for z in getattr(result, "amplitudes", result)]
            expected = reference.eventready_amplitudes()
            if len(result) != len(expected) or max(
                    abs(complex(*z) - e) for z, e in zip(result, expected)) > reference.EXACT_ATOL:
                problems.append(f"conditional state {result} is not the event-ready state")
        elif kind == "threshold":
            problems += self._check_threshold(op[1], result)
        elif kind == "bound":
            _, name, terms, _ = op
            expected = (reference.CLASSICAL_BOUND if name in ("chsh", "mermin")
                        else reference.brute_force_bound(terms))
            if result != expected:
                problems.append(f"{name} bound {result!r} is not {expected!r}")
        else:
            problems += self._check_cross(op, result)
        return problems, json.dumps(result, sort_keys=True).encode()

    @staticmethod
    def _check_threshold(name, result):
        quantum = reference.QUANTUM_VALUE[name]
        exact = reference.CLASSICAL_BOUND / quantum
        threshold = result["threshold_visibility"]
        if (result["classical_bound"] != reference.CLASSICAL_BOUND
                or abs(result["quantum_value_at_unit_visibility"] - quantum) > reference.EXACT_ATOL
                or not exact < threshold <= exact + result["resolution"] + reference.EXACT_ATOL):
            return [f"{name} threshold study {result} is wrong"]
        return []

    @staticmethod
    def _check_cross(op, result):
        _, a, b, c = op
        problems = []
        if abs(result["qm3"] - math.sin(a + b + c)) > reference.EXACT_ATOL:
            problems.append(f"correlation_qm3 {result['qm3']!r} is not sin(phase sum)")
        if abs(result["qm2"] - math.sin(a + b)) > reference.EXACT_ATOL:
            problems.append(f"correlation_qm2 {result['qm2']!r} is not sin(phase sum)")
        for oa, ob, oc, projected, closed in result["triple"]:
            exact = reference.triple_probability(oa, ob, oc, a + b + c)
            if max(abs(projected - closed), abs(projected - exact)) > reference.EXACT_ATOL:
                problems.append(f"P({oa},{ob},{oc}) = {projected!r}, closed form {exact!r}")
        for oa, ob, projected, closed in result["pair"]:
            exact = reference.pair_probability(oa, ob, a + b)
            if max(abs(projected - closed), abs(projected - exact)) > reference.EXACT_ATOL:
                problems.append(f"P({oa},{ob}) = {projected!r}, closed form {exact!r}")
        return problems


class ReportMix(Workload):
    """One op is one complete simulated or replayed report, rendered to JSON
    and to text, through the library or through ``cli.main``."""

    # (analysis, route) per block of 30: a third replays, 13 of 30 through
    # the CLI.  Sorted by cost: direct replays 0-20%, direct simulations
    # 20-57% (the median), CLI replays 57-70%, CLI simulations 70-100% (the
    # 90th percentile).
    BLOCK = (
        *(("replay", "direct"),) * 6,
        *(("sim", "direct"),) * 11,
        *(("replay", "cli"),) * 4,
        *(("sim", "cli"),) * 9,
    )
    REPLAY_FILES = 8  # per experiment; file 0 holds the published correlations
    DEFAULT_PHASES = {"exp1": (0.5, 0.0), "exp2": (0.25, -0.25)}  # units of pi

    def __init__(self, workdir: str, rng):
        super().__init__()
        self.out_path = os.path.join(workdir, "report.json")
        self.replays = {}
        for name, fixture in (("exp1", reference.EXP1_FIXTURE),
                              ("exp2", reference.EXP2_FIXTURE)):
            for index in range(self.REPLAY_FILES):
                rows = fixture if index == 0 else self._jitter(rng, fixture)
                path = os.path.join(workdir, f"{name}-{index}.csv")
                self._write_replay(rng, name, rows, path)
                self.replays[(name, index)] = (path, reference.replay_reference(name, rows))

    @staticmethod
    def _jitter(rng, fixture):
        # Rows 0/3 (exp1) or 0/1 (exp2) share their phi_a, as do the others.
        shift = {phi_a: rng.uniform(-0.02, 0.02) for phi_a, *_ in fixture}
        return tuple(
            (phi_a + shift[phi_a], phi_b, phi_c, value + rng.uniform(-0.02, 0.02),
             sigma * rng.uniform(0.8, 1.25))
            for phi_a, phi_b, phi_c, value, sigma in fixture
        )

    @staticmethod
    def _write_replay(rng, name, rows, path):
        rows = list(rows)
        if name == "exp1":
            rng.shuffle(rows)  # rows are matched by their phases
        else:
            # The first phi_a in the file is the CHSH a; only the order of
            # the two rows within each phi_a is free.
            for pair in (slice(0, 2), slice(2, 4)):
                rows[pair] = rng.sample(rows[pair], 2)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write("phi_a,phi_b,phi_c,E,sigma\n")
            for phi_a, phi_b, phi_c, value, sigma in rows:
                phi_c = "" if phi_c is None else repr(phi_c)
                handle.write(f"{phi_a!r},{phi_b!r},{phi_c},{value!r},{sigma!r}\n")

    def ops(self, rng):
        while True:
            block = []
            counts = dict.fromkeys(self.BLOCK, 0)
            flip = rng.randrange(2)
            for kind in self.BLOCK:
                k = counts[kind]
                counts[kind] += 1
                name = ("exp1", "exp2")[(k + flip) % 2]
                if kind[0] == "replay":
                    block.append((*kind, name, rng.randrange(self.REPLAY_FILES)))
                    continue
                phases = self.DEFAULT_PHASES[name]
                if (k // 2) % 2:  # half the simulations move off the default phases
                    phases = tuple(p + rng.uniform(-0.05, 0.05) for p in phases)
                block.append((*kind, name, rng.randint(200, 2000),
                              _noise(rng, rng.uniform(0.5, 1.0)), rng.getrandbits(31), phases))
            rng.shuffle(block)
            yield from block

    def twin(self, op, rng):
        if op[0] == "replay":
            return (*op[:3], (op[3] + 1) % self.REPLAY_FILES)
        return (*op[:5], rng.getrandbits(31), op[6])

    def run(self, op):
        analysis, route, name = op[:3]
        if route == "cli":
            if analysis == "replay":
                argv = ["replay", self.replays[(name, op[3])][0]]
            else:
                trials, (visibility, efficiency, background), seed, (phi_a, phi_a_prime) = op[3:]
                argv = [name, f"--visibility={visibility!r}", f"--efficiency={efficiency!r}",
                        f"--background={background!r}", f"--trials={trials}",
                        f"--seed={seed}", f"--phi-a={phi_a!r}", f"--phi-a-prime={phi_a_prime!r}"]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv + [f"--out={self.out_path}"])
            return code, None, stdout.getvalue()
        if analysis == "replay":
            report = reports.replay(self.replays[(name, op[3])][0])
        else:
            trials, noise, seed, (phi_a, phi_a_prime) = op[3:]
            config = reports.RunConfig(
                experiment=name,
                noise=NoiseModel(*noise),
                trials_per_setting=trials,
                seed=seed,
                phi_a=phi_a * math.pi,
                phi_a_prime=phi_a_prime * math.pi,
            )
            run_report = reports.run_exp1_report if name == "exp1" else reports.run_exp2_report
            report = run_report(config)
        return 0, reports.report_json_text(report), reports.render_report_text(report)

    def check(self, op, result):
        code, json_text, text = result
        if code != 0:
            return [f"CLI exited with {code}"], b""
        if json_text is None:
            with open(self.out_path, "r", encoding="utf-8") as handle:
                json_text = handle.read()
        report = json.loads(json_text)
        derived = report["derived"]
        problems = []
        if derived["classical_bound"] != reference.CLASSICAL_BOUND:
            problems.append(f"classical bound {derived['classical_bound']!r}")
        if f"inequality value: {derived['inequality_value']:+.3f}" not in text:
            problems.append("text rendering does not show the inequality value")
        if op[0] == "replay":
            problems += self._check_replay(op, report)
        else:
            problems += self._check_simulation(op, report)
        return problems, json_text.encode()

    def _check_replay(self, op, report):
        name, index = op[2:]
        derived = report["derived"]
        expected = self.replays[(name, index)][1]
        problems = [
            f"replayed {key} {derived[key]!r} is not {value!r}"
            for key, value in expected.items()
            if not math.isclose(derived[key], value, rel_tol=1e-9, abs_tol=1e-12)
        ]
        if index == 0:
            published = (round(derived["inequality_value"], 3), round(derived["significance"]))
            if published != reference.PUBLISHED[name]:
                problems.append(f"fixture replay gives {published}, "
                                f"published {reference.PUBLISHED[name]}")
        return problems

    def _check_simulation(self, op, report):
        name, trials, (visibility, _, background), seed, phases = op[2:]
        phi_a, phi_a_prime = (p * math.pi for p in phases)
        if name == "exp1":
            settings = [(phi_a, 0.0, 0.0), (phi_a_prime, HALF_PI, 0.0),
                        (phi_a_prime, 0.0, HALF_PI), (phi_a, HALF_PI, HALF_PI)]
        else:
            settings = [(phi_a, 0.0, None), (phi_a, HALF_PI, None),
                        (phi_a_prime, HALF_PI, None), (phi_a_prime, 0.0, None)]
        config, entries = report["config"], report["estimates"]
        if (config["seed"], config["trials_per_setting"]) != (seed, trials):
            return [f"report echoes seed/trials {config['seed']}/{config['trials_per_setting']}"]
        if len(entries) != len(settings):
            return [f"{len(entries)} estimates for {len(settings)} settings"]
        problems = []
        for k, (entry, (a, b, c)) in enumerate(zip(entries, settings)):
            where = f"{name} estimate {k}"
            if (not reference.same_phase(entry["phi_a"], a)
                    or not reference.same_phase(entry["phi_b"], b)
                    or (c is None) != (entry["phi_c"] is None)
                    or (c is not None and not reference.same_phase(entry["phi_c"], c))):
                problems.append(f"{where}: phases are not the setting")
                continue
            truth = reference.analytic_correlation(visibility, background, a + b + (c or 0.0))
            if abs(entry["analytic"] - truth) > 1e-9:
                problems.append(f"{where}: analytic {entry['analytic']!r} is not {truth!r}")
            _check_estimate(problems, self.z_scores, where, entry["value"], entry["n"], truth)
        values = [entry["value"] for entry in entries]
        if name == "exp1":
            value = values[3] - values[0] - values[1] - values[2]
        else:
            value = values[0] + values[1] + values[2] - values[3]
        if abs(report["derived"]["inequality_value"] - value) > reference.EXACT_ATOL:
            problems.append(f"inequality value {report['derived']['inequality_value']!r} "
                            f"is not the signed sum {value!r}")
        return problems


def make(name: str, workdir: str, rng):
    """The workload called ``name``; ``rng`` draws the replay files that
    report-mix writes into ``workdir``."""
    if name == "fringe-scan":
        return FringeScan()
    if name == "exact-physics":
        return ExactPhysics()
    if name == "report-mix":
        return ReportMix(workdir, rng)
    raise ValueError(f"unknown workload {name!r}")
