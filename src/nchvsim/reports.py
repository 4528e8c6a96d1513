"""Analysis pipeline: phase scans, inequality reports, threshold study and
replay of externally measured correlations.

Serialization rules, chosen so identical configurations reproduce identical
bytes: CSV columns are fixed, floats carry 12 significant digits, lines end
with LF.  Every JSON file the package writes (reports, bounds, threshold
studies) takes the form of ``json_text``: 2-space indent, sorted keys, full
float precision, a trailing LF, and NaN refused.  A separate text
rendering rounds for reading.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FixtureParseError, ValidationError, _require_int, is_finite
from .experiment import PhaseSetting, correlation_qm2, correlation_qm3
from .montecarlo import NoiseModel, estimate_correlation, sample_counts
from .nchv import (
    ExpressionTerm,
    PhaseGrid,
    chsh_expression,
    classical_bound,
    expression_value,
    mermin_expression,
)

SCAN_CSV_HEADER = "phi_a,phi_b,phi_c,E_est,sigma,N_detected,E_analytic"
REPLAY_CSV_HEADER = ("phi_a", "phi_b", "phi_c", "E", "sigma")

# A simulated report gets a Gaussian significance only if every setting has
# at least this many coincidences of each product sign (the usual np >= 5
# condition for the normal approximation).
MIN_SIGN_COUNT = 5

_HALF = 0.5  # inequality settings in units of pi: 0 and pi/2

# Finest threshold grid.  At 1 / 1e-12 steps every grid point k * step is
# a distinct float; past 2**53 steps neighbouring points round together,
# and the grid search would walk them one at a time.
MIN_RESOLUTION = 1e-12

# Most settings one scan samples, ~0.5 GB and ~1 min at 10 trials each (see
# README, "Limits").
MAX_SCAN_SETTINGS = 10**6


@dataclass(frozen=True)
class InequalityTest:
    """One test, read off its inequality expression.

    Report setting i measures ``terms[i]``, at the term's grid
    indices on (phi_a, phi_a') x (0, pi/2) [x (0, pi/2)].  The rest is
    derived from the terms, once.  The classical bound is enumerated on
    ``grid``, which has (0, pi/2) for every analyzer.  Each correlation is
    sin(phi_a + phi_b [+ phi_c]), so a term reads sin(phi + q pi/2), with q
    the sum of its b and c indices, and the terms of one A phase sum to
    alpha sin(phi) + beta cos(phi) with integer alpha, beta.  The largest
    |value| is ``quantum_maximum`` = sum of hypot(alpha, beta), reached at
    phi = atan2(s alpha, s beta), with s = -1 (the minimum) unless every
    beta >= 0; for both tests that puts ``ideal`` (phi_a, phi_a'), in
    units of pi, in [-1/2, 1/2], with integer zeros giving no -0.0.  The
    projected |value| at ``ideal`` is ``ideal_value``."""

    expression: str
    label: str
    terms: tuple[ExpressionTerm, ...]
    grid: PhaseGrid = field(init=False)
    bound: float = field(init=False)
    quantum_maximum: float = field(init=False)
    ideal: tuple[float, float] = field(init=False)
    ideal_value: float = field(init=False)

    def __post_init__(self):
        analyzers = 2 if self.terms[0].c_index is None else 3
        grid = PhaseGrid(*[(0.0, _HALF * math.pi)] * analyzers)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "bound", classical_bound(self.terms, grid))
        alpha, beta = [0, 0], [0, 0]
        for term in self.terms:
            q = (term.b_index + (term.c_index or 0)) % 4
            alpha[term.a_index] += term.sign * (1, 0, -1, 0)[q]  # sin(phi + q pi/2)
            beta[term.a_index] += term.sign * (0, 1, 0, -1)[q]
        object.__setattr__(self, "quantum_maximum", sum(map(math.hypot, alpha, beta)))
        s = 1 if min(beta) >= 0 else -1
        ideal = tuple(math.atan2(s * a, s * b) / math.pi for a, b in zip(alpha, beta))
        object.__setattr__(self, "ideal", ideal)
        phi_a, phi_a_prime = (phi * math.pi for phi in ideal)
        correlation = correlation_qm3 if analyzers == 3 else correlation_qm2
        at_ideal = [correlation(s) for s in self.settings(phi_a, phi_a_prime)]
        value = abs(expression_value(self.terms, at_ideal))
        object.__setattr__(self, "ideal_value", value)

    def settings(self, phi_a: float, phi_a_prime: float) -> list[PhaseSetting]:
        """The report settings: each reads its term's phases off the test
        grid with the beam-splitter phases (phi_a, phi_a') in place of its
        a phases."""
        a_phases, grid = (phi_a, phi_a_prime), self.grid
        return [
            PhaseSetting(a_phases[term.a_index], grid.b_phases[term.b_index],
                         None if term.c_index is None else grid.c_phases[term.c_index])
            for term in self.terms
        ]


TESTS = {
    "exp1": InequalityTest("mermin", "three-analyzer", mermin_expression()),
    "exp2": InequalityTest("chsh", "event-ready", chsh_expression()),
}
EXPRESSIONS = {test.expression: test for test in TESTS.values()}


@dataclass(frozen=True)
class RunConfig:
    """Everything a simulated run depends on.  Phases in radians."""

    experiment: str
    noise: NoiseModel
    trials_per_setting: int
    seed: int
    phi_a: float
    phi_a_prime: float = 0.0
    phi_b_values: tuple[float, ...] = (0.0,)
    phi_c_values: tuple[float, ...] = ()
    sweep: tuple[float, float, int] | None = None

    def __post_init__(self):
        if self.experiment not in ("exp1", "exp2"):
            raise ValidationError(
                f"experiment must be 'exp1' or 'exp2', got {self.experiment!r}"
            )
        for name in ("trials_per_setting", "seed"):
            _require_int(name, getattr(self, name))
        if self.trials_per_setting <= 0:
            raise ValidationError("trials_per_setting must be positive")
        if self.seed < 0:
            raise ValidationError("seed must be a non-negative integer")
        for name in ("phi_a", "phi_a_prime"):
            if not is_finite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        for name in ("phi_b_values", "phi_c_values"):
            if not isinstance(getattr(self, name), tuple):
                raise ValidationError(f"{name} must be a tuple, got {getattr(self, name)!r}")
        for phi in self.phi_b_values + self.phi_c_values:
            if not is_finite(phi):
                raise ValidationError("fixed phase lists must be finite")
        if self.sweep is not None:
            if not isinstance(self.sweep, tuple) or len(self.sweep) != 3:
                raise ValidationError(
                    f"sweep must be a (start, stop, steps) tuple, got {self.sweep!r}"
                )
            start, stop, steps = self.sweep
            if not (is_finite(start) and is_finite(stop)):
                raise ValidationError("sweep endpoints must be finite")
            _require_int("sweep steps", steps)
            if steps < 1:
                raise ValidationError("sweep needs at least one step")


@dataclass(frozen=True)
class ScanRow:
    """One setting's estimate, the record that scans and reports read, in
    canonical radians.  A replayed row has no event count ``n_detected`` and
    no noise-model correlation ``e_analytic``: both are None."""

    phi_a: float
    phi_b: float
    phi_c: float | None
    e_est: float
    sigma: float
    n_detected: int | None
    e_analytic: float | None


def _row(setting: PhaseSetting, value: float, sigma: float,
         n_detected: int | None = None, e_analytic: float | None = None) -> ScanRow:
    canon = setting.canonical()
    return ScanRow(canon.phi_a, canon.phi_b, canon.phi_c, value, sigma, n_detected, e_analytic)


@dataclass(frozen=True)
class Report:
    """Report payload with fixed top-level structure."""

    config: dict
    estimates: list[dict]
    derived: dict
    verdict: dict


def _setting_seeds(seed: int, n: int) -> list[int]:
    """Per-setting substream seeds, a pure function of the master seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n, dtype=np.uint64)]


def _simulate(config: RunConfig, settings: list[PhaseSetting]) -> list[ScanRow]:
    """One row per setting: its estimate, event count and noise-model
    correlation, sampled from the per-setting child seeds of ``config.seed``."""
    seeds = _setting_seeds(config.seed, len(settings))
    contrast = config.noise.effective_visibility()
    rows = []
    for setting, seed in zip(settings, seeds):
        counts = sample_counts(setting, config.noise, config.trials_per_setting, seed)
        est = estimate_correlation(counts)
        rows.append(_row(setting, est.value, est.sigma, est.n,
                         contrast * math.sin(setting.phase_sum())))
    return rows


def scan_phase(config: RunConfig) -> list[ScanRow]:
    """Fringe scan: sweep phi_a against each fixed analyzer combination."""
    if config.sweep is None:
        raise ValidationError("scan_phase needs a sweep in the configuration")
    if not config.phi_b_values:
        raise ValidationError("scans need at least one phi_b value")
    if config.experiment == "exp1" and not config.phi_c_values:
        raise ValidationError("exp1 scans need at least one phi_c value")
    if config.experiment == "exp2" and config.phi_c_values:
        raise ValidationError("exp2 scans carry no phi_c values")
    start, stop, steps = config.sweep
    fixed = [(b, c) for b in config.phi_b_values for c in config.phi_c_values or (None,)]
    if steps * len(fixed) > MAX_SCAN_SETTINGS:
        raise ValidationError(
            f"a scan samples at most {MAX_SCAN_SETTINGS} settings, got {steps} sweep steps "
            f"x {len(fixed)} fixed phase combinations"
        )
    sweep_values = [float(x) for x in np.linspace(start, stop, steps)]
    settings = [PhaseSetting(phi_a, b, c) for (b, c) in fixed for phi_a in sweep_values]
    return _simulate(config, settings)


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def scan_csv_text(rows: list[ScanRow]) -> str:
    lines = [SCAN_CSV_HEADER]
    for row in rows:
        phi_c = "" if row.phi_c is None else _fmt(row.phi_c)
        lines.append(
            ",".join(
                (
                    _fmt(row.phi_a),
                    _fmt(row.phi_b),
                    phi_c,
                    _fmt(row.e_est),
                    _fmt(row.sigma),
                    str(row.n_detected),
                    _fmt(row.e_analytic),
                )
            )
        )
    return "\n".join(lines) + "\n"


def _config_echo(config: RunConfig) -> dict:
    return {
        "experiment": config.experiment,
        "visibility": config.noise.visibility,
        "efficiency": config.noise.efficiency,
        "background": config.noise.background,
        "trials_per_setting": config.trials_per_setting,
        "seed": config.seed,
        "phi_a": config.phi_a,
        "phi_a_prime": config.phi_a_prime,
    }


def _report(config: dict, test: InequalityTest, rows: list[ScanRow]) -> Report:
    """Entries, derived quantities and verdict from the rows of the report
    settings, one per term of ``test.terms``, in expression order.  A row without an event count is replayed:
    its entry carries no ``n`` and no ``analytic``.

    The verdict is assessed only with a real error estimate: sigma > 0,
    and no simulated setting short of MIN_SIGN_COUNT coincidences of one
    product sign.  A replayed sigma of 0 is exact."""
    entries = []
    short = []  # analytic correlations of the short simulated settings
    for row in rows:
        entries.append({"phi_a": row.phi_a, "phi_b": row.phi_b, "phi_c": row.phi_c,
                        "value": row.e_est, "sigma": row.sigma})
        if row.n_detected is not None:
            entries[-1].update(n=row.n_detected, analytic=row.e_analytic)
            # n(1 - |E|)/2 events carry the rarer product sign; the count is
            # an integer, so rounding only removes float error.
            if round(row.n_detected * (1.0 - abs(row.e_est)) / 2.0) < MIN_SIGN_COUNT:
                short.append(row.e_analytic)
    value = expression_value(test.terms, [r.e_est for r in rows])
    sigma = math.sqrt(math.fsum(r.sigma * r.sigma for r in rows))
    # No short setting means every simulated |E| < 1, so sigma > 0 there.
    assessed = not short and sigma > 0.0
    significance = (abs(value) - test.bound) / sigma if assessed else None
    derived = {
        "inequality_value": value,
        "inequality_sigma": sigma,
        "classical_bound": test.bound,
        "quantum_maximum": test.quantum_maximum,
        "significance": significance,
    }
    fourth = [r for term, r in zip(test.terms, rows) if term.sign > 0]
    if len(fourth) == 1:
        # The -1 terms are the perfect-correlation settings; any NCHV model
        # they constrain has a forced lower bound on the lone +1 term.
        forcing = [r for term, r in zip(test.terms, rows) if term.sign < 0]
        derived.update(
            nchv_lower_bound=sum(r.e_est for r in forcing) - test.bound,
            nchv_lower_bound_sigma=math.sqrt(sum(r.sigma * r.sigma for r in forcing)),
            fourth_value=fourth[0].e_est,
            fourth_sigma=fourth[0].sigma,
        )
    violated = abs(value) > test.bound
    if short:
        # |E| is exactly 1 only at unit effective visibility and
        # |sin(phase sum)| = 1: such a setting never gives the other sign.
        cause = (
            "the outcomes are deterministic at these settings (analytic |E| = 1)"
            if all(abs(a) == 1.0 for a in short)
            else "more trials are needed"
        )
        state, tail = "not assessed", (
            f" with no error estimate (a setting has fewer than {MIN_SIGN_COUNT} "
            f"coincidences of one product sign); {cause}"
        )
    elif not violated:
        state, tail = "satisfied", "; no noncontextual model is excluded"
    elif significance is None:
        state, tail = "violated", " (exact, zero statistical uncertainty)"
    else:
        state, tail = "violated", f" by {significance:.1f} standard deviations"
    relation = ">" if violated else "<="
    summary = f"{test.label} inequality {state}: |{value:.3f}| {relation} {test.bound:g}{tail}"
    return Report(config, entries, derived, {"violated": violated, "summary": summary})


def _simulate_report(config: RunConfig, experiment: str) -> Report:
    if config.experiment != experiment:
        raise ValidationError(f"run_{experiment}_report needs an {experiment} configuration")
    if config.phi_a == config.phi_a_prime:
        raise ValidationError("phi_a and phi_a_prime must be two different beam-splitter phases")
    test = TESTS[experiment]
    settings = test.settings(config.phi_a, config.phi_a_prime)
    return _report(_config_echo(config), test, _simulate(config, settings))


def run_exp1_report(config: RunConfig) -> Report:
    """Simulate the four triple-coincidence settings and report the forced
    lower bound against the measured fourth correlation."""
    return _simulate_report(config, "exp1")


def run_exp2_report(config: RunConfig) -> Report:
    """Simulate the four event-ready settings and report the CHSH sum."""
    return _simulate_report(config, "exp2")


def _grid_threshold(amplitude: float, limit: float, resolution: float) -> float:
    """The first visibility v on ``np.linspace(0.0, 1.0, steps + 1)``, with
    steps = round(1 / resolution), for which v * amplitude > limit.

    Needs amplitude > limit.  Grid point k is k * (1 / steps) as linspace
    computes it, and 1.0 at k = steps; the product grows with k, so the
    search starts from the exact quotient and steps up to the first such k.
    The start, int(limit / amplitude * steps), is at most steps; after five
    roundings of relative error eps = 2**-53 it passes the answer only if
    amplitude / steps < ~5 eps * limit, i.e. steps > ~1.8e15, and
    MIN_RESOLUTION caps steps at 1e12."""
    steps = int(round(1.0 / resolution))
    step = 1.0 / steps

    def visibility(k: int) -> float:
        return 1.0 if k == steps else k * step

    k = int(limit / amplitude * steps)
    while not visibility(k) * amplitude > limit:
        k += 1
    return visibility(k)


def threshold_study(expression: str, resolution: float = 1e-4) -> dict:
    """Smallest visibility on a grid of spacing 1/steps, steps = round(1 /
    resolution), whose noisy quantum expression exceeds the enumerated
    classical bound (at resolution 0.03 the CHSH threshold is 24/33, 0.7273).
    ``resolution`` must lie in [MIN_RESOLUTION, 0.1]."""
    if not MIN_RESOLUTION <= resolution <= 0.1:
        raise ValidationError(
            f"resolution must be in [{MIN_RESOLUTION:g}, 0.1], got {resolution!r}"
        )
    test = EXPRESSIONS.get(expression)
    if test is None:
        raise ValidationError(
            f"expression must be 'chsh' or 'mermin', got {expression!r}"
        )
    # Both expressions exceed their bound at unit visibility, as
    # _grid_threshold needs.
    amplitude, limit = test.ideal_value, test.bound
    return {
        "expression": expression,
        "classical_bound": limit,
        "quantum_value_at_unit_visibility": amplitude,
        "threshold_visibility": _grid_threshold(amplitude, limit, resolution),
        "resolution": resolution,
    }


def _parse_float(text: str, line_number: int, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise FixtureParseError(
            line_number, f"column {column!r}: {text!r} is not a number"
        ) from None
    if not math.isfinite(value):
        raise FixtureParseError(line_number, f"column {column!r}: {text!r} not finite")
    return value


@dataclass(frozen=True)
class ReplayRow:
    line_number: int
    phi_a: float  # units of pi, as written in the fixture
    phi_b: float
    phi_c: float | None
    value: float
    sigma: float


def _parse_phase(text: str, line_number: int, column: str) -> float:
    value = _parse_float(text, line_number, column)
    if not math.isfinite(value * math.pi):
        raise FixtureParseError(
            line_number, f"column {column!r}: {text!r} not finite in radians"
        )
    return value


def load_replay_rows(path) -> list[ReplayRow]:
    """Parse a replay fixture.  Phases are in units of pi; phi_c is blank
    for event-ready rows.  A leading UTF-8 byte order mark is skipped."""
    with open(path, "rb") as handle:
        # Not "utf-8-sig", whose error offsets skip the BOM and would not index data.
        data = handle.read().removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FixtureParseError(
            data.count(b"\n", 0, exc.start) + 1, f"not UTF-8 text: {exc.reason}"
        ) from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        return _parse_records(reader)
    except csv.Error as exc:
        raise FixtureParseError(reader.line_num, f"unreadable CSV: {exc}") from None


def _parse_records(reader) -> list[ReplayRow]:
    try:
        header = next(reader)
    except StopIteration:
        raise FixtureParseError(1, "empty file; expected a header row") from None
    if tuple(h.strip() for h in header) != REPLAY_CSV_HEADER:
        raise FixtureParseError(1, f"expected header {','.join(REPLAY_CSV_HEADER)!r}")
    rows = []
    while True:
        # A quoted field may span lines: number each record by its first.
        line_number = reader.line_num + 1
        record = next(reader, None)
        if record is None:
            break
        if not record or all(not text.strip() for text in record):
            continue
        if len(record) != 5:
            raise FixtureParseError(
                line_number, f"expected 5 columns, found {len(record)}"
            )
        phi_a = _parse_phase(record[0], line_number, "phi_a")
        phi_b = _parse_phase(record[1], line_number, "phi_b")
        phi_c_text = record[2].strip()
        phi_c = (
            None if phi_c_text == "" else _parse_phase(record[2], line_number, "phi_c")
        )
        value = _parse_float(record[3], line_number, "E")
        if not -1.0 <= value <= 1.0:
            raise FixtureParseError(
                line_number, f"column 'E': {value!r} outside [-1, 1]"
            )
        sigma = _parse_float(record[4], line_number, "sigma")
        if sigma < 0.0:
            raise FixtureParseError(line_number, "sigma must be >= 0")
        if sigma > 1.0:
            # sqrt((1 - E^2) / n) <= 1 for a mean of n >= 1 outcomes +-1
            raise FixtureParseError(
                line_number,
                f"column 'sigma': {sigma!r} above 1, the largest standard "
                "error of a +-1 mean",
            )
        rows.append(ReplayRow(line_number, phi_a, phi_b, phi_c, value, sigma))
    if not rows:
        raise FixtureParseError(2, "no data rows")
    return rows


def _near(x: float, target: float) -> bool:
    return abs(x - target) <= 1e-9


def _grid_index(phi: float) -> int | None:
    return 0 if _near(phi, 0.0) else 1 if _near(phi, _HALF) else None


def _match(test: InequalityTest, rows: list[ReplayRow]) -> list[ReplayRow]:
    """Rows in expression order, one per term of ``test.terms``.

    A row's phi_b, and its phi_c if present, must be 0 or 0.5 (units of pi),
    which gives its grid indices, and its term is the one with those
    indices.  Where two terms share them, phi_a tells them apart: the
    distinct phi_a values are numbered in file order, so the first is a.
    Rows whose terms read the same a phase must give the same phi_a."""
    terms = test.terms
    by_key: dict[tuple[int, int | None], list[int]] = {}
    for k, term in enumerate(terms):
        by_key.setdefault((term.b_index, term.c_index), []).append(k)
    phi_a_values: list[float] = []
    slots: dict[int, ReplayRow] = {}
    a_rows: dict[int, ReplayRow] = {}  # first row read at each a index
    for row in rows:
        b = _grid_index(row.phi_b)
        c = None if row.phi_c is None else _grid_index(row.phi_c)
        if b is None or (c is None and row.phi_c is not None):
            got = f"phi_b={row.phi_b!r}" + ("" if row.phi_c is None else f", phi_c={row.phi_c!r}")
            raise FixtureParseError(
                row.line_number, f"analyzer phases must be 0 or 0.5 (units of pi); got {got}"
            )
        shared = by_key[(b, c)]
        matched = shared
        if len(shared) != 1:
            seen = [i for i, phi_a in enumerate(phi_a_values) if _near(row.phi_a, phi_a)]
            a = seen[0] if seen else len(phi_a_values)
            if not seen:
                phi_a_values.append(row.phi_a)
            matched = [k for k in shared if terms[k].a_index == a]
            if not matched:
                raise FixtureParseError(
                    row.line_number, f"expected {len(shared)} distinct phi_a values, found {a + 1}"
                )
        if matched[0] in slots:
            setting = f"phi_b={b * _HALF}" + ("" if c is None else f", phi_c={c * _HALF}")
            if len(shared) > 1:
                setting = f"phi_a={row.phi_a}, {setting}"
            raise FixtureParseError(row.line_number, f"duplicate setting {setting}")
        first = a_rows.setdefault(terms[matched[0]].a_index, row)
        if not _near(row.phi_a, first.phi_a):
            raise FixtureParseError(
                row.line_number,
                f"phi_a={row.phi_a} differs from phi_a={first.phi_a} on line "
                f"{first.line_number}, which sets the same analyzer A phase",
            )
        slots[matched[0]] = row
    if len(slots) != len(terms):
        raise FixtureParseError(
            rows[-1].line_number, f"expected {len(terms)} settings, found {len(slots)}"
        )
    return [slots[k] for k in range(len(terms))]


def replay(path) -> Report:
    """Recompute derived quantities from a file of measured correlations.

    No simulation and no randomness: the report config echoes the source
    path and carries no seed."""
    rows = load_replay_rows(path)
    has_c = [row.phi_c is not None for row in rows]
    if len(set(has_c)) > 1:
        mixed = rows[has_c.index(not has_c[0])]
        raise FixtureParseError(
            mixed.line_number, "rows mix three-analyzer and event-ready settings"
        )
    experiment = "exp1" if has_c[0] else "exp2"
    config = {"mode": "replay", "experiment": experiment, "source": str(path)}
    test = TESTS[experiment]
    matched = _match(test, rows)
    settings = [PhaseSetting(*(None if phi is None else phi * math.pi
                               for phi in (r.phi_a, r.phi_b, r.phi_c))) for r in matched]
    return _report(config, test, [_row(s, r.value, r.sigma) for s, r in zip(settings, matched)])


def json_text(payload: dict) -> str:
    """The JSON form of every file the package writes."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def report_json_text(report: Report) -> str:
    return json_text(vars(report))


def render_report_text(report: Report) -> str:
    """Human-oriented summary, rounded to measurement precision."""
    out = io.StringIO()
    experiment = report.config.get("experiment", "?")
    out.write(f"experiment: {experiment}\n")
    if "seed" in report.config:
        out.write(
            "visibility={visibility:g} efficiency={efficiency:g} "
            "background={background:g} trials={trials_per_setting} "
            "seed={seed}\n".format(**report.config)
        )
    else:
        out.write(f"replayed from: {report.config.get('source', '?')}\n")
    out.write("settings (phi_a, phi_b, phi_c in radians):\n")
    for entry in report.estimates:
        phi_c = "-" if entry.get("phi_c") is None else f"{entry['phi_c']:+.4f}"
        n = f" n={entry['n']}" if "n" in entry else ""
        out.write(
            f"  ({entry['phi_a']:+.4f}, {entry['phi_b']:+.4f}, {phi_c}): "
            f"E = {entry['value']:+.3f} +- {entry['sigma']:.3f}{n}\n"
        )
    derived = report.derived
    if "nchv_lower_bound" in derived:
        out.write(
            f"noncontextual lower bound on the fourth correlation: "
            f"{derived['nchv_lower_bound']:+.3f} +- {derived['nchv_lower_bound_sigma']:.3f}\n"
        )
        out.write(
            f"measured fourth correlation: {derived['fourth_value']:+.3f} "
            f"+- {derived['fourth_sigma']:.3f}\n"
        )
    out.write(
        f"inequality value: {derived['inequality_value']:+.3f} "
        f"+- {derived['inequality_sigma']:.3f} "
        f"(classical bound {derived['classical_bound']:g}, "
        f"quantum maximum {derived['quantum_maximum']:.3f})\n"
    )
    if derived.get("significance") is not None:
        out.write(f"significance: {derived['significance']:.1f} sigma\n")
    out.write(f"verdict: {report.verdict['summary']}\n")
    return out.getvalue()
