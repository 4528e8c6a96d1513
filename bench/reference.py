"""Independent references the benchmark checks the package's outputs against.

Nothing here imports nchvsim.  Each function restates a formula from the
paper, or does a brute-force computation, so that a defect in the package
cannot hide by also breaking its own check.
"""

from __future__ import annotations

import math

import numpy as np

SCAN_CSV_HEADER = "phi_a,phi_b,phi_c,E_est,sigma,N_detected,E_analytic"

# Published correlations of the two reference runs, as replay rows:
# (phi_a, phi_b, phi_c, E, sigma), phases in units of pi, phi_c None for
# event-ready rows.  Row order is the role order used by replay_reference.
EXP1_FIXTURE = (
    (0.46, 0.0, 0.0, 0.885, 0.005),
    (0.01, 0.5, 0.0, 0.897, 0.005),
    (0.01, 0.0, 0.5, 0.884, 0.005),
    (0.46, 0.5, 0.5, -0.885, 0.005),
)
EXP2_FIXTURE = (
    (-0.72, 0.0, None, 0.586, 0.008),
    (-0.72, 0.5, None, 0.705, 0.008),
    (0.75, 0.5, None, 0.714, 0.008),
    (0.75, 0.0, None, -0.590, 0.008),
)
# (inequality value to 3 decimals, significance to the nearest sigma) the
# paper quotes for the two fixtures.
PUBLISHED = {"exp1": (-3.551, 155), "exp2": (2.595, 37)}

# Noncontextual bound of both the CHSH and the Mermin-type expression.
CLASSICAL_BOUND = 2.0
QUANTUM_VALUE = {"chsh": 2.0 * math.sqrt(2.0), "mermin": 4.0}

EXACT_ATOL = 1e-12

# Largest n * KL(estimate || truth) accepted for a sampled correlation.  By
# the Chernoff bound a correct sampler exceeds it with probability at most
# 2 * exp(-25), about 3e-11 per estimate, at every sample size; for large n
# it is about 7 standard deviations.  A bare 5-sigma Gaussian test would
# false-alarm about once in 10^6 estimates, and a run checks ~10^4 of them.
MAX_DIVERGENCE = 25.0

# Largest |sum of z-scores| / sqrt(count) accepted over a whole run, where
# z = (estimate - truth) / true standard error.  Catches a small bias that
# no single estimate shows.
MAX_RUN_BIAS = 6.0


def triple_probability(a: int, b: int, c: int, phase_sum: float) -> float:
    """P(A, B, C) = (1 + A*B*C*sin(phi_a + phi_b + phi_c)) / 8."""
    return (1.0 + a * b * c * math.sin(phase_sum)) / 8.0


def pair_probability(a: int, b: int, phase_sum: float) -> float:
    """Event-ready P(A, B) = (1 + A*B*sin(phi_a + phi_b)) / 4."""
    return (1.0 + a * b * math.sin(phase_sum)) / 4.0


def eventready_amplitudes() -> np.ndarray:
    """(|V b> + |H a>)/sqrt(2) over (pol1, path1), basis order Ha, Hb, Va, Vb."""
    return np.array([1.0, 0.0, 0.0, 1.0], dtype=np.complex128) / math.sqrt(2.0)


def forced_product(c1: int, c2: int, c3: int) -> int:
    """Product of the three perfect-correlation constraints."""
    return c1 * c2 * c3


def brute_force_bound(terms, max_bits: int = 16) -> float:
    """Maximum of sum(sign * a[i] * b[j] * c[k]) over every +-1 assignment.

    ``terms`` holds (sign, a_index, b_index, c_index or None).  Only the
    values the terms use are enumerated; the others cannot change the sum."""
    used = sorted({(block, index) for term in terms
                   for block, index in zip("abc", term[1:]) if index is not None})
    if len(used) > max_bits:
        raise ValueError(f"{len(used)} variables exceed the brute-force limit")
    column = {key: k for k, key in enumerate(used)}
    rows = np.arange(2 ** len(used), dtype=np.int64)
    signs = 1 - 2 * ((rows[:, None] >> np.arange(len(used))[None, :]) & 1)
    total = np.zeros(len(rows), dtype=np.int64)
    for sign, *indices in terms:
        product = np.full(len(rows), sign, dtype=np.int64)
        for block, index in zip("abc", indices):
            if index is not None:
                product *= signs[:, column[(block, index)]]
        total += product
    return float(total.max())


def analytic_correlation(visibility: float, background: float, phase_sum: float) -> float:
    """Noise-scaled E = (1 - background) * visibility * sin(phase sum)."""
    return (1.0 - background) * visibility * math.sin(phase_sum)


def same_phase(x: float, y: float, atol: float = 1e-9) -> bool:
    """Equal as angles, whatever the wrapping convention."""
    return abs(math.remainder(x - y, 2.0 * math.pi)) <= atol


def _kl(p: float, q: float) -> float:
    total = 0.0
    if p > 0.0:
        total += p * math.log(p / q)
    if p < 1.0:
        total += (1.0 - p) * math.log((1.0 - p) / (1.0 - q))
    return total


def estimate_consistent(value: float, n: int, truth: float) -> bool:
    """Whether a mean of n +-1 outcomes is a plausible draw around truth."""
    return n * _kl((1.0 + value) / 2.0, (1.0 + truth) / 2.0) <= MAX_DIVERGENCE


def z_score(value: float, n: int, truth: float) -> float:
    return (value - truth) / math.sqrt((1.0 - truth * truth) / n)


def replay_reference(experiment: str, rows) -> dict:
    """Derived quantities of a replayed file, from rows in role order."""
    values = [row[3] for row in rows]
    sigma = math.sqrt(math.fsum(row[4] ** 2 for row in rows))
    if experiment == "exp1":
        value = values[3] - values[0] - values[1] - values[2]
    else:
        value = values[0] + values[1] + values[2] - values[3]
    derived = {
        "inequality_value": value,
        "inequality_sigma": sigma,
        "significance": (abs(value) - CLASSICAL_BOUND) / sigma,
    }
    if experiment == "exp1":
        derived["nchv_lower_bound"] = values[0] + values[1] + values[2] - 2.0
    return derived
