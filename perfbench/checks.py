"""Correctness checks on the program's outputs, written apart from treecolor.

Statistical checks are calibrated for a benchmark that is rerun many
times with fresh seeds: a normal check passes within SIGMAS combined
standard errors, and an exact test (binomial tail, chi-square) passes
above P_FLOOR.  Both give about a one-in-a-million false alarm per check.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

SIGMAS = 5.0
P_FLOOR = 1e-6


@dataclass
class Check:
    name: str
    ok: bool
    detail: str

    def as_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


# ---------------------------------------------------------------------------
# statistics


def normal_check(name, estimate, stderr, ref, ref_stderr=0.0) -> Check:
    """|estimate - ref| within SIGMAS combined standard errors."""
    sigma = math.hypot(stderr, ref_stderr)
    z = abs(estimate - ref) / sigma if sigma > 0 else (0.0 if estimate == ref else math.inf)
    return Check(name, z <= SIGMAS,
                 f"estimate {estimate:.6g} +- {stderr:.3g}, reference {ref:.6g} "
                 f"+- {ref_stderr:.3g}, z = {z:.2f} (limit {SIGMAS})")


def _log_binom_pmf(x: int, n: int, p: float) -> float:
    if p <= 0.0:
        return 0.0 if x == 0 else -math.inf
    if p >= 1.0:
        return 0.0 if x == n else -math.inf
    return (math.lgamma(n + 1) - math.lgamma(x + 1) - math.lgamma(n - x + 1)
            + x * math.log(p) + (n - x) * math.log1p(-p))


def binomial_two_sided(x: int, n: int, p: float) -> float:
    """2 * min(P[X <= x], P[X >= x]) for X ~ Bin(n, p), capped at 1."""
    pmf = [math.exp(_log_binom_pmf(i, n, p)) for i in range(n + 1)]
    lower = math.fsum(pmf[: x + 1])
    upper = math.fsum(pmf[x:])
    return min(1.0, 2.0 * min(lower, upper))


def proportion_check(name, successes, n, ref, ref_stderr=0.0) -> Check:
    """Exact binomial test at the reference point of [ref +- SIGMAS*ref_stderr]
    nearest the observed share."""
    lo, hi = ref - SIGMAS * ref_stderr, ref + SIGMAS * ref_stderr
    p = min(max(successes / n, lo), hi)
    p = min(max(p, 0.0), 1.0)
    pvalue = binomial_two_sided(successes, n, p)
    return Check(name, pvalue > P_FLOOR,
                 f"{successes}/{n} = {successes / n:.4g}, reference {ref:.4g} "
                 f"+- {ref_stderr:.2g}, binomial p = {pvalue:.3g} (floor {P_FLOOR:g})")


def _regularized_lower_gamma(a: float, x: float) -> float:
    """P(a, x) by its power series; enough for the chi-square tails used here."""
    if x <= 0:
        return 0.0
    term = 1.0 / a
    total = term
    for n in range(1, 10_000):
        term *= x / (a + n)
        total += term
        if term < total * 1e-17:
            break
    return min(1.0, total * math.exp(-x + a * math.log(x) - math.lgamma(a)))


def chi2_sf(stat: float, df: int) -> float:
    return max(0.0, 1.0 - _regularized_lower_gamma(df / 2.0, stat / 2.0))


def uniformity_check(name, counts) -> Check:
    counts = np.asarray(counts, dtype=float)
    expected = counts.sum() / counts.size
    stat = float(((counts - expected) ** 2).sum() / expected)
    pvalue = chi2_sf(stat, counts.size - 1)
    return Check(name, pvalue > P_FLOOR,
                 f"{counts.size} cells, {int(counts.sum())} tallies, chi2 = {stat:.2f}, "
                 f"p = {pvalue:.3g} (floor {P_FLOOR:g})")


# ---------------------------------------------------------------------------
# colourings of complete trees, indexed level by level from the root


def proper_by_parent_index(values, branching: int) -> bool:
    """No vertex shares its colour with vertex (i - 1) // branching."""
    vals = np.asarray(values)
    child = np.arange(1, vals.size)
    return bool(np.all(vals[child] != vals[(child - 1) // branching]))


def extensions_per_root_colour(leaves, branching: int, k: int) -> list[int]:
    """Proper colourings agreeing with the leaves (0 = free), per root colour.

    Bottom-up: a vertex coloured c has, per child, the child's completions
    with any colour but c.
    """
    level = [[1] * k if v == 0 else [int(c == v) for c in range(1, k + 1)]
             for v in map(int, leaves)]
    while len(level) > 1:
        up = []
        for i in range(0, len(level), branching):
            vec = [1] * k
            for counts in level[i : i + branching]:
                total = sum(counts)
                vec = [w * (total - counts[c]) for c, w in enumerate(vec)]
            up.append(vec)
        level = up
    return level[0]


def rational_weights_check(name, reported, leaves, branching, k) -> Check:
    counts = extensions_per_root_colour(leaves, branching, k)
    total = sum(counts)
    expected = [Fraction(c, total) for c in counts]
    got = [Fraction(w) for w in reported]
    return Check(name, got == expected,
                 "weights equal the extension counts" if got == expected
                 else f"reported {reported}, expected {[str(e) for e in expected]}")


# ---------------------------------------------------------------------------
# exact transition matrices dumped as CSV


def read_matrix_csv(path: str, size: int) -> list[dict[int, Fraction]]:
    rows: list[dict[int, Fraction]] = [dict() for _ in range(size)]
    with open(path, encoding="utf-8", newline="") as fh:
        for rec in csv.DictReader(fh):
            rows[int(rec["row_state"])][int(rec["col_state"])] = Fraction(
                int(rec["numerator"]), int(rec["denominator"]))
    return rows


def matrix_checks(prefix: str, rows, report: dict) -> list[Check]:
    """Stochastic, symmetric, gap, and the 1/(2e) crossing at t_mix."""
    size = len(rows)
    out = [Check(f"{prefix}.states", report["states"] == size,
                 f"report says {report['states']}, matrix has {size} rows")]
    sums_ok = all(sum(row.values()) == 1 for row in rows)
    out.append(Check(f"{prefix}.rows_sum_to_one", sums_ok, "exact Fraction row sums"))
    sym = all(rows[j].get(i) == v for i, row in enumerate(rows) for j, v in row.items())
    out.append(Check(f"{prefix}.symmetric", sym and report["symmetric"] is True,
                     f"dumped matrix symmetric: {sym}; reported: {report['symmetric']}"))
    dense = np.zeros((size, size))
    for i, row in enumerate(rows):
        for j, v in row.items():
            dense[i, j] = float(v)
    eigs = np.linalg.eigvalsh(dense)
    gap = 1.0 - float(eigs[-2])
    out.append(Check(f"{prefix}.gap", abs(gap - report["gap"]) <= 1e-9,
                     f"numpy gap {gap!r}, reported {report['gap']!r}"))
    t_mix = report["t_mix"]
    threshold = 1.0 / (2.0 * math.e)
    power = np.linalg.matrix_power(dense, t_mix - 1)
    tv_before = 0.5 * float(np.abs(power - 1.0 / size).sum(axis=1).max())
    tv_at = 0.5 * float(np.abs(power @ dense - 1.0 / size).sum(axis=1).max())
    out.append(Check(f"{prefix}.tv_crossing", tv_at <= threshold < tv_before,
                     f"worst-start TV {tv_before:.6f} at t={t_mix - 1}, {tv_at:.6f} "
                     f"at t={t_mix}; threshold {threshold:.6f}"))
    bound = math.log(2.0 * math.e * size) / gap
    out.append(Check(f"{prefix}.t_mix_bound", t_mix <= bound,
                     f"t_mix {t_mix} <= ln(2e|Omega|)/gap = {bound:.2f}"))
    return out
