"""Reference values computed apart from treecolor.

Nothing here imports the program.  Two methods:

* Population dynamics (Mezard & Montanari, J. Stat. Phys. 2006; the
  method behind Sly's colouring thresholds, CMP 2009).  Subtrees are
  i.i.d. given their root colour and the law is symmetric under colour
  relabelling, so the root posterior given root colour 1 obeys a one-level
  distributional recursion: each of the delta children takes a colour j
  uniform on 2..k, its message is a population draw with colours 1 and j
  swapped, and the new posterior is proportional to prod(1 - m_c).  Each
  independent population gives one estimate per depth; the spread across
  populations is the reference's own standard error.
* The unbiasing failure probability in closed form.  Bottom blocks are
  i.i.d.; a block's unused-colour count is k minus the number of occupied
  bins when delta balls fall into k-1 bins (Stirling numbers), and the
  pass/fail flags then climb the tree as i.i.d. binomial counts.

Regenerate the stored values with

    python3 perfbench/reference.py

which rewrites perfbench/references.json (about two minutes on two cores).
"""
from __future__ import annotations

import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "references.json")

#: unbiasing thresholds compare real numbers with integer counts; ties pass
_TIE = 1e-9


def _others_sum(p: np.ndarray) -> np.ndarray:
    """sum_{c' != c} p[..., c'] per c, without the cancellation of 1 - p_c."""
    zero = np.zeros(p.shape[:-1] + (1,))
    before = np.concatenate([zero, np.cumsum(p[..., :-1], axis=-1)], axis=-1)
    after = np.concatenate(
        [np.cumsum(p[..., :0:-1], axis=-1)[..., ::-1], zero], axis=-1
    )
    return before + after


def popdyn_statistics(delta, k, depth, population, gen, threshold=None, chunk=4096):
    """Per depth 1..depth: alpha and, if threshold is set, the tail probability.

    alpha(l) = (1/k) E sum_c |m_c - 1/k| and tail(l) = (1/k) E sum_c
    1[|m_c - 1/k| > threshold], where m is the root posterior given root
    colour 1; by relabelling symmetry these equal the unconditioned
    averages for any fixed colour.
    """
    pop = np.zeros((population, k))
    pop[:, 0] = 1.0  # a leaf's posterior is a point mass on its colour
    alphas, tails = [], []
    for _ in range(depth):
        new = np.empty_like(pop)
        for lo in range(0, population, chunk):
            m = min(chunk, population - lo)
            child = pop[gen.integers(0, population, size=(m, delta))]
            col = gen.integers(1, k, size=(m, delta, 1))
            first = child[..., :1].copy()
            child[..., :1] = np.take_along_axis(child, col, axis=2)
            np.put_along_axis(child, col, first, axis=2)
            with np.errstate(divide="ignore"):
                logw = np.log(_others_sum(child)).sum(axis=1)
            w = np.exp(logw - logw.max(axis=1, keepdims=True))
            new[lo : lo + m] = w / w.sum(axis=1, keepdims=True)
        pop = new
        dev = np.abs(pop - 1.0 / k)
        alphas.append(float(dev.sum(axis=1).mean()) / k)
        if threshold is not None:
            tails.append(float((dev > threshold).sum(axis=1).mean()) / k)
    return alphas, tails


def popdyn_reference(delta, k, depth, population, runs, seed, threshold=None):
    """Mean and standard error across independent populations, per depth."""
    per_run_alpha, per_run_tail = [], []
    for r in range(runs):
        gen = np.random.default_rng([seed, r])
        a, t = popdyn_statistics(delta, k, depth, population, gen, threshold)
        per_run_alpha.append(a)
        per_run_tail.append(t)

    def summarize(rows):
        arr = np.asarray(rows)
        return [
            {"ell": ell + 1, "value": float(arr[:, ell].mean()),
             "stderr": float(arr[:, ell].std(ddof=1) / math.sqrt(runs))}
            for ell in range(arr.shape[1])
        ]

    out = {"alpha": summarize(per_run_alpha)}
    if threshold is not None:
        out["tail"] = summarize(per_run_tail)
    return out


def stirling2(n: int, m: int) -> int:
    """Stirling number of the second kind S(n, m)."""
    row = [1] + [0] * m
    for i in range(1, n + 1):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, m + 1)]
        row = row[: m + 1]
    return row[m]


def distinct_colours_law(delta: int, bins: int) -> dict[int, Fraction]:
    """Law of the number of occupied bins when delta balls fall uniformly into bins."""
    law = {}
    for d in range(1, min(delta, bins) + 1):
        ways = math.comb(bins, d) * math.factorial(d) * stirling2(delta, d)
        law[d] = Fraction(ways, bins**delta)
    return law


def unbiasing_failure(delta: int, k: int, epsilon: float, depth: int) -> float:
    """Probability that a broadcast leaf colouring fails the classifier.

    A bottom block leaves k - D colours unused (its parent's colour among
    them), D being the occupied bins of delta balls in k - 1 bins; it passes
    when k - D >= delta**(eps/2).  A higher vertex passes when at most
    delta**(1-eps) of its children fail.  Flags at one height are i.i.d.
    The block law is exact; the binomial climb is in floats, because exact
    denominators grow like (k-1)**(delta**depth).
    """
    base = delta ** (epsilon / 2) - _TIE
    max_failed = math.floor(delta ** (1 - epsilon) + _TIE)
    law = distinct_colours_law(delta, k - 1)
    p_pass = float(sum((w for d, w in law.items() if k - d >= base), Fraction(0)))
    for _ in range(depth - 1):
        fail = 1.0 - p_pass
        p_pass = math.fsum(
            math.comb(delta, j) * fail**j * p_pass ** (delta - j)
            for j in range(0, min(max_failed, delta) + 1)
        )
    return 1.0 - p_pass


#: every stored reference: name -> how to make it
SPECS = {
    "deep_wide_bias": dict(delta=20, k=3, depth=5, population=200_000, runs=8, seed=101),
    "deep_wide_concentration": dict(delta=20, k=8, depth=5, population=200_000, runs=8,
                                    seed=102, threshold=0.1),
    "narrow_deep_bias": dict(delta=2, k=3, depth=12, population=200_000, runs=8, seed=103),
    "deep_wide_unbiasing": dict(delta=20, k=9, epsilon=0.2, depth=5),
}


def make_references() -> dict:
    refs = {}
    for name, spec in SPECS.items():
        if "epsilon" in spec:
            q = unbiasing_failure(spec["delta"], spec["k"], spec["epsilon"], spec["depth"])
            refs[name] = {"spec": spec, "value": float(q), "stderr": 0.0}
            continue
        args = {key: spec[key] for key in ("delta", "k", "depth", "population", "runs", "seed")}
        result = popdyn_reference(**args, threshold=spec.get("threshold"))
        refs[name] = {"spec": spec, **result}
        print(f"{name}: done", file=sys.stderr)
    return refs


def load_references(path: str = REFERENCE_FILE) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    refs = make_references()
    with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE_FILE}")
