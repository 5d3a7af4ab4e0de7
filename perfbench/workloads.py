"""The three workloads: their operations, inputs and output checks.

Every operation goes through `treecolor.cli.main` in-process with `--out`,
except the chain runs, whose CLI output carries nothing to check; those
call `initial_state` + `run_chain`, as `treecolor dynamics` does.  All
inputs (CLI seeds, leaf files) come from the workload seed; the fixed
Delta=54 boundary is the one input that does not.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

import checks

#: operation sizes per round; "tiny" is the self-test size
SIZES = {
    "full": {
        "bias_samples": 10, "concentration_samples": 6, "unbiasing_samples": 6,
        "sweep_samples": 500, "couple_pairs": 5000,
        "chain_b0_steps": 10000, "chain_b2_steps": 4000,
        "mixing_n": 2, "mixing_block": 1, "marginal_depth": 8, "uniformity_tallies": 2000,
    },
    "tiny": {
        "bias_samples": 20, "concentration_samples": 20, "unbiasing_samples": 20,
        "sweep_samples": 200, "couple_pairs": 500,
        "chain_b0_steps": 500, "chain_b2_steps": 200,
        "mixing_n": 1, "mixing_block": 0, "marginal_depth": 3, "uniformity_tallies": 1000,
    },
}

#: the one operation known to fail on every run (float backend, ROADMAP item 3)
KNOWN_FAILURE = "marginal_float_54"


@dataclass
class Outcome:
    op: str
    seconds: float
    work: float
    failed: bool
    output: dict = field(default_factory=dict)
    error: str = ""


def derived_seed(seed: int, *path: int) -> int:
    """A CLI seed drawn from the workload seed and a position in the run."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def broadcast_leaves(branching: int, depth: int, k: int, gen) -> np.ndarray:
    """Leaf row of a uniform proper colouring, drawn top-down level by level."""
    level = gen.integers(1, k + 1, size=1)
    for _ in range(depth):
        parents = np.repeat(level, branching)
        r = gen.integers(1, k, size=parents.size)
        level = r + (r >= parents)
    return level


def delta54_boundary() -> np.ndarray:
    """Allowed leaves of the Delta=54, depth-3, k=3 tree that force root colour 1.

    Child 0's 54*54 leaves are all colour 1.  Child 1 gets a grandchild
    forced to 1 (leaves 2, 3) and one forced to 3 (leaves 1, 2), so it must
    be 2; child 2 likewise gets grandchildren forced to 1 and 2, so it must
    be 3.  Every other leaf is free (0).  The exact root law is (1, 0, 0).
    """
    delta = 54
    leaves = np.zeros(delta**3, dtype=np.int64)
    block = delta * delta
    leaves[:block] = 1
    for child, pairs in ((1, ((2, 3), (1, 2))), (2, ((2, 3), (1, 3)))):
        for grandchild, (a, b) in enumerate(pairs):
            lo = child * block + grandchild * delta
            leaves[lo : lo + 2] = (a, b)
    return leaves


def write_leaves(path: str, leaves) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(str(int(v)) for v in leaves) + "\n")


class Workload:
    """One workload: `round()` attempts each operation once; `check()` tests
    the collected outputs against independent references."""

    name = ""
    ops: tuple[str, ...] = ()

    def __init__(self, seed: int, size: dict, workdir: str, references: dict):
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.refs = references
        from treecolor import cli
        self._cli = cli

    def run_cli(self, op: str, argv: list[str], work: float, out: str) -> Outcome:
        """Run one CLI command; a nonzero exit code is a failed operation."""
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = self._cli.main(argv + ["--out", out])
            seconds = time.perf_counter() - start
        if code != 0:
            return Outcome(op, seconds, work, True, error=f"exit {code}: {err.getvalue().strip()}")
        return Outcome(op, seconds, work, False)

    def json_op(self, op: str, argv: list[str], work: float) -> Outcome:
        out = os.path.join(self.workdir, f"{op}.json")
        outcome = self.run_cli(op, argv + ["--format", "json"], work, out)
        if not outcome.failed:
            with open(out, encoding="utf-8") as fh:
                outcome.output = json.load(fh)
        return outcome

    def round(self, index: int) -> list[Outcome]:
        raise NotImplementedError

    def check(self, outcomes: list[Outcome]) -> list[checks.Check]:
        raise NotImplementedError


def _ok(outcomes, op):
    return [o for o in outcomes if o.op == op and not o.failed]


class DeepWide(Workload):
    """Delta=20, depth 5: every estimator takes the block-count route."""

    name = "deep-wide"
    ops = ("bias", "concentration", "unbiasing")

    def round(self, index):
        s = self.size
        seeds = [str(derived_seed(self.seed, index, j)) for j in range(3)]
        shape = ["--delta", "20", "--depth", "5"]
        return [
            self.json_op("bias", ["bias", "--delta", "20", "--k", "3", "--depth-range", "5..5",
                                  "--color", "1", "--samples", str(s["bias_samples"]),
                                  "--seed", seeds[0]], s["bias_samples"]),
            self.json_op("concentration", ["concentration", *shape, "--k", "8", "--color", "1",
                                           "--threshold", "0.1",
                                           "--samples", str(s["concentration_samples"]),
                                           "--seed", seeds[1]], s["concentration_samples"]),
            self.json_op("unbiasing", ["unbiasing", *shape, "--k", "9", "--epsilon", "0.2",
                                       "--samples", str(s["unbiasing_samples"]),
                                       "--seed", seeds[2]], s["unbiasing_samples"]),
        ]

    def check(self, outcomes):
        out = []
        rows = [o.output["rows"][0] for o in _ok(outcomes, "bias")]
        if rows:
            n = sum(r["n"] for r in rows)
            mean = sum(r["alpha_hat"] * r["n"] for r in rows) / n
            se = np.sqrt(sum((r["stderr"] * r["n"]) ** 2 for r in rows)) / n
            ref = self.refs["deep_wide_bias"]["alpha"][-1]
            out.append(checks.normal_check("bias.alpha_vs_popdyn", mean, float(se),
                                           ref["value"], ref["stderr"]))
        conc = [o.output for o in _ok(outcomes, "concentration")]
        if conc:
            hits = sum(round(c["probability"] * c["n"]) for c in conc)
            n = sum(c["n"] for c in conc)
            ref = self.refs["deep_wide_concentration"]["tail"][-1]
            out.append(checks.proportion_check("concentration.tail_vs_popdyn", hits, n,
                                               ref["value"], ref["stderr"]))
        unb = [o.output for o in _ok(outcomes, "unbiasing")]
        if unb:
            fails = sum(round(u["q_hat"] * u["n"]) for u in unb)
            n = sum(u["n"] for u in unb)
            ref = self.refs["deep_wide_unbiasing"]
            out.append(checks.proportion_check("unbiasing.q_vs_exact", fails, n,
                                               ref["value"], ref["stderr"]))
        return out


class NarrowDeep(Workload):
    """Delta=2, k=3, at most 4096 leaves: the materialized-leaf route."""

    name = "narrow-deep"
    ops = ("sweep", "couple")
    depth = 12

    def round(self, index):
        s = self.size
        seeds = [str(derived_seed(self.seed, index, j)) for j in range(2)]
        return [
            self.json_op("sweep", ["sweep", "--kind", "bias", "--delta", "2", "--k", "3",
                                   "--depth-range", f"1..{self.depth}", "--color", "1",
                                   "--samples", str(s["sweep_samples"]), "--seed", seeds[0]],
                         s["sweep_samples"] * self.depth),
            self.json_op("couple", ["couple", "--delta", "2", "--k", "3",
                                    "--depth", str(self.depth), "--c1", "1", "--c2", "2",
                                    "--mode", "down", "--samples", str(s["couple_pairs"]),
                                    "--seed", seeds[1]], s["couple_pairs"]),
        ]

    def check(self, outcomes):
        out = []
        sweeps = [o.output["rows"] for o in _ok(outcomes, "sweep")]
        refs = {r["ell"]: r for r in self.refs["narrow_deep_bias"]["alpha"]}
        if sweeps:
            for ell in range(1, self.depth + 1):
                rows = [r for rows in sweeps for r in rows if r["ell"] == ell]
                if len(rows) != len(sweeps):
                    out.append(checks.Check(f"sweep.ell{ell}.present", False,
                                            "depth missing from the sweep output"))
                    continue
                n = sum(r["n"] for r in rows)
                mean = sum(r["estimate"] * r["n"] for r in rows) / n
                se = float(np.sqrt(sum((r["stderr"] * r["n"]) ** 2 for r in rows)) / n)
                out.append(checks.normal_check(f"sweep.ell{ell}.alpha_vs_popdyn", mean, se,
                                               refs[ell]["value"], refs[ell]["stderr"]))
        couples = [o.output["estimators"][0] for o in _ok(outcomes, "couple")]
        if couples:
            n = sum(c["n"] for c in couples)
            mean = sum(c["mean"] * c["n"] for c in couples) / n
            se = float(np.sqrt(sum((c["stderr"] * c["n"]) ** 2 for c in couples)) / n)
            out.append(checks.normal_check("couple.hamming_vs_(delta/(k-1))^ell", mean, se,
                                           (2 / (3 - 1)) ** self.depth))
        return out


class ExactDynamics(Workload):
    """Pure-Python work: heat-bath steps, exact matrices, rational marginals."""

    name = "exact-dynamics"
    ops = ("chain_b0", "chain_b2", "mixing_exact", "marginal_exact", KNOWN_FAILURE)

    def __init__(self, seed, size, workdir, references):
        super().__init__(seed, size, workdir, references)
        self.boundary_path = os.path.join(workdir, "delta54.txt")
        write_leaves(self.boundary_path, delta54_boundary())

    def chain(self, op: str, block_depth: int, steps: int, index: int) -> Outcome:
        from treecolor import RandomSource, TreeShape, initial_state, run_chain
        shape = TreeShape(2, 8)
        start = time.perf_counter()
        state = initial_state(shape, 3, RandomSource(derived_seed(self.seed, index, block_depth)))
        final = run_chain(state, block_depth, steps,
                          RandomSource(derived_seed(self.seed, index, block_depth, 1)))
        seconds = time.perf_counter() - start
        return Outcome(op, seconds, steps, False,
                       {"values": final.coloring.values.tolist(), "time": final.time,
                        "steps": steps})

    def round(self, index):
        s = self.size
        matrix_path = os.path.join(self.workdir, "matrix.csv")
        mixing = self.json_op("mixing_exact", ["dynamics", "--delta", "2", "--k", "3",
                                               "--n", str(s["mixing_n"]),
                                               "--block-depth", str(s["mixing_block"]), "--exact",
                                               "--matrix-out", matrix_path], 1)
        if not mixing.failed:
            mixing.output["rows"] = checks.read_matrix_csv(matrix_path,
                                                           mixing.output["states"])
        depth = s["marginal_depth"]
        leaves = broadcast_leaves(3, depth, 4, np.random.default_rng([self.seed, index, 7]))
        leaf_path = os.path.join(self.workdir, "leaves.txt")
        write_leaves(leaf_path, leaves)
        marginal = self.json_op("marginal_exact", ["marginal", "--delta", "3", "--k", "4",
                                                   "--depth", str(depth), "--leaves", leaf_path,
                                                   "--exact"], 1)
        marginal.output["leaves"] = leaves
        return [
            self.chain("chain_b0", 0, s["chain_b0_steps"], index),
            self.chain("chain_b2", 2, s["chain_b2_steps"], index),
            mixing,
            marginal,
            self.json_op(KNOWN_FAILURE, ["marginal", "--delta", "54", "--k", "3", "--depth",
                                         "3", "--leaves", self.boundary_path], 1),
        ]

    def check(self, outcomes):
        out = []
        for o in _ok(outcomes, "chain_b0") + _ok(outcomes, "chain_b2"):
            vals = o.output["values"]
            ok = checks.proper_by_parent_index(vals, 2) and min(vals) >= 1 and max(vals) <= 3
            out.append(checks.Check(f"{o.op}.proper", ok, f"{len(vals)} vertices"))
            out.append(checks.Check(f"{o.op}.time", o.output["time"] == o.output["steps"],
                                    f"time {o.output['time']} after {o.output['steps']} steps"))
        for o in _ok(outcomes, "mixing_exact"):
            out.extend(checks.matrix_checks("mixing_exact", o.output["rows"], o.output))
        for o in _ok(outcomes, "marginal_exact"):
            out.append(checks.rational_weights_check("marginal_exact.weights",
                                                     o.output["weights"], o.output["leaves"],
                                                     3, 4))
        for o in _ok(outcomes, KNOWN_FAILURE):
            w = o.output["weights"]
            out.append(checks.Check(f"{KNOWN_FAILURE}.weights",
                                    abs(w[0] - 1) < 1e-12 and max(w[1:]) < 1e-12,
                                    f"weights {w}, exact (1, 0, 0)"))
        out.append(self.uniformity())
        return out

    def uniformity(self) -> checks.Check:
        """A thinned chain on Delta=2, depth 1, k=3 visits the 12 colourings evenly."""
        from treecolor import RandomSource, TreeShape, initial_state, run_chain
        shape, thin = TreeShape(2, 1), 50
        tallies = self.size["uniformity_tallies"]
        visits: dict = {}
        state = initial_state(shape, 3, RandomSource(derived_seed(self.seed, 1 << 20)))
        run_chain(state, 0, tallies * thin, RandomSource(derived_seed(self.seed, 1 << 20, 1)),
                  visit_counts=visits, thin=thin)
        colourings = [(r, a, b) for r in range(1, 4) for a in range(1, 4)
                      for b in range(1, 4) if a != r and b != r]
        stray = set(visits) - set(colourings)
        counts = [visits.get(c, 0) for c in colourings]
        check = checks.uniformity_check("chain.uniform_on_12_colourings", counts)
        if stray:
            return checks.Check(check.name, False, f"visited improper colourings {sorted(stray)}")
        return check


WORKLOADS = {w.name: w for w in (DeepWide, NarrowDeep, ExactDynamics)}
