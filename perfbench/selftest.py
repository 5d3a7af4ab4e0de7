#!/usr/bin/env python3
"""Quick self-test of the benchmark: python3 perfbench/selftest.py

1. Every workload runs one round at the tiny size, untraced and traced,
   and passes its checks; the traced run reports every per-layer metric.
2. Each stored reference, moved to a clearly wrong value, makes exactly
   its matching check fail.

Each run is a fresh `run.py` process.  Takes about a minute and a half on
two cores.
"""
from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SEED = 20261017
EXPECTED_FAILED_SHARE = {"deep-wide": 0.0, "narrow-deep": 0.0, "exact-dynamics": 0.2}

#: (reference key, path inside it, wrong value, check that must fail)
PERTURBATIONS = [
    ("deep_wide_bias", ("alpha", -1), 0.11, "bias.alpha_vs_popdyn"),
    ("deep_wide_concentration", ("tail", -1), 0.98, "concentration.tail_vs_popdyn"),
    ("deep_wide_unbiasing", (), 0.9, "unbiasing.q_vs_exact"),
    ("narrow_deep_bias", ("alpha", 7), 0.0137, "sweep.ell8.alpha_vs_popdyn"),
]


def run(workload: str, trace: int = 0, references: str | None = None) -> tuple[dict, str]:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    if references:
        argv += ["--references", references]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), proc.stdout


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        refs = json.load(fh)
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    for workload, share in EXPECTED_FAILED_SHARE.items():
        for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result, _ = run(workload, trace)
            expect(result["correct"], f"{workload} trace={trace}: checks pass")
            expect(result["failed"] == share * result["attempted"],
                   f"{workload} trace={trace}: {result['failed']}/{result['attempted']} failed")
            expect(set(result["metrics"]) == {m["name"] for m in names},
                   f"{workload} trace={trace}: reports every metric")

    os.makedirs(OUT_DIR, exist_ok=True)
    for key, path, wrong, check in PERTURBATIONS:
        bad = copy.deepcopy(refs)
        target = bad[key]
        for step in path:
            target = target[step]
        target["value"] = wrong
        bad_path = os.path.join(OUT_DIR, f"perturbed-{key}.json")
        with open(bad_path, "w", encoding="utf-8") as fh:
            json.dump(bad, fh)
        workload = "narrow-deep" if key.startswith("narrow") else "deep-wide"
        result, stdout = run(workload, references=bad_path)
        failed = [line.split()[2].rstrip(":") for line in stdout.splitlines()
                  if line.startswith("check FAIL")]
        expect(not result["correct"] and failed == [check],
               f"{key} moved to {wrong}: failing checks {failed}, expected [{check}]")

    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
