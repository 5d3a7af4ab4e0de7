"""Experiment orchestration: the kind registry, configs, replicas, aggregation,
decay curves.

`KINDS` holds one `ExperimentKind` record per experiment the CLI offers:
its parameter schema, whether its samples may be split across replicas,
its runner, its renderer and its help text.  The CLI, `run_experiment`,
`ExperimentConfig` validation and `sweep` all read that one table.

A run is fully determined by (config, seed, code version).  Replicas get
independent RNG streams via RandomSource.split and are folded in replica
order, so the aggregate is deterministic regardless of how the replicas
would be scheduled.  Serialized records never include wall-clock data;
durations are returned in-memory only, keeping output files byte-stable.
"""
from __future__ import annotations

import dataclasses
import io
import json
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import couplings, dynamics, unbiasing
from .broadcast_sampler import sample_leaf_rows
from .errors import ValidationError
from .estimators import Estimate, TailEstimate, mean_estimate, proportion_estimate
from .exact_engine import root_marginal
from .rng import RandomSource
from .tree_model import PartialLeafColoring, TreeShape, is_proper
from .unbiasing import UnbiasingParams, epsilon_from


@dataclass(frozen=True)
class ExperimentKind:
    """One experiment: its schema, runner and renderer, read by CLI and harness.

    `params` maps each parameter to (caster, required, default).  `run`
    takes a config and returns (replica results, aggregate); `render` turns
    the run's records into the command's output text.  A `series` kind runs
    once per depth of its `depth_range` and prints csv unless asked for
    json; `sweep` is the one kind with no runner of its own: it runs
    another, replicable kind over a depth range.
    """

    help: str
    params: dict
    run: Callable | None
    render: Callable
    replicable: bool = False
    series: bool = False


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    params: dict
    seed: int = 0
    samples: int = 1
    replicas: int = 1
    fmt: str = "json"
    series_index: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS or KINDS[self.kind].run is None:
            raise ValidationError(f"unknown experiment kind {self.kind!r}")
        if self.replicas < 1:
            raise ValidationError("replicas must be >= 1")
        if self.samples < 1:
            raise ValidationError("samples must be >= 1")
        if self.fmt not in ("json", "csv"):
            raise ValidationError(f"format must be csv or json, got {self.fmt!r}")
        if self.replicas > 1 and not KINDS[self.kind].replicable:
            raise ValidationError(
                f"kind {self.kind!r} does not support replicas > 1"
            )

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["params"] = dict(self.params)
        return d


@dataclass(frozen=True)
class RunRecord:
    config: ExperimentConfig
    replica_results: tuple
    aggregate: dict
    duration: float
    version: str

    def to_dict(self, include_duration: bool = False) -> dict:
        d = {
            "config": self.config.to_dict(),
            "replicas": list(self.replica_results),
            "aggregate": self.aggregate,
            "version": self.version,
        }
        if include_duration:
            d["duration_seconds"] = self.duration
        return d


def _require(params: dict, *names):
    for name in names:
        if params.get(name) is None:
            raise ValidationError(
                f"missing required parameter: --{name.replace('_', '-')}")
    return [params[n] for n in names]


def _estimate_dict(est: Estimate) -> dict:
    d = {"mean": est.mean, "stderr": est.stderr, "n": est.n}
    if est.wilson is not None:
        d["wilson95"] = [est.wilson[0], est.wilson[1]]
    return d


def _tail_dict(tail: TailEstimate) -> dict:
    return {"mean": tail.probability, "stderr": tail.stderr, "n": tail.n,
            "wilson95": list(tail.wilson)}


def _split_samples(total: int, replicas: int) -> list[int]:
    base, extra = divmod(total, replicas)
    sizes = [base + (1 if i < extra else 0) for i in range(replicas)]
    if any(s == 0 for s in sizes):
        raise ValidationError("more replicas than samples")
    return sizes


def _pool_means(results: list[dict]) -> dict:
    """Exact pooled mean/stderr from per-replica (mean, stderr, n)."""
    total = 0.0
    total_sq = 0.0
    n = 0
    for r in results:
        ni, mi, si = r["n"], r["mean"], r["stderr"]
        sample_var = si * si * ni
        total += mi * ni
        total_sq += sample_var * (ni - 1) + ni * mi * mi
        n += ni
    return _estimate_dict(mean_estimate(total, total_sq, n))


def _pool_proportions(results: list[dict]) -> dict:
    successes = 0
    n = 0
    for r in results:
        successes += round(r["mean"] * r["n"])
        n += r["n"]
    return _estimate_dict(proportion_estimate(successes, n))


def _replica_sources(config: ExperimentConfig) -> list[RandomSource]:
    base = RandomSource(config.seed)
    if config.series_index is not None:
        base = base.split(config.series_index)
    return base.split_many(config.replicas)


def _per_replica(config: ExperimentConfig, run) -> list[dict]:
    """`run(n, source)` for each replica's share of the samples and its own
    random stream, in replica order."""
    sources = _replica_sources(config)
    sizes = _split_samples(config.samples, config.replicas)
    return [run(n, source) for source, n in zip(sources, sizes)]


def run_experiment(config: ExperimentConfig) -> RunRecord:
    """Dispatch a config to its implementation and aggregate the replicas."""
    start = time.perf_counter()
    replica_results, aggregate = KINDS[config.kind].run(config)
    duration = time.perf_counter() - start
    from . import __version__

    return RunRecord(
        config=config,
        replica_results=tuple(replica_results),
        aggregate=aggregate,
        duration=duration,
        version=__version__,
    )


# ---------------------------------------------------------------------------
# per-kind runners


def _shape_from(params: dict, depth_key: str = "depth") -> tuple[TreeShape, int]:
    delta, k, depth = _require(params, "delta", "k", depth_key)
    return TreeShape(int(delta), int(depth)), int(k)


def _run_marginal(config: ExperimentConfig):
    shape, k = _shape_from(config.params)
    (leaves,) = _require(config.params, "leaves")
    coloring = PartialLeafColoring(k, leaves)
    backend = "rational" if config.params.get("exact") else "float"
    dist = root_marginal(
        shape, k, coloring,
        forbidden_root=config.params.get("forbidden_root"),
        backend=backend,
    )
    if backend == "rational":
        weights = [f"{w.numerator}/{w.denominator}" for w in dist.weights]
    else:
        weights = [float(w) for w in dist.weights]
    result = {"weights": weights, "backend": backend}
    return [result], result


def _run_broadcast(config: ExperimentConfig):
    shape, k = _shape_from(config.params)
    rng = _replica_sources(config)[0]
    rows = sample_leaf_rows(shape, k, config.samples, rng,
                            root_colors=config.params.get("root_color"))
    if config.params.get("summary"):
        counts = np.bincount(rows.ravel().astype(np.int64), minlength=k + 1)
        result = {
            "samples": config.samples,
            "leaf_count": shape.leaf_count,
            "color_counts": [int(c) for c in counts[1:]],
        }
        return [result], result
    lines = [",".join(str(int(v)) for v in row) for row in rows]
    result = {"lines": lines}
    return [result], result


def _unbiasing_params(params: dict, k: int, delta: int) -> UnbiasingParams:
    eps = params.get("epsilon")
    if eps is None:
        return epsilon_from(k, delta)
    return UnbiasingParams(float(eps))


def _run_unbiasing(config: ExperimentConfig):
    shape, k = _shape_from(config.params)
    up = _unbiasing_params(config.params, k, shape.branching)
    highly = bool(config.params.get("highly"))
    results = _per_replica(config, lambda n, source: _estimate_dict(
        unbiasing.estimate_q(shape, k, up, n, source, highly=highly)))
    pooled = _pool_proportions(results)
    aggregate = {
        "q_hat": pooled["mean"],
        "stderr": pooled["stderr"],
        "wilson95": pooled["wilson95"],
        "n": pooled["n"],
        "epsilon": up.epsilon,
        "highly": highly,
    }
    return results, aggregate


def _run_couple(config: ExperimentConfig):
    params = config.params
    mode = params.get("mode", "down")
    if mode != "branching":
        c1, c2 = _require(params, "c1", "c2")
    delta, k = int(params.get("delta", 0)), int(params.get("k", 0))
    depth = int(params.get("depth", -1))
    if delta < 2 or k < 2 or depth < 0:
        raise ValidationError("couple needs delta >= 2, k >= 2, depth >= 0")
    threshold = params.get("threshold")
    if mode == "branching":
        args = (delta, k, depth)
        mean_name, mean_fn = "branching_mean", couplings.branching_mean
        tail_name, tail_fn = "branching_tail", couplings.hamming_tail
    else:
        args = (TreeShape(delta, depth), k, int(c1), int(c2))
        if mode == "downup":
            return _run_downup(config, args)
        if mode != "down":
            raise ValidationError(f"unknown couple mode {mode!r}")
        mean_name, mean_fn = "hamming_mean", couplings.estimate_hamming
        tail_name, tail_fn = "hamming_tail", couplings.hamming_tail_tree

    if threshold is None:
        results = _per_replica(config, lambda n, source: _estimate_dict(
            mean_fn(*args, n, source)))
        return results, {"estimators": [{"estimator": mean_name, **_pool_means(results)}]}
    threshold = float(threshold)
    results = _per_replica(config, lambda n, source: _tail_dict(
        tail_fn(*args, threshold, n, source)))
    pooled = _pool_proportions(results)
    return results, {"estimators": [{"estimator": tail_name, **pooled,
                                     "threshold": threshold}]}


def _run_downup(config: ExperimentConfig, args: tuple):
    def estimate(n, source):
        report = couplings.estimate_beta_tv(*args, n, source)
        return {"coupling_bound": _estimate_dict(report.coupling_bound),
                "plugin_tv": _estimate_dict(report.plugin_tv)}

    results = _per_replica(config, estimate)
    coupling = _pool_means([r["coupling_bound"] for r in results])
    # plug-in TVs do not pool exactly; replicas are averaged by weight
    plug_n = sum(r["plugin_tv"]["n"] for r in results)
    plug_mean = sum(r["plugin_tv"]["mean"] * r["plugin_tv"]["n"] for r in results) / plug_n
    plug_stderr = math.sqrt(sum(
        (r["plugin_tv"]["n"] / plug_n) ** 2 * r["plugin_tv"]["stderr"] ** 2
        for r in results))
    aggregate = {"estimators": [
        {"estimator": "coupling_tv_bound", **coupling},
        {"estimator": "plugin_tv", "mean": plug_mean,
         "stderr": plug_stderr, "n": plug_n},
    ]}
    return results, aggregate


def _run_bias(config: ExperimentConfig):
    shape, k = _shape_from(config.params)
    (color,) = _require(config.params, "color")
    results = _per_replica(config, lambda n, source: _estimate_dict(
        couplings.estimate_alpha(shape, k, int(color), n, source)))
    pooled = _pool_means(results)
    aggregate = {"ell": shape.depth, "alpha_hat": pooled["mean"],
                 "stderr": pooled["stderr"], "n": pooled["n"]}
    return results, aggregate


def _run_concentration(config: ExperimentConfig):
    shape, k = _shape_from(config.params)
    color, threshold = _require(config.params, "color", "threshold")
    results = _per_replica(config, lambda n, source: _tail_dict(
        couplings.concentration_tail(shape, k, int(color), float(threshold), n, source)))
    pooled = _pool_proportions(results)
    aggregate = {"threshold": float(threshold), "probability": pooled["mean"],
                 "stderr": pooled["stderr"], "wilson95": pooled["wilson95"],
                 "n": pooled["n"]}
    return results, aggregate


def _run_dynamics(config: ExperimentConfig):
    params = config.params
    delta, k, n_depth, block_depth = _require(params, "delta", "k", "n", "block_depth")
    shape = TreeShape(int(delta), int(n_depth))
    k = int(k)
    block_depth = int(block_depth)
    if block_depth < 0:
        raise ValidationError("block_depth must be >= 0")
    if params.get("exact"):
        dynamics.check_exact_capacity(shape, k)
        matrix = dynamics.build_transition_matrix(shape, k, block_depth)
        info = dynamics.stationary_and_gap(matrix)
        ergodic = dynamics.is_ergodic(matrix)
        t_mix = dynamics.mixing_time_exact(matrix) if ergodic else None
        result = {
            "states": matrix.size,
            "gap": info["spectral_gap"],
            "t_mix": t_mix,
            "symmetric": info["is_symmetric"],
            "uniform_stationary": info["is_uniform_stationary"],
            "ergodic": ergodic,
        }
        if params.get("matrix_out"):
            _write_matrix_csv(matrix, params["matrix_out"])
        return [result], result
    steps = int(params.get("steps", 0))
    if steps < 1:
        raise ValidationError("steps must be >= 1 for an empirical dynamics run")
    rng = _replica_sources(config)[0]
    state = dynamics.initial_state(shape, k, rng)
    final = dynamics.run_chain(state, block_depth, steps, rng)
    result = {"steps": steps, "final_time": final.time,
              "root_color": int(final.coloring.values[0]),
              "proper": is_proper(shape, final.coloring)}
    return [result], result


def _write_matrix_csv(matrix, path: str) -> None:
    """One line per nonzero entry, as a reduced fraction, in row and then
    column order; each distinct numerator is reduced once, and the text is
    written in one call."""
    rows, columns, numerators = matrix.entries
    d = matrix.denominator
    distinct, inverse = np.unique(numerators, return_inverse=True)
    fractions = [f"{num // g},{d // g}\n" for num in distinct.tolist() for g in [math.gcd(num, d)]]
    lines = zip(rows.tolist(), columns.tolist(), inverse.tolist())
    text = "row_state,col_state,numerator,denominator\n" + "".join(
        f"{i},{j},{fractions[u]}" for i, j, u in lines
    )
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write --matrix-out file: {exc}") from None


# ---------------------------------------------------------------------------
# decay curves


def emit_decay_curve(records: list[RunRecord]) -> dict:
    """Rows of (ell, estimate, stderr, n, log_estimate) plus a fitted slope.

    Estimates of zero keep their row with a null log entry and are left
    out of the fit.  The slope is descriptive only.
    """
    if not records:
        raise ValidationError("no records to tabulate")
    keys = set()
    rows = []
    for record in records:
        agg = record.aggregate
        p = record.config.params
        keys.add((p.get("delta"), p.get("k"), p.get("color") or p.get("c1")))
        if "estimators" in agg:  # couple runs report a list; lead with the first
            agg = agg["estimators"][0]
        est = agg.get("alpha_hat", agg.get("probability", agg.get("q_hat", agg.get("mean"))))
        stderr = agg.get("stderr")
        if est is None or stderr is None:
            raise ValidationError("record carries no (estimate, stderr) aggregate")
        ell = p.get("depth")
        rows.append({
            "ell": int(ell),
            "estimate": float(est),
            "stderr": float(stderr),
            "n": int(agg.get("n", record.config.samples)),
            "log_estimate": math.log(est) if est > 0 else None,
        })
    if len(keys) != 1:
        raise ValidationError("records must share delta, k and color")
    ells = [r["ell"] for r in rows]
    if len(set(ells)) != len(ells):
        raise ValidationError("records must have distinct depths")
    fit = [(r["ell"], r["log_estimate"]) for r in rows if r["log_estimate"] is not None]
    slope = None
    if len(fit) >= 2:
        xs = np.array([f[0] for f in fit], dtype=float)
        ys = np.array([f[1] for f in fit], dtype=float)
        slope = float(np.polyfit(xs, ys, 1)[0])
    return {"rows": rows, "log_slope": slope}


def decay_curve_csv(table: dict) -> str:
    out = io.StringIO()
    out.write("ell,estimate,stderr,n,log_estimate\n")
    for r in table["rows"]:
        log_part = "" if r["log_estimate"] is None else repr(r["log_estimate"])
        out.write(f"{r['ell']},{r['estimate']!r},{r['stderr']!r},{r['n']},{log_part}\n")
    slope = table.get("log_slope")
    out.write(f"# log_slope = {'' if slope is None else repr(slope)}\n")
    return out.getvalue()


def record_json(record: RunRecord) -> str:
    return _json_text(record.to_dict())


# ---------------------------------------------------------------------------
# renderers: a run's records -> the command's output text


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _flat_csv(payload: dict) -> str:
    """One-row CSV of scalar aggregate values; lists join with ';'."""
    keys = sorted(payload)
    cells = []
    for key in keys:
        value = payload[key]
        if isinstance(value, list):
            cells.append(";".join(repr(v) if isinstance(v, float) else str(v)
                                  for v in value))
        elif isinstance(value, float):
            cells.append(repr(value))
        else:
            cells.append(str(value))
    return ",".join(keys) + "\n" + ",".join(cells) + "\n"


def _with_run(record: RunRecord) -> dict:
    config = record.config
    return {**record.aggregate, "seed": config.seed, "samples": config.samples,
            "replicas": config.replicas}


def _render_marginal(records: list) -> str:
    (record,) = records
    if record.config.fmt == "csv":
        rows = ["color,weight"]
        for c, w in enumerate(record.aggregate["weights"], start=1):
            rows.append(f"{c},{w!r}" if isinstance(w, float) else f"{c},{w}")
        rows.append(f"backend,{record.aggregate['backend']}")
        return "\n".join(rows) + "\n"
    return _json_text(record.aggregate)


def _render_broadcast(records: list) -> str:
    (record,) = records
    agg = record.aggregate
    if "lines" in agg:
        return "\n".join(agg["lines"]) + "\n"
    payload = {**agg, "seed": record.config.seed}
    return _flat_csv(payload) if record.config.fmt == "csv" else _json_text(payload)


def _render_summary(records: list) -> str:
    (record,) = records
    payload = _with_run(record)
    if record.config.fmt == "csv":
        return _flat_csv({k: v for k, v in payload.items()
                          if not isinstance(v, (dict, list)) or k == "wilson95"})
    return _json_text(payload)


def _render_couple(records: list) -> str:
    (record,) = records
    payload = _with_run(record)
    if record.config.fmt == "csv":
        rows = ["estimator,mean,stderr,n"]
        for est in payload["estimators"]:
            rows.append(f"{est['estimator']},{est['mean']!r},{est['stderr']!r},{est['n']}")
        rows.append(f"# seed = {record.config.seed}")
        return "\n".join(rows) + "\n"
    return _json_text(payload)


def _render_bias(records: list) -> str:
    rows = [r.aggregate for r in records]
    seed = records[0].config.seed
    if records[0].config.fmt == "json":
        return _json_text({"rows": rows, "seed": seed})
    out = ["ell,alpha_hat,stderr,n"]
    for row in rows:
        out.append(f"{row['ell']},{row['alpha_hat']!r},{row['stderr']!r},{row['n']}")
    out.append(f"# seed = {seed}")
    return "\n".join(out) + "\n"


def _render_sweep(records: list) -> str:
    table = emit_decay_curve(records)
    seed = records[0].config.seed
    if records[0].config.fmt == "json":
        return _json_text({**table, "seed": seed})
    return decay_curve_csv(table) + f"# seed = {seed}\n"


# ---------------------------------------------------------------------------
# the kind registry


def _to_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValidationError(f"expected a boolean, got {text!r}")


def _to_range(text: str) -> tuple[int, int]:
    parts = text.split("..")
    if len(parts) != 2:
        raise ValidationError(f"expected a range like 1..6, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValidationError(f"expected a range like 1..6, got {text!r}") from None
    if lo > hi:
        raise ValidationError(f"empty range {text!r}")
    return lo, hi


_TREE = {"delta": (int, True, None), "k": (int, True, None), "depth": (int, True, None)}
_SAMPLES = {"samples": (int, True, None)}

KINDS: dict[str, ExperimentKind] = {
    "marginal": ExperimentKind(
        "exact root distribution given a leaf coloring",
        {**_TREE, "leaves": (str, True, None), "forbidden_root": (int, False, None),
         "exact": (_to_bool, False, False)},
        _run_marginal, _render_marginal),
    "broadcast": ExperimentKind(
        "sample leaf colorings of uniform proper colorings",
        {**_TREE, "root_color": (int, False, None), **_SAMPLES,
         "summary": (_to_bool, False, False)},
        _run_broadcast, _render_broadcast),
    "unbiasing": ExperimentKind(
        "estimate the failure probability of the unbiasing property",
        {**_TREE, "epsilon": (float, True, None), **_SAMPLES,
         "highly": (_to_bool, False, False)},
        _run_unbiasing, _render_summary, replicable=True),
    "couple": ExperimentKind(
        "coupled-pair experiments: Hamming distance, round-trip TV",
        {**_TREE, "c1": (int, False, None), "c2": (int, False, None),
         "mode": (str, False, "down"), "threshold": (float, False, None), **_SAMPLES},
        _run_couple, _render_couple, replicable=True),
    "bias": ExperimentKind(
        "root bias decay curve over a depth range",
        {"delta": (int, True, None), "k": (int, True, None),
         "depth_range": (_to_range, True, None), "color": (int, True, None), **_SAMPLES},
        _run_bias, _render_bias, replicable=True, series=True),
    "concentration": ExperimentKind(
        "tail probability of the conditional root weight",
        {**_TREE, "color": (int, True, None), "threshold": (float, True, None),
         **_SAMPLES},
        _run_concentration, _render_summary, replicable=True),
    "dynamics": ExperimentKind(
        "heat-bath block dynamics: exact matrix or empirical run",
        {"delta": (int, True, None), "k": (int, True, None), "n": (int, True, None),
         "block_depth": (int, True, None), "steps": (int, False, None),
         "exact": (_to_bool, False, False), "matrix_out": (str, False, None)},
        _run_dynamics, _render_summary),
    "sweep": ExperimentKind(
        "run one estimator across a depth range, emit decay-curve data",
        {"kind": (str, True, None), "delta": (int, True, None), "k": (int, True, None),
         "depth_range": (_to_range, True, None), "color": (int, False, None),
         "c1": (int, False, None), "c2": (int, False, None),
         "mode": (str, False, "down"), "threshold": (float, False, None),
         "epsilon": (float, False, None), "highly": (_to_bool, False, False),
         **_SAMPLES},
        None, _render_sweep, series=True),
}


# ---------------------------------------------------------------------------
# flat key=value config files


def parse_config_file(path: str) -> dict:
    """Flat `key = value` lines; '#' starts a comment; later keys win."""
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValidationError(
                        f"{path}:{lineno}: expected key=value, got {raw.strip()!r}"
                    )
                key, value = line.split("=", 1)
                out[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}") from None
    return out
