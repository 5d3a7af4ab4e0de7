"""Experiment harness and command-line front end."""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from conftest import cli_subprocess_env
from treecolor import __version__, cli, dynamics
from treecolor.cli import main
from treecolor.dynamics import build_transition_matrix
from treecolor.errors import ValidationError
from treecolor.estimators import mean_estimate, proportion_estimate
from treecolor.harness import (
    KINDS,
    ExperimentConfig,
    RunRecord,
    _pool_means,
    _pool_proportions,
    _split_samples,
    decay_curve_csv,
    emit_decay_curve,
    parse_config_file,
    record_json,
    run_experiment,
)
from treecolor.tree_model import TreeShape


# ---------------------------------------------------------------------------
# configs, replica splitting, pooling


def test_config_validation():
    good = ExperimentConfig(kind="bias", params={"delta": 2, "k": 3, "depth": 1})
    assert good.replicas == 1 and good.fmt == "json"
    with pytest.raises(ValidationError):
        ExperimentConfig(kind="mystery", params={})
    with pytest.raises(ValidationError):
        ExperimentConfig(kind="bias", params={}, replicas=0)
    with pytest.raises(ValidationError):
        ExperimentConfig(kind="bias", params={}, fmt="xml")
    # estimator kinds may fan out; one-shot kinds may not
    ExperimentConfig(kind="couple", params={}, replicas=4)
    for kind in ("marginal", "broadcast", "dynamics"):
        with pytest.raises(ValidationError):
            ExperimentConfig(kind=kind, params={}, replicas=2)


def test_config_roundtrips_through_dict():
    config = ExperimentConfig(
        kind="bias", params={"delta": 2, "k": 3, "depth": 1, "color": 2}, seed=9
    )
    d = config.to_dict()
    assert d["kind"] == "bias" and d["seed"] == 9
    d["params"]["color"] = 3  # the dict is a copy, not a view
    assert config.params["color"] == 2


def test_split_samples():
    assert _split_samples(10, 3) == [4, 3, 3]
    assert _split_samples(12, 4) == [3, 3, 3, 3]
    assert _split_samples(5, 5) == [1, 1, 1, 1, 1]
    with pytest.raises(ValidationError):
        _split_samples(3, 4)


def test_mean_pooling_is_exact():
    rng = np.random.default_rng(31)
    data = rng.exponential(size=101)
    replicas = []
    for chunk in np.array_split(data, 4):
        est = mean_estimate(chunk.sum(), (chunk**2).sum(), len(chunk))
        replicas.append({"mean": est.mean, "stderr": est.stderr, "n": est.n})
    pooled = _pool_means(replicas)
    direct = mean_estimate(data.sum(), (data**2).sum(), len(data))
    assert pooled["n"] == 101
    assert pooled["mean"] == pytest.approx(direct.mean, rel=1e-12)
    assert pooled["stderr"] == pytest.approx(direct.stderr, rel=1e-9)


def test_proportion_pooling_is_exact():
    replicas = [{"mean": 0.3, "n": 10}, {"mean": 0.35, "n": 20}]
    pooled = _pool_proportions(replicas)
    direct = proportion_estimate(10, 30)
    assert pooled["mean"] == direct.mean
    assert pooled["stderr"] == direct.stderr
    assert pooled["wilson95"] == [direct.wilson[0], direct.wilson[1]]


def test_aggregate_is_fold_of_replicas():
    config = ExperimentConfig(
        kind="unbiasing",
        params={"delta": 2, "k": 3, "depth": 2, "epsilon": 1 / 3},
        seed=11,
        samples=400,
        replicas=4,
    )
    record = run_experiment(config)
    assert len(record.replica_results) == 4
    assert sum(r["n"] for r in record.replica_results) == 400
    refold = _pool_proportions(list(record.replica_results))
    assert record.aggregate["q_hat"] == refold["mean"]
    assert record.aggregate["stderr"] == refold["stderr"]


def test_replica_fanout_is_statistically_consistent():
    base = {"delta": 2, "k": 4, "depth": 2, "color": 1}
    one = run_experiment(
        ExperimentConfig(kind="bias", params=base, seed=1, samples=4000, replicas=1)
    ).aggregate
    eight = run_experiment(
        ExperimentConfig(kind="bias", params=base, seed=2, samples=4000, replicas=8)
    ).aggregate
    combined = math.hypot(one["stderr"], eight["stderr"])
    assert abs(one["alpha_hat"] - eight["alpha_hat"]) < 4 * combined


# ---------------------------------------------------------------------------
# run_experiment dispatch


def test_marginal_experiment_exact_weights():
    config = ExperimentConfig(
        kind="marginal",
        params={"delta": 2, "k": 3, "depth": 1, "leaves": [1, 2], "exact": True},
    )
    record = run_experiment(config)
    assert record.aggregate == {"weights": ["0/1", "0/1", "1/1"], "backend": "rational"}
    floats = run_experiment(
        ExperimentConfig(
            kind="marginal", params={"delta": 2, "k": 3, "depth": 1, "leaves": [1, 2]}
        )
    ).aggregate
    assert floats["backend"] == "float"
    assert floats["weights"] == pytest.approx([0.0, 0.0, 1.0])


def test_broadcast_experiment_lines_and_summary():
    lines = run_experiment(
        ExperimentConfig(
            kind="broadcast",
            params={"delta": 2, "k": 3, "depth": 2},
            seed=3,
            samples=5,
        )
    ).aggregate["lines"]
    assert len(lines) == 5
    for line in lines:
        values = [int(tok) for tok in line.split(",")]
        assert len(values) == 4 and all(1 <= v <= 3 for v in values)
    summary = run_experiment(
        ExperimentConfig(
            kind="broadcast",
            params={"delta": 2, "k": 3, "depth": 2, "summary": True, "root_color": 2},
            seed=3,
            samples=50,
        )
    ).aggregate
    assert summary["leaf_count"] == 4
    assert sum(summary["color_counts"]) == 50 * 4
    assert len(summary["color_counts"]) == 3


def test_couple_experiment_aggregate_schemas():
    down = run_experiment(
        ExperimentConfig(
            kind="couple",
            params={"delta": 2, "k": 3, "depth": 2, "c1": 1, "c2": 2},
            samples=200,
        )
    ).aggregate
    assert down["estimators"][0]["estimator"] == "hamming_mean"
    assert down["estimators"][0]["n"] == 200

    tail = run_experiment(
        ExperimentConfig(
            kind="couple",
            params={"delta": 2, "k": 3, "depth": 2, "c1": 1, "c2": 2, "threshold": 1.5},
            samples=200,
        )
    ).aggregate
    assert tail["estimators"][0]["estimator"] == "hamming_tail"
    assert tail["estimators"][0]["threshold"] == 1.5
    assert "wilson95" in tail["estimators"][0]

    process = run_experiment(
        ExperimentConfig(
            kind="couple",
            params={"delta": 3, "k": 4, "depth": 2, "mode": "branching"},
            samples=200,
        )
    ).aggregate
    assert process["estimators"][0]["estimator"] == "branching_mean"

    downup = run_experiment(
        ExperimentConfig(
            kind="couple",
            params={"delta": 2, "k": 3, "depth": 1, "c1": 1, "c2": 2, "mode": "downup"},
            samples=300,
            replicas=3,
        )
    )
    names = [e["estimator"] for e in downup.aggregate["estimators"]]
    assert names == ["coupling_tv_bound", "plugin_tv"]
    refold = _pool_means([r["coupling_bound"] for r in downup.replica_results])
    assert downup.aggregate["estimators"][0]["mean"] == refold["mean"]

    with pytest.raises(ValidationError):
        run_experiment(
            ExperimentConfig(
                kind="couple",
                params={"delta": 2, "k": 3, "depth": 1, "c1": 1, "c2": 2,
                        "mode": "sideways"},
                samples=10,
            )
        )
    with pytest.raises(ValidationError):
        run_experiment(
            ExperimentConfig(
                kind="couple", params={"delta": 2, "k": 3, "depth": 1}, samples=10
            )
        )


def test_bias_and_concentration_aggregates():
    bias = run_experiment(
        ExperimentConfig(
            kind="bias",
            params={"delta": 2, "k": 3, "depth": 2, "color": 1},
            samples=300,
        )
    ).aggregate
    assert bias["ell"] == 2 and bias["n"] == 300
    assert 0.0 <= bias["alpha_hat"] <= 1.0

    conc = run_experiment(
        ExperimentConfig(
            kind="concentration",
            params={"delta": 2, "k": 4, "depth": 1, "color": 1, "threshold": 0.5},
            samples=300,
        )
    ).aggregate
    assert conc["threshold"] == 0.5
    assert conc["n"] == 300
    assert 0.0 <= conc["probability"] <= 1.0
    assert len(conc["wilson95"]) == 2


def test_dynamics_experiment_exact_and_empirical():
    exact = run_experiment(
        ExperimentConfig(
            kind="dynamics",
            params={"delta": 2, "k": 3, "n": 1, "block_depth": 0, "exact": True},
        )
    ).aggregate
    assert exact["states"] == 12
    assert exact["t_mix"] == 16
    assert exact["symmetric"] and exact["uniform_stationary"] and exact["ergodic"]
    assert 0 < exact["gap"] < 1

    empirical = run_experiment(
        ExperimentConfig(
            kind="dynamics",
            params={"delta": 2, "k": 4, "n": 2, "block_depth": 1, "steps": 40},
            seed=6,
        )
    ).aggregate
    assert empirical == {
        "steps": 40,
        "final_time": 40,
        "root_color": empirical["root_color"],
        "proper": True,
    }
    assert 1 <= empirical["root_color"] <= 4

    with pytest.raises(ValidationError):
        run_experiment(
            ExperimentConfig(
                kind="dynamics", params={"delta": 2, "k": 3, "n": 1, "block_depth": 0}
            )
        )


def test_dynamics_experiment_reports_improper_final_state(monkeypatch):
    from treecolor import dynamics
    from treecolor.tree_model import FullColoring

    def improper_chain(state, block_depth, steps, rng):
        clash = np.ones(state.shape.vertex_count, dtype=np.int16)
        return dynamics.DynamicsState(state.shape, state.k,
                                      FullColoring(state.k, clash), steps)

    monkeypatch.setattr(dynamics, "run_chain", improper_chain)
    result = run_experiment(
        ExperimentConfig(
            kind="dynamics",
            params={"delta": 2, "k": 3, "n": 2, "block_depth": 0, "steps": 5},
        )
    ).aggregate
    assert result["proper"] is False


def test_run_record_serialization_excludes_wall_clock():
    config = ExperimentConfig(
        kind="bias", params={"delta": 2, "k": 3, "depth": 1, "color": 1}, samples=50
    )
    record = run_experiment(config)
    assert record.version == __version__
    assert record.duration >= 0.0
    d = record.to_dict()
    assert "duration_seconds" not in json.dumps(d)
    assert record.to_dict(include_duration=True)["duration_seconds"] == record.duration
    parsed = json.loads(record_json(record))
    assert parsed["config"]["kind"] == "bias"
    assert parsed["aggregate"] == record.aggregate


def test_run_experiment_is_reproducible():
    config = ExperimentConfig(
        kind="couple",
        params={"delta": 2, "k": 3, "depth": 2, "c1": 1, "c2": 2, "mode": "downup"},
        seed=14,
        samples=200,
        replicas=2,
    )
    assert record_json(run_experiment(config)) == record_json(run_experiment(config))


# ---------------------------------------------------------------------------
# decay curves


def fake_record(depth, aggregate, kind="bias", delta=2, k=3, color=1, c1=None):
    params = {"delta": delta, "k": k, "depth": depth}
    if color is not None:
        params["color"] = color
    if c1 is not None:
        params["c1"] = c1
    config = ExperimentConfig(kind=kind, params=params, samples=100)
    return RunRecord(
        config=config,
        replica_results=(aggregate,),
        aggregate=aggregate,
        duration=0.0,
        version="test",
    )


def agg(value, n=100):
    return {"alpha_hat": value, "stderr": 0.01, "n": n}


def test_decay_curve_single_record_has_null_slope():
    table = emit_decay_curve([fake_record(3, agg(0.25))])
    assert table["log_slope"] is None
    assert table["rows"] == [
        {
            "ell": 3,
            "estimate": 0.25,
            "stderr": 0.01,
            "n": 100,
            "log_estimate": math.log(0.25),
        }
    ]


def test_decay_curve_two_point_slope():
    table = emit_decay_curve([fake_record(1, agg(0.4)), fake_record(2, agg(0.1))])
    assert table["log_slope"] == pytest.approx(math.log(0.1 / 0.4), rel=1e-12)


def test_decay_curve_keeps_zero_estimates_out_of_fit():
    records = [
        fake_record(1, agg(0.4)),
        fake_record(2, agg(0.0)),
        fake_record(3, agg(0.1)),
    ]
    table = emit_decay_curve(records)
    assert [r["log_estimate"] for r in table["rows"]][1] is None
    assert table["log_slope"] == pytest.approx(math.log(0.1 / 0.4) / 2, rel=1e-12)


def test_decay_curve_reads_couple_estimator_lists():
    def couple_agg(value):
        return {"estimators": [{"estimator": "hamming_mean", "mean": value,
                                "stderr": 0.02, "n": 64}]}

    records = [
        fake_record(1, couple_agg(0.5), kind="couple", color=None, c1=1),
        fake_record(2, couple_agg(0.25), kind="couple", color=None, c1=1),
    ]
    table = emit_decay_curve(records)
    assert table["rows"][0]["estimate"] == 0.5
    assert table["rows"][1]["n"] == 64
    assert table["log_slope"] == pytest.approx(math.log(0.5), rel=1e-12)


def test_decay_curve_validation():
    with pytest.raises(ValidationError):
        emit_decay_curve([])
    with pytest.raises(ValidationError):
        emit_decay_curve([fake_record(1, agg(0.4)), fake_record(1, agg(0.3))])
    with pytest.raises(ValidationError):
        emit_decay_curve([fake_record(1, agg(0.4)), fake_record(2, agg(0.3), delta=3)])
    with pytest.raises(ValidationError):
        emit_decay_curve([fake_record(1, {"stderr": 0.1, "n": 5})])


def test_decay_curve_csv_layout():
    table = emit_decay_curve([fake_record(1, agg(0.4)), fake_record(2, agg(0.0))])
    lines = decay_curve_csv(table).splitlines()
    assert lines[0] == "ell,estimate,stderr,n,log_estimate"
    assert lines[1] == f"1,0.4,0.01,100,{math.log(0.4)!r}"
    assert lines[2] == "2,0.0,0.01,100,"  # zero estimate: row kept, log empty
    assert lines[3].startswith("# log_slope = ")


# ---------------------------------------------------------------------------
# config files


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# a comment\n"
        "delta = 2\n"
        "\n"
        "k=3   # trailing comment\n"
        "root-color = 1\n"
        "k = 4\n"
    )
    assert parse_config_file(str(path)) == {"delta": "2", "k": "4", "root_color": "1"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("delta\n")
    with pytest.raises(ValidationError, match="bad.cfg:1"):
        parse_config_file(str(bad))
    with pytest.raises(ValidationError):
        parse_config_file(str(tmp_path / "absent.cfg"))


# ---------------------------------------------------------------------------
# command line


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_marginal_exact(tmp_path, capsys):
    leaves = tmp_path / "leaves.txt"
    leaves.write_text("1,2\n")
    code, out, _ = run_cli(
        capsys, "marginal", "--delta", "2", "--k", "3", "--depth", "1",
        "--leaves", str(leaves), "--exact",
    )
    assert code == 0
    assert json.loads(out)["weights"] == ["0/1", "0/1", "1/1"]


def test_cli_marginal_exact_beyond_60_colors(tmp_path, capsys):
    leaves = tmp_path / "leaves.txt"
    leaves.write_text("1,2\n")
    code, out, _ = run_cli(
        capsys, "marginal", "--delta", "2", "--k", "61", "--depth", "1",
        "--leaves", str(leaves), "--exact",
    )
    assert code == 0
    assert json.loads(out)["weights"] == ["0/1", "0/1"] + ["1/59"] * 59


def test_cli_marginal_csv(tmp_path, capsys):
    leaves = tmp_path / "leaves.txt"
    leaves.write_text("1,2\n")
    code, out, _ = run_cli(
        capsys, "marginal", "--delta", "2", "--k", "3", "--depth", "1",
        "--leaves", str(leaves), "--exact", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == [
        "color,weight", "1,0/1", "2,0/1", "3,1/1", "backend,rational"
    ]


def test_cli_exit_codes(tmp_path, capsys):
    # 2: unreadable required input
    code, _, err = run_cli(
        capsys, "marginal", "--delta", "2", "--k", "3", "--depth", "1",
        "--leaves", str(tmp_path / "nope.txt"),
    )
    assert code == 2 and "error:" in err
    # 2: bad flag value
    leaves = tmp_path / "leaves.txt"
    leaves.write_text("1,2\n")
    code, _, _ = run_cli(
        capsys, "marginal", "--delta", "2", "--k", "3", "--depth", "1",
        "--leaves", str(leaves), "--format", "xml",
    )
    assert code == 2
    # 2: a leaf entry outside int16, once an OverflowError traceback (exit 1)
    big = tmp_path / "big.txt"
    big.write_text("65537,2\n")
    code, _, err = run_cli(
        capsys, "marginal", "--delta", "2", "--k", "3", "--depth", "1",
        "--leaves", str(big),
    )
    assert code == 2 and "error:" in err
    # 3: state space too large for exact dynamics
    code, _, err = run_cli(
        capsys, "dynamics", "--delta", "2", "--k", "3", "--n", "3",
        "--block-depth", "0", "--exact",
    )
    assert code == 3 and "state guard" in err
    # 4: leaf coloring with no proper extension
    leaves3 = tmp_path / "leaves3.txt"
    leaves3.write_text("1,2,3\n")
    code, _, _ = run_cli(
        capsys, "marginal", "--delta", "3", "--k", "3", "--depth", "1",
        "--leaves", str(leaves3), "--exact",
    )
    assert code == 4


def test_cli_broadcast_lines(capsys):
    code, out, _ = run_cli(
        capsys, "broadcast", "--delta", "2", "--k", "3", "--depth", "2",
        "--samples", "3", "--seed", "5",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert all(len(line.split(",")) == 4 for line in lines)


def test_cli_broadcast_summary_csv(capsys):
    code, out, _ = run_cli(
        capsys, "broadcast", "--delta", "2", "--k", "3", "--depth", "1",
        "--samples", "10", "--summary", "--format", "csv", "--root-color", "2",
    )
    assert code == 0
    header, row = out.splitlines()
    assert header == "color_counts,leaf_count,samples,seed"
    counts = [int(tok) for tok in row.split(",")[0].split(";")]
    assert counts[1] == 0  # children never repeat the conditioned root color
    assert sum(counts) == 20


def test_cli_dynamics_exact_with_matrix_export(tmp_path, capsys):
    out_csv = tmp_path / "matrix.csv"
    code, out, _ = run_cli(
        capsys, "dynamics", "--delta", "2", "--k", "3", "--n", "1",
        "--block-depth", "0", "--exact", "--matrix-out", str(out_csv),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["states"] == 12 and payload["t_mix"] == 16
    assert payload["symmetric"] and payload["ergodic"]

    matrix = build_transition_matrix(TreeShape(2, 1), 3, 0)
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "row_state,col_state,numerator,denominator"
    seen = 0
    for line in lines[1:]:
        i, j, num, den = (int(tok) for tok in line.split(","))
        assert matrix.entry(i, j) == Fraction(num, den)
        seen += 1
    assert seen == sum(len(row) for row in matrix.rows)


# SHA-256 of the stdout and of the --matrix-out CSV of
# `dynamics --exact --format json`, per (delta, n, k, block_depth)
DYNAMICS_EXACT_DIGESTS = {
    (2, 1, 3, 0): ("5aa0a130e4c4c593041fb1fd0b659c24493c51b2933e7fb2ccb8947d166f3fb3",
                   "1f90c1a186634fd69b253893afd2c92204d3aa6ddd810b9cbcad53ed451b53a9"),
    (2, 2, 3, 1): ("9e84bc807992abf4bed4737114c294134a5f2958ec8605735893ec6f264e025b",
                   "10f28c6638fa91ebb7f537cbce9048ba5e6794d82d39e7a02ce6050a60f8226f"),
    (2, 1, 4, 0): ("cccce719a1cd72c37dcb8bc48bc2d355012378df3569a7b9caa7b8c480b21663",
                   "316eb6b2bf6f52c117f9cb674b705d1a95eb0f24066962bf91002b1ea87c8d0a"),
}


@pytest.mark.parametrize("delta, n, k, block_depth", sorted(DYNAMICS_EXACT_DIGESTS))
def test_cli_dynamics_exact_output_is_byte_stable(tmp_path, capsys, delta, n, k, block_depth):
    out_csv = tmp_path / "matrix.csv"
    code, out, _ = run_cli(
        capsys, "dynamics", "--delta", str(delta), "--n", str(n), "--k", str(k),
        "--block-depth", str(block_depth), "--exact", "--format", "json",
        "--matrix-out", str(out_csv),
    )
    assert code == 0
    digests = (hashlib.sha256(out.encode()).hexdigest(),
               hashlib.sha256(out_csv.read_bytes()).hexdigest())
    assert digests == DYNAMICS_EXACT_DIGESTS[(delta, n, k, block_depth)]


def test_cli_marginal_exact_output_is_byte_stable(tmp_path, capsys):
    # a proper leaf row of the delta=3, depth-8, k=4 tree, broadcast top-down
    gen = np.random.default_rng(2024)
    level = gen.integers(1, 5, size=1)
    for _ in range(8):
        parents = np.repeat(level, 3)
        r = gen.integers(1, 4, size=parents.size)
        level = r + (r >= parents)
    leaves = tmp_path / "leaves.txt"
    leaves.write_text(",".join(str(int(v)) for v in level) + "\n")
    code, out, _ = run_cli(
        capsys, "marginal", "--delta", "3", "--k", "4", "--depth", "8",
        "--leaves", str(leaves), "--exact",
    )
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "f556e942eaaee92954d324785d78ab6d8d5f5ad6cf8fa0b4750037650c8e52f0")


def test_cli_marginal_float_output_is_byte_stable(tmp_path, capsys):
    # 19683 leaves of the delta=3, depth-9, k=4 tree, broadcast top-down,
    # with about 70% of them then freed
    gen = np.random.default_rng(2026)
    level = gen.integers(1, 5, size=1)
    for _ in range(9):
        parents = np.repeat(level, 3)
        r = gen.integers(1, 4, size=parents.size)
        level = r + (r >= parents)
    level[gen.random(level.size) < 0.7] = 0
    leaves = tmp_path / "leaves.txt"
    leaves.write_text(",".join(str(int(v)) for v in level) + "\n")
    code, out, _ = run_cli(
        capsys, "marginal", "--delta", "3", "--k", "4", "--depth", "9",
        "--leaves", str(leaves),
    )
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "f7438b1257e8d943cc986948980187e0ee30345e8a50f0908f9a4c3204eea11a")


def test_cli_matrix_out_in_missing_directory_exits_2_before_building(
    tmp_path, capsys, monkeypatch
):
    def never(*args, **kwargs):
        raise AssertionError("the transition matrix must not be built")

    monkeypatch.setattr(dynamics, "build_transition_matrix", never)
    target = tmp_path / "missing_dir" / "m.csv"
    code, out, err = run_cli(
        capsys, "dynamics", "--delta", "2", "--k", "3", "--n", "1",
        "--block-depth", "0", "--exact", "--matrix-out", str(target),
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "missing_dir" in err
    assert not target.parent.exists()


def test_cli_matrix_out_write_failure_exits_2(tmp_path, capsys):
    # the directory exists, but the path names a directory, not a file
    code, _, err = run_cli(
        capsys, "dynamics", "--delta", "2", "--k", "3", "--n", "1",
        "--block-depth", "0", "--exact", "--matrix-out", str(tmp_path),
    )
    assert code == 2 and err.startswith("error: cannot write --matrix-out file")


def test_cli_dynamics_exact_guard_trips_before_building_the_matrix(capsys, monkeypatch):
    # 2916 states: over the mixing guard, under the enumeration guard
    def never(*args, **kwargs):
        raise AssertionError("the transition matrix must not be built")

    monkeypatch.setattr(dynamics, "build_transition_matrix", never)
    code, _, err = run_cli(
        capsys, "dynamics", "--delta", "2", "--k", "4", "--n", "2",
        "--block-depth", "0", "--exact",
    )
    assert code == 3
    assert "exact mixing time supports at most 400 states" in err


def test_cli_unbiasing_json(capsys):
    code, out, _ = run_cli(
        capsys, "unbiasing", "--delta", "2", "--k", "3", "--depth", "2",
        "--epsilon", "0.3333", "--samples", "400", "--replicas", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 400 and payload["replicas"] == 2
    assert 0.0 <= payload["q_hat"] <= 1.0
    assert payload["epsilon"] == 0.3333


def test_cli_couple_requires_colors(capsys):
    code, _, err = run_cli(
        capsys, "couple", "--delta", "2", "--k", "3", "--depth", "1",
        "--samples", "10",
    )
    assert code == 2 and "--c1" in err


def test_cli_couple_csv(capsys):
    code, out, _ = run_cli(
        capsys, "couple", "--delta", "2", "--k", "3", "--depth", "1",
        "--c1", "1", "--c2", "2", "--mode", "downup", "--samples", "100",
        "--format", "csv", "--seed", "8",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "estimator,mean,stderr,n"
    assert lines[1].startswith("coupling_tv_bound,")
    assert lines[2].startswith("plugin_tv,")
    assert lines[3] == "# seed = 8"


def test_cli_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "b.cfg"
    cfg.write_text(
        "delta = 2\nk = 4\ndepth = 1\nsamples = 10\nsummary = true\nroot-color = 2\n"
    )
    code, out, _ = run_cli(capsys, "broadcast", "--config", str(cfg), "--k", "3")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["color_counts"]) == 3  # flag beat the file's k = 4
    assert payload["color_counts"][1] == 0  # file's root-color applied


@pytest.mark.parametrize("command, extra, key", [
    ("broadcast", "k = x\n", "k"),
    ("concentration", "k = 3\ncolor = 1\nthreshold = x\n", "threshold"),
], ids=["int", "float"])
def test_cli_config_file_bad_number_exits_2(tmp_path, capsys, command, extra, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("delta = 2\ndepth = 1\nsamples = 2\n" + extra)
    code, out, err = run_cli(capsys, command, "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and repr(key) in err and "'x'" in err


def test_cli_out_in_missing_directory_exits_2_before_running(tmp_path, capsys, monkeypatch):
    def never(config):
        raise AssertionError("no experiment may run")

    monkeypatch.setattr(cli, "run_experiment", never)
    target = tmp_path / "missing_dir" / "x.txt"
    code, _, err = run_cli(
        capsys, "broadcast", "--delta", "2", "--k", "3", "--depth", "1",
        "--samples", "2", "--out", str(target),
    )
    assert code == 2
    assert err.startswith("error: ") and "missing_dir" in err
    assert not target.parent.exists()


def test_cli_out_write_failure_exits_2(tmp_path, capsys):
    # the directory exists, but the path names a directory, not a file
    code, _, err = run_cli(
        capsys, "broadcast", "--delta", "2", "--k", "3", "--depth", "1",
        "--samples", "2", "--out", str(tmp_path),
    )
    assert code == 2 and err.startswith("error: cannot write --out file")


def test_cli_bias_depth_series(capsys):
    code, out, _ = run_cli(
        capsys, "bias", "--delta", "2", "--k", "3", "--depth-range", "1..3",
        "--color", "1", "--samples", "100", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ell,alpha_hat,stderr,n"
    assert [line.split(",")[0] for line in lines[1:4]] == ["1", "2", "3"]
    assert lines[4] == "# seed = 0"


def test_cli_sweep_emits_six_row_curve(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--kind", "bias", "--delta", "2", "--k", "3",
        "--depth-range", "1..6", "--color", "1", "--samples", "60",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ell,estimate,stderr,n,log_estimate"
    assert len(lines) == 1 + 6 + 2  # header, six depths, slope + seed trailers
    assert lines[7].startswith("# log_slope = ")


def test_cli_sweep_couple_mode(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--kind", "couple", "--delta", "2", "--k", "3",
        "--depth-range", "0..1", "--c1", "1", "--c2", "2", "--samples", "200",
        "--format", "csv",
    )
    assert code == 0
    assert len(out.splitlines()) == 1 + 2 + 2


def test_cli_sweep_validation(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--kind", "marginal", "--delta", "2", "--k", "3",
        "--depth-range", "1..2", "--samples", "10",
    )
    assert code == 2 and "sweep supports" in err
    code, _, err = run_cli(
        capsys, "sweep", "--kind", "bias", "--delta", "2", "--k", "3",
        "--depth-range", "1..2", "--samples", "10",
    )
    assert code == 2 and "--color" in err
    code, _, err = run_cli(
        capsys, "sweep", "--kind", "bias", "--delta", "2", "--k", "3",
        "--depth-range", "3..1", "--color", "1", "--samples", "10",
    )
    assert code == 2 and "range" in err
    # each swept kind's own required parameters, named as the flag
    base = ["sweep", "--delta", "2", "--k", "3", "--depth-range", "1..2",
            "--samples", "10"]
    for extra, flag in (
        (["--kind", "concentration", "--color", "1"], "--threshold"),
        (["--kind", "concentration", "--threshold", "0.5"], "--color"),
        (["--kind", "couple", "--c2", "2"], "--c1"),
        (["--kind", "couple", "--c1", "1"], "--c2"),
        (["--kind", "unbiasing"], "--epsilon"),
    ):
        code, _, err = run_cli(capsys, *base, *extra)
        assert code == 2
        assert err == f"error: missing required parameter: {flag}\n"


def test_cli_sweep_accepts_exactly_the_replicable_kinds(capsys):
    accepted = set()
    for kind in KINDS:
        code, _, err = run_cli(
            capsys, "sweep", "--kind", kind, "--delta", "2", "--k", "3",
            "--depth-range", "1..1", "--samples", "20", "--color", "1",
            "--threshold", "0.5", "--epsilon", "0.3333", "--c1", "1", "--c2", "2",
        )
        if code == 0:
            accepted.add(kind)
        else:
            assert code == 2 and "sweep supports" in err
    assert accepted == {kind for kind, entry in KINDS.items() if entry.replicable}
    assert accepted == {"bias", "unbiasing", "couple", "concentration"}


def test_cli_rejects_zero_samples(capsys):
    with pytest.raises(ValidationError, match="samples must be >= 1"):
        ExperimentConfig(kind="unbiasing", params={}, samples=0)
    for argv in (
        ["broadcast", "--depth", "2"],
        ["unbiasing", "--depth", "2", "--epsilon", "0.3"],
        ["couple", "--depth", "2", "--c1", "1", "--c2", "2"],
        ["concentration", "--depth", "1", "--color", "1", "--threshold", "0.5"],
        ["bias", "--depth-range", "1..2", "--color", "1"],
        ["sweep", "--kind", "bias", "--depth-range", "1..2", "--color", "1"],
    ):
        code, out, err = run_cli(
            capsys, *argv, "--delta", "2", "--k", "3", "--samples", "0")
        assert code == 2 and out == ""
        assert err == "error: samples must be >= 1\n"


def test_cli_rejects_replicas_for_one_shot_kinds(tmp_path, capsys):
    leaves = tmp_path / "leaves.txt"
    leaves.write_text("1,2\n")
    code, _, err = run_cli(
        capsys, "marginal", "--delta", "2", "--k", "3", "--depth", "1",
        "--leaves", str(leaves), "--replicas", "2",
    )
    assert code == 2 and "replicas" in err


def test_cli_out_files_are_byte_identical_across_reruns(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"]
    for path, seed in zip(paths, ("21", "21", "22")):
        code, out, _ = run_cli(
            capsys, "unbiasing", "--delta", "2", "--k", "3", "--depth", "2",
            "--epsilon", "0.3333", "--samples", "200", "--seed", seed,
            "--out", str(path),
        )
        assert code == 0 and out == ""
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()


@pytest.mark.parametrize("extra", [[], ["--threshold", "1.5"]])
def test_cli_couple_down_reruns_are_byte_identical(tmp_path, extra):
    argv = ["couple", "--delta", "2", "--k", "3", "--depth", "6", "--c1", "1",
            "--c2", "3", "--mode", "down", "--samples", "500", *extra]
    outputs = []
    for name, seed in (("first", "13"), ("second", "13"), ("other", "14")):
        path = tmp_path / f"{name}.out"
        proc = subprocess.run(
            [sys.executable, "-m", "treecolor.cli", *argv, "--seed", seed,
             "--out", str(path)],
            capture_output=True,
            text=True,
            env=cli_subprocess_env(),
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) > 0
    assert outputs[0] != outputs[2]


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "treecolor.cli", "broadcast", "--delta", "2",
         "--k", "3", "--depth", "1", "--samples", "2", "--seed", "1"],
        capture_output=True,
        text=True,
        env=cli_subprocess_env(),
    )
    assert proc.returncode == 0
    assert len(proc.stdout.splitlines()) == 2


@pytest.mark.parametrize("argv, flag", [
    (["couple", "--delta", "2", "--k", "3", "--dep", "4", "--c1", "1", "--c2", "2",
      "--mode", "down", "--samples", "10"], "--dep"),
    (["bias", "--delta", "2", "--k", "3", "--depth", "4", "--color", "1",
      "--samples", "10"], "--depth"),
])
def test_cli_rejects_abbreviated_flags(capsys, argv, flag):
    # --dep is a prefix of couple's --depth, and --depth of bias's --depth-range
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 4" in capsys.readouterr().err


def test_cli_full_flag_names_still_parse():
    couple = cli.build_parser().parse_args(
        ["couple", "--delta", "2", "--k", "3", "--depth", "4", "--c1", "1", "--c2", "2"])
    assert couple.depth == 4
    bias = cli.build_parser().parse_args(
        ["bias", "--delta", "2", "--k", "3", "--depth-range", "1..4", "--color", "1"])
    assert bias.depth_range == "1..4"


def test_cli_builds_one_parser_and_carries_no_state_between_calls(
    tmp_path, capsys, monkeypatch
):
    leaves = tmp_path / "leaves.txt"
    leaves.write_text("1,2,3,1\n")  # four leaves on a two-leaf tree: exit 2
    runs = [
        ("bias", 0, ["bias", "--delta", "2", "--k", "3", "--depth-range", "1..4",
                     "--color", "1", "--samples", "300", "--seed", "31"]),
        ("couple", 0, ["couple", "--delta", "2", "--k", "3", "--depth", "6",
                       "--c1", "1", "--c2", "2", "--mode", "down",
                       "--samples", "400", "--seed", "32"]),
        ("dynamics", 0, ["dynamics", "--delta", "2", "--n", "1", "--k", "3",
                         "--block-depth", "0", "--exact"]),
        ("marginal", 2, ["marginal", "--delta", "2", "--k", "3", "--depth", "1",
                         "--leaves", str(leaves), "--exact"]),
        ("bias", 0, None),  # the first run again, after the others
    ]
    constructed = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        constructed.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser.cache_clear()
    first = {}
    built = None
    for name, want, argv in runs:
        argv = argv or first[name][0]
        path = tmp_path / f"{name}.out"
        path.unlink(missing_ok=True)
        code, out, err = run_cli(capsys, *argv, "--out", str(path))
        assert code == want and out == ""
        got = (argv, path.read_bytes() if path.exists() else b"", err)
        assert got == first.setdefault(name, got)
        if built is None:
            built = len(constructed)
    # the first call built the parser and its subparsers; no call since has
    assert built > 0 and len(constructed) == built
    for argv, body, err in first.values():
        path = tmp_path / "subprocess.out"
        path.unlink(missing_ok=True)
        proc = subprocess.run(
            [sys.executable, "-m", "treecolor.cli", *argv, "--out", str(path)],
            capture_output=True,
            text=True,
            env=cli_subprocess_env(),
        )
        assert (path.read_bytes() if path.exists() else b"") == body
        assert proc.stderr == err and proc.stdout == ""
    assert [body != b"" for _, body, _ in first.values()] == [True, True, True, False]
