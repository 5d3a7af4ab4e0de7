"""Command-line front end.

Each subcommand is one entry of `harness.KINDS`, which supplies its flags,
its runner and its renderer.  This module only parses arguments, merges
a flat key=value config file (--config), builds the run's configs, and
writes the rendered text to stdout or --out.  Explicit flags always win
over the file, and the file wins over built-in defaults.

Exit codes: 0 success, 2 bad configuration, 3 capacity guard tripped,
4 infeasible boundary or channel.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys

from .errors import (
    CapacityError,
    InfeasibleBoundaryError,
    InfeasibleChannelError,
    RegimeError,
    ValidationError,
)
from .harness import (
    KINDS,
    ExperimentConfig,
    _require,
    _to_bool,
    _to_range,
    parse_config_file,
    run_experiment,
)
from .tree_model import PartialLeafColoring

# parameters every subcommand takes: name -> (caster, required, default)
_COMMON = {
    "seed": (int, False, 0),
    "replicas": (int, False, 1),
    "out": (str, False, None),
    "format": (str, False, None),
}

# parameters that go to ExperimentConfig fields, not to its params
_CONFIG_LEVEL = frozenset({"samples", *_COMMON})


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: `parse_args` keeps no state on it,
    so every `main` call reuses the tree of subcommands and flags."""
    # allow_abbrev=False throughout: a prefix such as --dep must not stand
    # for --depth, nor --depth for --depth-range
    parser = argparse.ArgumentParser(
        prog="treecolor",
        allow_abbrev=False,
        description="Simulator for colorings of complete trees: exact root "
                    "marginals, broadcast sampling, couplings, and block "
                    "dynamics diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, kind in KINDS.items():
        p = sub.add_parser(name, help=kind.help, allow_abbrev=False)
        for flag, (caster, _required, _default) in {**kind.params, **_COMMON}.items():
            arg = "--" + flag.replace("_", "-")
            if caster is _to_bool:
                p.add_argument(arg, action="store_const", const=True, default=None)
            elif caster is _to_range:
                p.add_argument(arg, type=str, default=None, metavar="L1..L2")
            else:
                p.add_argument(arg, type=caster, default=None)
        p.add_argument("--config", default=None, metavar="FILE",
                       help="flat key=value parameter file; flags win")
    return parser


def _merge_params(command: str, args: argparse.Namespace) -> dict:
    """flags > config file > defaults, with casting and required checks."""
    file_values = parse_config_file(args.config) if args.config else {}
    merged = {}
    for name, (caster, required, default) in {**KINDS[command].params, **_COMMON}.items():
        value = getattr(args, name, None)
        if value is None and name in file_values:
            value = _cast_file_value(name, caster, file_values[name])
        merged[name] = default if value is None else value
        if required:
            _require(merged, name)
    if isinstance(merged.get("depth_range"), str):
        merged["depth_range"] = _to_range(merged["depth_range"])
    fmt = merged["format"]
    if fmt is not None and fmt not in ("csv", "json"):
        raise ValidationError(f"format must be csv or json, got {fmt!r}")
    return merged


def _cast_file_value(name: str, caster, text: str):
    try:
        return caster(text)
    except ValidationError:
        raise
    except ValueError:
        raise ValidationError(f"config key {name!r}: cannot read {text!r}") from None


def _check_out_dir(path: str | None) -> None:
    """Refuse an output path (--out, --matrix-out) whose directory is
    missing before any work is done."""
    folder = os.path.dirname(path) if path else ""
    if folder and not os.path.isdir(folder):
        raise ValidationError(f"output directory {folder!r} does not exist")


def _read_leaves(path: str, k: int):
    """The first line of `path` as leaf colors: the parsed coloring's
    read-only int16 values, which `PartialLeafColoring` takes as they are."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            line = fh.readline()
    except OSError as exc:
        raise ValidationError(f"cannot read leaves file: {exc}") from None
    return PartialLeafColoring.from_text(line, k).values


def _configs(command: str, merged: dict):
    """One config per depth of a series command, else the command's one config.

    `sweep` names the kind it runs in --kind; every other command runs itself.
    """
    entry = KINDS[command]
    kind = merged.get("kind", command)
    if "kind" in merged:
        swept = [name for name, other in KINDS.items() if other.replicable]
        if kind not in swept:
            raise ValidationError(f"{command} supports {', '.join(swept)}; got {kind!r}")
        _require(merged, *(name for name, (_c, required, _d) in KINDS[kind].params.items()
                           if required and name not in ("depth", "depth_range")))
    depths = [None]
    if entry.series:
        lo, hi = merged["depth_range"]
        depths = range(lo, hi + 1)
    for ell in depths:
        params = {name: merged[name] for name in KINDS[kind].params
                  if name not in _CONFIG_LEVEL and merged.get(name) is not None}
        if ell is not None:
            params.pop("depth_range", None)
            params["depth"] = ell
        yield ExperimentConfig(
            kind=kind,
            params=params,
            seed=merged["seed"],
            samples=merged.get("samples", 1),
            replicas=merged["replicas"],
            fmt=merged["format"] or ("csv" if entry.series else "json"),
            series_index=ell,
        )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        merged = _merge_params(args.command, args)
        _check_out_dir(merged["out"])
        _check_out_dir(merged.get("matrix_out"))
        if args.command == "marginal":
            merged["leaves"] = _read_leaves(merged["leaves"], merged["k"])
        records = [run_experiment(config) for config in _configs(args.command, merged)]
        text = KINDS[args.command].render(records)
        if merged["out"]:
            try:
                with open(merged["out"], "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ValidationError(f"cannot write --out file: {exc}") from None
        else:
            sys.stdout.write(text)
        return 0
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InfeasibleBoundaryError, InfeasibleChannelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValidationError, RegimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
