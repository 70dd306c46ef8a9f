"""Command-line entry point.

Verbs: train, eval, count-ops, analyze-binerr, sweep, export-spec.
Exit codes: 0 ok, 1 usage error, 2 runtime error. Every artifact-producing
run writes a `<output>.manifest.json` sidecar (config digest, seed,
versions; no timestamps, so reruns are byte-identical).

The dataset root comes from `[data] root`, falling back to the
BITCONTEXT_DATA environment variable.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys

import numpy as np

from . import __version__
from . import analysis, costmodel, data as dt, network as nw, train as tr
from .config import (DEFAULTS, ConfigError, apply_overrides, config_digest,
                     load_config, parse_config)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1
        self.exit(1, f"error: {message}\n")


class RuntimeFailure(RuntimeError):
    pass


def _load_cfg(args) -> dict:
    if getattr(args, "config", None):
        cfg = load_config(args.config)
    else:
        cfg = parse_config("")
    return apply_overrides(cfg, getattr(args, "set", None))


def _network_spec(cfg) -> nw.NetworkSpec:
    """The [network] spec_file's network, else the preset's, called with the
    [network] keys its function takes. A key set away from its default that
    neither reads is a ConfigError."""
    ncfg = cfg["network"]
    name = ncfg["preset"]
    if ncfg["spec_file"]:
        takes, source = {"spec_file"}, f"spec_file {ncfg['spec_file']}"
    elif name in nw.PRESETS:
        takes = {"preset", *inspect.signature(nw.PRESETS[name]).parameters}
        source = f"preset {name}"
    else:
        raise ConfigError(f"network.preset: unknown preset {name!r}; "
                          f"have {sorted(nw.PRESETS)}")
    for key, value in ncfg.items():
        if key not in takes and value != DEFAULTS["network"][key]:
            raise ConfigError(f"network.{key} = {value!r} does not apply to {source}")
    if ncfg["spec_file"]:
        try:
            with open(ncfg["spec_file"]) as f:
                return nw.parse_network_spec(f.read())
        except OSError as e:
            raise RuntimeFailure(f"cannot read spec file: {e}") from None
    kwargs = {k: v for k, v in ncfg.items() if k in takes and k != "preset"}
    if "branches" in kwargs:
        kwargs["branches"] = tuple(b.strip() for b in kwargs["branches"].split(","))
    return nw.preset(name, **kwargs)


# Synthetic dataset name -> (image size, channels).
_SYNTHETIC = {"pairs32": (32, 3), "pairs16": (16, 1)}


def _load_data(cfg, split_key):
    """Load a split, first writing [data] synthetic if no split has files."""
    dcfg = cfg["data"]
    root = dcfg["root"] or os.environ.get("BITCONTEXT_DATA", "")
    if not root:
        raise RuntimeFailure("no dataset root: set [data] root or BITCONTEXT_DATA")
    synth = dcfg["synthetic"]
    splits = (dcfg["train_split"], dcfg["eval_split"])
    if synth != "none" and not any(dt.split_files(root, s) for s in splits):
        if synth not in _SYNTHETIC:
            raise RuntimeFailure(f"unknown synthetic dataset {synth!r}")
        if splits[0].startswith(splits[1]) or splits[1].startswith(splits[0]):
            raise ConfigError(f"data.train_split {splits[0]!r} and data.eval_split "
                              f"{splits[1]!r} would share files: one prefixes the other")
        size, channels = _SYNTHETIC[synth]
        dt.write_synthetic_dir(root, dcfg["n_train"], dcfg["n_test"], size=size,
                               channels=channels, seed=dcfg["seed"], splits=splits)
    try:
        return dt.load_dir(root, dcfg[split_key])
    except (OSError, ValueError) as e:
        raise RuntimeFailure(f"dataset: {e}") from None


def _write_manifest(args, cfg):
    manifest = {
        "command": args.verb,
        "config_sha256": config_digest(cfg),
        "seed": cfg["run"]["seed"],
        "bitcontext_version": __version__,
        "numpy_version": np.__version__,
    }
    with open(f"{args.output}.manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def _emit(text, args, cfg):
    """Write text and its manifest to --output, else print it."""
    if args.output:
        with open(args.output, "w") as f:
            f.write(text + "\n")
        _write_manifest(args, cfg)
    else:
        print(text)


def _train_config(cfg, step, train_data) -> tr.TrainConfig:
    """Training step `step` (1 or 2) as configured and validated: step 1
    reads [train], step 2 [train2]; seeded run.seed + step. A kd_weight > 0
    needs kd_logits, one row of teacher logits per training image."""
    section = "train" if step == 1 else "train2"
    scfg = cfg[section]
    teacher = None
    if scfg["kd_logits"]:
        try:
            teacher = np.load(scfg["kd_logits"])
        except OSError as e:
            raise RuntimeFailure(f"teacher logits: {e}") from None
        if teacher.shape != (len(train_data), train_data.classes):
            raise RuntimeFailure(
                f"teacher logits shape {teacher.shape} does not match "
                f"{len(train_data)} x {train_data.classes}")
    elif scfg["kd_weight"] > 0.0:
        raise ConfigError(f"{section}.kd_weight = {scfg['kd_weight']} needs "
                          f"{section}.kd_logits")
    # Every other train-section key is a TrainConfig field of the same name.
    tcfg = tr.TrainConfig(step=step, seed=cfg["run"]["seed"] + step,
                          teacher_logits=teacher,
                          **{k: v for k, v in scfg.items() if k != "kd_logits"})
    try:
        return tcfg.validate()
    except ValueError as e:  # the message leads with the field, here the key
        raise ConfigError(f"{section}.{e}") from None


def cmd_train(args) -> int:
    if args.steps and not {s.strip() for s in args.steps.split(",")} <= {"1", "2"}:
        raise ConfigError(f"--steps {args.steps!r} is not a comma list of 1s and 2s")
    cfg = _load_cfg(args)
    spec = _network_spec(cfg)
    train_data = _load_data(cfg, "train_split")
    net = nw.build(spec, seed=cfg["run"]["seed"])
    if args.init:
        nw.load_into(net, args.init)
    steps = [int(s) for s in args.steps.split(",")] if args.steps else \
        [1, 2] if "train2" in cfg["__sections__"] or not args.init else [2]
    history = []
    for tcfg in [_train_config(cfg, step, train_data) for step in steps]:
        res = tr.train_step(net, train_data, tcfg)
        history.extend((tcfg.step, i, v) for i, v in enumerate(res.loss_history))
        last = np.mean(res.loss_history[-10:]) if res.loss_history else float("nan")
        print(f"step {tcfg.step}: {len(res.loss_history)} iterations, "
              f"final loss {last:.4f}")
    nw.save(net, args.output)
    _write_manifest(args, cfg)
    if args.history:
        with open(args.history, "w") as f:
            f.write("step\titeration\tloss\n")
            for step, i, v in history:
                f.write(f"{step}\t{i}\t{v:.8f}\n")
    print(f"checkpoint written to {args.output}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    net = nw.load(args.checkpoint)
    eval_data = _load_data(cfg, "eval_split")
    m = tr.evaluate(net, eval_data, packed=args.packed)
    _emit("\t".join(["top1", "top5", "loss", "n"]) + "\n" +
          f"{m.top1:.6f}\t{m.top5:.6f}\t{m.loss:.6f}\t{m.n}", args, cfg)
    return 0


def cmd_count_ops(args) -> int:
    cfg = _load_cfg(args)
    spec = _network_spec(cfg)
    report = costmodel.count_network(spec, mac_ops=args.mac_ops)
    text = report.to_delimited() if args.format == "tsv" else report.to_text()
    _emit(text, args, cfg)
    return 0


def cmd_analyze_binerr(args) -> int:
    cfg = _load_cfg(args)
    net = nw.load(args.checkpoint)
    report = analysis.per_branch_report(net, mode=args.mode)
    _emit(report.to_delimited(), args, cfg)
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_cfg(args)
    points = [int(p) for p in cfg["sweep"]["points"].split(",")]
    base_spec = _network_spec(cfg) if "network" in cfg["__sections__"] else None
    train_data = eval_data = None
    cfgs = []
    if cfg["sweep"]["train"]:
        train_data = _load_data(cfg, "train_split")
        eval_data = _load_data(cfg, "eval_split")
        cfgs = [_train_config(cfg, step, train_data) for step in (1, 2)]
    rows = tr.sweep_replacement(points, cfg["sweep"]["band"], base_spec=base_spec,
                                classes=cfg["network"]["classes"],
                                train_data=train_data, eval_data=eval_data,
                                cfgs=cfgs, seed=cfg["run"]["seed"])
    cols = list(rows[0].keys())
    lines = ["\t".join(cols)]
    for r in rows:
        lines.append("\t".join(str(r[c]) for c in cols))
    _emit("\n".join(lines), args, cfg)
    return 0


def cmd_export_spec(args) -> int:
    cfg = _load_cfg(args)
    spec = _network_spec(cfg)
    _emit(spec.to_text().rstrip("\n"), args, cfg)
    return 0


def build_parser() -> _Parser:
    p = _Parser(prog="bitcontext",
                description="1-bit contextual-dependency network engine")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp, output_required=False):
        sp.add_argument("--config", help="key-value config file")
        sp.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                        help="override a config value (repeatable)")
        sp.add_argument("--output", required=output_required,
                        help="output path (stdout when omitted)")

    sp = sub.add_parser("train", help="run the two-step training pipeline")
    common(sp, output_required=True)
    sp.add_argument("--init", help="initial checkpoint (step-2 / fine-tune)")
    sp.add_argument("--steps", help="comma list of steps to run, e.g. 1,2")
    sp.add_argument("--history", help="write per-iteration losses (TSV)")
    sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("eval", help="evaluate a checkpoint")
    common(sp)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--packed", action="store_true",
                    help="use the bit-packed kernels")
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("count-ops", help="analytic BOPs/FLOPs/OPs report")
    common(sp)
    sp.add_argument("--mac-ops", type=int, default=1, choices=(1, 2),
                    help="operations counted per multiply-accumulate")
    sp.add_argument("--format", default="text", choices=("text", "tsv"))
    sp.set_defaults(fn=cmd_count_ops)

    sp = sub.add_parser("analyze-binerr", help="per-branch binarization error")
    common(sp)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--mode", default="xnor", choices=("xnor", "literal"))
    sp.set_defaults(fn=cmd_analyze_binerr)

    sp = sub.add_parser("sweep", help="conv-vs-MLP replacement sweep")
    common(sp)
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("export-spec", help="write a preset's network spec")
    common(sp)
    sp.set_defaults(fn=cmd_export_spec)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (RuntimeFailure, nw.CheckpointError, nw.SpecError, OSError,
            ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
