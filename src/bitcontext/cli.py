"""Command-line entry point.

Verbs: train, eval, count-ops, analyze-binerr, sweep, export-spec.
Exit codes: 0 ok, 1 usage error, 2 runtime error. Each verb returns its
text and `main` writes it to --output, else prints it; `train` writes its
own checkpoint and returns nothing. Whenever --output is set, `main` also
writes a `<output>.manifest.json` sidecar (config digest, seed, versions;
no timestamps, so reruns are byte-identical).

The dataset root comes from `[data] root`, falling back to the
BITCONTEXT_DATA environment variable; a `[data] synthetic` run reads none.
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


def _network_spec(cfg) -> nw.NetworkSpec:
    """The [network] spec_file's network, else the preset's, called with the
    [network] keys its function takes. A key set away from its default that
    neither reads, or a preset those keys make invalid, is a ConfigError."""
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
        kwargs["branches"] = nw.parse_branches(kwargs["branches"])
    try:
        return nw.preset(name, **kwargs)
    except nw.SpecError as e:  # the preset is valid at its defaults
        keys = [f"network.{k}" for k in kwargs if ncfg[k] != DEFAULTS["network"][k]]
        raise ConfigError(f"{', '.join(keys)}: {e}") from None


# Synthetic dataset name -> (image size, channels).
_SYNTHETIC = {"pairs32": (32, 3), "pairs16": (16, 1)}


def _load_data(cfg, split_key):
    """The "train_split" or "eval_split" set: [data] synthetic built in
    memory (the eval set seeded data.seed + 1), else the split's files."""
    dcfg = cfg["data"]
    synth = dcfg["synthetic"]
    if synth != "none":
        if synth not in _SYNTHETIC:
            raise ConfigError(f"data.synthetic = {synth!r} is not one of none, "
                              f"{', '.join(sorted(_SYNTHETIC))}")
        evals = int(split_key == "eval_split")
        n_key = "n_test" if evals else "n_train"
        if dcfg[n_key] < 1:
            raise ConfigError(f"data.{n_key} must be >= 1, got {dcfg[n_key]}")
        size, channels = _SYNTHETIC[synth]
        return dt.synthetic_pairs_dataset(dcfg[n_key], size, channels,
                                          dcfg["seed"] + evals)
    root = dcfg["root"] or os.environ.get("BITCONTEXT_DATA", "")
    if not root:
        raise RuntimeFailure("no dataset root: set [data] root or BITCONTEXT_DATA")
    try:
        return dt.load_dir(root, dcfg[split_key])
    except (OSError, ValueError) as e:
        raise RuntimeFailure(f"dataset: {e}") from None


def _train_config(cfg, step, train_data, classes) -> tr.TrainConfig:
    """Training step `step` (1 or 2) of a `classes`-class network as
    configured and validated: step 1 reads [train], step 2 [train2]; seeded
    run.seed + step. A kd_weight > 0 needs kd_logits."""
    section = "train" if step == 1 else "train2"
    scfg = cfg[section]
    teacher = None
    if scfg["kd_logits"]:
        where = f"teacher logits ({section}.kd_logits)"
        try:
            teacher = np.load(scfg["kd_logits"])  # a pickle raises ValueError
        except (OSError, ValueError) as e:
            raise RuntimeFailure(f"{where}: {e}") from None
        if not isinstance(teacher, np.ndarray):  # an .npz archive of arrays
            teacher.close()
            raise RuntimeFailure(f"{where}: {scfg['kd_logits']} is not one .npy array")
    elif scfg["kd_weight"] > 0.0:
        raise ConfigError(f"{section}.kd_weight = {scfg['kd_weight']} needs "
                          f"{section}.kd_logits")
    # Every other train-section key is a TrainConfig field of the same name.
    tcfg = tr.TrainConfig(step=step, seed=cfg["run"]["seed"] + step,
                          teacher_logits=teacher,
                          **{k: v for k, v in scfg.items() if k != "kd_logits"})
    tr.check_classes(train_data, classes, teacher)
    try:
        return tcfg.validate(len(train_data))
    except ValueError as e:  # the message leads with the field, here the key
        raise ConfigError(f"{section}.{e}") from None


def cmd_train(args, cfg) -> None:
    spec = _network_spec(cfg)
    train_data = _load_data(cfg, "train_split")
    net = nw.build(spec, seed=cfg["run"]["seed"])
    if args.init:
        nw.load_into(net, args.init)
    history = []
    for tcfg in [_train_config(cfg, step, train_data, spec.classes) for step in args.steps]:
        res = tr.train_step(net, train_data, tcfg)
        history.extend((tcfg.step, i, v) for i, v in enumerate(res.loss_history))
        last = np.mean(res.loss_history[-10:]) if res.loss_history else float("nan")
        print(f"step {tcfg.step}: {len(res.loss_history)} iterations, "
              f"final loss {last:.4f}")
    nw.save(net, args.output)
    if args.history:
        with open(args.history, "w") as f:
            f.write("step\titeration\tloss\n")
            for step, i, v in history:
                f.write(f"{step}\t{i}\t{v:.8f}\n")
    print(f"checkpoint written to {args.output}")


def cmd_eval(args, cfg) -> str:
    net = nw.load(args.checkpoint)
    eval_data = _load_data(cfg, "eval_split")
    m = tr.evaluate(net, eval_data, packed=args.packed)
    return ("\t".join(["top1", "top5", "loss", "n"]) + "\n" +
            f"{m.top1:.6f}\t{m.top5:.6f}\t{m.loss:.6f}\t{m.n}")


def cmd_count_ops(args, cfg) -> str:
    report = costmodel.count_network(_network_spec(cfg), mac_ops=args.mac_ops)
    return report.to_delimited() if args.format == "tsv" else report.to_text()


def cmd_analyze_binerr(args, cfg) -> str:
    net = nw.load(args.checkpoint)
    return analysis.per_branch_report(net, mode=args.mode).to_delimited()


def cmd_sweep(args, cfg) -> str:
    scfg = cfg["sweep"]
    if not all(p.strip().isdecimal() for p in scfg["points"].split(",")):
        raise ConfigError(f"sweep.points = {scfg['points']!r} is not a comma "
                          "list of non-negative integers")
    if not scfg["band"] >= 0.0:
        raise ConfigError(f"sweep.band must be >= 0, got {scfg['band']}")
    points = [int(p) for p in scfg["points"].split(",")]
    base_spec = _network_spec(cfg)
    train_data = eval_data = None
    cfgs = []
    if scfg["train"]:
        train_data = _load_data(cfg, "train_split")
        eval_data = _load_data(cfg, "eval_split")
        cfgs = [_train_config(cfg, s, train_data, base_spec.classes) for s in (1, 2)]
    try:
        rows = tr.sweep_replacement(base_spec, points, scfg["band"],
                                    train_data=train_data, eval_data=eval_data,
                                    cfgs=cfgs, seed=cfg["run"]["seed"])
    except nw.ReplacementError as e:
        raise ConfigError(f"sweep.points: {e}") from None
    lines = [list(rows[0])] + [[str(v) for v in r.values()] for r in rows]
    return "\n".join("\t".join(line) for line in lines)


def cmd_export_spec(args, cfg) -> str:
    return _network_spec(cfg).to_text().rstrip("\n")


def _steps(text: str) -> list:
    """--steps: a comma list of 1s and 2s, checked before any config is read."""
    steps = [s.strip() for s in text.split(",")]
    if not set(steps) <= {"1", "2"}:
        raise argparse.ArgumentTypeError(
            f"--steps {text!r} is not a comma list of 1s and 2s")
    return [int(s) for s in steps]


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
    sp.add_argument("--init", help="initial weights (step-2 / fine-tune)")
    sp.add_argument("--steps", default="1,2", type=_steps,
                    help="comma list of steps to run (default 1,2)")
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
        cfg = apply_overrides(load_config(args.config) if args.config
                              else parse_config(""), args.set)
        text = args.fn(args, cfg)
        if not args.output:
            print(text)
        elif text is not None:  # train wrote its checkpoint to --output
            with open(args.output, "w") as f:
                f.write(text + "\n")
        if args.output:
            manifest = {"command": args.verb, "config_sha256": config_digest(cfg),
                        "seed": cfg["run"]["seed"], "bitcontext_version": __version__,
                        "numpy_version": np.__version__}
            with open(f"{args.output}.manifest.json", "w") as f:
                json.dump(manifest, f, indent=2, sort_keys=True)
                f.write("\n")
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (RuntimeFailure, nw.CheckpointError, nw.SpecError, OSError,
            ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
