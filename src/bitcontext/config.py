"""Plain-text key-value run configuration with strict schema validation.

Format: `[section]` headers followed by `key = value` lines; `#` starts a
comment. Unknown or repeated sections and keys are rejected by line.
Command-line overrides use `section.key=value` and win over the file.
Network spec files use the same format (see iter_ini).
"""

from __future__ import annotations

import hashlib

_BOOL = {"true": True, "false": False, "yes": True, "no": False,
         "1": True, "0": False}


class ConfigError(ValueError):
    pass


def _coerce(section, key, value, kind):
    """The typed value of section.key; a seed must also be >= 0."""
    try:
        typed = _BOOL[value.lower()] if kind is bool else kind(value)
    except (KeyError, ValueError):
        raise ConfigError(
            f"{section}.{key}: cannot parse {value!r} as {kind.__name__}"
        ) from None
    if key == "seed" and typed < 0:
        raise ConfigError(f"{section}.{key} must be >= 0, got {typed}")
    return typed


_TRAIN = {"iterations": 500, "batch_size": 64, "lr": 2e-3,
          "weight_decay": 1e-5, "smoothing": 0.1, "augment": "roll",
          "kd_logits": "", "kd_weight": 0.0}

DEFAULTS = {
    "run": {"seed": 0},
    "network": {"preset": "desk-tiny", "classes": 10,
                "branches": "point,short,long", "dynamic": False,
                "spec_file": "", "mlp_tail": False, "n_mlp": 0},
    "data": {"root": "", "train_split": "train", "eval_split": "test",
             "synthetic": "none", "n_train": 4000, "n_test": 1000, "seed": 0},
    "train": _TRAIN,
    "train2": {**_TRAIN, "lr": 1e-3, "weight_decay": 0.0},
    "sweep": {"points": "0,3,6", "band": 0.03, "train": False},
}

# Each key's type is its default's.
SCHEMA = {s: {k: type(v) for k, v in keys.items()} for s, keys in DEFAULTS.items()}


def iter_ini(text: str, error, schema, repeatable):
    """Tokenize `[section]` / `key = value` text with `#` comments.

    Yields (line number, section, key, value) per non-blank line; key and
    value are None on a section header. A section or key not in ``schema``,
    a second header of a section not in ``repeatable``, a key repeated within
    one section, and a key line outside any section or without `=` raise
    ``error`` naming the line; values are the caller's.
    """
    section, opened = None, set()
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section, seen = line[1:-1].strip(), set()
            if section not in schema:
                raise error(f"line {ln}: unknown section [{section}]")
            if section in opened and section not in repeatable:
                raise error(f"line {ln}: a second [{section}] section")
            opened.add(section)
            yield ln, section, None, None
            continue
        if section is None:
            raise error(f"line {ln}: key outside any section")
        if "=" not in line:
            raise error(f"line {ln}: expected 'key = value', got {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in schema[section]:
            raise error(f"line {ln}: unknown key {section}.{key}")
        if key in seen:
            raise error(f"line {ln}: repeated key {section}.{key}")
        seen.add(key)
        yield ln, section, key, value


def parse_config(text: str) -> dict:
    """Parse and validate; returns {section: {key: typed value}} with
    defaults filled in."""
    cfg = {s: dict(v) for s, v in DEFAULTS.items()}
    for _, section, key, value in iter_ini(text, ConfigError, SCHEMA, ()):
        if key is not None:
            cfg[section][key] = _coerce(section, key, value, SCHEMA[section][key])
    return cfg


def load_config(path) -> dict:
    try:
        with open(path) as f:
            return parse_config(f.read())
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None


def apply_overrides(cfg: dict, overrides) -> dict:
    """Apply `section.key=value` strings over a parsed config."""
    for item in overrides or ():
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override {item!r} is not section.key=value")
        path, value = item.split("=", 1)
        section, key = path.split(".", 1)
        if section not in SCHEMA or key not in SCHEMA[section]:
            raise ConfigError(f"override targets unknown key {section}.{key}")
        cfg[section][key] = _coerce(section, key, value.strip(),
                                    SCHEMA[section][key])
    return cfg


def config_digest(cfg: dict) -> str:
    """Stable hash of the effective configuration (defaults included)."""
    parts = []
    for section in sorted(SCHEMA):
        for key in sorted(SCHEMA[section]):
            parts.append(f"{section}.{key}={cfg[section][key]!r}")
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()
