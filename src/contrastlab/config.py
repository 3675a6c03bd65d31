"""Experiment configuration: one JSON document, validated against a
closed schema (unknown keys are rejected), defaults applied, and the
fully resolved copy echoed into the output directory so every run is
reproducible from its artifacts alone.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from .augment import AugPipeline, SyntheticSpec
from .losses import LossConfig
from .nets import TempBounds
from .train import EvalConfig, ModelConfig, TrainConfig


class ConfigError(ValueError):
    """Invalid configuration; the message starts with the JSON path."""


@dataclass(frozen=True)
class Field:
    default: Any
    check: Callable[[Any], Any]


def _int_min(lo: int, hint: str | None = None):
    def check(v):
        if not isinstance(v, int) or isinstance(v, bool):
            raise TypeError("expected an integer")
        if v < lo:
            raise ValueError(hint or f"must be >= {lo}")
        return v
    return check


def _number(lo: float | None = None, lo_strict: bool = False):
    def check(v):
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise TypeError("expected a number")
        v = float(v)
        if lo is not None and (v <= lo if lo_strict else v < lo):
            raise ValueError(f"must be {'>' if lo_strict else '>='} {lo}")
        return v
    return check


def _fraction():
    def check(v):
        v = _number(0.0)(v)
        if v >= 1.0:
            raise ValueError("must lie in [0, 1)")
        return v
    return check


def _choice(*options: str):
    def check(v):
        if v not in options:
            raise ValueError(f"must be one of {options}")
        return v
    return check


def _bool():
    def check(v):
        if not isinstance(v, bool):
            raise TypeError("expected a boolean")
        return v
    return check


def _pair_range():
    def check(v):
        if (not isinstance(v, list) or len(v) != 2
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v)):
            raise TypeError("expected [lo, hi]")
        lo, hi = float(v[0]), float(v[1])
        if not 0 <= lo <= hi:
            raise ValueError("expected 0 <= lo <= hi")
        return [lo, hi]
    return check


def _int_list():
    def check(v):
        if (not isinstance(v, list) or not v
                or not all(isinstance(x, int) and not isinstance(x, bool) and x >= 1 for x in v)):
            raise TypeError("expected a nonempty list of integers >= 1")
        return list(v)
    return check


def _optional_str():
    def check(v):
        if v is not None and not isinstance(v, str):
            raise TypeError("expected a string or null")
        return v
    return check


def _str():
    def check(v):
        if not isinstance(v, str):
            raise TypeError("expected a string")
        return v
    return check


# Defaults come from the dataclasses the resolved document is turned
# into; the schema adds only the validators (and the io paths, which no
# dataclass holds).
_MODEL, _LOSS, _AUG, _TRAIN, _EVAL, _SYN = (
    ModelConfig(), LossConfig(), AugPipeline(), TrainConfig(), EvalConfig(), SyntheticSpec())

SCHEMA: dict[str, dict[str, Any]] = {
    "model": {
        "d": Field(_MODEL.d, _int_min(1)),
        "d_prime": Field(_MODEL.d_prime, _int_min(1)),
        "heads": Field(_LOSS.heads, _int_min(1, "C >= 1")),
    },
    "loss": {
        "family": Field(_LOSS.family, _choice("baseline", "multihead")),
        "variant": Field(_LOSS.variant, _choice("ntxent", "simsiam", "barlow", "infonce")),
        "beta": Field(_LOSS.beta, _number(0.0)),
        "kappa": Field(_LOSS.kappa, _int_min(1, "kappa >= 1")),
        "lambda": Field(_LOSS.lambd, _number(0.0)),
        "temp_mode": Field(_LOSS.temp_mode, _choice("constant", "cosine", "adaptive")),
        "tau0": Field(_LOSS.tau0, _number(0.0, lo_strict=True)),
        "tau_min": Field(_LOSS.tau_min, _number(0.0, lo_strict=True)),
        "tau_max": Field(_LOSS.tau_max, _number(0.0, lo_strict=True)),
        "tau_period": Field(_LOSS.tau_period, _number(0.0, lo_strict=True)),
        "bounds": {
            "eta": Field(_LOSS.bounds.eta, _number(0.0, lo_strict=True)),
            "iota": Field(_LOSS.bounds.iota, _number(0.0, lo_strict=True)),
        },
        "neg_agg": Field(_LOSS.neg_agg, _choice("topk", "softmax")),
        "dim_factor_in_set_penalty": Field(_LOSS.dim_factor_in_set_penalty, _bool()),
    },
    "augment": {
        "prefix": Field(len(_AUG.ops), _int_min(1)),
        "crop_scale": Field(list(_AUG.crop_scale), _pair_range()),
        "blur_sigma": Field(list(_AUG.blur_sigma), _pair_range()),
        "gray_prob": Field(_AUG.gray_prob, _fraction()),
        "jitter_strength": Field(_AUG.jitter_strength, _fraction()),
        "flip_prob": Field(_AUG.flip_prob, _fraction()),
    },
    "train": {
        "epochs": Field(_TRAIN.epochs, _int_min(1)),
        "batch_size": Field(_TRAIN.batch_size, _int_min(4, "batch_size >= 4 (in-batch negatives)")),
        "lr": Field(_TRAIN.lr, _number(0.0, lo_strict=True)),
        "momentum": Field(_TRAIN.momentum, _fraction()),
        "weight_decay": Field(_TRAIN.weight_decay, _number(0.0)),
        "temp_lr_scale": Field(_TRAIN.temp_lr_scale, _number(0.0, lo_strict=True)),
        "run_seed": Field(_TRAIN.run_seed, _int_min(0)),
        "eval_every": Field(_TRAIN.eval_every, _int_min(0)),
        "test_fraction": Field(_TRAIN.test_fraction, _fraction()),
        "probe_per_class": Field(_TRAIN.probe_per_class, _int_min(1)),
    },
    "eval": {
        "knn_k": Field(_EVAL.knn_k, _int_min(1)),
        "probe_sizes": Field(list(_EVAL.probe_sizes), _int_list()),
        "pair_count": Field(_EVAL.pair_count, _int_min(1)),
        "pair_seed": Field(_EVAL.pair_seed, _int_min(0)),
    },
    "io": {
        "dataset": Field(None, _optional_str()),
        "output_dir": Field("out", _str()),
        "synthetic": {
            "classes": Field(_SYN.classes, _int_min(1)),
            "per_class": Field(_SYN.per_class, _int_min(1)),
            "size": Field(_SYN.size, _int_min(8)),
            "channels": Field(_SYN.channels, _choice(1, 3)),
            "seed": Field(_SYN.seed, _int_min(0)),
        },
    },
}


def _resolve_section(schema: dict, user: Any, path: str) -> dict:
    if not isinstance(user, dict):
        raise ConfigError(f"{path or '<root>'}: expected an object")
    for key in user:
        if key not in schema:
            raise ConfigError(f"{path + '.' if path else ''}{key}: unknown key")
    out = {}
    for key, spec in schema.items():
        here = f"{path}.{key}" if path else key
        if isinstance(spec, dict):
            out[key] = _resolve_section(spec, user.get(key, {}), here)
        elif key in user:
            try:
                out[key] = spec.check(user[key])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{here}: {exc}") from None
        else:
            out[key] = spec.default
    return out


def resolve_config(user: dict) -> dict:
    """Validate a user document against the schema and fill defaults."""
    resolved = _resolve_section(SCHEMA, user, "")
    loss = resolved["loss"]
    if loss["family"] == "baseline":
        if resolved["model"]["heads"] != 1:
            raise ConfigError("model.heads: baseline family requires C = 1")
        if loss["temp_mode"] == "adaptive":
            raise ConfigError("loss.temp_mode: baseline family uses a constant or scheduled temperature")
    if resolved["augment"]["prefix"] > 5:
        raise ConfigError("augment.prefix: at most 5 ops exist")
    if resolved["train"]["batch_size"] - 1 < 1:
        raise ConfigError("train.batch_size: needs at least one in-batch negative")
    kappa = loss["kappa"]
    max_neg = 2 * (resolved["train"]["batch_size"] - 1)
    if loss["neg_agg"] == "topk" and kappa > max_neg:
        raise ConfigError(
            f"loss.kappa: kappa = {kappa} exceeds the in-batch negative count {max_neg}")
    return resolved


@dataclass
class Experiment:
    model: ModelConfig
    loss: LossConfig
    pipeline: AugPipeline
    train: TrainConfig
    eval: EvalConfig
    dataset_path: str | None
    output_dir: Path
    synthetic: SyntheticSpec


def experiment_from_dict(resolved: dict) -> Experiment:
    m, l, a, t, e, io = (resolved[k] for k in ("model", "loss", "augment", "train", "eval", "io"))
    loss = LossConfig(
        variant=l["variant"], family=l["family"], heads=m["heads"], beta=l["beta"],
        kappa=l["kappa"], lambd=l["lambda"], temp_mode=l["temp_mode"], tau0=l["tau0"],
        tau_min=l["tau_min"], tau_max=l["tau_max"], tau_period=l["tau_period"],
        bounds=TempBounds(l["bounds"]["eta"], l["bounds"]["iota"]),
        neg_agg=l["neg_agg"], dim_factor_in_set_penalty=l["dim_factor_in_set_penalty"],
    )
    pipeline = AugPipeline.prefix(
        a["prefix"], crop_scale=tuple(a["crop_scale"]), blur_sigma=tuple(a["blur_sigma"]),
        gray_prob=a["gray_prob"], jitter_strength=a["jitter_strength"], flip_prob=a["flip_prob"],
    )
    return Experiment(
        model=ModelConfig(d=m["d"], d_prime=m["d_prime"]),
        loss=loss,
        pipeline=pipeline,
        train=TrainConfig(
            epochs=t["epochs"], batch_size=t["batch_size"], lr=t["lr"],
            momentum=t["momentum"], weight_decay=t["weight_decay"],
            temp_lr_scale=t["temp_lr_scale"], run_seed=t["run_seed"],
            eval_every=t["eval_every"], test_fraction=t["test_fraction"],
            probe_per_class=t["probe_per_class"],
        ),
        eval=EvalConfig(knn_k=e["knn_k"], probe_sizes=tuple(e["probe_sizes"]),
                        pair_count=e["pair_count"], pair_seed=e["pair_seed"]),
        dataset_path=io["dataset"],
        output_dir=Path(io["output_dir"]),
        synthetic=SyntheticSpec(**io["synthetic"]),
    )


def load_config(path) -> tuple[Experiment, dict]:
    """Parse, validate, fill defaults, and echo the resolved document to
    ``<output_dir>/config.resolved.json``."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise FileNotFoundError(f"config file {path}: {exc}") from exc
    try:
        user = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"<root>: not valid JSON ({exc})") from None
    resolved = resolve_config(user)
    experiment = experiment_from_dict(resolved)
    experiment.output_dir.mkdir(parents=True, exist_ok=True)
    echo = experiment.output_dir / "config.resolved.json"
    echo.write_text(json.dumps(resolved, indent=2, sort_keys=True) + "\n")
    return experiment, resolved
