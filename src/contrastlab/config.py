"""Experiment configuration: one JSON document, laid over the defaults
of the config dataclasses, checked for JSON types and closed (unknown
keys are rejected). The commands that write to the output directory
echo it there fully resolved (``cli.main``), so every run is
reproducible from its artifacts alone.

Every default, range and choice lives in its dataclass; this module only
routes the document to them and maps a rejected attribute back to its
JSON path.
"""
from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from .augment import AugPipeline, SyntheticSpec
from .errors import FieldViolation
from .losses import LossConfig
from .nets import TempBounds
from .train import EvalConfig, ModelConfig, TrainConfig


class ConfigError(ValueError):
    """Invalid configuration; the message starts with the JSON path."""


@dataclass
class Experiment:
    model: ModelConfig = ModelConfig()
    loss: LossConfig = LossConfig()
    pipeline: AugPipeline = AugPipeline()
    train: TrainConfig = TrainConfig()
    eval: EvalConfig = EvalConfig()
    dataset_path: str | None = None
    output_dir: Path = Path("out")
    synthetic: SyntheticSpec = SyntheticSpec()


def _document(exp: Experiment) -> dict:
    """The JSON document that builds ``exp``."""
    loss, pipeline = asdict(exp.loss), asdict(exp.pipeline)
    heads = loss.pop("heads")
    loss["lambda"] = loss.pop("lambd")
    return {
        "model": {**asdict(exp.model), "heads": heads},
        "loss": loss,
        "augment": {"prefix": len(pipeline.pop("ops")), **pipeline},
        "train": asdict(exp.train),
        "eval": asdict(exp.eval),
        "io": {"dataset": exp.dataset_path, "output_dir": str(exp.output_dir),
               "synthetic": asdict(exp.synthetic)},
    }


_KINDS = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


def _typed(value, default, path: str):
    """``value`` if it has the JSON type of ``default``. Where the
    default is a float, an integer widens to a float, and the number
    must be finite (``json`` reads ``Infinity``, ``NaN`` and ``1e999``)."""
    if isinstance(default, tuple):
        if isinstance(value, list):
            return [_typed(v, default[0], path) for v in value]
        kind = "a list"
    elif default is None:                     # io.dataset
        if value is None or type(value) is str:
            return value
        kind = "a string or null"
    elif type(default) is float and type(value) in (int, float):
        if abs(value) <= sys.float_info.max:  # false for inf, nan and a huge integer
            return float(value)
        kind = "a finite number"
    elif type(value) is type(default):
        return value
    else:
        kind = _KINDS[type(default)]
    raise ConfigError(f"{path}: expected {kind}")


def _overlay(defaults: dict, user, path: str) -> dict:
    if not isinstance(user, dict):
        raise ConfigError(f"{path or '<root>'}: expected an object")
    for key in user:
        if key not in defaults:
            raise ConfigError(f"{path + '.' if path else ''}{key}: unknown key")
    out = {}
    for key, default in defaults.items():
        here = f"{path}.{key}" if path else key
        if isinstance(default, dict):
            out[key] = _overlay(default, user.get(key, {}), here)
        elif key in user:
            out[key] = _typed(user[key], default, here)
        else:
            out[key] = list(default) if isinstance(default, tuple) else default
    return out


# JSON paths of the attributes whose name or section differs from the document's.
_PATHS = {"loss.heads": "model.heads", "loss.lambd": "loss.lambda"}


def _build(section: str, make, *args, **kwargs):
    try:
        return make(*args, **kwargs)
    except FieldViolation as exc:
        path = f"{section}.{exc.field}"
        raise ConfigError(f"{_PATHS.get(path, path)}: {exc.rule}") from None


def experiment_from_dict(resolved: dict) -> Experiment:
    """Build the experiment from a resolved document; a value its
    dataclass rejects raises ``ConfigError`` naming the JSON path."""
    m, l, a, t, e, io = (resolved[k] for k in ("model", "loss", "augment", "train", "eval", "io"))
    for key in ("dataset", "output_dir"):     # the OS rejects such a path at its first use
        if "\0" in (io[key] or ""):
            raise ConfigError(f"io.{key}: a path cannot contain a NUL character")
    loss = {k: v for k, v in l.items() if k not in ("lambda", "bounds")}
    augment = {k: tuple(v) if isinstance(v, list) else v for k, v in a.items() if k != "prefix"}
    experiment = Experiment(
        model=_build("model", ModelConfig, d=m["d"], d_prime=m["d_prime"]),
        loss=_build("loss", LossConfig, **loss, heads=m["heads"], lambd=l["lambda"],
                    bounds=_build("loss.bounds", TempBounds, **l["bounds"])),
        pipeline=_build("augment", AugPipeline.prefix, a["prefix"], **augment),
        train=_build("train", TrainConfig, **t),
        eval=_build("eval", EvalConfig, **{**e, "probe_sizes": tuple(e["probe_sizes"])}),
        dataset_path=io["dataset"],
        output_dir=Path(io["output_dir"]),
        synthetic=_build("io.synthetic", SyntheticSpec, **io["synthetic"]),
    )
    # The one rule that spans two dataclasses.
    max_neg = 2 * (experiment.train.batch_size - 1)
    if experiment.loss.neg_agg == "topk" and experiment.loss.kappa > max_neg:
        raise ConfigError(f"loss.kappa: kappa = {experiment.loss.kappa} "
                          f"exceeds the in-batch negative count {max_neg}")
    return experiment


def _resolve(user) -> tuple[Experiment, dict]:
    resolved = _overlay(_document(Experiment()), user, "")
    return experiment_from_dict(resolved), resolved


def resolve_config(user: dict) -> dict:
    """The user document laid over the defaults, checked by type and by
    every dataclass rule."""
    return _resolve(user)[1]


def load_config(path=None) -> tuple[Experiment, dict]:
    """Parse and resolve the document at ``path`` (all defaults when
    None); nothing is written."""
    if path is None:
        user = {}
    else:
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise FileNotFoundError(f"config file {path}: {exc}") from exc
        try:
            user = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"<root>: not valid JSON ({exc})") from None
    return _resolve(user)
