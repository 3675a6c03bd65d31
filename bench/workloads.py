"""The benchmark's workloads and the configs it generates for them.

A workload is a fixed sequence of ``contrastlab`` CLI commands plus one
JSON config. The benchmark seed feeds ``io.synthetic.seed``,
``train.run_seed`` and ``eval.pair_seed``; the program sees only the
generated config and the dataset that ``gen-data`` writes from it.

Every field of every section is written out, not left to the schema.
The schema and the dataclasses disagree on two defaults (``loss.beta``
2.0 against 1.0, ``train.temp_lr_scale`` 0.1 against 0.01), and on the
schema defaults alone ``pretrain`` (three epochs, run seed 1) exits 2
with ``DomainError: temperature escaped``. Pinning keeps the workloads on the
dataclass values the acceptance grid trains with, and keeps them fixed
when a later change moves a default. The values are not chosen to avoid
a failure: a command that fails is counted and reported, never retried.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass

PRETRAIN_COMMANDS = ("pretrain", "knn", "probe", "analyze")
CHECK_COMMANDS = ("gradcheck", "reduce-check")
EVAL_COMMANDS = ("knn", "probe", "analyze")

# Two-view samples per optimizer step of `reduce-check`: the batch size
# that `checks.reduction_suite` trains its reduction run with. The
# traced run verifies it (make_two_views calls per step).
REDUCTION_BATCH = 16


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[str, ...]
    config: dict

    @property
    def pretrains(self) -> bool:
        return "pretrain" in self.commands

    @property
    def samples_per_step(self) -> int:
        if self.pretrains:
            return self.config["train"]["batch_size"]
        return REDUCTION_BATCH

    @property
    def steps_per_epoch(self) -> int:
        """Optimizer steps per epoch of `pretrain` (stratified split)."""
        syn, train = self.config["io"]["synthetic"], self.config["train"]
        per_class = syn["per_class"] - math.ceil(train["test_fraction"] * syn["per_class"])
        return syn["classes"] * per_class // train["batch_size"]

    @property
    def pretrain_steps(self) -> int:
        """Optimizer steps of one `pretrain`."""
        return self.steps_per_epoch * self.config["train"]["epochs"]


def _config(*, family: str, heads: int, temp_mode: str, prefix: int, epochs: int) -> dict:
    return {
        "model": {"d": 32, "d_prime": 16, "heads": heads},
        "loss": {"family": family, "variant": "ntxent", "beta": 1.0,
                 "kappa": 16, "lambda": 0.005, "temp_mode": temp_mode, "tau0": 0.2,
                 "tau_min": 0.05, "tau_max": 1.0, "tau_period": 60.0,
                 "bounds": {"eta": 1e-5, "iota": 2.0},
                 "neg_agg": "softmax", "dim_factor_in_set_penalty": True},
        "augment": {"prefix": prefix, "crop_scale": [0.5, 1.0], "blur_sigma": [0.1, 1.0],
                    "gray_prob": 0.2, "jitter_strength": 0.4, "flip_prob": 0.5},
        "train": {"epochs": epochs, "batch_size": 64, "lr": 0.05, "momentum": 0.9,
                  "weight_decay": 1e-4, "temp_lr_scale": 0.01, "run_seed": 0,
                  "eval_every": 0, "test_fraction": 0.2, "probe_per_class": 50},
        "eval": {"knn_k": 20, "probe_sizes": [10, 20, 50], "pair_count": 500,
                 "pair_seed": 0},
        "io": {"dataset": None, "output_dir": None,
               "synthetic": {"classes": 4, "per_class": 500, "size": 16,
                             "channels": 3, "seed": 0}},
    }


WORKLOADS = {w.name: w for w in (
    # Augmentation is most of a step here (a 5-op pipeline per view) and
    # the engine does few op calls, so an `augment` change shows and a
    # `tensor` change barely does.
    Workload("baseline-p5", PRETRAIN_COMMANDS,
             _config(family="baseline", heads=1, temp_mode="constant", prefix=5, epochs=2)),
    # The acceptance grid's multihead config with crop-only views: the
    # engine does about five times the baseline's op calls per step
    # (gathers and concats of the in-batch blocks), so loss and engine
    # changes show here, and `augment` is used with crop and resize only.
    Workload("multihead-p1", PRETRAIN_COMMANDS,
             _config(family="multihead", heads=3, temp_mode="adaptive", prefix=1, epochs=2)),
    # Finite-difference and MLE suites: many tiny per-anchor graphs run
    # forward only, the opposite use of the engine to pretraining, and
    # the reference loss path a batched loss must keep. The config only
    # seeds the suites; `gen-data` still runs as the common set-up.
    Workload("checks", CHECK_COMMANDS,
             _config(family="baseline", heads=1, temp_mode="constant", prefix=5, epochs=2)),
)}


def make_config(workload: Workload, seed: int, dataset: str, output_dir: str) -> dict:
    """The workload's config for one seed, dataset directory and output
    directory (paths as the CLI will see them)."""
    cfg = copy.deepcopy(workload.config)
    cfg["io"]["synthetic"]["seed"] = seed
    cfg["train"]["run_seed"] = seed
    cfg["eval"]["pair_seed"] = seed
    cfg["io"]["dataset"] = dataset
    cfg["io"]["output_dir"] = output_dir
    return cfg
