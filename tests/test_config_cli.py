"""Configuration routing, the dataclass rules behind it, and the
command-line surface."""
import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from contrastlab import train
from contrastlab.cli import main
from contrastlab.config import ConfigError, experiment_from_dict, load_config, resolve_config
from contrastlab.augment import (AugPipeline, PnmError, SyntheticSpec, generate_dataset,
                                 parse_pnm, synthetic_images, write_dataset, write_pnm)
from contrastlab.errors import ContractViolation
from contrastlab.losses import LossConfig, LossTerms
from contrastlab.nets import Mlp, MlpSpec, ModelBundle, TempBounds, load_bundle, save_bundle
from contrastlab.tensor import Tensor, amtd_encode
from contrastlab.train import EvalConfig, ModelConfig, TrainConfig

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"

# One rejected value per JSON field.
BAD_VALUES = {
    "model.d": 0, "model.d_prime": 0, "model.heads": 0,
    "loss.family": "hybrid", "loss.variant": "tripletloss", "loss.beta": -0.5,
    "loss.kappa": 0, "loss.lambda": -1.0, "loss.temp_mode": "linear", "loss.tau0": 0.0,
    "loss.tau_min": 0, "loss.tau_max": -1.0, "loss.tau_period": 0.0,
    "loss.bounds.eta": 0.0, "loss.bounds.iota": -2.0, "loss.neg_agg": "mean",
    "loss.dim_factor_in_set_penalty": 1,
    "augment.prefix": 6, "augment.crop_scale": [0.5, 2.0], "augment.blur_sigma": [0, 0],
    "augment.gray_prob": 1.5, "augment.jitter_strength": 1.0, "augment.flip_prob": -0.1,
    "train.epochs": 0, "train.batch_size": 3, "train.lr": 0.0, "train.momentum": 1.0,
    "train.weight_decay": -1e-4, "train.temp_lr_scale": 0, "train.run_seed": -1,
    "train.eval_every": -1, "train.test_fraction": 1.0, "train.probe_per_class": 0,
    "eval.knn_k": 0, "eval.probe_sizes": [], "eval.pair_count": 0, "eval.pair_seed": -1,
    "io.dataset": 5, "io.output_dir": None,
    "io.synthetic.classes": 0, "io.synthetic.per_class": 0, "io.synthetic.size": 7,
    "io.synthetic.channels": True, "io.synthetic.seed": -1,
}


def leaves(doc: dict, prefix: str = "") -> dict:
    """Each leaf of a JSON document by its dotted path."""
    out = {}
    for key, value in doc.items():
        here = f"{prefix}{key}"
        out.update(leaves(value, here + ".") if isinstance(value, dict) else {here: value})
    return out


# A non-finite number in every float leaf (json reads ``Infinity``), or as
# the last entry of every list-of-floats leaf.
INF = float("inf")
NON_FINITE = {path: INF if isinstance(default, float) else [default[0], INF]
              for path, default in sorted(leaves(resolve_config({})).items())
              if isinstance(default, float)
              or (isinstance(default, list) and isinstance(default[0], float))}
BAD_CASES = ([pytest.param(path, value, "", id=path) for path, value in sorted(BAD_VALUES.items())]
             + [pytest.param(path, value, "expected a finite number", id=f"{path}=inf")
                for path, value in NON_FINITE.items()]
             + [pytest.param(path, "a\0b", "a path cannot contain a NUL character", id=f"{path}=nul")
                for path in ("io.dataset", "io.output_dir")])


class TestResolve:
    def test_empty_document_gets_full_defaults(self):
        resolved = resolve_config({})
        assert resolved["model"] == {"d": 32, "d_prime": 16, "heads": 3}
        assert resolved["loss"]["temp_mode"] == "adaptive"
        assert resolved["loss"]["bounds"] == {"eta": 1e-5, "iota": 2.0}
        assert resolved["train"]["epochs"] == 60
        assert resolved["io"]["dataset"] is None

    def test_defaults_are_the_dataclass_defaults(self):
        exp = experiment_from_dict(resolve_config({}))
        for got, want in ((exp.model, ModelConfig()), (exp.loss, LossConfig()),
                          (exp.pipeline, AugPipeline()), (exp.train, TrainConfig()),
                          (exp.eval, EvalConfig()), (exp.synthetic, SyntheticSpec())):
            for field in dataclasses.fields(want):
                assert getattr(got, field.name) == getattr(want, field.name), \
                    f"{type(want).__name__}.{field.name}"

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ConfigError, match="loss.gamma"):
            resolve_config({"loss": {"gamma": 1.0}})
        with pytest.raises(ConfigError, match="quux"):
            resolve_config({"quux": {}})

    def test_kappa_constraint_names_path(self):
        with pytest.raises(ConfigError, match="loss.kappa"):
            resolve_config({"loss": {"kappa": 0}})

    def test_kappa_vs_batch_negatives(self):
        with pytest.raises(ConfigError, match="loss.kappa"):
            resolve_config({"loss": {"kappa": 500, "neg_agg": "topk"},
                            "train": {"batch_size": 8}})

    def test_bounds_flow_into_loss_config(self, tmp_path):
        doc = {"loss": {"bounds": {"eta": 1e-5, "iota": 2.0}},
               "io": {"output_dir": str(tmp_path / "out")}}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        exp, resolved = load_config(path)
        assert exp.loss.bounds.eta == 1e-5
        assert exp.loss.bounds.iota == 2.0

    def test_type_errors_name_path(self):
        with pytest.raises(ConfigError, match="train.epochs"):
            resolve_config({"train": {"epochs": "sixty"}})
        with pytest.raises(ConfigError, match="loss.variant"):
            resolve_config({"loss": {"variant": "tripletloss"}})

    def test_baseline_family_constraints(self):
        with pytest.raises(ConfigError, match="model.heads"):
            resolve_config({"loss": {"family": "baseline"}, "model": {"heads": 3}})
        with pytest.raises(ConfigError, match="loss.temp_mode"):
            resolve_config({"loss": {"family": "baseline", "temp_mode": "adaptive"},
                            "model": {"heads": 1}})

    def test_bench_workload_configs_resolve_unchanged(self, monkeypatch):
        # The benchmark writes every field out; a renamed, dropped or
        # retyped key changes what it runs.
        spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)   # for its @dataclass
        spec.loader.exec_module(workloads)
        for workload in workloads.WORKLOADS.values():
            doc = workloads.make_config(workload, 201, "data", "out")
            assert resolve_config(json.loads(json.dumps(doc))) == doc, workload.name

    def test_readme_defaults_block_is_the_resolved_default(self):
        """The README's "All defaults" JSON block states the dataclass
        defaults; the dataclasses stay their only owner."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("All defaults:", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
        assert json.loads(block) == resolve_config({})

    def test_resolved_echo_written(self, tmp_path, capsys):
        """Loading only reads; a command that writes outputs leaves the
        echo, also when it fails (here for the missing checkpoint)."""
        out = tmp_path / "runout"
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"io": {"output_dir": str(out)}}))
        _, resolved = load_config(path)
        assert not out.exists()
        assert main(["knn", "-c", str(path)]) == 3
        assert "no checkpoint" in capsys.readouterr().err
        echoed = json.loads((out / "config.resolved.json").read_text())
        assert echoed == resolved


class TestFieldRules:
    def test_table_covers_every_field(self):
        assert set(BAD_VALUES) == set(leaves(resolve_config({})))

    @pytest.mark.parametrize("path,value,reason", BAD_CASES)
    def test_bad_value_exits_2_with_one_line(self, path, value, reason, tmp_path, capsys):
        doc = {"io": {"dataset": str(tmp_path / "data"), "output_dir": str(tmp_path / "o"),
                      "synthetic": {"classes": 2, "per_class": 3, "size": 8, "channels": 1}}}
        *sections, leaf = path.split(".")
        node = doc
        for section in sections:
            node = node.setdefault(section, {})
        node[leaf] = value
        config = tmp_path / "c.json"
        config.write_text(json.dumps(doc))
        assert main(["gen-data", "-c", str(config)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: config: {path}: {reason}"), err
        assert not (tmp_path / "o").exists()

    def test_fuzzed_documents_exit_with_one_line(self, tmp_path, capsys, monkeypatch):
        """A seeded corpus of documents, each the defaults with one leaf
        replaced (a value of another JSON type, a huge integer, NaN,
        Infinity, a negative number, an empty value, a string with a NUL
        byte, each also as a list entry) or one unknown key added. knn
        without a checkpoint ends each in exit 2 with one config line, or
        in exit 3 with the missing-checkpoint line; path leaves take only
        relative names inside the working directory."""
        monkeypatch.chdir(tmp_path)
        rng = np.random.default_rng(17)

        def values():
            """One value of each kind, the huge and negative numbers drawn anew."""
            return ["x", "a\0b", "", True, None, [], {}, [1.0], 10 ** int(rng.integers(19, 400)),
                    -int(rng.integers(1, 2 ** 62)), -float(rng.uniform(0.0, 10.0)), 0, 0.0,
                    float("nan"), float("inf"), -float("inf")]

        corpus = []
        for path, default in sorted(leaves(resolve_config({})).items()):
            for value in values():
                corpus.append((path, value))
                if isinstance(default, list):
                    corpus.append((path, [value] + default[1:]))
        sections = sorted({path.rsplit(".", 1)[0] for path in leaves(resolve_config({}))})
        corpus += [(f"{section}.unknown{case}", values()[pick]) for case, section in enumerate(sections)
                   for pick in rng.integers(0, 16, 2)] + [("unknown", {})]
        assert len(corpus) > 300
        for case, (path, value) in enumerate(corpus):
            doc = {"io": {"output_dir": "out"}}
            *parents, leaf = path.split(".")
            node = doc
            for section in parents:
                node = node.setdefault(section, {})
            node[leaf] = value
            config = tmp_path / "c.json"
            config.write_text(json.dumps(doc))
            code = main(["knn", "-c", str(config)])
            err = capsys.readouterr().err.splitlines()
            output_dir = value if path == "io.output_dir" and code == 3 else "out"
            missing = f"error: io: io.output_dir: no checkpoint at {Path(output_dir) / 'checkpoint.bin'}"
            assert (code, len(err)) in ((2, 1), (3, 1)), (case, path, value, code, err)
            assert err[0].startswith("error: config: ") if code == 2 else err[0] == missing, \
                (case, path, value, err)

    @pytest.mark.parametrize("make,field", [
        pytest.param(lambda: ModelConfig(d_prime=0), "d_prime", id="model"),
        pytest.param(lambda: LossConfig(tau_period=0.0), "tau_period", id="loss"),
        pytest.param(lambda: LossConfig(family="baseline", heads=3), "heads", id="baseline-heads"),
        pytest.param(lambda: TempBounds(eta=0.0), "eta", id="bounds"),
        pytest.param(lambda: AugPipeline(blur_sigma=(0.0, 0.0)), "blur_sigma", id="blur"),
        pytest.param(lambda: AugPipeline(crop_scale=(0.5, 2.0)), "crop_scale", id="crop"),
        pytest.param(lambda: AugPipeline(crop_scale=(0.5,)), "crop_scale", id="crop-length"),
        pytest.param(lambda: AugPipeline(flip_prob=1.5), "flip_prob", id="flip"),
        pytest.param(lambda: AugPipeline.prefix(0), "prefix", id="prefix"),
        pytest.param(lambda: TrainConfig(momentum=1.0), "momentum", id="train"),
        pytest.param(lambda: TrainConfig(test_fraction=0.0), "test_fraction", id="test-fraction"),
        pytest.param(lambda: EvalConfig(probe_sizes=()), "probe_sizes", id="eval"),
        pytest.param(lambda: SyntheticSpec(channels=2), "channels", id="synthetic"),
    ])
    def test_dataclasses_reject_python_callers_too(self, make, field):
        with pytest.raises(ContractViolation) as info:
            make()
        assert info.value.field == field

    def test_settled_ranges_accept_their_edges(self):
        AugPipeline(crop_scale=(1.0, 1.0), blur_sigma=(2.0, 2.0), gray_prob=1.0, flip_prob=1.0)
        AugPipeline(gray_prob=0.0, flip_prob=0.0)


# Config sections of the runs whose checkpoints the eval commands score,
# one per set of components a run writes besides the encoder and heads.
SCORED_RUNS = {
    "ntxent-adaptive": {},
    "baseline-ntxent": {"model": {"heads": 1},
                        "loss": {"family": "baseline", "temp_mode": "constant"}},
    "barlow-adaptive": {"loss": {"variant": "barlow"}},
    "simsiam-adaptive": {"loss": {"variant": "simsiam"}},
}


def _trained_run(small_config, root: Path, sections: dict) -> tuple[Path, ModelBundle]:
    """``small_config`` with ``sections`` laid over it, pretrained into
    ``root / "out"`` with probe_sizes [probe_per_class]: the config's path
    and the bundle its checkpoint holds."""
    _, cfg_path = small_config
    doc = json.loads(cfg_path.read_text())
    for section, values in sections.items():
        doc[section] = {**doc.get(section, {}), **values}
    doc["eval"]["probe_sizes"] = [doc["train"]["probe_per_class"]]
    doc["io"]["output_dir"] = str(root / "out")
    root.mkdir(parents=True, exist_ok=True)
    path = root / "c.json"
    path.write_text(json.dumps(doc))
    assert main(["pretrain", "-c", str(path)]) == 0
    return path, load_bundle(root / "out" / "checkpoint.bin")


def _earlier_layout(components: dict[str, Mlp]) -> bytes:
    """A version-2 checkpoint in the layout written before runs kept only
    the nets their loss reads: every given component, in order, as
    float64 AMTD records."""
    tensors, payload = [], bytearray()
    for name, mlp in components.items():
        for i, param in enumerate(mlp.params):
            blob = amtd_encode(param.data, dtype_code=2)
            tensors.append({"name": f"{name}/{i // 2}/{'wb'[i % 2]}", "shape": list(param.shape),
                            "offset": len(payload), "length": len(blob)})
            payload += blob
    manifest = {"format": "contrastlab-checkpoint", "version": 2, "tensors": tensors,
                "specs": {name: list(mlp.spec.widths) for name, mlp in components.items()}}
    body = json.dumps(manifest, sort_keys=True).encode("utf-8")
    return len(body).to_bytes(8, "little") + body + bytes(payload)


@pytest.fixture(scope="module")
def small_config(tmp_path_factory):
    """A tiny end-to-end config plus its synthetic dataset on disk."""
    root = tmp_path_factory.mktemp("cli")
    data_dir = root / "data"
    write_dataset(generate_dataset(SyntheticSpec(classes=2, per_class=12, size=8,
                                                 channels=1, seed=4)), data_dir)
    doc = {
        "model": {"d": 16, "d_prime": 8, "heads": 2},
        "loss": {"beta": 2.0},
        "augment": {"prefix": 2},
        "train": {"epochs": 2, "batch_size": 8, "run_seed": 6, "probe_per_class": 5,
                  "temp_lr_scale": 0.01},
        "eval": {"knn_k": 3, "pair_count": 12, "probe_sizes": [2, 5]},
        "io": {"dataset": str(data_dir), "output_dir": str(root / "out")},
    }
    cfg_path = root / "experiment.json"
    cfg_path.write_text(json.dumps(doc))
    return root, cfg_path


@pytest.fixture(scope="module")
def crafted_run(tmp_path_factory):
    """A 2x20 8x8 3-channel set and a config whose eval commands read the
    checkpoint a test writes to ``root / "out"``."""
    root = tmp_path_factory.mktemp("crafted")
    write_dataset(generate_dataset(SyntheticSpec(classes=2, per_class=20, size=8, channels=3)),
                  root / "data")
    (root / "out").mkdir()
    doc = {"model": {"d": 16, "d_prime": 8, "heads": 2},
           "train": {"probe_per_class": 10},
           "eval": {"pair_count": 20, "probe_sizes": [10]},
           "io": {"dataset": str(root / "data"), "output_dir": str(root / "out")}}
    path = root / "experiment.json"
    path.write_text(json.dumps(doc))
    return root, path


class TestCommands:
    def test_pretrain_then_eval_commands(self, small_config):
        root, cfg_path = small_config
        assert main(["pretrain", "-c", str(cfg_path)]) == 0
        out = root / "out"
        assert (out / "checkpoint.bin").exists()
        assert (out / "train_log.csv").exists()
        assert (out / "config.resolved.json").exists()
        assert main(["knn", "-c", str(cfg_path)]) == 0
        assert main(["probe", "-c", str(cfg_path)]) == 0
        assert main(["analyze", "-c", str(cfg_path)]) == 0
        sep = (out / "separability.csv").read_text().splitlines()
        assert sep[0] == "source,bin_lo,bin_hi,pos_mass,neg_mass"
        eval_rows = (out / "eval_log.csv").read_text().splitlines()
        assert eval_rows[0] == "epoch,knn_acc,probe_acc,overlap"
        # pretrain final row + knn row + two probe rows
        assert len(eval_rows) == 1 + 1 + 1 + 2

    def test_pretrain_reruns_bit_identical(self, small_config, tmp_path):
        root, cfg_path = small_config
        out = root / "out"
        main(["pretrain", "-c", str(cfg_path)])
        first = (out / "train_log.csv").read_bytes()
        main(["pretrain", "-c", str(cfg_path)])
        assert (out / "train_log.csv").read_bytes() == first

    def test_eval_commands_score_the_trained_model(self, small_config, tmp_path, capsys):
        """knn, probe and analyze on the checkpoint print exactly the
        values pretrain computed in process (its eval_log.csv row), for
        every set of components a run writes: the temperature net of
        width d', none (a scheduled run), the batch-width net (barlow) and
        a predictor with the net (simsiam)."""
        for name, loss in SCORED_RUNS.items():
            path, _ = _trained_run(small_config, tmp_path / name, loss)
            self._assert_scores(path, capsys)

    @staticmethod
    def _assert_scores(path, capsys):
        """knn, probe and analyze print the values of the run's eval_log.csv
        row; probe runs at ``train.probe_per_class``."""
        doc = json.loads(path.read_text())
        row = (Path(doc["io"]["output_dir"]) / "eval_log.csv").read_text().splitlines()[1]
        _, knn_acc, probe_acc, overlap = row.split(",")
        capsys.readouterr()
        for command in ("knn", "probe", "analyze"):
            assert main([command, "-c", str(path)]) == 0, command
        printed = capsys.readouterr().out.splitlines()
        per_class = doc["train"]["probe_per_class"]
        assert f"knn_acc={knn_acc}" in printed
        assert f"probe_acc[{per_class} per class]={probe_acc}" in printed
        assert f"overlap[projected]={overlap}" in printed

    def test_earlier_checkpoint_layout_scores_the_same(self, small_config, tmp_path, capsys):
        """Files in the layout written before runs kept only the nets their
        loss reads still load and score as before: a scheduled run's file
        with an unread d' temperature net, and an adaptive barlow file
        whose batch-width net is stored as "temp_net_bt" beside an unread
        d' "temp_net". The batch-width net loads as the temperature net."""
        for name, loss in (("scheduled", SCORED_RUNS["baseline-ntxent"]),
                           ("barlow", SCORED_RUNS["barlow-adaptive"])):
            path, bundle = _trained_run(small_config, tmp_path / name, loss)
            d_prime = bundle.heads.spec.widths[-1]
            unread = Mlp.init(MlpSpec((d_prime, d_prime)), seed=5)
            components = {"encoder": bundle.encoder, "heads": bundle.heads, "temp_net": unread}
            if bundle.temp_net is not None:
                components["temp_net_bt"] = bundle.temp_net
            checkpoint = tmp_path / name / "out" / "checkpoint.bin"
            checkpoint.write_bytes(_earlier_layout(components))
            loaded = load_bundle(checkpoint)
            want = (unread if bundle.temp_net is None else bundle.temp_net).params
            assert [p.data.tobytes() for p in loaded.temp_net.params] == [p.data.tobytes() for p in want]
            self._assert_scores(path, capsys)

    @pytest.mark.parametrize("need,train_keys,eval_keys,synthetic_keys", [
        ("train.probe_per_class", {}, {}, {}),
        ("eval.knn_k", {"probe_per_class": 10}, {"knn_k": 500}, {}),
        ("train.test_fraction", {"probe_per_class": 10, "test_fraction": 0.05}, {"knn_k": 5},
         {"classes": 1, "per_class": 18}),
    ])
    def test_evaluation_needs_checked_before_the_first_step(self, tmp_path, capsys, monkeypatch,
                                                            need, train_keys, eval_keys,
                                                            synthetic_keys):
        """A split too small for the evaluation after the last epoch (too
        few images of a class for the probe, fewer training images than
        knn_k, fewer than two held-out images) stops pretrain before any
        step, with one line naming the config path."""
        calls = []
        monkeypatch.setattr(train, "train_step", lambda *args: calls.append(args))
        synthetic = {"classes": 4, "per_class": 40, "size": 8, "channels": 1, "seed": 1}
        doc = {"model": {"d": 16, "d_prime": 8, "heads": 2},
               "train": {"epochs": 2, "batch_size": 16, **train_keys},
               "eval": eval_keys,
               "io": {"output_dir": str(tmp_path / "out"),
                      "synthetic": {**synthetic, **synthetic_keys}}}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        assert main(["pretrain", "-c", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: contract: {need}: "), err
        assert calls == []

    def test_class_held_out_whole_stops_before_the_first_step(self, tmp_path, capsys,
                                                              monkeypatch):
        """A class whose only image the split holds out has no training
        image for the probe: pretrain stops before any step instead of
        scoring that image as a certain miss."""
        calls = []
        monkeypatch.setattr(train, "train_step", lambda *args: calls.append(args))
        samples = list(synthetic_images(SyntheticSpec(classes=3, per_class=40, size=8,
                                                      channels=1, seed=1)))
        write_dataset([s for s in samples if s[1] < 2] + [samples[80]], tmp_path / "data")
        doc = {"model": {"d": 16, "d_prime": 8, "heads": 2},
               "train": {"epochs": 2, "batch_size": 16, "probe_per_class": 10},
               "io": {"dataset": str(tmp_path / "data"), "output_dir": str(tmp_path / "out")}}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        assert main(["pretrain", "-c", str(path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: contract: train.probe_per_class: class 2 has 0 training images, need 10"]
        assert calls == []

    @pytest.mark.parametrize("temp_width", [None, 8], ids=["scheduled", "barlow-adaptive"])
    def test_fuzzed_checkpoints_exit_with_one_line(self, small_config, tmp_path, capsys, temp_width):
        """A seeded corpus of damaged checkpoints, without a temperature net
        and with a batch-width one: truncations, changed manifest and
        payload bytes, and bad manifest lengths. knn, probe and analyze
        each exit 0, 2 or 3, and every failure prints exactly one error
        line."""
        _, cfg_path = small_config
        doc = json.loads(cfg_path.read_text())
        doc["io"]["output_dir"] = str(tmp_path)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        checkpoint = tmp_path / "checkpoint.bin"
        save_bundle(ModelBundle.build(64, 16, 8, 2, seed=3, temp_width=temp_width), checkpoint)
        blob = checkpoint.read_bytes()
        n = int.from_bytes(blob[:8], "little")
        rng = np.random.default_rng(8)
        corpus = [blob[:cut] for cut in rng.integers(0, len(blob), 100)]
        for lo, hi in ((8, 8 + n), (8 + n, len(blob))):
            for at, flip in zip(rng.integers(lo, hi, 100), rng.integers(1, 256, 100)):
                corpus.append(blob[:at] + bytes([blob[at] ^ flip]) + blob[at + 1:])
        lengths = [0, n - 1, n + 1, len(blob), 2 ** 63, 2 ** 64 - 1, *rng.integers(0, 2 ** 62, 10)]
        corpus += [int(length).to_bytes(8, "little") + blob[8:] for length in lengths]
        for case, damaged in enumerate(corpus):
            checkpoint.write_bytes(damaged)
            for command in ("knn", "probe", "analyze"):
                code = main([command, "-c", str(path)])
                err = capsys.readouterr().err.splitlines()
                assert code in (0, 2, 3), (command, case)
                assert len(err) == (code != 0) and all(line.startswith("error: ") for line in err), \
                    (command, case, err)

    def test_fuzzed_pnm_files_exit_with_one_line(self, tmp_path, capsys):
        """A seeded corpus of damaged copies of one image of a ``gen-data``
        set, read by ``knn`` against a 1-epoch checkpoint: truncations,
        and changed bytes inside the header. Each case exits 2 or 3 with
        exactly one error line, or 0 when the damaged bytes still parse
        at the image's shape."""
        doc = {"model": {"d": 16, "d_prime": 8, "heads": 2},
               "train": {"epochs": 1, "batch_size": 8, "probe_per_class": 5},
               "eval": {"knn_k": 3, "pair_count": 12, "probe_sizes": [5]},
               "io": {"dataset": str(tmp_path / "data"), "output_dir": str(tmp_path / "out"),
                      "synthetic": {"classes": 2, "per_class": 12, "size": 8, "channels": 1,
                                    "seed": 5}}}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        assert main(["gen-data", "-c", str(path)]) == 0
        assert main(["pretrain", "-c", str(path)]) == 0
        capsys.readouterr()
        image = tmp_path / "data" / "c1_0003.pgm"
        blob = image.read_bytes()
        shape = parse_pnm(blob).shape
        header = len(blob) - np.prod(shape) - 1
        rng = np.random.default_rng(11)
        corpus = [blob[:cut] for cut in rng.integers(0, len(blob), 60)]
        for at, flip in zip(rng.integers(0, header + 1, 120), rng.integers(1, 256, 120)):
            corpus.append(blob[:at] + bytes([blob[at] ^ flip]) + blob[at + 1:])
        for case, damaged in enumerate(corpus):
            image.write_bytes(damaged)
            try:
                readable = parse_pnm(damaged).shape == shape
            except PnmError:
                readable = False
            code = main(["knn", "-c", str(path)])
            err = capsys.readouterr().err.splitlines()
            assert (code == 0) == readable and code in (0, 2, 3), (case, damaged[:16])
            assert len(err) == (code != 0) and all(line.startswith("error: ") for line in err), \
                (case, err)

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e200, 1e308], ids=str)
    @pytest.mark.parametrize("index", range(4))
    @pytest.mark.parametrize("component", ["encoder", "heads"])
    def test_non_finite_or_huge_weights_exit_with_one_line(self, crafted_run, capsys,
                                                           component, index, value):
        """A well-formed checkpoint with one parameter tensor of the
        encoder or the heads filled with NaN, inf or a huge finite value:
        knn, probe and analyze each exit 0, or exit 3 with exactly one
        line naming the checkpoint, and no warning (warnings are errors
        here). No config is at fault, so none exits 2."""
        root, path = crafted_run
        checkpoint = root / "out" / "checkpoint.bin"
        bundle = ModelBundle.build(192, 16, 8, 2, seed=3, temp_width=8)
        param = getattr(bundle, component).params[index]
        param.data = np.full(param.shape, value)
        save_bundle(bundle, checkpoint)
        for command in ("knn", "probe", "analyze"):
            code = main([command, "-c", str(path)])
            err = capsys.readouterr().err.splitlines()
            assert code in (0, 3), (command, err)
            assert len(err) == (code != 0) and all(
                line.startswith(f"error: io: checkpoint {checkpoint}: ") for line in err), \
                (command, err)

    @pytest.mark.parametrize("index,value", [(2, 0.0), (0, 1e160)], ids=["zero", "1e160"])
    def test_zero_or_overflowing_features_exit_3(self, crafted_run, capsys, index, value):
        """An encoder whose second layer's weights are all zero (every
        feature row is zero) or one of whose weight tensors is 1e160 (a
        row's squared norm overflows): the unit rows that knn and probe
        read fail as the heads' inputs do, so knn, probe and analyze each
        exit 3 with exactly one line naming the checkpoint."""
        root, path = crafted_run
        checkpoint = root / "out" / "checkpoint.bin"
        bundle = ModelBundle.build(192, 16, 8, 2, seed=3, temp_width=8)
        param = bundle.encoder.params[index]
        param.data = np.full(param.shape, value)
        save_bundle(bundle, checkpoint)
        for command in ("knn", "probe", "analyze"):
            assert main([command, "-c", str(path)]) == 3, command
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"error: io: checkpoint {checkpoint}: "), \
                (command, err)

    def test_config_caused_contract_violation_stays_exit_2(self, crafted_run, tmp_path, capsys):
        """Scoring a sound checkpoint with a config that asks for more
        training images than the split holds is the config's fault."""
        root, path = crafted_run
        save_bundle(ModelBundle.build(192, 16, 8, 2, seed=3, temp_width=8),
                    root / "out" / "checkpoint.bin")
        doc = json.loads(path.read_text())
        doc["eval"].update(knn_k=100, probe_sizes=[100])
        config = tmp_path / "c.json"
        config.write_text(json.dumps(doc))
        for command, reason in (("knn", "k=100 exceeds"), ("probe", "need 100")):
            assert main([command, "-c", str(config)]) == 2, command
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: contract: ") and reason in err[0]

    @pytest.mark.parametrize("damage", ["truncated-payload", "smaller-image"])
    def test_bad_dataset_file_is_io_error(self, small_config, tmp_path, capsys, damage):
        _, cfg_path = small_config
        data_dir = tmp_path / "data"
        dataset = generate_dataset(SyntheticSpec(classes=2, per_class=12, size=16, channels=1))
        write_dataset(dataset, data_dir)
        bad = data_dir / dataset.filenames[3]
        if damage == "truncated-payload":
            bad.write_bytes(b"P5 16 16 255\n\x80")
        else:
            bad.write_bytes(write_pnm(dataset.pixels[3, :8, :8]))
        doc = json.loads(cfg_path.read_text())
        doc["io"].update(dataset=str(data_dir), output_dir=str(tmp_path / "out"))
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        assert main(["pretrain", "-c", str(path)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: io: {bad}: "), err

    def test_missing_dataset_exit_code_names_field(self, tmp_path, capsys):
        doc = {"io": {"dataset": str(tmp_path / "nope"), "output_dir": str(tmp_path / "o")}}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        assert main(["pretrain", "-c", str(path)]) == 3
        assert "io.dataset" in capsys.readouterr().err

    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"loss": {"kappa": 0}}))
        assert main(["pretrain", "-c", str(path)]) == 2
        assert "loss.kappa" in capsys.readouterr().err

    def test_gen_data_round_trip(self, tmp_path):
        target = tmp_path / "generated"
        doc = {"io": {"dataset": str(target), "output_dir": str(tmp_path / "o"),
                      "synthetic": {"classes": 2, "per_class": 3, "size": 8, "channels": 1}}}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        assert main(["gen-data", "-c", str(path)]) == 0
        assert (target / "labels.csv").exists()
        assert len(list(target.glob("*.pgm"))) == 6

    def test_gen_data_writes_the_generated_dataset(self, tmp_path, capsys):
        spec = {"classes": 2, "per_class": 5, "size": 8, "channels": 3, "seed": 4}
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"io": {"dataset": str(tmp_path / "cli"),
                                           "output_dir": str(tmp_path / "o"),
                                           "synthetic": spec}}))
        assert main(["gen-data", "-c", str(path)]) == 0
        assert capsys.readouterr().out.startswith("wrote 10 images to ")
        write_dataset(generate_dataset(SyntheticSpec(**spec)), tmp_path / "ref")
        for ref in (tmp_path / "ref").iterdir():
            assert (tmp_path / "cli" / ref.name).read_bytes() == ref.read_bytes()
        assert len(list((tmp_path / "cli").iterdir())) == 11

    def test_gen_data_requires_target(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"io": {"output_dir": str(tmp_path / "o")}}))
        assert main(["gen-data", "-c", str(path)]) == 2
        assert "io.dataset" in capsys.readouterr().err

    def test_knn_without_checkpoint_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"io": {"output_dir": str(tmp_path / "empty")},
                                    "train": {"epochs": 1}}))
        assert main(["knn", "-c", str(path)]) == 3
        assert "checkpoint" in capsys.readouterr().err

    def test_corrupt_checkpoint_is_io_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        out.mkdir()
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"io": {"output_dir": str(out)}}))
        checkpoint = out / "checkpoint.bin"
        save_bundle(ModelBundle.build(64, 16, 8, 2, seed=3), checkpoint)
        blob = checkpoint.read_bytes()
        n = int.from_bytes(blob[:8], "little")
        garbled, short, cut = blob[:8] + b"#" * n + blob[8 + n:], blob[:5], blob[:8 + n + 10]
        for damaged in (garbled, short, cut):
            checkpoint.write_bytes(damaged)
            assert main(["knn", "-c", str(path)]) == 3
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"error: io: checkpoint {checkpoint}: "), err

    @pytest.mark.parametrize("damage", ["format", "version-1", "head-extents", "widths"])
    def test_checkpoint_manifest_is_checked(self, tmp_path, capsys, damage):
        """A checkpoint of another format or version, whose head layers
        disagree on the number of heads, or whose layer widths disagree
        with its tensors, exits 3 with one line."""
        out = tmp_path / "o"
        out.mkdir()
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"io": {"output_dir": str(out)}}))
        checkpoint = out / "checkpoint.bin"
        bundle = ModelBundle.build(64, 16, 8, 2, seed=3)
        if damage == "head-extents":
            for p in bundle.heads.params[2:]:
                p.data = p.data[:1]
        save_bundle(bundle, checkpoint)
        if damage != "head-extents":
            blob = checkpoint.read_bytes()
            n = int.from_bytes(blob[:8], "little")
            manifest = json.loads(blob[8:8 + n])
            manifest.update({"format": {"format": "other"}, "version-1": {"version": 1},
                             "widths": {"specs": dict(manifest["specs"], encoder=[64, 4, 16])}}[damage])
            body = json.dumps(manifest).encode()
            checkpoint.write_bytes(len(body).to_bytes(8, "little") + body + blob[8 + n:])
        assert main(["knn", "-c", str(path)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: io: checkpoint {checkpoint}: "), err

    def test_failed_step_names_itself(self, tmp_path, capsys):
        """At d = 8 an encoder maps an input to an exact zero vector (a
        dead ReLU layer), which cannot be normalized: the one error line
        names the epoch and step."""
        doc = {"model": {"d": 8, "d_prime": 4},
               "train": {"epochs": 1, "batch_size": 4, "probe_per_class": 2},
               "eval": {"knn_k": 2, "pair_count": 4, "probe_sizes": [2]},
               "io": {"output_dir": str(tmp_path / "out"),
                      "synthetic": {"classes": 2, "per_class": 5, "size": 8, "channels": 1}}}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        assert main(["pretrain", "-c", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: contract: epoch 0 step 0: cannot normalize a zero vector"]

    def test_non_finite_loss_names_its_step(self, tmp_path, capsys, monkeypatch):
        """A loss that is not finite stops the run before its update with
        one evaluation line (exit 1) naming the epoch and step."""
        batch_loss = train._batch_loss

        def infinite(*args):
            terms, temps = batch_loss(*args)
            return LossTerms(Tensor(np.inf), terms.neg, terms.omega), temps

        monkeypatch.setattr(train, "_batch_loss", infinite)
        doc = {"model": {"d": 16, "d_prime": 8, "heads": 1},
               "loss": {"family": "baseline", "temp_mode": "constant"},
               "train": {"epochs": 1, "batch_size": 8, "probe_per_class": 2},
               "eval": {"knn_k": 5},
               "io": {"output_dir": str(tmp_path / "out"),
                      "synthetic": {"classes": 2, "per_class": 10, "size": 8, "channels": 1}}}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        assert main(["pretrain", "-c", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("error: evaluation: epoch 0 step 0: non-finite loss: pos=inf, neg="), err

    @pytest.mark.parametrize("loss, train_values, code", [
        ({}, {"lr": 1e300}, 2),
        ({}, {"weight_decay": 1e300}, 2),
        ({"beta": 1e300}, {}, 2),
        ({}, {"temp_lr_scale": 1e300}, 2),
        ({"variant": "barlow", "lambda": 1e300}, {}, 2),
        ({"temp_mode": "constant", "tau0": 1e-300}, {}, 2),
        ({"temp_mode": "constant", "tau0": 1e300}, {}, 0),
        ({"temp_mode": "cosine", "tau_max": 1e300}, {}, 0),
    ], ids=["lr", "weight_decay", "beta", "temp_lr_scale", "barlow_lambda", "tau0_tiny",
            "tau0_huge", "tau_max_huge"])
    def test_overflowing_step_warns_nothing(self, tmp_path, capsys, loss, train_values, code):
        """A step whose values overflow writes no numpy warning (here an
        error): the run stops with the one line of the check that catches
        it, or trains, and then scores, with empty stderr."""
        doc = {"model": {"d": 16, "d_prime": 8, "heads": 2}, "loss": loss,
               "augment": {"prefix": 5},
               "train": {"epochs": 1, "batch_size": 16, "probe_per_class": 10, **train_values},
               "eval": {"probe_sizes": [10]},
               "io": {"output_dir": str(tmp_path / "out"),
                      "synthetic": {"classes": 4, "per_class": 40, "size": 8}}}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        assert main(["pretrain", "-c", str(path)]) == code
        err = capsys.readouterr().err.splitlines()
        if code:
            assert len(err) == 1 and err[0].startswith("error: contract: epoch 0 step 1: "), err
            return
        assert err == []
        for command in ("knn", "probe", "analyze"):
            assert main([command, "-c", str(path)]) == 0, command
        assert capsys.readouterr().err == ""

    def test_without_config_echoes_the_defaults(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["gen-data"]) == 2
        assert "io.dataset" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert main(["knn"]) == 3
        assert "no checkpoint" in capsys.readouterr().err
        echoed = json.loads((tmp_path / "out" / "config.resolved.json").read_text())
        assert echoed == resolve_config({})

    @pytest.mark.parametrize("command", ["pretrain", "knn", "probe", "analyze"])
    def test_output_commands_echo_before_their_work(self, tmp_path, capsys, command):
        """A run that fails at once (no dataset, no checkpoint) still
        leaves an echo equal to the resolved document."""
        doc = {"model": {"d": 16, "heads": 2}, "train": {"run_seed": 4},
               "io": {"dataset": str(tmp_path / "none"),
                      "output_dir": str(tmp_path / "run" / "out")}}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        assert main([command, "-c", str(path)]) == 3
        assert capsys.readouterr().err.startswith("error: io: ")
        echoed = (tmp_path / "run" / "out" / "config.resolved.json").read_text()
        assert echoed == json.dumps(resolve_config(doc), indent=2, sort_keys=True) + "\n"

    def test_read_only_commands_create_no_output_dir(self, tmp_path, capsys):
        doc = {"train": {"run_seed": 2},
               "io": {"dataset": str(tmp_path / "data"), "output_dir": str(tmp_path / "out"),
                      "synthetic": {"classes": 2, "per_class": 3, "size": 8, "channels": 1}}}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        for command in ("gen-data", "gradcheck", "reduce-check"):
            assert main([command, "-c", str(path)]) == 0, command
        assert capsys.readouterr().err == ""
        assert (tmp_path / "data" / "labels.csv").exists()
        assert not (tmp_path / "out").exists()
