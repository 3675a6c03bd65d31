"""Pretraining loop, optimizer, temperature schedule, and the two
frozen-feature evaluation protocols (nearest-neighbor and linear probe).

``pretrain`` and the reduction check run one ``train_step`` per two-view
batch: the encoder and the stack of projection heads (one
``nets.forward_views`` call per view for all C heads), one
``losses.head_loss`` call on the raw (C, B, d') head outputs (for
ntxent/infonce: in-batch negatives, all views of the other images,
N = 2(B-1), both anchor/positive directions averaged), and one
SGD-with-momentum update. Identical config and seed give byte-identical
logs. Pixels stay plain arrays: batches, features and evaluation pairs
index ``Dataset.pixels``.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import losses as L
from .augment import AugPipeline, Dataset, augment_view, make_two_views, stratified_split, view_draws
from .errors import ContractViolation, DomainError, EvaluationError, require
from .losses import LossConfig, LossTerms
from .metrics import separability_report, temperature_stats
from .nets import ModelBundle, forward_views, save_bundle
from .nets import bounded_sigmoid  # noqa: F401  (bench/spans.py traces train.bounded_sigmoid)
from .rng import SplitMix64, derive, derive_many
from .tensor import Tensor, backward

TRAIN_LOG_HEADER = "epoch,step,loss,pos_term,neg_term,omega_term,tau_min,tau_mean,tau_max,tau_var_heads"
EVAL_LOG_HEADER = "epoch,knn_acc,probe_acc,overlap"


@dataclass(frozen=True)
class ModelConfig:
    d: int = 32
    d_prime: int = 16

    def __post_init__(self):
        require(self.d >= 1, "d", "must be >= 1")
        require(self.d_prime >= 1, "d_prime", "must be >= 1")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 60
    batch_size: int = 64
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 1e-4
    temp_lr_scale: float = 0.01
    run_seed: int = 1
    eval_every: int = 0          # 0: evaluate after the final epoch only
    test_fraction: float = 0.2
    probe_per_class: int = 50

    def __post_init__(self):
        require(self.epochs >= 1, "epochs", "must be >= 1")
        require(self.batch_size >= 4, "batch_size", "must be >= 4 (in-batch negatives)")
        require(self.lr > 0, "lr", "must be > 0")
        require(0 <= self.momentum < 1, "momentum", "must lie in [0, 1)")
        require(self.weight_decay >= 0, "weight_decay", "must be >= 0")
        require(self.temp_lr_scale > 0, "temp_lr_scale", "must be > 0")
        require(self.run_seed >= 0, "run_seed", "must be >= 0")
        require(self.eval_every >= 0, "eval_every", "must be >= 0")
        require(0 < self.test_fraction < 1, "test_fraction", "must lie in (0, 1)")
        require(self.probe_per_class >= 1, "probe_per_class", "must be >= 1")


@dataclass(frozen=True)
class EvalConfig:
    knn_k: int = 20
    probe_sizes: tuple[int, ...] = (10, 20, 50)
    pair_count: int = 500
    pair_seed: int = 99

    def __post_init__(self):
        require(self.knn_k >= 1, "knn_k", "must be >= 1")
        require(len(self.probe_sizes) > 0 and all(n >= 1 for n in self.probe_sizes),
                "probe_sizes", "expected a nonempty list of integers >= 1")
        require(self.pair_count >= 1, "pair_count", "must be >= 1")
        require(self.pair_seed >= 0, "pair_seed", "must be >= 0")


def temperature_for_step(cfg: LossConfig, epoch: int) -> float:
    """Scheduled temperature for this epoch: the cosine schedule, or tau0."""
    if cfg.temp_mode == "cosine":
        return cfg.tau_min + 0.5 * (cfg.tau_max - cfg.tau_min) * (
            1.0 + math.cos(2.0 * math.pi * epoch / cfg.tau_period))
    return cfg.tau0


class SgdMomentum:
    """Classic SGD with momentum and L2 weight decay folded into the
    gradient; parameters are leaves mutated in place between graphs.

    ``lr_scales`` applies a per-parameter learning-rate multiplier; the
    temperature net runs at a fraction of the base rate because its
    objective is much stiffer (curvature ~ 1/tau^3) than the encoder's.
    """

    def __init__(self, params: list[Tensor], momentum: float, weight_decay: float,
                 lr_scales: list[float]):
        if len(lr_scales) != len(params):
            raise ContractViolation(
                f"{len(lr_scales)} learning-rate scales for {len(params)} parameters")
        self.params = params
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.lr_scales = lr_scales
        self.velocity = [np.zeros_like(p.data) for p in params]

    def step(self, grads: list[np.ndarray], lr: float) -> None:
        """One update from ``grads``, one array per parameter in order;
        the arrays are read, never written."""
        if len(grads) != len(self.params):
            raise ContractViolation(f"{len(grads)} gradients for {len(self.params)} parameters")
        for p, grad, v, scale in zip(self.params, grads, self.velocity, self.lr_scales):
            g = grad + self.weight_decay * p.data
            v *= self.momentum
            v += g
            p.data -= lr * scale * v


def _batch_loss(bundle: ModelBundle, cfg: LossConfig, xa: Tensor, xb: Tensor,
                source) -> tuple[LossTerms, L.StepTemps]:
    """Loss terms and temperatures of one two-view batch: the forward
    pass, then ``losses.head_loss`` over every head. The temperature
    ``source`` is the scheduled temperature or ``bundle.temp_net``."""
    _, _, pa, pb = forward_views(bundle, xa, xb)
    return L.head_loss(cfg, pa, pb, source, bundle.predictor)


def train_step(bundle: ModelBundle, opt: SgdMomentum, cfg: LossConfig, xa: Tensor, xb: Tensor,
               lr: float, source) -> tuple[float, LossTerms, L.StepTemps, list[np.ndarray]]:
    """One step on a two-view batch: ``_batch_loss``, the finite-loss check,
    ``backward`` over ``opt.params`` and the update, with numpy's warnings
    off (a value that overflows ends in the one error of the check that
    meets it). Returns the loss value, its terms, the temperatures and the
    gradients the update applied."""
    with np.errstate(all="ignore"):
        terms, temps = _batch_loss(bundle, cfg, xa, xb, source)
        loss = terms.total()
        value = loss.item()
        if not math.isfinite(value):
            raise EvaluationError(f"non-finite loss: pos={terms.pos.item()}, "
                                  f"neg={terms.neg.item()}, omega={terms.omega.item()}")
        grads = backward(loss, opt.params)
        opt.step(grads, lr)
    return value, terms, temps, grads


# -- pretraining ---------------------------------------------------------

@dataclass
class RunResult:
    bundle: ModelBundle
    train_rows: list[str]
    eval_rows: list[str]
    train_indices: np.ndarray


def _start(dataset: Dataset, model_cfg: ModelConfig, loss_cfg: LossConfig,
           train_cfg: TrainConfig) -> tuple[ModelBundle, SgdMomentum, np.ndarray, np.ndarray]:
    """A run's fresh bundle (with a predictor for simsiam, and for an
    adaptive run a temperature net of width d', or of the batch size for
    barlow), its SGD with momentum over every parameter (the temperature
    net at ``temp_lr_scale`` times the base rate), and the train and test
    indices of the split."""
    train_idx, test_idx = stratified_split(dataset.labels, train_cfg.test_fraction)
    if len(train_idx) < train_cfg.batch_size:
        raise ContractViolation(
            f"training split ({len(train_idx)}) smaller than batch size {train_cfg.batch_size}")
    d_in = dataset.pixels[0].size
    width = train_cfg.batch_size if loss_cfg.variant == "barlow" else model_cfg.d_prime
    bundle = ModelBundle.build(
        d_in, model_cfg.d, model_cfg.d_prime, loss_cfg.heads,
        seed=derive(train_cfg.run_seed, "init"),
        with_predictor=loss_cfg.variant == "simsiam",
        temp_width=width if loss_cfg.temp_mode == "adaptive" else None,
    )
    params = bundle.parameters()
    temp = bundle.temp_net.params if bundle.temp_net is not None else []
    opt = SgdMomentum(params, train_cfg.momentum, train_cfg.weight_decay,
                      [train_cfg.temp_lr_scale if any(p is t for t in temp) else 1.0 for p in params])
    return bundle, opt, train_idx, test_idx


def _two_view_batches(dataset: Dataset, train_idx: np.ndarray, pipeline: AugPipeline,
                      train_cfg: TrainConfig, epoch: int):
    """The epoch's shuffled full two-view batches as (step, xa, xb), the
    views of each step drawn at once: (j, b) from ``derive(run_seed, "view", epoch, j, b)``."""
    size = train_cfg.batch_size
    perm = SplitMix64(derive(train_cfg.run_seed, "shuffle", epoch)).permutation(len(train_idx))
    for step in range(len(train_idx) // size):
        batch = train_idx[perm[step * size:(step + 1) * size]]
        draws = view_draws(pipeline, derive_many(train_cfg.run_seed, "view", epoch, batch[:, None], (0, 1)))
        views = np.empty((2, len(batch)) + dataset.pixels.shape[1:])
        for row, j in enumerate(batch):
            views[:, row] = make_two_views(dataset.pixels[j], pipeline, [d[row] for d in draws])
        xa, xb = (Tensor(v.reshape(len(batch), -1)) for v in views)
        yield step, xa, xb


def _fmt(x: float) -> str:
    return repr(float(x))


def encode_features(bundle: ModelBundle, pixels: np.ndarray) -> np.ndarray:
    """Encoder outputs of (n, h, w, c) images, one row each, with numpy's
    warnings off; a feature that overflows raises ``DomainError``."""
    with np.errstate(all="ignore"):
        features = bundle.encoder(Tensor(pixels.reshape(len(pixels), -1))).data
    if not np.isfinite(features).all():
        raise DomainError("encoder features are not finite")
    return features


def pretrain(dataset: Dataset, model_cfg: ModelConfig, loss_cfg: LossConfig,
             train_cfg: TrainConfig, pipeline: AugPipeline,
             eval_cfg: EvalConfig = EvalConfig(),
             out_dir: Path | None = None) -> RunResult:
    """Run the full pretraining schedule and return the trained bundle
    plus formatted log rows (also written to disk when ``out_dir`` is
    given, along with a checkpoint). The evaluation after the last epoch
    is checked to be possible before the first step."""
    bundle, opt, train_idx, test_idx = _start(dataset, model_cfg, loss_cfg, train_cfg)
    _require_evaluable(dataset.labels, train_idx, len(test_idx), train_cfg, eval_cfg)
    train_rows: list[str] = []
    eval_rows: list[str] = []
    for epoch in range(train_cfg.epochs):
        lr = train_cfg.lr * 0.5 * (1.0 + math.cos(math.pi * epoch / train_cfg.epochs))
        source = (bundle.temp_net if bundle.temp_net is not None
                  else temperature_for_step(loss_cfg, epoch))
        for step, xa, xb in _two_view_batches(dataset, train_idx, pipeline, train_cfg, epoch):
            try:
                # the gradients are dropped here, before the next forward pass
                value, terms, temps = train_step(bundle, opt, loss_cfg, xa, xb, lr, source)[:3]
            except (DomainError, ContractViolation, EvaluationError) as exc:
                # the same error, its message naming the step
                exc.args = (f"epoch {epoch} step {step}: {exc}",) + exc.args[1:]
                raise
            # the mean of n equal temperatures can round outside them
            lo, hi = temps.all_values.min(), temps.all_values.max()
            train_rows.append(",".join([
                str(epoch), str(step), _fmt(value),
                _fmt(terms.pos.item()), _fmt(terms.neg.item()), _fmt(terms.omega.item()),
                _fmt(lo), _fmt(np.clip(temps.all_values.mean(), lo, hi)), _fmt(hi),
                _fmt(temperature_stats(temps.positive)),
            ]))
        last = epoch == train_cfg.epochs - 1
        due = train_cfg.eval_every > 0 and (epoch + 1) % train_cfg.eval_every == 0
        if last or due:
            knn_acc, probe_acc, overlap = evaluate(bundle, dataset, train_idx, test_idx,
                                                   train_cfg, eval_cfg, pipeline)
            eval_rows.append(",".join([str(epoch), _fmt(knn_acc), _fmt(probe_acc), _fmt(overlap)]))
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_rows(out_dir / "train_log.csv", TRAIN_LOG_HEADER, train_rows)
        write_rows(out_dir / "eval_log.csv", EVAL_LOG_HEADER, eval_rows)
        save_bundle(bundle, out_dir / "checkpoint.bin")
    return RunResult(bundle, train_rows, eval_rows, train_idx)


def _require_evaluable(labels: np.ndarray, train_idx: np.ndarray, n_test: int,
                       train_cfg: TrainConfig, eval_cfg: EvalConfig) -> None:
    """The split's sizes that ``evaluate`` needs: ``probe_per_class``
    training images of every class of the dataset (a class held out
    whole counts 0), ``knn_k`` training images and two held-out images.
    Each unmet need names its config path."""
    classes, inverse = np.unique(labels, return_inverse=True)
    counts = np.bincount(inverse[train_idx], minlength=len(classes))
    short = np.argmin(counts)
    require(counts[short] >= train_cfg.probe_per_class, "train.probe_per_class",
            f"class {classes[short]} has {counts[short]} training images, "
            f"need {train_cfg.probe_per_class}")
    require(eval_cfg.knn_k <= len(train_idx), "eval.knn_k",
            f"k={eval_cfg.knn_k} exceeds the {len(train_idx)} training images")
    require(n_test >= 2, "train.test_fraction",
            f"holds out {n_test} image(s), evaluation needs at least two")


def write_rows(path: Path, header: str, rows: list[str], append: bool = False) -> None:
    """One line per row under ``header``; with ``append``, the rows are
    added to an existing file and the header goes only to a new one."""
    fresh = not (append and path.exists())
    with open(path, "w" if fresh else "a", newline="") as fh:
        if fresh:
            fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


def split_features(bundle: ModelBundle, dataset: Dataset, train_idx,
                   test_idx) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The encoder's features and the labels of the train and the test
    split: the first four arguments of both evaluation protocols."""
    return (encode_features(bundle, dataset.pixels[train_idx]), dataset.labels[train_idx],
            encode_features(bundle, dataset.pixels[test_idx]), dataset.labels[test_idx])


def evaluate(bundle: ModelBundle, dataset: Dataset, train_idx, test_idx,
             train_cfg: TrainConfig, eval_cfg: EvalConfig,
             pipeline: AugPipeline) -> tuple[float, float, float]:
    split = split_features(bundle, dataset, train_idx, test_idx)
    knn_acc = knn_eval(*split, eval_cfg.knn_k)
    probe_acc = linear_probe(*split, train_cfg.probe_per_class, derive(train_cfg.run_seed, "probe"))
    pos_pairs, neg_pairs = build_eval_pairs(dataset.pixels[test_idx], pipeline,
                                            eval_cfg.pair_seed, eval_cfg.pair_count)
    overlap = separability_report(bundle, pos_pairs, neg_pairs)[0].overlap
    return knn_acc, probe_acc, overlap


def build_eval_pairs(images: np.ndarray, pipeline: AugPipeline, seed: int,
                     count: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-seed positive and negative pairs as (2, count, h, w, c) view
    arrays (u, v): two views of one held-out image, or of two distinct ones;
    each block's views drawn at once, (p, b) from ``derive(seed, "pos"|"neg", p, b)``."""
    if len(images) < 2:
        raise ContractViolation("need at least two held-out images")
    stream = SplitMix64(derive(seed, "choose"))
    pos = np.empty((2, count) + images.shape[1:])
    neg = np.empty_like(pos)
    pairs = np.arange(count)[:, None]
    draws = view_draws(pipeline, derive_many(seed, "pos", pairs, (0, 1)))
    for p in range(count):
        i = stream.next_index(len(images))
        pos[0, p] = augment_view(images[i], pipeline, [d[p, 0] for d in draws])
        pos[1, p] = augment_view(images[i], pipeline, [d[p, 1] for d in draws])
    draws = view_draws(pipeline, derive_many(seed, "neg", pairs, (0, 1)))
    for p in range(count):
        i = stream.next_index(len(images))
        j = stream.next_index(len(images))
        while j == i:
            j = stream.next_index(len(images))
        neg[0, p] = augment_view(images[i], pipeline, [d[p, 0] for d in draws])
        neg[1, p] = augment_view(images[j], pipeline, [d[p, 1] for d in draws])
    return pos, neg


# -- frozen-feature evaluation protocols ----------------------------------

def _normalize_rows(x: np.ndarray) -> np.ndarray:
    # a finite row whose norm overflows scales to zeros, as it would had
    # one of its entries been infinite
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(x, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ContractViolation("zero feature vector in nearest-neighbor evaluation")
    return x / norms


def _nearest(dist: np.ndarray, k: int) -> list[np.ndarray]:
    """The indices of each row's k smallest entries, in the order of a
    stable sort of the whole row (ties go to the lower index, NaN sorts
    last), without sorting whole rows: ``np.partition`` finds each row's
    k-th smallest entry, and a stable sort runs over only the entries not
    above it. NaN compares false, so a row whose k-th entry is NaN keeps
    every entry and is sorted whole."""
    candidates = ~(dist > np.partition(dist, k - 1, axis=1)[:, k - 1:k])
    return [near[np.argsort(row[near], kind="stable")[:k]]
            for row, near in zip(dist, map(np.flatnonzero, candidates))]


def knn_eval(train_feats: np.ndarray, train_labels: np.ndarray,
             test_feats: np.ndarray, test_labels: np.ndarray, k: int) -> float:
    """Majority vote among the k nearest neighbors under cosine distance;
    vote ties break by smaller summed distance, then lower class index.
    The neighbors are the first k of a stable sort of each row (distance
    ties go to the lower train index), found by one ``np.partition`` of
    the distance matrix and a stable sort of each row's candidates
    (``_nearest``). Every row votes at once: ``np.bincount`` counts each
    (row, class) cell and sums its distances in neighbor order."""
    if len(train_feats) == 0:
        raise ContractViolation("empty train set")
    if k > len(train_feats):
        raise ContractViolation(f"k={k} exceeds train set size {len(train_feats)}")
    dist = 1.0 - _normalize_rows(test_feats) @ _normalize_rows(train_feats).T
    order = np.array(_nearest(dist, k), dtype=np.intp).reshape(len(dist), k)
    classes, codes = np.unique(train_labels, return_inverse=True)
    near, rows, n = codes[order], np.arange(len(dist)), len(classes)
    cells = (rows[:, None] * n + near).ravel()
    votes, sums = (np.bincount(cells, weights, len(dist) * n).reshape(-1, n)
                   for weights in (None, np.take_along_axis(dist, order, 1).ravel()))
    top = votes == votes.max(axis=1, keepdims=True)
    best = np.argmin(np.where(top & ~np.isnan(sums), sums, np.inf), axis=1)
    # NaN compares false, so a NaN sum keeps the vote only in the first
    # top class to appear among the neighbors
    first = near[rows, np.argmax(np.take_along_axis(top, near, 1), axis=1)]
    best = np.where(np.isnan(sums[rows, first]), first, best)
    return int(np.count_nonzero(classes[best] == test_labels)) / len(test_labels)


def linear_probe(train_feats: np.ndarray, train_labels: np.ndarray,
                 test_feats: np.ndarray, test_labels: np.ndarray,
                 per_class: int, seed: int) -> float:
    """Multinomial logistic regression on a stratified seeded subset of
    the frozen features: full-batch gradient descent, 500 iterations,
    learning rate 0.1, L2 penalty 1e-4 on the weights.

    Features are scaled to unit norm first (matching the cosine geometry
    of the nearest-neighbor protocol), which keeps the fixed step size
    well-conditioned whatever scale the encoder settled at. The model has
    one output per distinct training label, in sorted label order, so any
    integer labels work (negative, sparse or large); a prediction is the
    label of the highest-scoring output.
    """
    train_feats = _normalize_rows(train_feats)
    test_feats = _normalize_rows(test_feats)
    classes = np.unique(train_labels)
    subset: list[int] = []
    stream = SplitMix64(derive(seed, "subset"))
    for cls in classes:
        members = np.flatnonzero(train_labels == cls)
        if len(members) < per_class:
            raise ContractViolation(
                f"class {cls} has {len(members)} examples, need {per_class}")
        perm = stream.permutation(len(members))
        subset.extend(members[perm[:per_class]])
    subset_arr = np.asarray(sorted(subset))
    x = train_feats[subset_arr]
    y = np.searchsorted(classes, train_labels[subset_arr])
    onehot = np.zeros((len(y), len(classes)))
    onehot[np.arange(len(y)), y] = 1.0
    w = np.zeros((x.shape[1], len(classes)))
    b = np.zeros(len(classes))
    for _ in range(500):
        logits = x @ w + b
        logits -= logits.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        delta = (probs - onehot) / len(y)
        w -= 0.1 * (x.T @ delta + 1e-4 * w)
        b -= 0.1 * delta.sum(axis=0)
    pred = classes[np.argmax(test_feats @ w + b, axis=1)]
    return float(np.mean(pred == test_labels))


# -- reduction check --------------------------------------------------------

REDUCTION_STEPS = 50
REDUCTION_TAU = 0.2


def reduction_check(dataset: Dataset, model_cfg: ModelConfig, train_cfg: TrainConfig,
                    pipeline: AugPipeline) -> dict:
    """Train for ``REDUCTION_STEPS`` steps updating from the baseline
    ntxent loss while, at every step, also evaluating the single-head
    constant-temperature softmax-aggregated loss on the same batch and
    comparing gradients (they must agree; the values differ by a derived
    constant). The baseline step is ``train_step``, as in training; the
    multihead loss runs through the same ``_batch_loss``.
    """
    tau = REDUCTION_TAU
    multi = LossConfig(variant="ntxent", family="multihead", heads=1, beta=0.0,
                       temp_mode="constant", tau0=tau, neg_agg="softmax")
    base = LossConfig(variant="ntxent", family="baseline", heads=1,
                      temp_mode="constant", tau0=tau)
    bundle, opt, train_idx, _ = _start(dataset, model_cfg, multi, train_cfg)
    # Per head and anchor the two losses differ by this input-independent
    # constant, the softmax density normalization (beta = 0: no penalty).
    offset = -(model_cfg.d_prime / 2.0) * math.log(2.0 * math.pi * tau) - 1.0 / tau
    max_grad_rel = 0.0
    max_value_err = 0.0
    epochs = (_two_view_batches(dataset, train_idx, pipeline, train_cfg, epoch)
              for epoch in itertools.count())
    for _, xa, xb in itertools.islice(itertools.chain.from_iterable(epochs), REDUCTION_STEPS):
        loss_m = _batch_loss(bundle, multi, xa, xb, tau)[0].total()
        grads_m = backward(loss_m, opt.params)
        value_b, _, _, grads_b = train_step(bundle, opt, base, xa, xb, train_cfg.lr, tau)
        for gm, gb in zip(grads_m, grads_b):
            rel = np.max(np.abs(gm - gb) / np.maximum(1.0, np.abs(gm)))
            max_grad_rel = max(max_grad_rel, float(rel))
        max_value_err = max(max_value_err, abs(loss_m.item() - (value_b + offset)))
    return {"max_grad_rel": max_grad_rel, "max_value_err": max_value_err}
