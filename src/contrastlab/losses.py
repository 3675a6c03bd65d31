"""Contrastive losses: four single-head baselines and their multi-head
variants with pair-adaptive temperatures.

Each multi-head loss is a sum of per-head terms. A head's term couples a
temperature-weighted positive similarity, an aggregate over the hardest
(top-k) or all (softmax) negative similarities, and a temperature penalty
that keeps the learned variances away from degenerate values.

There is one batch loss per variant: ``nce_loss`` (ntxent and infonce,
in-batch negatives over one (C, 2B, 2B) stack of similarity matrices),
``multihead_negcos`` and ``multihead_cross_corr``. Each takes every head
at once, as (C, B, d') stacks with head c in slice c, builds its
similarities, then its temperatures once (the temperature net's, which
embeds the loss's own inputs, or the scheduled one filled to the pair
shape), branches on the family only around the formula, and returns the
batch terms, each summed over the heads in head order, with the head-
first temperatures it used. ``head_loss`` is the one path from raw head
outputs to these losses: it normalizes, standardizes or runs the
predictor as the variant needs, and training, the finite-difference
checks, the maximum-likelihood suite and the reduction check call it.

Gradient flow through the adaptive temperature. With beta = 1 and
softmax aggregation a head's ntxent term is, up to a constant, the
negative log Gaussian ratio

    -log N(z+; z, tau+ I) + log sum_n N(z_n; z, tau_n I)

over unit projections, so each temperature is the variance of a
likelihood that scores the projections: a nuisance parameter, not a
feature. For fixed features the per-pair variance estimate minimizes the
loss over the bounded range (eta, eta + iota) (for the positive pair,
tau+ = 2(1 - s+)/d'), and by the envelope theorem (Danskin's theorem,
which also covers minimizers on the range's edge) the gradient of the
resulting profile loss with respect to the features is the partial
gradient at fixed temperatures. The temperature net amortizes that
estimate; letting its error also steer the features adds the term
(dL/dtau)(dtau/dz), which lowers the loss by moving the projections to
suit phi's current temperatures rather than by separating positives from
negatives. With that term, the 3-head ntxent run (beta = 1, 5-op views,
run seed 2) collapses within its first epoch: mean positive and negative
projected cosine 0.997 and 0.997 at tau near 0.2, far from the bounds.
Without it the same run is at 0.88 and 0.69 after two epochs. So phi is
trained through dL/dtau and the encoder and heads through dL/dz at fixed
tau: temperatures are computed from gradient-stopped features
(``nets.temperature_embedding``).
The batch losses and the maximum-likelihood oracle all go through that
one function, and the finite-difference check holds its stop-gradient
values at the base point (``tensor.finite_diff_check``).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractViolation, require, require_choice
from .nets import Mlp, TempBounds, adaptive_temperature, bounded_sigmoid, temperature_embedding
from .tensor import Tensor

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class LossConfig:
    """Knobs shared by every loss variant.

    ``family`` picks the plain single-head implementation or the
    multi-head adaptive one; the two coincide in gradient (not value) for
    heads=1, constant temperature, softmax aggregation.
    """

    variant: str = "ntxent"          # ntxent | simsiam | barlow | infonce
    family: str = "multihead"        # baseline | multihead
    heads: int = 3
    beta: float = 1.0
    kappa: int = 16
    lambd: float = 5e-3
    temp_mode: str = "adaptive"      # constant | cosine | adaptive
    tau0: float = 0.2
    tau_min: float = 0.05
    tau_max: float = 1.0
    tau_period: float = 60.0
    bounds: TempBounds = TempBounds()
    neg_agg: str = "softmax"         # topk | softmax
    dim_factor_in_set_penalty: bool = True

    def __post_init__(self):
        require_choice(self.variant, "variant", ("ntxent", "simsiam", "barlow", "infonce"))
        require_choice(self.family, "family", ("baseline", "multihead"))
        require(self.heads >= 1, "heads", "must be >= 1")
        require(self.beta >= 0, "beta", "must be >= 0")
        require(self.kappa >= 1, "kappa", "must be >= 1")
        require(self.lambd >= 0, "lambd", "must be >= 0")
        require_choice(self.temp_mode, "temp_mode", ("constant", "cosine", "adaptive"))
        for name in ("tau0", "tau_min", "tau_max", "tau_period"):
            require(getattr(self, name) > 0, name, "must be > 0")
        require_choice(self.neg_agg, "neg_agg", ("topk", "softmax"))
        baseline = self.family == "baseline"
        require(not baseline or self.heads == 1, "heads", "baseline family requires C = 1")
        require(not baseline or self.temp_mode != "adaptive", "temp_mode",
                "baseline family uses a constant or scheduled temperature")


@dataclass(frozen=True)
class LossTerms:
    """Loss decomposition: positive-pair, negative-pair, penalty."""

    pos: Tensor
    neg: Tensor
    omega: Tensor

    def total(self) -> Tensor:
        return self.pos + self.neg + self.omega


# -- similarity ------------------------------------------------------------

def cosine_sim(u, v) -> Tensor:
    """<u, v> / (|u| |v|) along the last axis; for unit vectors this obeys
    |u - v|^2 = 2 - 2 sim(u, v)."""
    return T.sum_(T.mul(T.l2_normalize(u), T.l2_normalize(v)), axis=-1)


def topk_indices(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries along the last axis, ties broken
    by lowest index (stable sort keeps the original order of equals)."""
    if k < 1 or k > values.shape[-1]:
        raise ContractViolation(f"kappa={k} outside 1..{values.shape[-1]}")
    return np.argsort(-values, axis=-1, kind="stable")[..., :k]


# -- temperature penalty ----------------------------------------------------

def temp_penalty(tau, d_prime: int) -> Tensor:
    """(d'/2) log(tau) + 1/tau, elementwise; unique minimum at tau = 2/d'.
    A tau <= 0 fails the domain check of ``T.log``."""
    return (d_prime / 2.0) * T.log(tau) + 1.0 / tau


# -- baseline losses (single head, constant temperature) -------------------

def ntxent_terms(s_pos: Tensor, s_cand: Tensor, tau: float) -> LossTerms:
    """-log[ exp(s+/tau) / sum_n exp(s_n/tau) ] over each row's
    candidates s_n: the negatives, plus the positive as the last entry
    for infonce."""
    pos = -(s_pos / tau)
    neg = T.log(T.sum_(T.exp(s_cand / tau), axis=-1))
    return LossTerms(pos, neg, Tensor(np.zeros(pos.shape)))


def batch_standardize(z: Tensor) -> Tensor:
    """Per-channel zero mean and unit population std over the batch axis
    of an (N, d') matrix, or of each matrix of a (C, N, d') stack."""
    row = z.shape[:-2] + (1, z.shape[-1])
    centered = z - T.reshape(T.mean(z, axis=-2), row)
    return centered / T.sqrt(T.reshape(T.mean(T.mul(centered, centered), axis=-2), row))


def check_standardized(data: np.ndarray, tol: float = 1e-6) -> None:
    mu = data.mean(axis=-2)
    std = data.std(axis=-2)
    if np.any(np.abs(mu) > tol) or np.any(np.abs(std - 1.0) > tol):
        raise ContractViolation(
            "projections are not batch-standardized "
            f"(max |mean|={np.abs(mu).max():.3g}, max |std-1|={np.abs(std - 1).max():.3g})"
        )


def cross_correlation(z_a: Tensor, z_b: Tensor) -> Tensor:
    """Channel cross-correlation of two standardized (N, d') view
    projections, or of each pair of matrices of two (C, N, d') stacks:
    C = z_a^T z_b / N, so C_ll = 1 when z_a = z_b."""
    n = z_a.shape[-2]
    return T.matmul(T.transpose(z_a), z_b) / float(n)


def _matrix_sum(x: Tensor) -> Tensor:
    """Sum over the last two axes: a matrix's entries, in row-major order."""
    return T.sum_(T.reshape(x, x.shape[:-2] + (x.shape[-2] * x.shape[-1],)), axis=-1)


# -- negative aggregation and the multi-head losses -------------------------

def softmax_negatives(s: Tensor, tau: Tensor, d_prime: int) -> Tensor:
    """log sum_n (2 pi tau_n)^(-d'/2) exp((s_n - 1)/tau_n) over the last
    axis: the exact log-sum whose top-1 approximation is the hardest-
    negative term, with the temperature penalty absorbed into the sum.

    Evaluated max-shifted, as a log-sum-exp of the log-densities
    -(d'/2) log(2 pi tau_n) + (s_n - 1)/tau_n, so a row whose densities
    all underflow at small temperatures stays finite; the gradient with
    respect to the log-densities is their softmax."""
    log_dens = (-d_prime / 2.0) * T.log(TWO_PI * tau) + (s - 1.0) / tau
    return T.logsumexp(log_dens, axis=-1)


def nce_head_terms(cfg: LossConfig, s_pos: Tensor, tau_pos: Tensor, s_cand: Tensor,
                   tau_cand: Tensor, d_prime: int) -> tuple[LossTerms, np.ndarray]:
    """Ntxent/infonce-style row terms from precomputed similarities and
    temperatures, aggregated and penalized as ``cfg`` says, plus the
    candidate temperatures the negative term read (the top-k selection,
    or every candidate). ``s_cand`` holds each row's negative candidates
    along its last axis (plus the positive as the last entry for the
    infonce variant) and ``s_pos`` the row's positive; leading axes
    (heads, rows) are elementwise."""
    pos = -(s_pos / tau_pos)
    if cfg.neg_agg == "softmax":
        neg = softmax_negatives(s_cand, tau_cand, d_prime)
        return LossTerms(pos, neg, cfg.beta * temp_penalty(tau_pos, d_prime)), tau_cand.data
    idx = topk_indices(s_cand.data, cfg.kappa)
    s_sel = T.gather(s_cand, idx)
    t_sel = T.gather(tau_cand, idx)
    neg = T.sum_(s_sel / t_sel, axis=-1) / float(cfg.kappa)
    set_pen = T.sum_(temp_penalty(t_sel, d_prime if cfg.dim_factor_in_set_penalty else 2), axis=-1)
    return LossTerms(pos, neg, cfg.beta * (temp_penalty(tau_pos, d_prime) - set_pen)), t_sel.data


# -- temperature sources ----------------------------------------------------

@dataclass
class StepTemps:
    """Temperatures a batch loss used, head first: every value it built,
    (heads, values), and the positive-pair temperatures, (heads, samples)."""

    all_values: np.ndarray
    positive: np.ndarray


def _scheduled_tau(cfg: LossConfig, temps) -> float | None:
    """The scheduled temperature, or None when ``temps`` is adaptive.
    ``temps`` is a number for the constant and cosine modes and the
    temperature net (an ``Mlp``) for the adaptive mode."""
    adaptive = isinstance(temps, Mlp)
    if adaptive != (cfg.temp_mode == "adaptive"):
        need = "the temperature net" if cfg.temp_mode == "adaptive" else "a scheduled temperature"
        raise ContractViolation(f"temp_mode {cfg.temp_mode!r} needs {need}, got {temps!r}")
    return None if adaptive else float(temps)


def _stack_shape(cfg: LossConfig, *stacks: Tensor) -> tuple[int, int, int]:
    """The common (C, B, d') shape of a loss's input stacks, C = cfg.heads."""
    shape = stacks[0].shape
    if len(shape) != 3 or shape[0] != cfg.heads or any(z.shape != shape for z in stacks):
        raise ContractViolation(f"expected {cfg.heads} heads of matching (B, d') rows, "
                                f"got {[z.shape for z in stacks]}")
    return shape


def channel_temperatures(z_a: Tensor, z_b: Tensor, temp_net: Mlp,
                         bounds: TempBounds) -> Tensor:
    """(d', d') per-channel-pair temperatures of the cross-correlation
    loss, one matrix per head of a stack: batch-dimension channel vectors
    pushed through the batch-width temperature net."""
    phi_a = temperature_embedding(temp_net, T.l2_normalize(T.transpose(z_a)))
    phi_b = temperature_embedding(temp_net, T.l2_normalize(T.transpose(z_b)))
    return bounded_sigmoid(T.matmul(phi_a, T.transpose(phi_b)), bounds)


# -- batch losses: one call per step, all heads ------------------------------

@functools.lru_cache(maxsize=16)
def pair_indices(batch: int, with_positive: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Column indices into the (2B, 2B) Gram matrix over the rows of
    concat([z_a, z_b]): each row's positive partner, shape (2B, 1), and
    its 2B - 2 in-batch negatives, shape (2B, 2B - 2), then, with
    ``with_positive``, its partner as a last column (infonce candidates).
    A row's negatives are its own branch first, then the other branch,
    each in batch order with the row itself and its partner left out.
    Cached, so both arrays are read-only."""
    others = np.tile(np.arange(batch), (batch, 1))[~np.eye(batch, dtype=bool)]
    others = others.reshape(batch, batch - 1)
    negatives = np.block([[others, others + batch], [others + batch, others]])
    partner = np.concatenate([np.arange(batch) + batch, np.arange(batch)])[:, None]
    if with_positive:
        negatives = np.concatenate((negatives, partner), axis=1)
    partner.setflags(write=False)
    negatives.setflags(write=False)
    return partner, negatives


def _pairs(matrix: Tensor, partner: np.ndarray, candidates: np.ndarray) -> tuple[Tensor, Tensor]:
    """A (C, 2B, 2B) stack of pair matrices gathered at each row's
    partner, as (C, 2B), and at its candidate columns."""
    return (T.reshape(T.gather(matrix, partner), matrix.shape[:-1]),
            T.gather(matrix, candidates))


def _symmetric_mean(terms: LossTerms, batch: int) -> LossTerms:
    """Per head, 0.5 (m_a + m_b) of the per-direction means of its (2B,)
    row terms, summed over the heads: the two means combine commutatively,
    so the loss is exactly invariant to swapping the views."""
    def half(t: Tensor) -> Tensor:
        return T.sum_(T.mean(T.mean(T.reshape(t, (t.shape[0], 2, batch)), axis=-1), axis=-1))
    return LossTerms(half(terms.pos), half(terms.neg), half(terms.omega))


def nce_loss(cfg: LossConfig, projections, temps) -> tuple[LossTerms, StepTemps]:
    """In-batch ntxent/infonce over two views, both families, all heads.

    ``projections`` is (z_a, z_b), two (C, B, d') stacks of unit rows
    (they are not re-normalized here); ``temps`` is the scheduled
    temperature or the temperature net. One (C, 2B, 2B) stack of Gram
    matrices over the 2B rows of each head's concat([z_a, z_b]) gives
    every similarity; each row's positive is its partner in the other view
    and its negatives are the other 2B - 2 rows (``pair_indices``, one
    table for every head); the infonce candidates add the positive as the
    last entry. Adaptive temperatures come the same way from the Gram
    matrices of the same rows' temperature embeddings; the bounded sigmoid
    reads only the gathered pair logits, so a self-pair on the diagonal,
    which is no pair, cannot trip its saturation check. The baseline
    family scores the rows with ``ntxent_terms`` at the scheduled
    temperature, the multi-head family with ``nce_head_terms``.
    Returns the head sums of each head's ``_symmetric_mean`` and the
    temperatures used.
    """
    tau = _scheduled_tau(cfg, temps)
    z_a, z_b = projections
    heads, batch, d_prime = _stack_shape(cfg, z_a, z_b)
    if batch < 2:
        raise ContractViolation("in-batch negatives need a batch of at least 2")
    partner, candidates = pair_indices(batch, cfg.variant == "infonce")
    z = T.concat([z_a, z_b], axis=1)
    s_pos, s_cand = _pairs(T.matmul(z, T.transpose(z)), partner, candidates)
    if tau is None:
        phi = temperature_embedding(temps, z)
        r_pos, r_cand = _pairs(T.matmul(phi, T.transpose(phi)), partner, candidates)
        t_pos, t_cand = bounded_sigmoid(r_pos, cfg.bounds), bounded_sigmoid(r_cand, cfg.bounds)
    else:
        t_pos, t_cand = Tensor(np.full(s_pos.shape, tau)), Tensor(np.full(s_cand.shape, tau))
    if cfg.family == "baseline":
        terms, t_read = ntxent_terms(s_pos, s_cand, tau), t_cand.data
    else:
        terms, t_read = nce_head_terms(cfg, s_pos, t_pos, s_cand, t_cand, d_prime)
    emitted = np.concatenate((t_read.reshape(heads, -1), t_pos.data), axis=1)
    return _symmetric_mean(terms, batch), StepTemps(emitted, t_pos.data)


def multihead_negcos(cfg: LossConfig, branches, temps) -> tuple[LossTerms, StepTemps]:
    """Symmetric negative cosine with stop-gradient targets, all heads:
    the sum over heads of each head's batch-mean terms.

    ``branches`` is (live_a, live_b, target_a, target_b), four (C, B, d')
    stacks: live rows are predictor outputs, targets are the opposite
    branch's projector outputs (stop-gradient is applied here). ``temps``
    is the scheduled temperature or the temperature net, which reads each
    positive pair, (live_a, target_b) and (live_b, target_a), at unit
    norm. Both temperature penalties enter with positive sign since both
    pairs are positive pairs. Each branch is normalized once, and the
    temperature net reads the same unit rows the cosines do. The baseline
    family is the plain batch mean of -0.5 s_a - 0.5 s_b over the same
    cosines; its temperature is only logged.
    """
    tau = _scheduled_tau(cfg, temps)
    live_a, live_b, target_a, target_b = branches
    d_prime = _stack_shape(cfg, *branches)[-1]
    unit_a, unit_b = T.l2_normalize(live_a), T.l2_normalize(live_b)
    goal_a = T.l2_normalize(T.stop_gradient(target_a))
    goal_b = T.l2_normalize(T.stop_gradient(target_b))
    s_a = T.sum_(T.mul(unit_a, goal_b), axis=-1)
    s_b = T.sum_(T.mul(unit_b, goal_a), axis=-1)
    if tau is None:
        tau_a = adaptive_temperature(unit_a, goal_b, temps, cfg.bounds)
        tau_b = adaptive_temperature(unit_b, goal_a, temps, cfg.bounds)
    else:
        tau_a = tau_b = Tensor(np.full(s_a.shape, tau))
    if cfg.family == "baseline":
        terms = LossTerms(T.sum_(T.mean(-0.5 * s_a - 0.5 * s_b, axis=-1)), Tensor(0.0), Tensor(0.0))
    else:
        pos = -0.5 * (s_a / tau_a) - 0.5 * (s_b / tau_b)
        omega = cfg.beta * (temp_penalty(tau_a, d_prime) + temp_penalty(tau_b, d_prime))
        terms = LossTerms(T.sum_(T.mean(pos, axis=-1)), Tensor(0.0), T.sum_(T.mean(omega, axis=-1)))
    tau_pos = np.hstack([tau_a.data, tau_b.data])
    return terms, StepTemps(tau_pos, tau_pos)


def multihead_cross_corr(cfg: LossConfig, pairs, temps) -> tuple[LossTerms, StepTemps]:
    """Cross-correlation loss with per-channel temperatures, all heads.

    ``pairs`` is (z_a, z_b), two (C, N, d') stacks of batch-standardized
    projections. ``temps`` is the scheduled temperature or the batch-width
    temperature net, which reads the pairs (``channel_temperatures``).
    Per head, the diagonal of the cross-correlation C is driven toward
    one and its off-diagonal toward zero, each entry over its
    temperature. The baseline family scores the same entries without
    temperatures, sum_l (1 - C_ll)^2 + lambda sum_(l != m) C_lm^2; its
    temperature is only logged.
    """
    tau = _scheduled_tau(cfg, temps)
    z_a, z_b = pairs
    heads, batch, d_prime = _stack_shape(cfg, z_a, z_b)
    if batch < 2:
        raise ContractViolation("batch size must be >= 2")
    check_standardized(z_a.data)
    check_standardized(z_b.data)
    c_mat = cross_correlation(z_a, z_b)
    eye = Tensor(np.eye(d_prime))
    off = Tensor(1.0 - np.eye(d_prime))
    c_diag = T.sum_(T.mul(c_mat, eye), axis=-1)
    c_off = T.mul(T.mul(c_mat, c_mat), off)
    if tau is None:
        t_mat = channel_temperatures(z_a, z_b, temps, cfg.bounds)
    else:
        t_mat = Tensor(np.full((heads, d_prime, d_prime), tau))
    diag_t = T.sum_(T.mul(t_mat, eye), axis=-1)
    if cfg.family == "baseline":
        value = T.sum_(T.pow_const(1.0 - c_diag, 2.0), axis=-1) + cfg.lambd * _matrix_sum(c_off)
        terms = LossTerms(T.sum_(value), Tensor(0.0), Tensor(0.0))
    else:
        pos = T.sum_(T.pow_const(1.0 - c_diag / diag_t, 2.0), axis=-1)
        neg = cfg.lambd * _matrix_sum(T.mul(c_off, 1.0 / t_mat))
        omega = cfg.beta * (T.sum_(temp_penalty(diag_t, d_prime), axis=-1)
                            - _matrix_sum(T.mul(temp_penalty(t_mat, d_prime), off)))
        terms = LossTerms(T.sum_(pos), T.sum_(neg), T.sum_(omega))
    return terms, StepTemps(t_mat.data.reshape(heads, -1), diag_t.data)


def head_loss(cfg: LossConfig, pa: Tensor, pb: Tensor, temps,
              predictor: Mlp | None = None) -> tuple[LossTerms, StepTemps]:
    """The configured batch loss of two views' raw (C, B, d') head
    outputs: the one place that sets each variant's input geometry.

    Barlow reads batch-standardized rows (``multihead_cross_corr``),
    ntxent and infonce unit rows (``nce_loss``), and the negative cosine
    the ``predictor`` branches over unit rows with those unit rows as
    targets (``multihead_negcos``). ``temps`` is the scheduled
    temperature or the variant's temperature net.
    """
    if cfg.variant == "barlow":
        return multihead_cross_corr(cfg, (batch_standardize(pa), batch_standardize(pb)), temps)
    za, zb = T.l2_normalize(pa), T.l2_normalize(pb)
    if cfg.variant != "simsiam":
        return nce_loss(cfg, (za, zb), temps)
    if predictor is None:
        raise ContractViolation("the negative-cosine variant needs a predictor")
    return multihead_negcos(cfg, (predictor(za), predictor(zb), za, zb), temps)


# -- maximum-likelihood oracle ----------------------------------------------

def gaussian_density(s: Tensor, tau: Tensor, d_prime: int) -> Tensor:
    """Isotropic Gaussian density at squared distance 2 - 2s (unit
    vectors): (2 pi tau)^(-d'/2) exp(-(2 - 2s) / (2 tau))."""
    return T.mul(T.pow_const(TWO_PI * tau, -d_prime / 2.0),
                 T.exp(-((2.0 - 2.0 * s) / (2.0 * tau))))


def gaussian_ratio_loss(variant: str, projections, temps, bounds: TempBounds = TempBounds()) -> Tensor:
    """Independent ground truth for the softmax-aggregated in-batch
    losses: per head, the mean over the 2B rows of concat([z_a, z_b]) of
    the negative log Gaussian ratio, summed over heads. ``projections``
    is (z_a, z_b), the two (C, B, d') unit stacks ``nce_loss`` takes.

    Deliberately naive: similarities and temperatures are formed for
    every ordered pair of rows from row-wise products (no Gram matrix),
    the full density matrix is masked with 0/1 matrices that keep each
    row's partner (numerator) and drop self and partner (denominator, the
    negatives; infonce adds the numerator), and the logs are plain logs of
    row sums (no index table, no log-sum-exp). ``temps`` is a constant
    temperature or the temperature net, which reads the same rows.
    """
    if variant not in ("ntxent", "infonce"):
        raise ContractViolation(f"oracle covers ntxent/infonce, got {variant!r}")
    z = T.concat(list(projections), axis=1)
    heads, n, d_prime = z.shape
    first = T.matmul(Tensor(np.repeat(np.eye(n), n, axis=0)), z)   # row i*n + j is row i
    second = T.matmul(Tensor(np.tile(np.eye(n), (n, 1))), z)       # row i*n + j is row j
    s = T.reshape(T.sum_(T.mul(first, second), axis=-1), (heads, n, n))
    if isinstance(temps, Mlp):
        tau = T.reshape(adaptive_temperature(first, second, temps, bounds), (heads, n, n))
    else:
        tau = Tensor(np.full((heads, n, n), float(temps)))
    dens = gaussian_density(s, tau, d_prime)
    partner = np.roll(np.eye(n), n // 2, axis=1)
    numerator = T.sum_(T.mul(dens, Tensor(partner)), axis=-1)
    denominator = T.sum_(T.mul(dens, Tensor(1.0 - np.eye(n) - partner)), axis=-1)
    if variant == "infonce":
        denominator = denominator + numerator
    return T.sum_(T.mean(T.log(denominator) - T.log(numerator), axis=-1))
