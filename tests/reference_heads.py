"""The per-head implementation that the stacked heads replaced: the
bit-exact reference for the one-pass forward and the batch losses.

Here every head is its own ``Mlp`` and the forward pass and each loss
loop over the heads in Python, adding head by head. ``reference_heads``
splits a stacked head network into such networks, on new parameter
leaves, so that both paths can run and be differentiated side by side,
and ``stacks`` lays per-head tensors out as the stacks a batch loss takes.
"""
import numpy as np

from contrastlab import losses as L
from contrastlab import tensor as T
from contrastlab.losses import LossTerms, StepTemps
from contrastlab.nets import Mlp, adaptive_temperature, bounded_sigmoid, temperature_embedding
from contrastlab.tensor import Tensor


def reference_heads(heads: Mlp) -> list[Mlp]:
    """Head c of a stacked head network as its own ``Mlp``: weights
    (fan_in, fan_out) and biases (fan_out,), copied onto new leaves."""
    return [Mlp(heads.spec, [Tensor(p.data[c] if i % 2 == 0 else p.data[c, 0])
                             for i, p in enumerate(heads.params)])
            for c in range(heads.params[0].shape[0])]


def stacked_grads(heads: list[Mlp], grads: list[np.ndarray]) -> list[np.ndarray]:
    """The per-head parameter gradients, ``grads`` in the order of
    ``[p for h in heads for p in h.params]``, laid out as the stacked
    network's."""
    n = len(heads[0].params)
    out = []
    for i in range(n):
        stacked = np.stack(grads[i::n])
        out.append(stacked if i % 2 == 0 else stacked[:, None, :])
    return out


def _add(a: LossTerms, b: LossTerms | None) -> LossTerms:
    if b is None:
        return a
    return LossTerms(b.pos + a.pos, b.neg + a.neg, b.omega + a.omega)


def _emitted(tau_pos, tau_all) -> StepTemps:
    """Per-head temperature lists as the head-first ``StepTemps``."""
    return StepTemps(np.stack(tau_all), np.stack(tau_pos))


def stacks(per_head) -> tuple[Tensor, ...]:
    """Per-head tuples of (B, d') or (d',) tensors, (z_a, z_b) or
    negative-cosine branches, as the (C, B, d') stacks a batch loss takes,
    on the graph; a vector is a batch of one."""
    return tuple(T.concat([T.reshape(p, (1, p.size // p.shape[-1], p.shape[-1])) for p in side])
                 for side in zip(*per_head))


def reference_forward_views(encoder: Mlp, heads: list[Mlp], x: Tensor, x_pos: Tensor):
    """(h, h_pos, raw) with raw[c] the two views' raw outputs of head c."""
    h = encoder(x)
    h_pos = encoder(x_pos)
    hn = T.l2_normalize(h)
    hn_pos = T.l2_normalize(h_pos)
    return h, h_pos, [(head(hn), head(hn_pos)) for head in heads]


def reference_batch_standardize(z: Tensor) -> Tensor:
    centered = z - T.mean(z, axis=0)
    var = T.mean(T.mul(centered, centered), axis=0)
    return centered / T.sqrt(var)


def reference_batch_loss(bundle, heads: list[Mlp], cfg, xa: Tensor, xb: Tensor, temps):
    """``train._batch_loss`` over per-head networks: the bundle's encoder
    and predictor with the given heads, at the scheduled temperature or
    the bundle's temperature net ``temps``."""
    _, _, raw = reference_forward_views(bundle.encoder, heads, xa, xb)
    if cfg.variant == "barlow":
        views = [(reference_batch_standardize(a), reference_batch_standardize(b)) for a, b in raw]
        return reference_cross_corr(cfg, views, temps)
    views = [(T.l2_normalize(a), T.l2_normalize(b)) for a, b in raw]
    if cfg.variant == "simsiam":
        branches = [(bundle.predictor(a), bundle.predictor(b), a, b) for a, b in views]
        return reference_negcos(cfg, branches, temps)
    return reference_nce_loss(cfg, views, temps)


def _infonce_terms(s_pos: Tensor, s_neg: Tensor, tau: float) -> LossTerms:
    """Baseline infonce row terms with the positive added to the sum over
    the negatives, -log[exp(s+/tau) / (exp(s+/tau) + sum_n exp(s-_n/tau))]:
    the form ``losses.nce_loss`` gets by scoring the positive as one more
    candidate."""
    pos = -(s_pos / tau)
    neg = T.log(T.exp(s_pos / tau) + T.sum_(T.exp(s_neg / tau), axis=-1))
    return LossTerms(pos, neg, Tensor(np.zeros(pos.shape)))


def reference_nce_loss(cfg, projections, temps):
    """``losses.nce_loss`` over a per-head list of unit (z_a, z_b) pairs."""
    tau = L._scheduled_tau(cfg, temps)
    batch = projections[0][0].shape[0]
    partner, negatives = L.pair_indices(batch)
    with_positive = cfg.variant == "infonce" and cfg.family == "multihead"
    candidates = np.hstack([negatives, partner]) if with_positive else negatives

    def pairs(matrix):
        return (T.reshape(T.gather(matrix, partner), (partner.shape[0],)),
                T.gather(matrix, candidates))

    def half(t):
        return T.mean(T.mean(T.reshape(t, (2, batch)), axis=-1))

    total, tau_pos, tau_all = None, [], []
    for z_a, z_b in projections:
        z = T.concat([z_a, z_b], axis=0)
        s_pos, s_cand = pairs(T.matmul(z, T.transpose(z)))
        if cfg.family == "baseline":
            make = L.ntxent_terms if cfg.variant == "ntxent" else _infonce_terms
            terms = make(s_pos, s_cand, tau)
            # reported as the candidate table losses.nce_loss builds, then the positives
            width = negatives.shape[1] + (cfg.variant == "infonce") + 1
            tau_pos.append(np.full(2 * batch, tau))
            tau_all.append(np.full(2 * batch * width, tau))
        else:
            if tau is None:
                phi = temperature_embedding(temps, z)
                r_pos, r_cand = pairs(T.matmul(phi, T.transpose(phi)))
                t_pos, t_cand = bounded_sigmoid(r_pos, cfg.bounds), bounded_sigmoid(r_cand, cfg.bounds)
            else:
                t_pos, t_cand = Tensor(np.full(2 * batch, tau)), Tensor(np.full(candidates.shape, tau))
            terms, t_read = L.nce_head_terms(cfg, s_pos, t_pos, s_cand, t_cand, z_a.shape[-1])
            tau_all.append(np.concatenate([t_read.ravel(), t_pos.data]))
            tau_pos.append(t_pos.data)
        total = _add(LossTerms(half(terms.pos), half(terms.neg), half(terms.omega)), total)
    return total, _emitted(tau_pos, tau_all)


def reference_negcos(cfg, branches, temps):
    """``losses.multihead_negcos`` over a per-head list of
    (live_a, live_b, target_a, target_b)."""
    tau = L._scheduled_tau(cfg, temps)
    total, tau_pos, tau_all = None, [], []
    for live_a, live_b, target_a, target_b in branches:
        s_a = L.cosine_sim(live_a, T.stop_gradient(target_b))
        s_b = L.cosine_sim(live_b, T.stop_gradient(target_a))
        if cfg.family == "baseline":
            terms = LossTerms(T.mean(-0.5 * s_a - 0.5 * s_b), Tensor(0.0), Tensor(0.0))
            tau_pos.append(np.full(2 * s_a.size, tau))
        else:
            d_prime = live_a.shape[-1]
            if tau is None:
                tau_a = adaptive_temperature(T.l2_normalize(live_a), T.l2_normalize(target_b),
                                             temps, cfg.bounds)
                tau_b = adaptive_temperature(T.l2_normalize(live_b), T.l2_normalize(target_a),
                                             temps, cfg.bounds)
            else:
                tau_a = tau_b = Tensor(np.full(s_a.shape, tau))
            pos = -0.5 * (s_a / tau_a) - 0.5 * (s_b / tau_b)
            omega = cfg.beta * (L.temp_penalty(tau_a, d_prime) + L.temp_penalty(tau_b, d_prime))
            terms = LossTerms(T.mean(pos), Tensor(0.0), T.mean(omega))
            tau_pos.append(np.concatenate([tau_a.data.ravel(), tau_b.data.ravel()]))
        total = _add(terms, total)
    return total, _emitted(tau_pos, tau_pos)


def reference_cross_corr(cfg, pairs, temps):
    """``losses.multihead_cross_corr`` over a per-head list of
    standardized (z_a, z_b)."""
    tau = L._scheduled_tau(cfg, temps)
    total, tau_pos, tau_all = None, [], []
    for z_a, z_b in pairs:
        d_prime = z_a.shape[-1]
        L.check_standardized(z_a.data)
        L.check_standardized(z_b.data)
        c_mat = L.cross_correlation(z_a, z_b)
        eye = Tensor(np.eye(d_prime))
        off = Tensor(1.0 - np.eye(d_prime))
        diag_c = T.sum_(T.mul(c_mat, eye), axis=-1)
        if tau is None:
            t_mat = L.channel_temperatures(z_a, z_b, temps, cfg.bounds)
        else:
            t_mat = Tensor(np.full((d_prime, d_prime), tau))
        if cfg.family == "baseline":
            on_term = T.sum_(T.pow_const(1.0 - diag_c, 2.0))
            off_term = cfg.lambd * T.sum_(T.mul(T.mul(c_mat, c_mat), off))
            terms = LossTerms(on_term + off_term, Tensor(0.0), Tensor(0.0))
        else:
            diag_t = T.sum_(T.mul(t_mat, eye), axis=-1)
            pos = T.sum_(T.pow_const(1.0 - diag_c / diag_t, 2.0))
            neg = cfg.lambd * T.sum_(T.mul(T.mul(T.mul(c_mat, c_mat), off), 1.0 / t_mat))
            omega = cfg.beta * (T.sum_(L.temp_penalty(diag_t, d_prime))
                                - T.sum_(T.mul(L.temp_penalty(t_mat, d_prime), off)))
            terms = LossTerms(pos, neg, omega)
        tau_pos.append(np.diag(t_mat.data).copy())
        tau_all.append(t_mat.data.ravel())
        total = _add(terms, total)
    return total, _emitted(tau_pos, tau_all)


def reference_pair_similarities(encoder: Mlp, heads: list[Mlp], pairs) -> np.ndarray:
    """The projected similarities of ``metrics.pair_similarities`` over
    per-head networks."""
    u, v = pairs
    _, _, raw = reference_forward_views(encoder, heads, Tensor(u.reshape(len(u), -1)),
                                        Tensor(v.reshape(len(v), -1)))
    acc = np.zeros(len(u))
    for pu, pv in raw:
        acc += T.sum_(T.mul(T.l2_normalize(pu), T.l2_normalize(pv)), axis=-1).data
    return acc / len(heads)
