"""Similarity-distribution histograms, their overlap, and temperature
statistics.

The overlap coefficient (histogram intersection of the positive-pair and
negative-pair similarity distributions) is the scalar separability
measure: lower means better-separated pairs. Bin count is fixed at 100
over [-1, 1] and is part of the external contract, since overlap depends
on binning resolution.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .losses import cosine_sim
from .nets import ModelBundle, forward_views
from .tensor import Tensor

N_BINS = 100
BIN_EDGES = np.linspace(-1.0, 1.0, N_BINS + 1)


def histogram_from_values(values) -> np.ndarray:
    """Counts over 100 equal bins on [-1, 1]; the last bin includes its
    right edge. A histogram's mass is ``counts / counts.sum()``."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ContractViolation("cannot histogram an empty value set")
    if not (values.min() >= -1.0 and values.max() <= 1.0):      # NaN fails both
        raise ContractViolation("similarities must lie in [-1, 1]")
    bins = np.minimum((np.floor((values + 1.0) * (N_BINS / 2.0))).astype(int), N_BINS - 1)
    return np.bincount(bins, minlength=N_BINS)


def pair_similarities(bundle: ModelBundle, pairs) -> tuple[np.ndarray, np.ndarray]:
    """Similarity of each pair of views through the model, in the
    geometry training optimizes, from one ``nets.forward_views`` call.
    ``pairs`` unpacks into two aligned ``(n, h, w, c)`` view arrays (u, v).

    Returns (projected, backbone). ``projected``: mean over heads of the
    cosine similarity of the per-head projections (similarities averaged
    in head order, not features). ``backbone``: cosine similarity of the
    encoder outputs. Both score with ``losses.cosine_sim``, the cosine of
    the negative-cosine loss.
    """
    u, v = pairs
    if len(u) == 0:
        raise ContractViolation("empty pair list")
    with np.errstate(all="ignore"):     # a value that overflows fails the histogram's range check
        hu, hv, pu, pv = forward_views(bundle, Tensor(u.reshape(len(u), -1)),
                                       Tensor(v.reshape(len(v), -1)))
    return cosine_sim(pu, pv).data.mean(axis=0), cosine_sim(hu, hv).data.copy()


def overlap_coefficient(p: np.ndarray, n: np.ndarray) -> float:
    """Histogram intersection of two count arrays: sum over bins of
    min(p_mass, n_mass)."""
    if p.shape != n.shape:
        raise ContractViolation("histograms use different binnings")
    return float(np.minimum(p / p.sum(), n / n.sum()).sum())


@dataclass
class SeparabilityReport:
    """The positive- and negative-pair histogram counts of one source."""

    source: str
    positive: np.ndarray
    negative: np.ndarray

    @property
    def overlap(self) -> float:
        return overlap_coefficient(self.positive, self.negative)


def separability_report(bundle: ModelBundle, pos_pairs, neg_pairs) -> list[SeparabilityReport]:
    """The projected and the backbone report, in that order, from one
    forward pass per pair set."""
    pos, neg = pair_similarities(bundle, pos_pairs), pair_similarities(bundle, neg_pairs)
    return [SeparabilityReport(source, histogram_from_values(np.clip(p, -1.0, 1.0)),
                               histogram_from_values(np.clip(n, -1.0, 1.0)))
            for source, p, n in zip(("projected", "backbone"), pos, neg)]


def write_separability_csv(path, reports: list[SeparabilityReport]) -> None:
    """Plot-ready rows: one per bin per source, plus a summary row whose
    ``pos_mass`` column carries the overlap coefficient."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["source", "bin_lo", "bin_hi", "pos_mass", "neg_mass"])
        for report in reports:
            pos_mass = report.positive / report.positive.sum()
            neg_mass = report.negative / report.negative.sum()
            for b in range(N_BINS):
                writer.writerow([report.source, repr(float(BIN_EDGES[b])),
                                 repr(float(BIN_EDGES[b + 1])),
                                 repr(float(pos_mass[b])), repr(float(neg_mass[b]))])
            writer.writerow([f"{report.source}:overlap", "", "", repr(report.overlap), ""])


def temperature_stats(taus: np.ndarray) -> float:
    """Cross-head variance of a (heads, samples) temperature matrix, as
    ``losses.StepTemps.positive`` holds it: the mean over samples of the
    population variance across the head temperatures of that sample."""
    taus = np.asarray(taus, dtype=np.float64)
    if taus.ndim != 2 or taus.size == 0:
        raise ContractViolation(f"expected a nonempty (heads, samples) matrix, got {taus.shape}")
    variances = taus.var(axis=0)
    variances[taus.max(axis=0) == taus.min(axis=0)] = 0.0
    return float(variances.mean())
