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

from . import tensor as T
from .errors import ContractViolation
from .nets import ModelBundle, forward_views
from .tensor import Tensor

N_BINS = 100
BIN_EDGES = np.linspace(-1.0, 1.0, N_BINS + 1)


@dataclass
class SimilarityHistogram:
    """Counts and normalized mass over 100 equal bins on [-1, 1]; the
    last bin includes its right edge."""

    counts: np.ndarray

    @property
    def mass(self) -> np.ndarray:
        return self.counts / self.counts.sum()

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def histogram_from_values(values) -> SimilarityHistogram:
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ContractViolation("cannot histogram an empty value set")
    if values.min() < -1.0 or values.max() > 1.0:
        raise ContractViolation("similarities must lie in [-1, 1]")
    bins = np.minimum((np.floor((values + 1.0) * (N_BINS / 2.0))).astype(int), N_BINS - 1)
    counts = np.bincount(bins, minlength=N_BINS)
    return SimilarityHistogram(counts)


def pair_similarities(bundle: ModelBundle, pairs, source: str) -> np.ndarray:
    """Similarity of each pair of views through the model, in the
    geometry training optimizes (``nets.forward_views``). ``pairs``
    unpacks into two aligned ``(n, h, w, c)`` view arrays (u, v).

    ``projected``: mean over heads of the cosine similarity of the
    per-head projections (similarities averaged in head order, not
    features). ``backbone``: cosine similarity of the encoder outputs.
    """
    if source not in ("projected", "backbone"):
        raise ContractViolation(f"unknown similarity source {source!r}")
    u, v = pairs
    if len(u) == 0:
        raise ContractViolation("empty pair list")
    xu = Tensor(u.reshape(len(u), -1))
    xv = Tensor(v.reshape(len(v), -1))
    hu, hv, pu, pv = forward_views(bundle, xu, xv)
    if source == "backbone":
        sims = T.sum_(T.mul(T.l2_normalize(hu), T.l2_normalize(hv)), axis=-1)
        return sims.data.copy()
    return T.sum_(T.mul(T.l2_normalize(pu), T.l2_normalize(pv)), axis=-1).data.mean(axis=0)


def similarity_histogram(bundle: ModelBundle, pairs, source: str) -> SimilarityHistogram:
    return histogram_from_values(np.clip(pair_similarities(bundle, pairs, source), -1.0, 1.0))


def overlap_coefficient(p: SimilarityHistogram, n: SimilarityHistogram) -> float:
    """Histogram intersection: sum over bins of min(p_mass, n_mass)."""
    if p.counts.shape != n.counts.shape:
        raise ContractViolation("histograms use different binnings")
    return float(np.minimum(p.mass, n.mass).sum())


@dataclass
class SeparabilityReport:
    source: str
    positive: SimilarityHistogram
    negative: SimilarityHistogram

    @property
    def overlap(self) -> float:
        return overlap_coefficient(self.positive, self.negative)


def separability_report(bundle: ModelBundle, pos_pairs, neg_pairs, source: str) -> SeparabilityReport:
    return SeparabilityReport(
        source,
        similarity_histogram(bundle, pos_pairs, source),
        similarity_histogram(bundle, neg_pairs, source),
    )


def write_separability_csv(path, reports: list[SeparabilityReport]) -> None:
    """Plot-ready rows: one per bin per source, plus a summary row whose
    ``pos_mass`` column carries the overlap coefficient."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["source", "bin_lo", "bin_hi", "pos_mass", "neg_mass"])
        for report in reports:
            pos_mass, neg_mass = report.positive.mass, report.negative.mass
            for b in range(N_BINS):
                writer.writerow([report.source, repr(float(BIN_EDGES[b])),
                                 repr(float(BIN_EDGES[b + 1])),
                                 repr(float(pos_mass[b])), repr(float(neg_mass[b]))])
            writer.writerow([f"{report.source}:overlap", "", "", repr(report.overlap), ""])


@dataclass
class TemperatureStats:
    per_head_min: np.ndarray
    per_head_mean: np.ndarray
    per_head_max: np.ndarray
    cross_head_variance: float


def temperature_stats(taus: np.ndarray) -> TemperatureStats:
    """Statistics over an (samples, heads) temperature matrix. Cross-head
    variance is the mean over samples of the population variance across
    the head temperatures of that sample."""
    taus = np.asarray(taus, dtype=np.float64)
    if taus.ndim != 2 or taus.size == 0:
        raise ContractViolation(f"expected a nonempty (samples, heads) matrix, got {taus.shape}")
    variances = taus.var(axis=1)
    variances[taus.max(axis=1) == taus.min(axis=1)] = 0.0
    return TemperatureStats(
        per_head_min=taus.min(axis=0),
        per_head_mean=taus.mean(axis=0),
        per_head_max=taus.max(axis=0),
        cross_head_variance=float(variances.mean()),
    )
