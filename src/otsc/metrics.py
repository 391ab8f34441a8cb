"""Clustering agreement metrics: NMI, optimally-matched accuracy, ARI."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

__all__ = ["ClusteringReport", "evaluate"]


@dataclass(frozen=True)
class ClusteringReport:
    """Agreement between a ground-truth labeling and a predicted clustering.

    ``contingency[i, j]`` counts samples in true class i and predicted
    cluster j (classes/clusters indexed by sorted unique label value);
    ``matching`` maps each predicted cluster label to the true class label
    chosen by the optimal assignment behind ``acc``.
    """

    nmi: float
    acc: float
    ari: float
    contingency: np.ndarray
    matching: dict[int, int]


def _contingency(y_true: np.ndarray, y_pred: np.ndarray):
    true_vals, true_idx = np.unique(y_true, return_inverse=True)
    pred_vals, pred_idx = np.unique(y_pred, return_inverse=True)
    table = np.zeros((true_vals.size, pred_vals.size), dtype=np.int64)
    np.add.at(table, (true_idx, pred_idx), 1)
    return table, true_vals, pred_vals


def _entropy(counts: np.ndarray, n: int) -> float:
    p = counts[counts > 0] / n
    return float(-(p * np.log(p)).sum())


def _nmi(table: np.ndarray, n: int) -> float:
    a = table.sum(axis=1)
    b = table.sum(axis=0)
    h_u = _entropy(a, n)
    h_v = _entropy(b, n)
    if h_u == 0.0 and h_v == 0.0:
        return 1.0  # both partitions are a single cluster
    nz = table > 0
    p_ij = table[nz] / n
    outer = (a[:, None] * b[None, :])[nz] / (n * n)
    mi = float((p_ij * np.log(p_ij / outer)).sum())
    return mi / (0.5 * (h_u + h_v))


def _ari(table: np.ndarray, n: int) -> float:
    def comb2(v):
        return v * (v - 1) / 2.0

    sum_ij = float(comb2(table.astype(np.float64)).sum())
    sum_a = float(comb2(table.sum(axis=1).astype(np.float64)).sum())
    sum_b = float(comb2(table.sum(axis=0).astype(np.float64)).sum())
    total = comb2(float(n))
    if total == 0:
        return 1.0
    expected = sum_a * sum_b / total
    maximum = 0.5 * (sum_a + sum_b)
    if maximum == expected:
        # degenerate partitions (e.g. both single-cluster): identical by construction
        return 1.0
    return (sum_ij - expected) / (maximum - expected)


def _matched_accuracy(table: np.ndarray, true_vals, pred_vals, n: int):
    k = max(table.shape)
    padded = np.zeros((k, k), dtype=np.int64)
    padded[: table.shape[0], : table.shape[1]] = table
    rows, cols = linear_sum_assignment(-padded)
    matched = int(padded[rows, cols].sum())
    matching = {}
    for r, c in zip(rows, cols):
        if c < pred_vals.size and r < true_vals.size:
            matching[int(pred_vals[c])] = int(true_vals[r])
    return matched / n, matching


def evaluate(y_true, y_pred) -> ClusteringReport:
    """Score a predicted clustering against ground truth.

    NMI uses arithmetic-mean normalization; ACC is exact minimum-cost
    matching on the negated contingency table (padded square when the
    partitions have different sizes); ARI is the standard pair-counting
    adjusted index.
    """
    y_true = np.asarray(y_true).ravel()
    y_pred = np.asarray(y_pred).ravel()
    if y_true.size != y_pred.size:
        raise ValueError("label vectors differ in length")
    if y_true.size == 0:
        raise ValueError("empty label vectors")
    n = y_true.size
    table, true_vals, pred_vals = _contingency(y_true, y_pred)
    acc, matching = _matched_accuracy(table, true_vals, pred_vals, n)
    return ClusteringReport(
        nmi=_nmi(table, n),
        acc=acc,
        ari=_ari(table, n),
        contingency=table,
        matching=matching,
    )
