"""Node-classification evaluation: F1 scores and stratified splits."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


class EvaluationError(Exception):
    pass


@dataclass(frozen=True)
class EvalSplit:
    """Stratified train/test partition of the labeled target nodes."""

    train_nodes: np.ndarray
    test_nodes: np.ndarray


def make_split(labels: np.ndarray, fraction: float = 0.8, seed: int = 0) -> EvalSplit:
    """Split labeled nodes into train/test, stratified per class.

    Every class contributes ceil(fraction * count) nodes to train, but at
    least one node stays in test whenever the class has two or more.
    """
    if not 0.0 < fraction < 1.0:
        raise EvaluationError(f"split fraction must lie in (0, 1), got {fraction}")
    labeled = np.flatnonzero(labels >= 0)
    if labeled.size == 0:
        raise EvaluationError("no labeled nodes to split")
    rng = np.random.default_rng(seed)
    train_parts, test_parts = [], []
    for cls in np.unique(labels[labeled]):
        members = labeled[labels[labeled] == cls]
        members = rng.permutation(members)
        n_train = int(np.ceil(fraction * members.size))
        if members.size > 1:
            n_train = min(n_train, members.size - 1)
        train_parts.append(members[:n_train])
        test_parts.append(members[n_train:])
    train = np.sort(np.concatenate(train_parts))
    test = np.sort(np.concatenate(test_parts)) if any(p.size for p in test_parts) else np.empty(0, np.int64)
    return EvalSplit(train_nodes=train, test_nodes=test)


def f1_scores(predictions: Sequence[int], truths: Sequence[int], n_labels: int) -> tuple[float, float]:
    """Micro and macro F1 for single-label classification.

    Micro pools true/false positive counts over all classes (and therefore
    equals accuracy here); macro averages per-class F1 uniformly, counting
    classes with neither true nor predicted instances as F1 = 0 so scores
    stay comparable across runs.
    """
    pred = np.asarray(predictions, dtype=np.int64)
    true = np.asarray(truths, dtype=np.int64)
    if pred.size == 0:
        raise EvaluationError("cannot score an empty prediction set")
    if pred.shape != true.shape:
        raise EvaluationError(f"length mismatch: {pred.shape} predictions vs {true.shape} truths")
    if pred.min() < 0 or pred.max() >= n_labels or true.min() < 0 or true.max() >= n_labels:
        raise EvaluationError(f"labels must lie in 0..{n_labels - 1}")

    tp = np.zeros(n_labels)
    fp = np.zeros(n_labels)
    fn = np.zeros(n_labels)
    for cls in range(n_labels):
        tp[cls] = np.sum((pred == cls) & (true == cls))
        fp[cls] = np.sum((pred == cls) & (true != cls))
        fn[cls] = np.sum((pred != cls) & (true == cls))

    def f1(tp_, fp_, fn_):
        denom = 2 * tp_ + fp_ + fn_
        return 2 * tp_ / denom if denom > 0 else 0.0

    micro = f1(tp.sum(), fp.sum(), fn.sum())
    macro = float(np.mean([f1(tp[c], fp[c], fn[c]) for c in range(n_labels)]))
    return float(micro), macro


def evaluate(model, params, labels: np.ndarray, split: EvalSplit) -> tuple[float, float]:
    """Micro/macro F1 of argmax predictions on the test nodes."""
    test = split.test_nodes
    if test.size == 0:
        raise EvaluationError("split has no test nodes")
    truths = labels[test]
    if np.any(truths < 0):
        missing = test[truths < 0]
        raise EvaluationError(f"test nodes without labels: {missing[:5].tolist()}")
    probs = model.predict_proba(params, test)
    predictions = np.argmax(probs, axis=1)
    return f1_scores(predictions, truths, model.dims.n_labels)

