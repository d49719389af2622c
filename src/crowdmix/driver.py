"""One stochastic variational training loop for both trainers.

Each update pairs a uniform data minibatch with a proportional uniform
sample of the annotations; the union of the batch and the sampled
triples' items is the working set the update infers local posteriors
on.  `fit` owns the epochs and minibatches, the annotation sample and
working set with the scales that restore full-data magnitudes, the
warmup ramp of the latent KL weight, the per-epoch snapshot that a
divergence restores, and the history rows.  A trainer builds its
parameters and hands `fit` one step function per update.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .data import Dataset
from .nnet import TrainingDivergence
from .relational import AnnotationStore


def check_config(config) -> None:
    """Reject bad values of the fields every trainer config shares,
    naming the field first in the message."""
    for name in ("n_components", "latent_dim", "batch_size", "n_samples"):
        if getattr(config, name) < 1:
            raise ValueError(f"{name} must be at least 1")
    if config.epochs < 0:
        raise ValueError("epochs must be non-negative")
    if config.annotation_batch_size is not None and config.annotation_batch_size < 1:
        raise ValueError("annotation_batch_size must be at least 1")
    if not 0.0 <= config.kl_warmup <= 1.0:
        raise ValueError("kl_warmup must lie in [0, 1]")
    if not config.logvar_clamp[0] < config.logvar_clamp[1]:
        raise ValueError("logvar_clamp must be a (lo, hi) pair with lo < hi")


@dataclass(frozen=True)
class Update:
    """What one update trains on.  `store` holds the sampled triples
    renumbered onto `working` positions, or None without annotations."""

    index: int           # updates before this one
    batch: np.ndarray    # sorted data-minibatch items
    working: np.ndarray  # sorted union of batch and annotated items
    rows: np.ndarray     # positions of batch within working
    store: AnnotationStore | None
    data_scale: float    # N / |B|
    rel_scale: float     # N_a / |S|
    kl_weight: float


@dataclass
class TrainResult:
    """The model of the last finished epoch, one history row per finished
    epoch, and whether an update diverged."""

    model: Any
    history: list
    diverged: bool = False


def fit(
    dataset: Dataset,
    store: AnnotationStore | None,
    config,
    rng: np.random.Generator,
    *,
    params: list,
    model: Callable[[], Any],
    step: Callable[[Update], float],
    effective_k: Callable[[Any, float], int],
    minibatch_iterator,
    sample_annotation_minibatch,
    clustering_accuracy,
    nmi,
) -> TrainResult:
    """Run `config.epochs` epochs, calling `step` once per update; it
    returns the update's objective estimate.

    `model()` builds the trained state from the current parameters, before
    training and after each finished epoch.  A `TrainingDivergence` or
    `LinAlgError` from an update or from predicting with the epoch's
    model, a non-finite estimate, or non-finite parameters at the end of
    an epoch stop training and restore `params` (tape tensors) to the
    last finished epoch; an epoch is finished once its model has
    predicted.  The last four arguments are the trainer module's own
    names, so that hooks patched on that module see every call.  `rng`
    is drawn from in a fixed order: the batch permutation, then per
    update the annotation sample, then `step`.
    """
    obs, n = dataset.observations, dataset.n_items
    n_ann = store.n_annotations if store is not None else 0
    warmup_updates = round(config.kl_warmup * config.epochs * -(-n // config.batch_size))
    half = 0.5 * (warmup_updates + 1.0)
    threshold = min(0.5, 2.0 / n)
    current = model()
    snapshot = [p.data.copy() for p in params]
    history: list[dict] = []
    updates = 0
    for epoch in range(config.epochs):
        estimates = []
        try:
            for batch in minibatch_iterator(n, config.batch_size, rng):
                batch = np.sort(batch)
                working, local_store, rel_scale = batch, None, 1.0
                if n_ann:
                    want = config.annotation_batch_size
                    if want is None:
                        want = max(1, round(n_ann * batch.size / n))
                    working, local_store, rel_scale = sample_annotation_minibatch(
                        store, batch, min(want, n_ann), rng
                    )
                updates += 1
                # Dead zone then linear ramp: the latent KL stays off for
                # the first half of the warmup window, then reaches full
                # strength by the window's end.
                kl_weight = 1.0 if updates > warmup_updates else max(0.0, (updates - half) / half)
                estimate = step(Update(
                    updates - 1, batch, working, np.searchsorted(working, batch),
                    local_store, n / batch.size, rel_scale, kl_weight,
                ))
                if not np.isfinite(estimate):
                    raise TrainingDivergence("non-finite objective estimate")
                estimates.append(estimate)
            # an update can overflow the parameters from a finite gradient
            if not all(np.all(np.isfinite(p.data)) for p in params):
                raise TrainingDivergence("non-finite parameters")
            finished = model()
            predicted = finished.predict(obs)
        except (TrainingDivergence, np.linalg.LinAlgError):
            for p, saved in zip(params, snapshot):
                p.data = saved
            return TrainResult(current, history, diverged=True)
        current = finished
        snapshot = [p.data.copy() for p in params]
        record = {
            "epoch": epoch,
            "objective": float(np.mean(estimates)),
            "effective_k": effective_k(current, threshold),
        }
        if dataset.labels is not None:
            record["accuracy"] = clustering_accuracy(predicted, dataset.labels)
            record["nmi"] = nmi(predicted, dataset.labels)
        else:
            record["accuracy"] = float("nan")
            record["nmi"] = float("nan")
        history.append(record)
    return TrainResult(current, history)
