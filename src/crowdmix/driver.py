"""One stochastic variational training loop for both trainers.

Each update pairs a uniform data minibatch with a proportional uniform
sample of the annotations; the union of the batch and the sampled
triples' items is the working set the update infers local posteriors
on; without annotations, the store is empty and the working set is the
batch.  `fit` owns the epochs and minibatches, the annotation sample and
working set with the scales that restore full-data magnitudes, the
warmup ramp of the latent KL weight, the per-epoch snapshot that a
divergence restores, and the history rows, whose objective subtracts the
model's global KL once per epoch.  A trainer builds its parameters and
its `training_store` and hands `fit` one step function per update and
its warmup constant.  Both trainer configs derive `TrainConfig`;
`gaussian_mlp` builds their Gaussian heads, and `check_observations`
checks the rows both models predict on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .data import Dataset
from .nnet import Mlp, TrainingDivergence, check_count, saved_value
from .relational import AnnotationStore

# Clip interval of both trainers' log-variance heads.
LOGVAR_CLAMP = (-8.0, 8.0)


@dataclass(frozen=True)
class TrainConfig:
    """The settings both trainers share; a bad value fails naming its field.
    `hidden` holds every network's hidden widths and `lr` is the Adam rate.
    Each update samples max(1, round(N_a |B| / N)) of the N_a annotations
    for a data minibatch B of the N items, at most N_a since |B| <= N."""

    n_components: int = 15
    latent_dim: int = 2
    epochs: int = 20
    batch_size: int = 50
    hidden: tuple[int, ...] = (40, 40)
    lr: float = 1e-3

    def __post_init__(self):
        for name in ("n_components", "latent_dim", "batch_size"):
            check_count(name, getattr(self, name), 1)
        if not isinstance(self.hidden, tuple):
            raise ValueError(f"hidden must be a tuple of widths, got {self.hidden!r}")
        for width in self.hidden:
            check_count("hidden widths", width, 1)
        check_count("epochs", self.epochs, 0)
        if not 0.0 <= self.lr < math.inf:
            raise ValueError("lr must be finite and non-negative")


def gaussian_mlp(sizes, width: int, rng: np.random.Generator) -> Mlp:
    """Network with a diagonal Gaussian head pair of `width` outputs each:
    "mean", and "logvar" clipped to LOGVAR_CLAMP."""
    return Mlp(sizes, {"mean": width, "logvar": width}, rng, clamp={"logvar": LOGVAR_CLAMP})


def check_observations(observations) -> np.ndarray:
    """Rows a trained model predicts on, as a float array.  A row that
    holds NaN or inf raises a ValueError naming the first such row, before
    any network reads it: bad input is not a training divergence."""
    x = np.asarray(observations, dtype=float)
    finite = np.isfinite(x)
    if np.count_nonzero(finite) < x.size:
        rows = np.atleast_2d(finite)
        row = int(np.argmin(rows.reshape(len(rows), -1).all(axis=1)))
        raise ValueError(f"observation row {row} is not finite")
    return x


def check_network(field: str, net: Mlp, heads: dict, n_in=None) -> None:
    """Reject a network whose head names are not the keys of `heads`, or
    whose widths differ from those given, with a ValueError naming `field`.
    Each head name, and `n_in` unless None, maps to (width, what fixes it)."""
    if sorted(net.heads) != sorted(heads):
        raise ValueError(f"{field}: heads {sorted(net.heads)}, need {sorted(heads)}")
    for name, (width, source) in heads.items():
        if net.heads[name] != width:
            raise ValueError(
                f"{field}: head '{name}' has {net.heads[name]} outputs, {source} is {width}"
            )
    if n_in is not None and net.sizes[0] != n_in[0]:
        raise ValueError(f"{field}: input width {net.sizes[0]}, {n_in[1]} is {n_in[0]}")


def load_field(doc: dict, key: str, load: Callable[[Any], Any]):
    """`load(doc[key])`; a ValueError, TypeError or AttributeError fails as
    a ValueError prefixed with `key`, a missing key as `saved_value`'s."""
    value = saved_value(doc, key)
    try:
        return load(value)
    except (ValueError, TypeError, AttributeError) as err:
        raise ValueError(f"{key}: {err}") from err


def training_store(store: AnnotationStore | None, n_items: int) -> AnnotationStore:
    """`store` when it holds a triple, otherwise a store of no triples and
    no workers over `store.n_items` items, or `n_items` when `store` is None."""
    if store is not None and store.n_annotations:
        return store
    return AnnotationStore([], n_items if store is None else store.n_items, 0)


@dataclass(frozen=True)
class Update:
    """What one update trains on.  `store` holds the sampled triples
    renumbered onto `working` positions, none without annotations."""

    batch: np.ndarray    # sorted data-minibatch items
    working: np.ndarray  # sorted union of batch and annotated items
    rows: np.ndarray     # positions of batch within working
    store: AnnotationStore
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
    store: AnnotationStore,
    config,
    rng: np.random.Generator,
    *,
    params: list,
    model: Callable[[], Any],
    step: Callable[[Update], float],
    kl_warmup: float,
    minibatch_iterator,
    sample_annotation_minibatch,
    clustering_accuracy,
    nmi,
) -> TrainResult:
    """Run `config.epochs` epochs, calling `step` once per update; it
    returns the update's minibatch estimate of the objective without the
    KL of the global posteriors from their prior.  The latent KL weight
    ramps over a window of the first w updates, w the `kl_warmup` fraction
    of all updates: update u weighs max(0, (u - h) / h), h = (w + 1) / 2,
    so 0 for the first half of the window and (w - 1) / (w + 1), not 1, at
    its last update; every update after the window weighs 1.  A
    `kl_warmup` of 1 puts every update in the window, and the weight never
    reaches 1.

    `store` is the trainer's `training_store`.  `model()` builds the
    trained state from the current parameters, before training and after
    each finished epoch; it has `predict(observations)`,
    `effective_k(threshold)`, the number of mixing weights above
    min(0.5, 2 / N), and `global_kl()`, that KL.  An epoch's history
    `objective` is the mean of its updates' estimates minus the
    `global_kl()` of its model, taken once per epoch.  A
    `TrainingDivergence` or `LinAlgError` from an update or from
    predicting with the epoch's model, a non-finite estimate, non-finite
    parameters at the end of an epoch, or a non-finite epoch objective
    stop training and restore `params` (tape tensors) to the last
    finished epoch; an epoch is finished once its model has predicted and
    its objective is finite.  Each value is checked where it is made:
    `Mlp.forward` checks every network output, `Adam.step` every
    gradient, `mixture` every global target and global step, and this
    loop alone checks each estimate `step` returns, as it returns, and
    each epoch's objective, beside the epoch's prediction.
    The last four arguments are the trainer module's own names, so that
    hooks patched on that module see every call.  `rng` is drawn from in
    a fixed order: the batch permutation, then per update the annotation
    sample, then `step`; an empty store samples no triple and draws
    nothing.  A store numbering another count of items than the dataset
    raises an IndexError, before any draw.
    """
    obs, n = dataset.observations, dataset.n_items
    if store.n_items != n:
        raise IndexError(f"store indexes {store.n_items} items, the dataset has {n}")
    warmup_updates = round(kl_warmup * config.epochs * -(-n // config.batch_size))
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
                working, local_store, rel_scale = sample_annotation_minibatch(
                    store, batch, max(1, round(store.n_annotations * batch.size / n)), rng
                )
                updates += 1
                kl_weight = 1.0 if updates > warmup_updates else max(0.0, (updates - half) / half)
                estimate = step(Update(
                    batch, working, np.searchsorted(working, batch),
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
            objective = float(np.mean(estimates)) - finished.global_kl()
            if not np.isfinite(objective):
                raise TrainingDivergence("non-finite epoch objective")
        except (TrainingDivergence, np.linalg.LinAlgError):
            for p, saved in zip(params, snapshot):
                p.data = saved
            return TrainResult(current, history, diverged=True)
        current = finished
        snapshot = [p.data.copy() for p in params]
        record = {
            "epoch": epoch,
            "objective": objective,
            "effective_k": current.effective_k(threshold),
        }
        if dataset.labels is not None:
            record["accuracy"] = clustering_accuracy(predicted, dataset.labels)
            record["nmi"] = nmi(predicted, dataset.labels)
        else:
            record["accuracy"] = float("nan")
            record["nmi"] = float("nan")
        history.append(record)
    return TrainResult(current, history)
