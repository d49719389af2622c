"""Benchmark workloads: inputs from a seed, one trainer call, output checks.

Every workload draws its dataset, its worker pool and its annotations from
one generator and then trains with that same generator, as the paper's
pinwheel protocol does.  The trainers and `model.predict` are called
unmodified.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from crowdmix import data, metrics, relational, scdc, vmp

# Seed of the trial whose final-epoch quality every run reports.
QUALITY_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    trainer: str              # "bayes" (vmp.train_bayes_scdc) or "scdc" (scdc.train_scdc)
    clusters: int
    per_cluster: int
    n_workers: int
    pairs_per_worker: int
    subset_size: int
    epochs: int
    # (alpha, beta) shared by every worker, or, when heterogeneous, the
    # (low, high) range each worker's alpha and beta are drawn from
    worker_accuracy: tuple[float, float]
    heterogeneous: bool
    why: str

    @property
    def trainer_module(self):
        return vmp if self.trainer == "bayes" else scdc

    def config(self):
        if self.trainer == "bayes":
            return vmp.BayesConfig(epochs=self.epochs)
        return scdc.ScdcConfig(epochs=self.epochs)

    def protocol(self) -> dict:
        doc = asdict(self)
        del doc["why"]
        return doc


PINWHEEL = dict(
    clusters=5, per_cluster=100, n_workers=20, pairs_per_worker=49, subset_size=100,
    epochs=20, worker_accuracy=(0.9, 0.9), heterogeneous=False,
)

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="pinwheel-bayes", trainer="bayes", **PINWHEEL,
            why="the paper's own experiment; the per-item loop in the local q(z) "
                "step dominates, the conjugate global step takes about a quarter",
        ),
        Workload(
            name="crowd10x-bayes", trainer="bayes", clusters=5, per_cluster=1000,
            n_workers=100, pairs_per_worker=200, subset_size=2000, epochs=1,
            worker_accuracy=(0.55, 0.95), heterogeneous=True,
            why="10x items, 5x workers and 20k annotations: larger working sets with "
                "a sparse graph, more worker posteriors, bigger evaluation and set-up",
        ),
        Workload(
            name="pinwheel-scdc", trainer="scdc", **PINWHEEL,
            why="amortized trainer on the paper's protocol: tape autodiff and "
                "elbo_local dominate, vmp and mixture are never called",
        ),
    ]
}


@dataclass
class Inputs:
    dataset: data.Dataset
    pool: data.WorkerPool
    store: relational.AnnotationStore


def make_inputs(workload: Workload, rng: np.random.Generator) -> Inputs:
    """Dataset, true worker pool and simulated annotations, drawn from rng."""
    dataset = data.pinwheel_generate(workload.clusters, workload.per_cluster, rng=rng)
    lo, hi = workload.worker_accuracy
    m = workload.n_workers
    if workload.heterogeneous:
        pool = data.WorkerPool(rng.uniform(lo, hi, m), rng.uniform(lo, hi, m))
    else:
        pool = data.WorkerPool.homogeneous(m, lo, hi)
    store = data.simulate_annotations(
        dataset, pool, workload.pairs_per_worker, workload.subset_size, rng
    )
    return Inputs(dataset, pool, store)


def train(workload: Workload, inputs: Inputs, rng: np.random.Generator):
    trainer = vmp.train_bayes_scdc if workload.trainer == "bayes" else scdc.train_scdc
    return trainer(inputs.dataset, inputs.store, workload.config(), rng)


def check_outputs(workload: Workload, result, predictions, n_items: int) -> list[str]:
    """Problems with a trainer result and its predictions; empty when sound."""
    problems = []
    k = workload.config().n_components
    predictions = np.asarray(predictions)
    if predictions.shape != (n_items,) or not np.issubdtype(predictions.dtype, np.integer):
        problems.append(f"predictions are {predictions.dtype} {predictions.shape}, "
                        f"want {n_items} integer labels")
    elif predictions.min() < 0 or predictions.max() >= k:
        problems.append(f"predictions leave [0, {k})")
    rows = result.history
    if not result.diverged and len(rows) != workload.epochs:
        problems.append(f"{len(rows)} history rows for {workload.epochs} epochs")
    for row in rows:
        if not np.isfinite(row["objective"]):
            problems.append(f"epoch {row['epoch']}: objective {row['objective']}")
        for key in ("accuracy", "nmi"):
            if not 0.0 <= row[key] <= 1.0:
                problems.append(f"epoch {row['epoch']}: {key} {row[key]} outside [0, 1]")
    return problems


def quality(workload: Workload, inputs: Inputs, result) -> dict:
    """Final-epoch accuracy, NMI and effective K, and worker recovery when
    the true pool can be ranked."""
    last = result.history[-1]
    out = {key: last[key] for key in ("accuracy", "nmi", "effective_k")}
    if workload.heterogeneous:
        model = result.model
        workers = model.glob.workers if workload.trainer == "bayes" else model.point
        out["worker_recovery"] = metrics.worker_weight_recovery(workers, inputs.pool.weights)
    return out
