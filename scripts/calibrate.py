"""Run the pinwheel protocols over seeds for a given configuration.

Usage: python3 scripts/calibrate.py [key=value ...]
Keys: any BayesConfig field, plus seeds=10 annotated=1/0 quiet=1/0.
"""

import sys
import time

import numpy as np

sys.path.insert(0, "src")

from crowdmix.data import WorkerPool, pinwheel_generate, simulate_annotations
from crowdmix.metrics import clustering_accuracy, nmi
from crowdmix.mixture import effective_components
from crowdmix.vmp import BayesConfig, train_bayes_scdc


def run(seed: int, annotated: bool, overrides: dict):
    rng = np.random.default_rng(seed)
    dataset = pinwheel_generate(5, 100, rng=rng)
    store = None
    if annotated:
        pool = WorkerPool.homogeneous(20, 0.9, 0.9)
        store = simulate_annotations(dataset, pool, 49, 100, rng)
    config = BayesConfig(**overrides)
    t0 = time.time()
    result = train_bayes_scdc(dataset, store, config, rng)
    dt = time.time() - t0
    preds = result.model.predict(dataset.observations)
    return {
        "acc": clustering_accuracy(preds, dataset.labels),
        "nmi": nmi(preds, dataset.labels),
        "k": effective_components(result.model.glob, min(0.5, 2.0 / dataset.n_items)),
        "sec": dt,
        "div": result.diverged,
        "obj": result.history[-1]["objective"] if result.history else float("nan"),
    }


def main():
    overrides = {}
    seeds = 10
    annotated = True
    quiet = False
    for arg in sys.argv[1:]:
        key, value = arg.split("=", 1)
        if key == "seeds":
            seeds = int(value)
        elif key == "annotated":
            annotated = bool(int(value))
        elif key == "quiet":
            quiet = bool(int(value))
        elif key in ("hidden",):
            overrides[key] = tuple(int(v) for v in value.split(",") if v)
        elif key in ("n_components", "latent_dim", "epochs", "batch_size", "local_sweeps", "n_samples", "annotation_batch_size"):
            overrides[key] = int(value)
        elif key in ("worker_init", "worker_prior", "logvar_clamp"):
            overrides[key] = tuple(float(v) for v in value.split(","))
        else:
            overrides[key] = float(value)
    rows = [run(s, annotated, overrides) for s in range(seeds)]
    accs = sorted(r["acc"] for r in rows)
    nmis = sorted(r["nmi"] for r in rows)
    ks = sorted(r["k"] for r in rows)
    if not quiet:
        for s, r in enumerate(rows):
            print(
                f"seed {s}: acc {r['acc']:.3f} nmi {r['nmi']:.3f} K {r['k']:2d} "
                f"obj {r['obj']:.1f} {r['sec']:.1f}s{' DIVERGED' if r['div'] else ''}"
            )
    print(
        f"median acc {np.median(accs):.3f} nmi {np.median(nmis):.3f} "
        f"K {np.median(ks):.1f} max_sec {max(r['sec'] for r in rows):.1f} "
        f"min_acc {accs[0]:.3f}"
    )


if __name__ == "__main__":
    main()
