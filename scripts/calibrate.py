"""Run the pinwheel protocols over seeds for a given configuration.

Usage: python3 scripts/calibrate.py [key=value ...]
Keys: the BayesConfig fields n_components, latent_dim, epochs,
batch_size, hidden and lr, plus seeds=10 annotated=1/0 quiet=1/0.  A
field's value is parsed by the type of its default, a tuple as a
comma-separated list (hidden=40,40).
"""

import dataclasses
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from crowdmix.data import WorkerPool, pinwheel_generate, simulate_annotations
from crowdmix.vmp import BayesConfig, train_bayes_scdc

# the script's own keys and their defaults
SCRIPT_KEYS = {"seeds": 10, "annotated": 1, "quiet": 0}


def run(seed: int, annotated: bool, config: BayesConfig):
    """Train on one seed; the scores are those of the last finished epoch,
    nan when no epoch finished.  `obj` is that epoch's history objective:
    the mean of its updates' minibatch estimates, less the KL of the
    epoch's global posteriors from their prior."""
    rng = np.random.default_rng(seed)
    dataset = pinwheel_generate(5, 100, rng=rng)
    store = None
    if annotated:
        pool = WorkerPool.homogeneous(20, 0.9, 0.9)
        store = simulate_annotations(dataset, pool, 49, 100, rng)
    t0 = time.time()
    result = train_bayes_scdc(dataset, store, config, rng)
    dt = time.time() - t0
    last = result.history[-1] if result.history else {}
    nan = float("nan")
    return {
        "acc": last.get("accuracy", nan),
        "nmi": last.get("nmi", nan),
        "k": last.get("effective_k", nan),
        "sec": dt,
        "div": result.diverged,
        "obj": last.get("objective", nan),
    }


def parse_args(args) -> tuple[dict, BayesConfig]:
    """Script settings and the BayesConfig from `key=value` arguments.

    Raises SystemExit with a message that names the bad argument.
    """
    settings = dict(SCRIPT_KEYS)
    fields = {f.name: f for f in dataclasses.fields(BayesConfig)}
    overrides = {}
    for arg in args:
        key, sep, value = arg.partition("=")
        if not sep:
            raise SystemExit(f"expected key=value, got {arg!r}")
        if key in settings:
            kind = int
        elif key in fields:
            kind = type(fields[key].default)
        else:
            known = ", ".join([*SCRIPT_KEYS, *fields])
            raise SystemExit(f"unknown key {key!r}; known keys: {known}")
        try:
            if kind is tuple:
                item = type(fields[key].default[0])
                parsed = tuple(item(v) for v in value.split(",") if v)
            else:
                parsed = kind(value)
        except ValueError:
            raise SystemExit(f"{key}: cannot parse {value!r} as {kind.__name__}") from None
        if key in settings:
            settings[key] = parsed
        else:
            overrides[key] = parsed
    if settings["seeds"] < 1:
        raise SystemExit(f"seeds must be at least 1, got {settings['seeds']}")
    try:
        config = BayesConfig(**overrides)
    except ValueError as err:
        raise SystemExit(f"bad BayesConfig: {err}") from None
    return settings, config


def main():
    settings, config = parse_args(sys.argv[1:])
    rows = [run(s, bool(settings["annotated"]), config) for s in range(settings["seeds"])]
    accs = sorted(r["acc"] for r in rows)
    nmis = sorted(r["nmi"] for r in rows)
    ks = sorted(r["k"] for r in rows)
    if not settings["quiet"]:
        for s, r in enumerate(rows):
            print(
                f"seed {s}: acc {r['acc']:.3f} nmi {r['nmi']:.3f} K {r['k']:2} "
                f"obj {r['obj']:.1f} {r['sec']:.1f}s{' DIVERGED' if r['div'] else ''}"
            )
    print(
        f"median acc {np.median(accs):.3f} nmi {np.median(nmis):.3f} "
        f"K {np.median(ks):.1f} max_sec {max(r['sec'] for r in rows):.1f} "
        f"min_acc {accs[0]:.3f}"
    )


if __name__ == "__main__":
    main()
