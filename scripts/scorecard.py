"""Reproduction scorecard: BayesSCDC on seeds 0..seeds-1 of six protocols.

Usage: python3 scripts/scorecard.py [key=value ...]
Keys:
  seeds=30      seeds 0..seeds-1 of every protocol
  epochs=20     training epochs (BayesConfig.epochs); other fields keep
                their defaults
  protocols=    a comma-separated subset of PROTOCOLS, all by default
  jobs=1        worker processes; runs are independent, so the results
                do not depend on it
  out=          the JSON file written, BENCH_quality.json at the repo root
                by default
  against=      a saved scorecard: print, and write under "against", the
                per-seed paired accuracy diff of this run against it

It prints each protocol's summary and the paired diffs; the JSON file
also holds every run.

Each seed s draws the data, the worker pool's annotations and the
training from one `default_rng(s)`, as crowdbench's workloads do.  An
unannotated ("-un") protocol simulates the annotations of its annotated
twin, so the generator stream stays paired, and trains without them.
Every run uses one BLAS thread.
"""

import os

# One BLAS thread, set before numpy loads, as the benchmark runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import multiprocessing  # noqa: E402
import re  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict, dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from crowdmix import vmp  # noqa: E402
from crowdmix.data import WorkerPool, pinwheel_generate, simulate_annotations  # noqa: E402
from crowdmix.metrics import worker_weight_recovery  # noqa: E402

# A run below this accuracy counts as failed in the summaries.
PASS_ACCURACY = 0.8
# A paired diff of at least this much moves a seed up or down.
MOVE = 0.1
# A predicted cluster is used when it holds at least this share of the items.
USED_SHARE = 0.02


@dataclass(frozen=True)
class Protocol:
    """The paper's pinwheel data, 5 arms of 100 items, and a simulated crowd:
    `pool` holds (workers, accuracy) groups, each worker at alpha = beta =
    accuracy, and each worker labels `pairs` pairs drawn from a random
    subset of `subset` items."""

    pool: tuple[tuple[int, float], ...]
    pairs: int
    subset: int
    annotated: bool = True

    def workers(self) -> WorkerPool:
        accuracy = np.repeat([a for _, a in self.pool], [m for m, _ in self.pool])
        return WorkerPool(accuracy, accuracy)

    @property
    def ranked(self) -> bool:
        """Whether the pool's workers differ, so that recovery is defined."""
        return self.annotated and len(self.pool) > 1


PAPER = Protocol(((20, 0.9),), 49, 100)
DENSE = Protocol(((50, 0.95),), 200, 500)
PROTOCOLS = {
    "paper": PAPER,
    "paper-un": Protocol(PAPER.pool, PAPER.pairs, PAPER.subset, annotated=False),
    "dense": DENSE,
    "dense-un": Protocol(DENSE.pool, DENSE.pairs, DENSE.subset, annotated=False),
    "mixed": Protocol(((10, 0.95), (6, 0.5), (4, 0.2)), 200, 500),
    "bad-majority": Protocol(((4, 0.95), (8, 0.5), (8, 0.2)), 200, 500),
}
# Annotated protocol and its unannotated twin, reported as a paired diff.
TWINS = (("paper", "paper-un"), ("dense", "dense-un"))

SCRIPT_KEYS = {
    "seeds": 30, "epochs": 20, "protocols": ",".join(PROTOCOLS), "jobs": 1,
    "out": str(ROOT / "BENCH_quality.json"), "against": "",
}


def run(name: str, seed: int, epochs: int) -> dict:
    """One training run: the last finished epoch's accuracy, NMI, effective
    K and objective (nan when no epoch finished), the used K of the
    returned model's labels, whether training diverged and, for a pool of
    differing workers, the Spearman recovery of their vote weights."""
    protocol = PROTOCOLS[name]
    rng = np.random.default_rng(seed)
    dataset = pinwheel_generate(5, 100, rng=rng)
    pool = protocol.workers()
    store = simulate_annotations(dataset, pool, protocol.pairs, protocol.subset, rng)
    config = vmp.BayesConfig(epochs=epochs)
    result = vmp.train_bayes_scdc(dataset, store if protocol.annotated else None, config, rng)
    last = result.history[-1] if result.history else {}
    labels = result.model.predict(dataset.observations)
    nan = float("nan")
    row = {
        "seed": seed,
        "accuracy": last.get("accuracy", nan),
        "nmi": last.get("nmi", nan),
        "used_k": int(np.count_nonzero(np.bincount(labels) >= USED_SHARE * labels.size)),
        "effective_k": last.get("effective_k", nan),
        "objective": last.get("objective", nan),
        "diverged": result.diverged,
    }
    if protocol.ranked:
        row["recovery"] = worker_weight_recovery(result.model.glob.workers, pool)
    return row


def summarize(runs: list) -> dict:
    """Median [min] accuracy and the seeds below PASS_ACCURACY, the median
    NMI, used K, effective K and recovery, and the diverged runs."""
    acc = np.array([r["accuracy"] for r in runs])
    out = {
        "accuracy_median": float(np.median(acc)),
        "accuracy_min": float(np.min(acc)),
        "below_pass": int(np.count_nonzero(acc < PASS_ACCURACY)),
        "diverged": sum(r["diverged"] for r in runs),
    }
    for key in ("nmi", "used_k", "effective_k", "recovery"):
        if key in runs[0]:
            out[f"{key}_median"] = float(np.median([r[key] for r in runs]))
    return out


def paired(runs: list, saved: list, key: str = "accuracy") -> dict:
    """Per-seed diff of `key`, runs minus saved, over the seeds both hold:
    its mean and median, and the seeds that moved up or down by MOVE."""
    old = {r["seed"]: r[key] for r in saved}
    seeds = [r["seed"] for r in runs if r["seed"] in old]
    if not seeds:
        raise ValueError("no seed in common")
    diff = np.array([r[key] - old[r["seed"]] for r in runs if r["seed"] in old])
    # accuracies are multiples of 1 / n_items: round off the subtraction's last bits
    moved = np.round(diff, 9)
    return {
        "seeds": len(seeds),
        "mean": float(np.mean(diff)),
        "median": float(np.median(diff)),
        "up": [s for s, d in zip(seeds, moved) if d >= MOVE],
        "down": [s for s, d in zip(seeds, moved) if d <= -MOVE],
    }


def compare(doc: dict, saved: dict) -> dict:
    """`paired` accuracy of every protocol that both scorecards ran, with
    both recovery medians where the protocol ranks its workers."""
    out = {}
    for name, entry in doc["protocols"].items():
        if name not in saved["protocols"]:
            continue
        old = saved["protocols"][name]
        out[name] = paired(entry["runs"], old["runs"])
        if "recovery_median" in entry["summary"]:
            out[name]["recovery_medians"] = [
                old["summary"]["recovery_median"], entry["summary"]["recovery_median"],
            ]
    return out


def parse_args(args) -> dict:
    """The script's settings from `key=value` arguments, typed by their
    defaults.  Raises SystemExit naming the bad argument."""
    settings = dict(SCRIPT_KEYS)
    for arg in args:
        key, sep, value = arg.partition("=")
        if not sep:
            raise SystemExit(f"expected key=value, got {arg!r}")
        if key not in settings:
            raise SystemExit(f"unknown key {key!r}; known keys: {', '.join(SCRIPT_KEYS)}")
        kind = type(SCRIPT_KEYS[key])
        try:
            settings[key] = kind(value)
        except ValueError:
            raise SystemExit(f"{key}: cannot parse {value!r} as {kind.__name__}") from None
    for key in ("seeds", "epochs", "jobs"):
        if settings[key] < 1:
            raise SystemExit(f"{key} must be at least 1, got {settings[key]}")
    names = [p for p in settings["protocols"].split(",") if p]
    unknown = [p for p in names if p not in PROTOCOLS]
    if unknown or not names:
        raise SystemExit(f"protocols: unknown {unknown}; known: {', '.join(PROTOCOLS)}")
    settings["protocols"] = ",".join(names)
    return settings


def to_json(doc: dict) -> str:
    """`doc` as indented JSON, each run on one line."""
    def one_line(match):
        return "{" + " ".join(match[1].split()) + "}"

    return re.sub(r'\{\n\s*("seed"[^{}]*?)\n\s*\}', one_line, json.dumps(doc, indent=1))


def _fmt(value: float) -> str:
    return f"{value:.3f}"


def main(argv) -> dict:
    settings = parse_args(argv)
    saved = None
    if settings["against"]:
        with open(settings["against"]) as f:
            saved = json.load(f)
    names = settings["protocols"].split(",")
    seeds = range(settings["seeds"])
    tasks = [(name, seed, settings["epochs"]) for name in names for seed in seeds]
    if settings["jobs"] > 1:
        with multiprocessing.get_context("spawn").Pool(settings["jobs"]) as pool:
            rows = pool.starmap(run, tasks, chunksize=1)
    else:
        rows = [run(*task) for task in tasks]
    config = asdict(vmp.BayesConfig(epochs=settings["epochs"]))
    doc = {
        "script": "scripts/scorecard.py",
        "settings": {k: settings[k] for k in ("seeds", "epochs", "protocols")},
        "config": {**config, "hidden": list(config["hidden"])},
        "local_sweeps": vmp.LOCAL_SWEEPS,
        "protocols": {},
    }
    for name in names:
        runs = [r for (task, r) in zip(tasks, rows) if task[0] == name]
        doc["protocols"][name] = {"summary": summarize(runs), "runs": runs}
    protocols = doc["protocols"]
    doc["twins"] = {
        f"{a} - {b}": paired(protocols[a]["runs"], protocols[b]["runs"])
        for a, b in TWINS if a in protocols and b in protocols
    }
    for name, entry in protocols.items():
        s = entry["summary"]
        extra = " ".join(f"{k[:-7]} {_fmt(v)}" for k, v in s.items() if k.endswith("_median")
                         and k != "accuracy_median")
        print(f"{name}: accuracy {_fmt(s['accuracy_median'])} [{_fmt(s['accuracy_min'])}], "
              f"{s['below_pass']} below {PASS_ACCURACY}; {extra}; diverged {s['diverged']}")
    for label, diff in doc["twins"].items():
        print(f"paired {label}: {_describe(diff)}")
    if saved is not None:
        doc["against"] = {
            "file": Path(settings["against"]).name,
            "local_sweeps": saved.get("local_sweeps"),
            "protocols": compare(doc, saved),
        }
        for name, diff in doc["against"]["protocols"].items():
            print(f"against {doc['against']['file']}, {name}: {_describe(diff)}")
    with open(settings["out"], "w") as f:
        f.write(to_json(doc) + "\n")
    return doc


def _describe(diff: dict) -> str:
    text = (f"mean {diff['mean']:+.3f}, median {diff['median']:+.3f}, "
            f"{len(diff['up'])} up / {len(diff['down'])} down over {diff['seeds']} seeds")
    if diff["up"] or diff["down"]:
        text += f" (up {diff['up']}, down {diff['down']})"
    if "recovery_medians" in diff:
        text += ", recovery {} -> {}".format(*map(_fmt, diff["recovery_medians"]))
    return text


if __name__ == "__main__":
    main(sys.argv[1:])
