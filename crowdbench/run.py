"""Run one crowdmix benchmark workload and print its metrics.

From the repository root:

    python3 crowdbench/run.py --workload pinwheel-bayes --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it is a
JSON report with provenance, the workload protocol, sample counts, the
unscaled times and, for a traced run, the per-span table.  `--trace 0`
reports the end-to-end metrics, `--trace 1` the per-layer metrics.

Every time is reported at reference host speed.  Each timed update,
set-up and predict call lies between two runs of `probes.reference_slice`
and is multiplied by REFERENCE_S over their mean time.  A trainer call is
the sum of its scaled updates plus the rest of its time scaled by its
slices' median.  The host's speed drifts by up to 2x over minutes; the
ratio cancels most of that drift.  See README.md.
"""

import os

# One BLAS thread, set before numpy loads: the bundled OpenBLAS is built
# for up to 64 threads and would spread the many small products of a
# training step over every core, which makes timings depend on the host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

try:
    import probes
    import workloads
except ModuleNotFoundError as err:
    raise SystemExit(f"crowdbench: cannot import crowdmix from {ROOT / 'src'}: {err}")

# Time of probes.reference_slice on the reference host; see the docstring.
REFERENCE_S = 1e-3
# setup_s is the median of at least MIN_SETUPS set-ups, and of as many as
# fit in SETUP_SECONDS.
MIN_SETUPS = 11
SETUP_SECONDS = 2.0
# A timed trial calls model.predict at least PREDICT_CALLS times and for
# PREDICT_SECONDS; predict_items_per_s uses the median call.
PREDICT_CALLS = 3
PREDICT_SECONDS = 0.3

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "update_ms_p50": "ms",
    "update_ms_p90": "ms",
    "predict_items_per_s": "items/s",
    "peak_rss_mb": "MB",
    "accuracy": "fraction",
    "nmi": "fraction",
    "effective_k": "count",
}

# Per-layer metric: (name, unit, what to read, span or counter name).
# "total" and "self" are milliseconds per traced trial, "calls" counts the
# span's calls, "count" reads a counter from probes.TARGETS.
LAYER_METRICS = [
    ("data.pinwheel_ms", "ms", "total", "data.pinwheel"),
    ("data.simulate_ms", "ms", "total", "data.simulate"),
    ("relational.sample_ms", "ms", "total", "relational.sample"),
    ("relational.sample_calls", "count", "calls", "relational.sample"),
    ("relational.store_build_ms", "ms", "total", "relational.store_build"),
    ("relational.store_builds", "count", "calls", "relational.store_build"),
    ("relational.triples_built", "count", "count", "relational.triples_built"),
    ("relational.rel_loglik_ms", "ms", "total", "relational.rel_loglik"),
    ("relational.beta_natgrad_ms", "ms", "total", "relational.beta_natgrad"),
    ("vmp.local_ms", "ms", "total", "vmp.local"),
    ("vmp.local_self_ms", "ms", "self", "vmp.local"),
    ("vmp.local_calls", "count", "calls", "vmp.local"),
    ("vmp.local_z_ms", "ms", "total", "vmp.local_z"),
    ("vmp.local_z_calls", "count", "calls", "vmp.local_z"),
    ("vmp.linked_items", "count", "count", "vmp.linked_items"),
    ("vmp.local_x_ms", "ms", "total", "vmp.local_x"),
    ("vmp.component_logits_ms", "ms", "total", "vmp.component_logits"),
    ("vmp.graph_ms", "ms", "total", "vmp.graph"),
    ("vmp.recognition_ms", "ms", "total", "vmp.recognition"),
    ("vmp.global_kl_ms", "ms", "total", "vmp.global_kl"),
    ("vmp.local_kl_ms", "ms", "total", "vmp.local_kl"),
    ("vmp.predict_ms", "ms", "total", "vmp.predict"),
    ("vmp.predict_items", "count", "count", "vmp.predict_items"),
    ("mixture.expectations_ms", "ms", "total", "mixture.expectations"),
    ("mixture.expectations_calls", "count", "calls", "mixture.expectations"),
    ("expfam.niw_stats_calls", "count", "calls", "expfam.niw_stats"),
    ("mixture.natgrad_ms", "ms", "total", "mixture.natgrad"),
    ("mixture.step_ms", "ms", "total", "mixture.step"),
    ("mixture.step_attempts", "count", "calls", "mixture.step"),
    ("nnet.forward_ms", "ms", "total", "nnet.forward"),
    ("nnet.forward_calls", "count", "calls", "nnet.forward"),
    ("nnet.backward_ms", "ms", "total", "nnet.backward"),
    ("nnet.tape_nodes", "count", "count", "nnet.tape_nodes"),
    ("nnet.optimizer_ms", "ms", "total", "nnet.optimizer"),
    ("scdc.elbo_local_ms", "ms", "total", "scdc.elbo_local"),
    ("scdc.elbo_rel_ms", "ms", "total", "scdc.elbo_rel"),
    ("metrics.eval_ms", "ms", "total", "metrics.eval"),
    ("run.loop_self_ms", "ms", "self", "run.train"),
]

# Per-layer metrics computed from several spans or from the untraced trials.
DERIVED_LAYER_UNITS = {
    "mixture.step_accept_ratio": "fraction",
    "run.reference_ms": "ms",
    "run.updates": "count",
    "run.train_untraced_s": "s",
    "run.train_traced_s": "s",
    "run.trace_overhead_pct": "%",
}

# Counts that must repeat exactly between traced trials of one seed.
EXACT_COUNTS = (
    "vmp.linked_items",
    "mixture.expectations_calls",
    "expfam.niw_stats_calls",
    "mixture.step_attempts",
    "nnet.tape_nodes",
    "relational.triples_built",
)


@dataclass
class Trial:
    """One set-up, trainer call and prediction on the inputs of one seed."""

    inputs: workloads.Inputs
    result: object
    predictions: np.ndarray
    train_s: float
    predict_s: list
    update_s: list
    update_reference_s: list   # mean of the slices around each update
    reference_s: list          # every slice run inside the trainer call
    predict_reference_s: list  # mean of the slices around each predict
    problems: list

    @property
    def failed(self) -> bool:
        return self.result.diverged or bool(self.problems)

    @property
    def scale(self) -> float:
        """REFERENCE_S over the median reference slice of the trainer call."""
        return REFERENCE_S / statistics.median(self.reference_s)

    @property
    def scaled_train_s(self) -> float:
        """train_s at reference speed: each update scaled by the slices around
        it, the rest (trainer set-up, per-epoch evaluation) by `scale`."""
        rest = self.train_s - sum(self.update_s)
        return sum(at_reference_speed(self.update_s, self.update_reference_s)) + rest * self.scale


def at_reference_speed(seconds, slices) -> list:
    """Each sample times REFERENCE_S over the slice time measured with it."""
    return [t * REFERENCE_S / r for t, r in zip(seconds, slices)]


def bracketed(fn, calls, seconds, reference=probes.reference_slice):
    """Call fn at least `calls` times and for `seconds`, with a reference
    slice before the first call and after every call.

    Returns the call durations, the mean slice time around each call, and
    the last call's result.
    """
    durations, slices = [], [reference()]
    end = perf_counter() + seconds
    while len(durations) < calls or perf_counter() < end:
        start = perf_counter()
        result = fn()
        durations.append(perf_counter() - start)
        slices.append(reference())
    return durations, [0.5 * (a + b) for a, b in zip(slices, slices[1:])], result


def run_trial(workload, seed, predict_calls=1, predict_seconds=0.0, tracer=None) -> Trial:
    span = tracer.span if tracer is not None else (lambda name: nullcontext())

    def reference():
        with span("run.reference"):
            return probes.reference_slice()

    rng = np.random.default_rng(seed)
    with span("run.setup"):
        inputs = workloads.make_inputs(workload, rng)
    with probes.UpdateClock(workload.trainer_module, reference) as clock:
        start = perf_counter()
        with span("run.train"):
            result = workloads.train(workload, inputs, rng)
        train_s = perf_counter() - start - sum(clock.reference_s)

    def predict():
        with span("run.predict"):
            return result.model.predict(inputs.dataset.observations)

    predict_s, predict_reference_s, predictions = bracketed(
        predict, predict_calls, predict_seconds, reference)
    problems = workloads.check_outputs(workload, result, predictions, inputs.dataset.n_items)
    return Trial(inputs, result, predictions, train_s, predict_s, clock.durations,
                 clock.bracket_s, clock.reference_s, predict_reference_s, problems)


class Tally:
    """Trainer calls attempted and failed, and output-check problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, trial: Trial | None, label: str):
        self.attempted += 1
        if trial is None or trial.failed:
            self.failed += 1
        if trial is not None:
            self.problems += [f"{label}: {p}" for p in trial.problems]
            if trial.result.diverged:
                print(f"crowdbench: {label} diverged", file=sys.stderr)

    def attempt(self, workload, seed, label, **kwargs) -> Trial | None:
        """run_trial, counting an exception as a failed attempt."""
        try:
            trial = run_trial(workload, seed, **kwargs)
        except Exception:
            print(f"crowdbench: {label} raised", file=sys.stderr)
            traceback.print_exc()
            trial = None
        self.add(trial, label)
        return trial


def _keep_going(durations, deadline) -> bool:
    """Start another trial only if a typical one still ends by the deadline."""
    return perf_counter() + statistics.median(durations) <= deadline


def untraced_run(workload, seed, seconds, tally):
    """End-to-end metrics: trials on fresh inputs for `seconds` seconds."""
    # The fixed-seed trial gives the reported quality, and runs lazy
    # imports and allocations before anything is timed.
    first = run_trial(workload, workloads.QUALITY_SEED)
    tally.add(first, f"quality trial (seed {workloads.QUALITY_SEED})")
    if not first.result.history:
        raise RuntimeError("the quality trial finished no epoch")
    quality = workloads.quality(workload, first.inputs, first.result)
    del first

    deadline = perf_counter() + seconds
    trials, durations = [], []
    while not durations or _keep_going(durations, deadline):
        start = perf_counter()
        trial = tally.attempt(workload, [seed, len(durations)], f"trial {len(durations)}",
                              predict_calls=PREDICT_CALLS, predict_seconds=PREDICT_SECONDS)
        durations.append(perf_counter() - start)
        if trial is not None and not trial.failed:
            # Keep the timings only: peak memory must not grow with the
            # number of trials that fit in the run.
            trial.inputs = trial.result = trial.predictions = None
            trials.append(trial)
    if not trials:
        raise RuntimeError("every timed trial failed")

    gc.collect()
    setup_seeds = itertools.count()
    setups, setup_references, _ = bracketed(
        lambda: workloads.make_inputs(workload, np.random.default_rng([seed, next(setup_seeds)])),
        MIN_SETUPS, SETUP_SECONDS)

    def pooled(name):
        return [x for t in trials for x in getattr(t, name)]

    updates = at_reference_speed(pooled("update_s"), pooled("update_reference_s"))
    predicts = at_reference_speed(pooled("predict_s"), pooled("predict_reference_s"))
    n_items = workload.clusters * workload.per_cluster
    values = {
        "setup_s": statistics.median(at_reference_speed(setups, setup_references)),
        "train_s": statistics.median(t.scaled_train_s for t in trials),
        "update_ms_p50": 1e3 * float(np.percentile(updates, 50)),
        "update_ms_p90": 1e3 * float(np.percentile(updates, 90)),
        "predict_items_per_s": n_items / statistics.median(predicts),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "accuracy": quality["accuracy"],
        "nmi": quality["nmi"],
        "effective_k": quality["effective_k"],
    }
    unscaled_updates = pooled("update_s")
    report = {
        "samples": {"trials": len(trials), "updates": len(updates), "setups": len(setups),
                    "predicts": len(predicts)},
        "unscaled": {
            "setup_s": statistics.median(setups),
            "train_s": statistics.median(t.train_s for t in trials),
            "update_ms_p50": 1e3 * float(np.percentile(unscaled_updates, 50)),
            "update_ms_p90": 1e3 * float(np.percentile(unscaled_updates, 90)),
            "predict_items_per_s": n_items / statistics.median(pooled("predict_s")),
            "reference_slice_ms": 1e3 * statistics.median(
                pooled("reference_s") + pooled("predict_reference_s") + setup_references),
        },
        "quality": quality,
    }
    return values, END_TO_END_UNITS, report


def layer_values(summary: dict, counts) -> dict:
    """Per-layer metrics of one traced trial, times unscaled."""
    values = {}
    for name, unit, kind, key in LAYER_METRICS:
        row = summary.get(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        if kind == "count":
            values[name] = counts.get(key, 0)
        elif kind == "calls":
            values[name] = row["calls"]
        else:
            values[name] = 1e3 * row[f"{kind}_s"]
    attempts = values["mixture.step_attempts"]
    accepted = counts.get("mixture.step_accepts", 0)
    values["mixture.step_accept_ratio"] = accepted / attempts if attempts else 0.0
    return values


def traced_run(workload, seed, seconds, tally):
    """Per-layer metrics: untraced and traced trials, alternating, all on
    the inputs of one seed, so they must compute exactly the same thing."""
    inputs_seed = [seed, 0]
    untraced_s, traced_s, layer_rows, durations, references = [], [], [], [], []
    first = summary = None
    deadline = perf_counter() + seconds
    while len(traced_s) < 2 or not untraced_s or _keep_going(durations, deadline):
        traced = len(durations) % 2 == 1
        start = perf_counter()
        if traced:
            with probes.Tracer() as tracer:
                trial = run_trial(workload, inputs_seed, tracer=tracer)
        else:
            trial = run_trial(workload, inputs_seed)
        durations.append(perf_counter() - start)
        references += trial.reference_s
        label = f"{'traced' if traced else 'untraced'} trial {len(durations) - 1}"
        tally.add(trial, label)
        if first is None:
            first = trial
        elif not (trial.result.history == first.result.history
                  and np.array_equal(trial.predictions, first.predictions)):
            tally.problems.append(f"{label}: history or predictions differ from trial 0")
        if not traced:
            if len(durations) > 1:  # the first trial also warms up
                untraced_s.append(trial.scaled_train_s)
            continue
        traced_s.append(trial.scaled_train_s)
        trial_summary = probes.summarize(tracer.spans)
        summary = summary or trial_summary
        row = layer_values(trial_summary, tracer.counts)
        for name in row:
            if name.endswith("_ms"):
                row[name] *= trial.scale
        row["run.updates"] = len(trial.update_s)
        layer_rows.append(row)
        for name in EXACT_COUNTS + ("run.updates",):
            if layer_rows[-1][name] != layer_rows[0][name]:
                tally.problems.append(f"{label}: {name} {layer_rows[-1][name]} "
                                      f"!= {layer_rows[0][name]} of the first traced trial")

    values = {}
    for name in layer_rows[0]:
        column = [row[name] for row in layer_rows]
        values[name] = statistics.median(column) if name.endswith("_ms") else column[0]
    values["run.reference_ms"] = 1e3 * statistics.median(references)
    values["run.train_untraced_s"] = statistics.median(untraced_s)
    values["run.train_traced_s"] = statistics.median(traced_s)
    values["run.trace_overhead_pct"] = 100.0 * (
        values["run.train_traced_s"] / values["run.train_untraced_s"] - 1.0)
    units = {name: unit for name, unit, _, _ in LAYER_METRICS} | DERIVED_LAYER_UNITS
    report = {
        "samples": {"untraced_trials": len(untraced_s), "traced_trials": len(traced_s)},
        "quality": workloads.quality(workload, first.inputs, first.result),
        "spans": {
            name: {"calls": row["calls"], "total_ms": round(1e3 * row["total_s"], 3),
                   "self_ms": round(1e3 * row["self_s"], 3)}
            for name, row in summary.items()
        },
    }
    return values, units, report


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown: not a git checkout"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or "unknown: " + done.stderr.strip()


def blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def provenance(args) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name(),
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "seed": args.seed,
        "quality_seed": workloads.QUALITY_SEED,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = workloads.WORKLOADS[args.workload]
    tally = Tally()
    measure = traced_run if args.trace else untraced_run
    values, units, report = measure(workload, args.seed, args.seconds, tally)
    report.update(
        workload=workload.name,
        why=workload.why,
        protocol=workload.protocol(),
        trace=args.trace,
        seconds=args.seconds,
        provenance=provenance(args),
        failed_ratio=tally.failed / tally.attempted,
        problems=tally.problems,
    )
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))


if __name__ == "__main__":
    main()
