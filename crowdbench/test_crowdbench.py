"""Tests of the benchmark's own code: hooks, tracer, span arithmetic,
workload generation and the output check."""

import json
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import probes
import run
import workloads
from crowdmix import data, relational, vmp

# A few-second stand-in for the real workloads: 60 items, 4 updates.
TINY = replace(
    workloads.WORKLOADS["pinwheel-bayes"], name="tiny", clusters=3, per_cluster=20,
    n_workers=4, pairs_per_worker=30, subset_size=40, epochs=2,
)


def _originals():
    return [owner.__dict__[attr] for owner, attr, *_ in probes.TARGETS]


def test_update_clock_yields_the_same_batches():
    rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
    with probes.UpdateClock(vmp, probes.reference_slice) as clock:
        hooked = list(vmp.minibatch_iterator(23, 5, rng_a))
    plain = list(data.minibatch_iterator(23, 5, rng_b))
    assert len(hooked) == len(plain) == 5
    assert all(np.array_equal(a, b) for a, b in zip(hooked, plain))
    assert len(clock.durations) == len(clock.bracket_s) == 5
    assert len(clock.reference_s) == 6
    assert clock.bracket_s[0] == 0.5 * (clock.reference_s[0] + clock.reference_s[1])
    assert vmp.minibatch_iterator is data.minibatch_iterator


@pytest.mark.parametrize("trainer", ["bayes", "scdc"])
def test_update_clock_leaves_history_unchanged(trainer):
    workload = replace(TINY, trainer=trainer)
    histories = []
    for hooked in (False, True):
        rng = np.random.default_rng(7)
        inputs = workloads.make_inputs(workload, rng)
        if hooked:
            with probes.UpdateClock(workload.trainer_module, probes.reference_slice) as clock:
                result = workloads.train(workload, inputs, rng)
            assert len(clock.durations) == workload.epochs * 2
            assert len(clock.reference_s) == workload.epochs * 3
        else:
            result = workloads.train(workload, inputs, rng)
        histories.append(result.history)
    assert histories[0] == histories[1]


def test_tracer_restores_every_attribute_when_the_trainer_raises():
    before = _originals()
    rng = np.random.default_rng(0)
    dataset = data.pinwheel_generate(3, 10, rng=rng)
    # Annotations on items the dataset does not have: the trainer samples
    # them through traced calls, then fails indexing the observations.
    store = relational.AnnotationStore([(0, 500, 0, 1), (3, 700, 0, 0)], n_items=1000, n_workers=1)
    with pytest.raises(IndexError):
        with probes.Tracer() as tracer:
            assert all(a is not b for a, b in zip(_originals(), before))
            vmp.train_bayes_scdc(dataset, store, vmp.BayesConfig(epochs=1), rng)
    assert all(a is b for a, b in zip(_originals(), before))
    assert tracer.spans and all(end is not None for *_, end in tracer.spans)
    assert not tracer._stack


def test_self_time_of_nested_spans():
    spans = [
        ["root", -1, 0.0, 10.0],
        ["a", 0, 1.0, 4.0],
        ["b", 0, 5.0, 9.0],
        ["c", 2, 6.0, 7.0],
        ["b", 2, 7.5, 8.5],  # b calling itself
    ]
    summary = probes.summarize(spans)
    assert summary["root"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert summary["a"] == {"calls": 1, "total_s": 3.0, "self_s": 3.0}
    assert summary["b"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert summary["c"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    assert sum(row["self_s"] for row in summary.values()) == pytest.approx(10.0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_generation_is_deterministic(name):
    workload = replace(workloads.WORKLOADS[name], per_cluster=60, subset_size=100)
    a, b, c = (workloads.make_inputs(workload, np.random.default_rng(s)) for s in (5, 5, 6))
    assert np.array_equal(a.dataset.observations, b.dataset.observations)
    assert np.array_equal(a.dataset.labels, b.dataset.labels)
    assert np.array_equal(a.pool.alpha, b.pool.alpha)
    assert np.array_equal(a.pool.beta, b.pool.beta)
    assert np.array_equal(a.store.triples, b.store.triples)
    assert not np.array_equal(a.dataset.observations, c.dataset.observations)
    assert a.store.n_annotations == workload.n_workers * workload.pairs_per_worker


def test_traced_trials_count_exactly_and_compute_the_same():
    untraced = run.run_trial(TINY, [1, 0])
    rows = []
    for _ in range(2):
        with probes.Tracer() as tracer:
            traced = run.run_trial(TINY, [1, 0], tracer=tracer)
        assert traced.result.history == untraced.result.history
        assert np.array_equal(traced.predictions, untraced.predictions)
        rows.append(run.layer_values(probes.summarize(tracer.spans), tracer.counts))
    for name in run.EXACT_COUNTS:
        assert rows[0][name] == rows[1][name]
    assert rows[0]["vmp.linked_items"] > 0
    assert rows[0]["mixture.expectations_calls"] == 2 * 4 + TINY.epochs + 1
    assert rows[0]["mixture.step_accept_ratio"] == 1.0


@pytest.mark.parametrize("measure", [run.untraced_run, run.traced_run])
def test_runs_report_every_metric(measure):
    tally = run.Tally()
    values, units, report = measure(TINY, 2, 0.01, tally)
    assert set(values) == set(units)
    assert all(np.isfinite(v) for v in values.values())
    assert tally.problems == [] and tally.failed == 0 and tally.attempted >= 2


def _result(history, diverged=False):
    return SimpleNamespace(diverged=diverged, history=history)


def test_output_check_flags_bad_results():
    rows = [{"epoch": e, "objective": -1.0, "accuracy": 0.5, "nmi": 0.5} for e in range(2)]
    n = 6
    labels = np.zeros(n, dtype=int)
    check = workloads.check_outputs
    assert check(TINY, _result(rows), labels, n) == []
    assert check(TINY, _result(rows[:1], diverged=True), labels, n) == []
    assert check(TINY, _result(rows), np.full(n, 15), n)
    assert check(TINY, _result(rows), np.zeros(n), n)
    assert check(TINY, _result(rows), labels[1:], n)
    assert check(TINY, _result(rows[:1]), labels, n)
    assert check(TINY, _result([rows[0], dict(rows[1], objective=float("nan"))]), labels, n)
    assert check(TINY, _result([rows[0], dict(rows[1], nmi=1.5)]), labels, n)


def test_benchmark_json_names_what_the_runner_reports():
    doc = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    layer_units = {name: unit for name, unit, _, _ in run.LAYER_METRICS}
    layer_units.update(run.DERIVED_LAYER_UNITS)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == layer_units
