"""The shared training loop: what each update is handed, and, through
both trainers, that a divergence inside an epoch or at its end restores
the last finished epoch."""

from dataclasses import replace

import numpy as np
import pytest

from crowdmix import data, relational, scdc, vmp
from crowdmix.driver import fit
from crowdmix.metrics import clustering_accuracy, nmi

# Trainer module, training function, 2-epoch config, and a function of the
# module that each update calls once and whose value enters the estimate.
# The warmup window scales with the epoch count, so it is off here: the
# first epoch of a 1-epoch and a 2-epoch run must be the same.
TRAINERS = {
    "scdc": (
        scdc, scdc.train_scdc,
        scdc.ScdcConfig(n_components=4, hidden=(8,), batch_size=20, epochs=2),
        "elbo_local",
    ),
    "bayes": (
        vmp, vmp.train_bayes_scdc,
        vmp.BayesConfig(n_components=4, hidden=(8,), batch_size=20, epochs=2, kl_warmup=0.0),
        "local_kl",
    ),
}


def small_problem(seed):
    rng = np.random.default_rng(seed)
    dataset = data.pinwheel_generate(3, 20, rng=rng)
    pool = data.WorkerPool.homogeneous(4, 0.9, 0.9)
    store = data.simulate_annotations(dataset, pool, 15, 30, rng)
    return dataset, store


@pytest.mark.parametrize("trainer", sorted(TRAINERS))
def test_divergence_restores_the_last_finished_epoch(trainer, monkeypatch):
    module, train, config, poisoned_name = TRAINERS[trainer]
    dataset, store = small_problem(2)
    finished = train(dataset, store, replace(config, epochs=1), np.random.default_rng(4))
    updates_per_epoch = -(-dataset.n_items // config.batch_size)
    original = getattr(module, poisoned_name)
    calls = []

    def poisoned(*args, **kwargs):
        calls.append(None)
        value = original(*args, **kwargs)
        # second update of the second epoch: one update of that epoch has
        # already moved the parameters away from the snapshot
        return value * float("nan") if len(calls) == updates_per_epoch + 2 else value

    monkeypatch.setattr(module, poisoned_name, poisoned)
    result = train(dataset, store, config, np.random.default_rng(4))
    assert result.diverged
    assert len(calls) == updates_per_epoch + 2
    assert len(finished.history) == 1
    assert result.history == finished.history
    assert result.model.to_dict() == finished.model.to_dict()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "trainer, value",
    [
        pytest.param("bayes", np.nan, id="bayes"),
        pytest.param("scdc", np.nan, id="scdc"),
        # finite, but the recognition network overflows when the epoch's
        # model predicts
        pytest.param("bayes", 1e308, id="bayes-overflow"),
    ],
)
def test_divergence_at_an_epoch_boundary_restores_the_last_finished_epoch(
    trainer, value, monkeypatch
):
    # An update can overflow parameters from a finite gradient; the last
    # update of the second epoch leaves one bad parameter, which only the
    # end-of-epoch check or the epoch's evaluation can see.
    module, train, config, _ = TRAINERS[trainer]
    dataset, store = small_problem(2)
    finished = train(dataset, store, replace(config, epochs=1), np.random.default_rng(4))
    updates_per_epoch = -(-dataset.n_items // config.batch_size)
    original = module.zero_grads
    calls = []

    def poisoned(params):
        calls.append(None)
        original(params)
        if len(calls) == 2 * updates_per_epoch:
            poisoned_data = params[0].data.copy()
            poisoned_data[...] = value
            params[0].data = poisoned_data

    monkeypatch.setattr(module, "zero_grads", poisoned)
    result = train(dataset, store, config, np.random.default_rng(4))
    assert len(calls) == 2 * updates_per_epoch
    assert result.diverged
    assert result.history == finished.history
    assert result.model.to_dict() == finished.model.to_dict()


class ConstantModel:
    def predict(self, observations):
        return np.zeros(len(observations), dtype=int)


@pytest.mark.parametrize("annotated", [True, False])
def test_fit_hands_each_update_its_working_set_scales_and_warmup_weight(annotated):
    dataset, store = small_problem(3)
    store = store if annotated else None
    config = scdc.ScdcConfig(epochs=4, batch_size=20, annotation_batch_size=5, kl_warmup=0.5)
    updates = []

    def step(update):
        updates.append(update)
        return 1.0

    result = fit(
        dataset, store, config, np.random.default_rng(0),
        params=[], model=ConstantModel, step=step,
        effective_k=lambda model, threshold: 1,
        minibatch_iterator=data.minibatch_iterator,
        sample_annotation_minibatch=relational.sample_annotation_minibatch,
        clustering_accuracy=clustering_accuracy, nmi=nmi,
    )
    # 60 items in batches of 20: 12 updates, the first 6 in the warmup
    # window, of which the first half has the KL off
    assert [u.index for u in updates] == list(range(12))
    assert [u.kl_weight for u in updates] == pytest.approx(
        [0.0, 0.0, 0.0, 1 / 7, 3 / 7, 5 / 7] + [1.0] * 6
    )
    for u in updates:
        assert np.array_equal(u.batch, np.sort(u.batch)) and u.batch.size == 20
        assert np.array_equal(u.working[u.rows], u.batch)
        assert u.data_scale == 3.0
        if annotated:
            assert u.store.n_items == u.working.size and u.store.n_annotations == 5
            assert u.rel_scale == store.n_annotations / 5
        else:
            assert u.working is u.batch and u.store is None and u.rel_scale == 1.0
    assert [row["epoch"] for row in result.history] == [0, 1, 2, 3]
    assert all(row["objective"] == 1.0 and row["effective_k"] == 1 for row in result.history)
    assert not result.diverged
