"""The shared training loop: what each update is handed, and, through
both trainers, that a divergence inside an epoch or at its end restores
the last finished epoch."""

import ctypes
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from crowdmix import data, driver, relational, scdc, vmp
from crowdmix.driver import HEAP_TOP_PAD, M_TOP_PAD, fit, training_store
from crowdmix.expfam import NiwNat
from crowdmix.metrics import clustering_accuracy, nmi
from crowdmix.nnet import parameter

# Trainer module, training function, 2-epoch config, and a function of the
# module that each update calls once and whose value enters the estimate.
TRAINERS = {
    "scdc": (
        scdc, scdc.train_scdc,
        scdc.ScdcConfig(n_components=4, hidden=(8,), batch_size=20, epochs=2),
        "elbo_local",
    ),
    "bayes": (
        vmp, vmp.train_bayes_scdc,
        vmp.BayesConfig(n_components=4, hidden=(8,), batch_size=20, epochs=2),
        "local_kl",
    ),
}


def small_problem(seed):
    rng = np.random.default_rng(seed)
    dataset = data.pinwheel_generate(3, 20, rng=rng)
    pool = data.WorkerPool.homogeneous(4, 0.9, 0.9)
    store = data.simulate_annotations(dataset, pool, 15, 30, rng)
    return dataset, store


@pytest.fixture
def warmup_off(monkeypatch):
    """The warmup window scales with the epoch count, so the divergence
    tests turn it off: the first epoch of a 1-epoch and a 2-epoch run must
    be the same."""
    for module, *_ in TRAINERS.values():
        monkeypatch.setattr(module, "KL_WARMUP", 0.0)


@pytest.mark.usefixtures("warmup_off")
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


@pytest.mark.usefixtures("warmup_off")
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "trainer, value",
    [
        pytest.param("bayes", np.nan, id="bayes"),
        pytest.param("scdc", np.nan, id="scdc"),
        # finite, but the recognition network overflows when the epoch's
        # model predicts
        pytest.param("bayes", 1e308, id="bayes-overflow"),
        # the cluster encoder overflows when the epoch's model predicts
        pytest.param("scdc", 1e308, id="scdc-overflow"),
    ],
)
def test_divergence_at_an_epoch_boundary_restores_the_last_finished_epoch(
    trainer, value, monkeypatch
):
    # An update can overflow parameters from a finite gradient; the last
    # update of the second epoch leaves one bad parameter, which only the
    # end-of-epoch check or the epoch's evaluation can see.
    _, train, config, _ = TRAINERS[trainer]
    dataset, store = small_problem(2)
    finished = train(dataset, store, replace(config, epochs=1), np.random.default_rng(4))
    updates_per_epoch = -(-dataset.n_items // config.batch_size)
    original = driver.zero_grads
    calls = []

    def poisoned(params):
        calls.append(None)
        original(params)
        if len(calls) == 2 * updates_per_epoch:
            # in place, as an overflowing Adam step would write it
            params[0].data[...] = value

    # fit steps the parameters and clears their gradients after each update
    monkeypatch.setattr(driver, "zero_grads", poisoned)
    result = train(dataset, store, config, np.random.default_rng(4))
    assert len(calls) == 2 * updates_per_epoch
    assert result.diverged
    assert result.history == finished.history
    assert result.model.to_dict() == finished.model.to_dict()


@pytest.mark.usefixtures("warmup_off")
def test_an_invalid_global_step_restores_the_last_finished_epoch(monkeypatch):
    # A target whose nu lies so far below d - 1 that the trainer's step
    # takes the components' nu below it too.  The NIW constructor checks
    # no nu, so the target is built and only the step fails.
    module, train, config, _ = TRAINERS["bayes"]
    dataset, store = small_problem(2)
    finished = train(dataset, store, replace(config, epochs=1), np.random.default_rng(4))
    updates_per_epoch = -(-dataset.n_items // config.batch_size)
    original = module.mixture_natural_gradient
    calls = []

    def poisoned(*args, **kwargs):
        calls.append(None)
        target = original(*args, **kwargs)
        if len(calls) == updates_per_epoch + 2:
            c = target.components
            target = replace(target, components=NiwNat(c.h1, c.h2, c.h3, c.h4 - 1e6))
        return target

    monkeypatch.setattr(module, "mixture_natural_gradient", poisoned)
    result = train(dataset, store, config, np.random.default_rng(4))
    assert result.diverged
    assert len(calls) == updates_per_epoch + 2
    assert result.history == finished.history
    assert result.model.to_dict() == finished.model.to_dict()


@pytest.mark.usefixtures("warmup_off")
def test_non_finite_local_statistics_restore_the_last_finished_epoch(monkeypatch):
    # A NaN latent mean in the second update of the second epoch, in the
    # batch rows' q(x) that the network objective's refresh returns: the
    # minibatch target of the components cannot be built from it.
    module, train, config, _ = TRAINERS["bayes"]
    dataset, store = small_problem(2)
    finished = train(dataset, store, replace(config, epochs=1), np.random.default_rng(4))
    updates_per_epoch = -(-dataset.n_items // config.batch_size)
    original = module.gaussian_refresh
    calls = []

    def poisoned(*args, **kwargs):
        calls.append(None)
        draw, bracket, (x_h, x_j, mean, cov, logdet) = original(*args, **kwargs)
        if len(calls) == updates_per_epoch + 2:
            mean[0, 0] = np.nan
        return draw, bracket, (x_h, x_j, mean, cov, logdet)

    monkeypatch.setattr(module, "gaussian_refresh", poisoned)
    result = train(dataset, store, config, np.random.default_rng(4))
    assert result.diverged
    assert len(calls) == updates_per_epoch + 2
    assert result.history == finished.history
    assert result.model.to_dict() == finished.model.to_dict()


class ConstantModel:
    def predict(self, observations):
        return np.zeros(len(observations), dtype=int)

    def effective_k(self, threshold):
        return 1

    def global_kl(self):
        return 0.0


def test_a_non_finite_epoch_objective_restores_the_last_finished_epoch():
    """The model of epoch 2 has a NaN global KL: fit stops there, with the
    history and the parameters of epoch 1, and that epoch's model.  Each
    update's step leaves a gradient, which fit's Adam steps at the
    config's rate and then clears."""
    dataset, store = small_problem(3)
    weight = parameter(np.zeros(2))
    built = []

    class Model(ConstantModel):
        def __init__(self):
            self.epoch = len(built) - 1  # the model before training is epoch -1
            self.weight = weight.data.copy()
            built.append(self)

        def global_kl(self):
            return float("nan") if self.epoch == 2 else 0.5 * self.epoch

    def step(update):
        assert weight.grad is None  # fit cleared the last update's gradient
        weight.grad = np.array([1.0, -1.0])
        return 2.0

    result = fit(
        dataset, training_store(store, dataset.n_items),
        scdc.ScdcConfig(epochs=4, batch_size=20, lr=0.5),
        np.random.default_rng(0), params=[weight], model=Model, step=step, kl_warmup=0.0,
        minibatch_iterator=data.minibatch_iterator,
        sample_annotation_minibatch=relational.sample_annotation_minibatch,
        clustering_accuracy=clustering_accuracy, nmi=nmi,
    )
    assert result.diverged
    # 60 items in batches of 20: 3 updates per epoch
    assert [row["objective"] for row in result.history] == [2.0, 1.5]
    assert len(built) == 4 and result.model is built[2]
    # six Adam steps of a constant gradient, each of very nearly the rate
    assert weight.data == pytest.approx([3.0, -3.0], rel=1e-7)
    assert np.array_equal(result.model.weight, weight.data)


def test_a_divergence_restore_keeps_the_parameters_the_optimizers_views(monkeypatch):
    """Adam makes each parameter a view of its flat vector; the update that
    diverges mid-epoch 2 makes fit write epoch 1's values back into those
    views, so a later step of the same optimizer still moves them."""
    dataset, store = small_problem(3)
    params = [parameter(np.zeros(2)), parameter(np.ones((2, 3)))]
    optimizers, built, calls, stepped = [], [], [], []

    class RecordingAdam(driver.Adam):
        def __init__(self, *args):
            super().__init__(*args)
            optimizers.append(self)

    class Model(ConstantModel):
        def __init__(self):
            built.append([p.data.copy() for p in params])

    def step(update):
        calls.append(None)
        if len(calls) == 5:  # the second update of epoch 2
            stepped.extend(p.data.copy() for p in params)
            raise driver.TrainingDivergence("poisoned update")
        for p in params:
            p.grad = np.full(p.data.shape, float(len(calls)))
        return 1.0

    monkeypatch.setattr(driver, "Adam", RecordingAdam)
    result = fit(
        dataset, training_store(store, dataset.n_items),
        scdc.ScdcConfig(epochs=3, batch_size=20, lr=0.5),
        np.random.default_rng(0), params=params, model=Model, step=step, kl_warmup=0.0,
        minibatch_iterator=data.minibatch_iterator,
        sample_annotation_minibatch=relational.sample_annotation_minibatch,
        clustering_accuracy=clustering_accuracy, nmi=nmi,
    )
    assert result.diverged and len(result.history) == 1
    (opt,) = optimizers
    # epoch 2 stepped once before the divergence; the restore undid it
    for p, saved, moved in zip(params, built[1], stepped):
        assert not np.array_equal(moved, saved)
        assert np.array_equal(p.data, saved)
        assert np.shares_memory(p.data, opt.flat)
    for p in params:
        p.grad = np.ones(p.data.shape)
    before = [p.data.copy() for p in params]
    opt.step()
    assert all(np.all(p.data > b) for p, b in zip(params, before))


@pytest.mark.parametrize("annotated", [True, False])
def test_fit_hands_each_update_its_working_set_scales_and_warmup_weight(annotated):
    dataset, store = small_problem(3)
    store = training_store(store if annotated else None, dataset.n_items)
    config = scdc.ScdcConfig(epochs=4, batch_size=20)
    updates = []

    def step(update):
        updates.append(update)
        return 1.0

    result = fit(
        dataset, store, config, np.random.default_rng(0),
        params=[], model=ConstantModel, step=step, kl_warmup=0.5,
        minibatch_iterator=data.minibatch_iterator,
        sample_annotation_minibatch=relational.sample_annotation_minibatch,
        clustering_accuracy=clustering_accuracy, nmi=nmi,
    )
    # 60 items in batches of 20: 12 updates, the first 6 in the warmup
    # window, of which the first half has the KL off
    assert [u.kl_weight for u in updates] == pytest.approx(
        [0.0, 0.0, 0.0, 1 / 7, 3 / 7, 5 / 7] + [1.0] * 6
    )
    for u in updates:
        assert np.array_equal(u.batch, np.sort(u.batch)) and u.batch.size == 20
        assert np.array_equal(u.working[u.rows], u.batch)
        assert u.data_scale == 3.0
        if annotated:
            # the 60 annotations sampled in proportion to the batch's 20 of 60 items
            assert u.store.n_items == u.working.size and u.store.n_annotations == 20
            assert u.rel_scale == 3.0
        else:
            assert np.array_equal(u.working, u.batch) and u.store.n_annotations == 0
            assert u.store.n_items == u.working.size and u.rel_scale == 1.0
    assert [row["epoch"] for row in result.history] == [0, 1, 2, 3]
    assert all(row["objective"] == 1.0 and row["effective_k"] == 1 for row in result.history)
    assert not result.diverged


# Per trainer: the module function that receives each update's latent KL
# weight, that weight's position among its arguments, and the weights of a
# 3-epoch run of 3 updates each.  SCDC's window, KL_WARMUP 0.5, is the first
# round(4.5) = 4 updates, BayesSCDC's, KL_WARMUP 1, all 9; the weight is 0
# for the first half of the window, then linear.
KL_WEIGHT_RAMPS = {
    "scdc": ("elbo_local", 5, [0.0, 0.0, 0.2, 0.6] + [1.0] * 5),
    "bayes": ("_network_objective", 8, [0.0] * 5 + [0.2, 0.4, 0.6, 0.8]),
}


@pytest.mark.parametrize("trainer", sorted(TRAINERS))
def test_each_trainer_ramps_the_kl_weight_over_its_own_warmup(trainer, monkeypatch):
    module, train, config, _ = TRAINERS[trainer]
    name, position, expected = KL_WEIGHT_RAMPS[trainer]
    original = getattr(module, name)
    weights = []

    def capture(*args, **kwargs):
        weights.append(kwargs["kl_weight"] if "kl_weight" in kwargs else args[position])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, capture)
    dataset, store = small_problem(2)  # 60 items in batches of 20
    train(dataset, store, replace(config, epochs=3), np.random.default_rng(4))
    assert weights == pytest.approx(expected)


@pytest.mark.parametrize("trainer", sorted(TRAINERS))
def test_training_is_the_same_whatever_mallopt_libc_has(trainer, monkeypatch):
    """fit sets the heap-top pad once per call through libc's mallopt,
    and trains the same run where libc has no mallopt or cannot be opened."""
    _, train, config, _ = TRAINERS[trainer]
    dataset, store = small_problem(3)
    runs = [train(dataset, store, config, np.random.default_rng(5))]
    calls = []

    def mallopt(param, value):
        calls.append((param, value))

    def no_libc(name):
        raise OSError(f"{name}: cannot open shared object file")

    for libc in (lambda name: SimpleNamespace(mallopt=mallopt), lambda name: object(), no_libc):
        monkeypatch.setattr(ctypes, "CDLL", libc)
        runs.append(train(dataset, store, config, np.random.default_rng(5)))
    assert calls == [(M_TOP_PAD, HEAP_TOP_PAD)]
    for run in runs[1:]:
        assert run.history == runs[0].history
        assert run.model.to_dict() == runs[0].model.to_dict()


@pytest.mark.parametrize("trainer", sorted(TRAINERS))
def test_training_without_annotations_is_training_on_an_empty_store(trainer):
    """No store and a store of no triples give the same run: an empty
    store informs no worker, so neither run builds one."""
    _, train, config, _ = TRAINERS[trainer]
    dataset, _ = small_problem(7)
    runs = [
        train(dataset, store, config, np.random.default_rng(8))
        for store in (None, relational.AnnotationStore([], dataset.n_items, 3))
    ]
    assert runs[0].history == runs[1].history and len(runs[0].history) == config.epochs
    labels = [run.model.predict(dataset.observations) for run in runs]
    assert np.array_equal(labels[0], labels[1])
    assert runs[0].model.to_dict() == runs[1].model.to_dict()


@pytest.mark.parametrize("trainer", sorted(TRAINERS))
def test_a_store_for_another_dataset_fails_naming_both_counts(trainer):
    """Both a store that indexes items the dataset lacks and one whose
    triples all fall in range fail at once."""
    _, train, config, _ = TRAINERS[trainer]
    dataset, store = small_problem(5)  # 60 items
    big = relational.AnnotationStore(store.triples, n_items=120, n_workers=store.n_workers)
    with pytest.raises(IndexError, match="store indexes 120 items, the dataset has 60"):
        train(dataset, big, config, np.random.default_rng(0))
    larger = data.pinwheel_generate(3, 40, rng=np.random.default_rng(5))  # 120 items
    with pytest.raises(IndexError, match="store indexes 60 items, the dataset has 120"):
        train(larger, store, config, np.random.default_rng(0))


def test_fit_rejects_a_store_for_another_dataset_before_drawing():
    dataset, store = small_problem(6)
    big = relational.AnnotationStore(store.triples, n_items=120, n_workers=store.n_workers)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(IndexError, match="120 items, the dataset has 60"):
        fit(
            dataset, big, scdc.ScdcConfig(), rng,
            params=[], model=ConstantModel, step=lambda update: 1.0, kl_warmup=0.5,
            minibatch_iterator=data.minibatch_iterator,
            sample_annotation_minibatch=relational.sample_annotation_minibatch,
            clustering_accuracy=clustering_accuracy, nmi=nmi,
        )
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("trainer", sorted(TRAINERS))
def test_predict_names_the_first_non_finite_row_before_the_network_runs(
    trainer, value, monkeypatch
):
    """Bad input to a trained model is a ValueError, not a divergence."""
    _, train, config, _ = TRAINERS[trainer]
    dataset, store = small_problem(2)
    model = train(dataset, store, replace(config, epochs=0), np.random.default_rng(4)).model
    observations = dataset.observations.copy()
    observations[[4, 9], 1] = value
    forward = []
    monkeypatch.setattr(vmp.Mlp, "forward", lambda *args: forward.append(args))
    with pytest.raises(ValueError, match="^observation row 4 is not finite$"):
        model.predict(observations)
    assert forward == []
