"""Timing hooks that wrap crowdmix from outside, without editing it.

`UpdateClock` times each training update by wrapping `minibatch_iterator`
in a trainer's namespace; it is the only hook in an untraced run.  Around
each update it times a `reference_slice`, a fixed computation that does
not use crowdmix, so that a run can tell how fast the host was while it
trained.
`Tracer` wraps the public functions and methods each layer is entered
through, records one span per call (name, parent, start, end) in memory,
adds exact work counts, and restores every attribute on exit.
"""

from __future__ import annotations

import functools
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np
from scipy.special import log_softmax

from crowdmix import data, metrics, mixture, nnet, relational, scdc, vmp

_REFERENCE_VECTOR = np.linspace(-2.0, 2.0, 15)
_REFERENCE_MATRIX = np.full((40, 40), 0.01) + 0.5 * np.eye(40)


def reference_slice() -> float:
    """Seconds taken by a fixed computation shaped like a training step:
    small scipy and numpy calls from a Python loop, about 1 ms."""
    start = perf_counter()
    for _ in range(30):
        log_softmax(_REFERENCE_VECTOR)
    x = _REFERENCE_MATRIX
    for _ in range(10):
        x = np.tanh(x @ _REFERENCE_MATRIX)
    return perf_counter() - start


class UpdateClock:
    """Per-update wall times of one trainer module, in seconds, and the
    host's speed around each update.

    An update runs from one batch request to the next.  The gap between
    the last batch of an epoch and the first of the next holds the
    per-epoch evaluation, so it is not an update and is not recorded.
    `reference` runs before the first update of each epoch and after every
    update, outside the updates' times.  `reference_s` keeps what it
    returns, `bracket_s` the mean of the two runs around each update.
    """

    def __init__(self, module, reference):
        self.module = module
        self.reference = reference
        self.durations: list[float] = []
        self.reference_s: list[float] = []
        self.bracket_s: list[float] = []

    def __enter__(self):
        self._original = original = self.module.minibatch_iterator

        def record(duration):
            self.durations.append(duration)
            before = self.reference_s[-1]
            self.reference_s.append(self.reference())
            self.bracket_s.append(0.5 * (before + self.reference_s[-1]))

        def timed_minibatch_iterator(*args, **kwargs):
            start = None
            for batch in original(*args, **kwargs):
                if start is None:
                    self.reference_s.append(self.reference())
                else:
                    record(perf_counter() - start)
                start = perf_counter()
                yield batch
            if start is not None:
                record(perf_counter() - start)

        self.module.minibatch_iterator = timed_minibatch_iterator
        return self

    def __exit__(self, *exc):
        self.module.minibatch_iterator = self._original
        return False


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _linked_items(args, kwargs, result):
    """Items update_local_z visits one log_softmax at a time."""
    return sum(1 for nb in _arg(args, kwargs, 1, "neighbors") if nb)


# (owner, attribute, span name, extra counter, counter function)
# Module functions are patched in the namespace the trainers look them up
# in; methods are patched on their class.  The trainers' private helpers
# (_restrict_store, _network_objective, _stepped_globals) are covered
# through the public callees below.  A counter function runs after a call
# returns and gives the amount to add.
TARGETS = [
    (data, "pinwheel_generate", "data.pinwheel", None, None),
    (data, "simulate_annotations", "data.simulate", None, None),
    (relational.AnnotationStore, "__init__", "relational.store_build",
     "relational.triples_built", lambda args, kwargs, result: args[0].n_annotations),
    (vmp, "sample_annotation_minibatch", "relational.sample", None, None),
    (scdc, "sample_annotation_minibatch", "relational.sample", None, None),
    (vmp, "expected_rel_loglik", "relational.rel_loglik", None, None),
    (vmp, "beta_natural_gradient", "relational.beta_natgrad", None, None),
    (vmp, "block_coordinate_local", "vmp.local", None, None),
    (vmp, "update_local_z", "vmp.local_z", "vmp.linked_items", _linked_items),
    (vmp, "update_local_x", "vmp.local_x", None, None),
    (vmp, "component_logits", "vmp.component_logits", None, None),
    (vmp, "annotation_graph", "vmp.graph", None, None),
    (vmp, "recognition_potential", "vmp.recognition", None, None),
    (vmp, "global_kl", "vmp.global_kl", None, None),
    (vmp, "local_kl", "vmp.local_kl", None, None),
    (vmp.BayesModel, "predict", "vmp.predict",
     "vmp.predict_items", lambda args, kwargs, result: len(result)),
    (vmp, "global_expectations", "mixture.expectations", None, None),
    (mixture, "niw_expected_stats", "expfam.niw_stats", None, None),
    (vmp, "niw_expected_stats", "expfam.niw_stats", None, None),
    (vmp, "mixture_natural_gradient", "mixture.natgrad", None, None),
    (vmp, "apply_natural_gradient", "mixture.step",
     "mixture.step_accepts", lambda args, kwargs, result: 1),
    (nnet.Mlp, "forward", "nnet.forward", None, None),
    (vmp, "backward", "nnet.backward",
     "nnet.tape_nodes", lambda args, kwargs, result: len(_arg(args, kwargs, 0, "tape"))),
    (scdc, "backward", "nnet.backward",
     "nnet.tape_nodes", lambda args, kwargs, result: len(_arg(args, kwargs, 0, "tape"))),
    (nnet.Adam, "step", "nnet.optimizer", None, None),
    (scdc, "elbo_local", "scdc.elbo_local", None, None),
    (scdc, "elbo_rel", "scdc.elbo_rel", None, None),
    (vmp, "clustering_accuracy", "metrics.eval", None, None),
    (vmp, "nmi", "metrics.eval", None, None),
    (vmp, "effective_components", "metrics.eval", None, None),
    (scdc, "clustering_accuracy", "metrics.eval", None, None),
    (scdc, "nmi", "metrics.eval", None, None),
]


class Tracer:
    """Context manager that patches every target and records spans.

    `spans` holds [name, parent index or -1, start, end] per call, in
    call order; `counts` holds the extra counters.  Used once: patching
    happens on enter and every original attribute is put back on exit,
    also when the traced code raises.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self):
        try:
            for owner, attr, name, counter, count in TARGETS:
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(original, name, counter, count))
                self._saved.append((owner, attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def span(self, name):
        """Record a span around a block of the benchmark's own code."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, perf_counter(), None])
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][3] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, counter, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                self.counts[counter] += count(args, kwargs, result)
            return result

        return traced


def summarize(spans) -> dict:
    """Per span name: calls, total seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    children, which run inside it one after another.  Total time counts
    only spans with no ancestor of the same name, so recursion is not
    counted twice.
    """
    durations = [end - start for _, _, start, end in spans]
    child_time = [0.0] * len(spans)
    for (_, parent, _, _), duration in zip(spans, durations):
        if parent >= 0:
            child_time[parent] += duration
    out: dict = {}
    for index, (name, parent, _, _) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += durations[index] - child_time[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][1]
        if ancestor < 0:
            row["total_s"] += durations[index]
    return out
