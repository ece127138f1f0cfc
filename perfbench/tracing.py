"""In-memory span tracer that swaps evidfuse layer functions for timing
wrappers and turns the recorded spans into per-layer metrics.

Each wrapper is installed at the module or class attribute that callers
look up at call time (``evidfuse.model.evidence_batch``, not the
definition in ``evidfuse.evidential``), so the program's own code runs
unmodified.  A span is ``[name, start, end, parent_index]``; a layer's
self time is its span minus the time its direct child spans cover.
``restore`` puts every original back and must run in ``finally``.
"""

import time
from array import array
from collections import defaultdict


def _patch_points(ev):
    """(owner, attribute, span name) for every traced layer boundary.

    Data functions are wrapped both where ``experiment`` looks them up
    and in ``evidfuse.data``, where the benchmark's own set-up calls them.
    """
    points = [
        (ev.autodiff.Tape, "backward", "autodiff.backward"),
        (ev.encoders.MlpEncoder, "forward", "encoders.forward"),
        (ev.encoders.ResNetEncoder, "forward", "encoders.forward"),
        (ev.encoders.TextHeadEncoder, "forward", "encoders.forward"),
        (ev.model, "loss_and_grad", "model.loss_and_grad"),
        (ev.model, "loss_overall", "model.loss_overall"),
        (ev.model, "evidence_batch", "evidential.evidence_batch"),
        (ev.model, "combine_batch", "model.combine_batch"),
        (ev.model, "init_enn", "evidential.init_enn"),
        (ev.model, "predict_probs", "model.predict_probs"),
        (ev.model, "predict_batch", "model.predict_batch"),
        (ev.model, "load_checkpoint", "model.load_checkpoint"),
        (ev.experiment, "run_experiment", "experiment.run_experiment"),
        (ev.experiment, "evaluate_checkpoint", "experiment.evaluate_checkpoint"),
        (ev.experiment, "init_model", "model.init_model"),
        (ev.experiment, "train", "model.train"),
        (ev.experiment, "predict_probs", "model.predict_probs"),
        (ev.experiment, "save_checkpoint", "model.save_checkpoint"),
        (ev.experiment, "load_checkpoint", "model.load_checkpoint"),
        (ev.experiment, "evaluate", "metrics.evaluate"),
        (ev.metrics, "auroc", "metrics.auroc"),
        (ev.data, "write_dataset", "data.write_dataset"),
    ]
    for fn in ("generate_synthetic", "split", "fit_preprocess", "apply_preprocess",
               "load_dataset"):
        points.append((ev.experiment, fn, f"data.{fn}"))
        points.append((ev.data, fn, f"data.{fn}"))
    return points


# (owner, attribute, counter name): calls too frequent for spans
def _count_points(ev):
    return [(ev.model, "degree_of_conflict", "masses.degree_of_conflict")]


class Tracer:
    """Records spans and counts while installed; one per traced run."""

    def __init__(self, evidfuse):
        self._ev = evidfuse
        # columns, not per-span objects, so the garbage collector does not
        # walk a growing span list during the traced run
        self._names = []
        self._starts = array("d")
        self._ends = array("d")
        self._parents = array("q")
        self.counts = defaultdict(int)
        self.observed = defaultdict(list)   # name -> values seen at a boundary
        self._stack = []
        self._saved = []

    def install(self):
        for owner, attr, name in _patch_points(self._ev):
            self._swap(owner, attr, self._span_wrapper(name, getattr(owner, attr, None)))
        for owner, attr, name in _count_points(self._ev):
            self._swap(owner, attr, self._count_wrapper(name, getattr(owner, attr, None)))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _swap(self, owner, attr, wrapper):
        # a layer a later version renamed or removed is skipped, not fatal;
        # its metrics then read n = 0
        if wrapper is None:
            return
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, name, fn):
        if fn is None:
            return None
        names, starts, ends, parents = self._names, self._starts, self._ends, self._parents
        stack, observe = self._stack, self._observe

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = time.perf_counter()
                stack.pop()
            observe(name, args, result)
            return result

        return traced

    def _count_wrapper(self, name, fn):
        if fn is None:
            return None
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _observe(self, name, args, result):
        """Work counts taken at the boundary where the work happens."""
        if name == "autodiff.backward":
            self.observed["tape_nodes"].append(len(args[0].nodes))
        elif name == "model.train":
            self.observed["epochs_run"].append(len(result.history))
            params = self._ev.model.param_dict(result.model)
            self.observed["n_params"].append(sum(v.size for v in params.values()))
        elif name == "data.load_dataset":
            self.observed["load_rows"].append(result.n)

    @property
    def spans(self):
        """(name, start, end, parent index) per span, in start order."""
        return list(zip(self._names, self._starts, self._ends, self._parents))

    def to_json_dict(self):
        origin = self._starts[0] if self._starts else 0.0
        return {
            "span_fields": ["name", "start_s", "end_s", "parent"],
            "spans": [[n, s - origin, e - origin, p] for n, s, e, p in self.spans],
            "counts": dict(self.counts),
            "observed": {k: list(v) for k, v in self.observed.items()},
        }


def _percentile(values, q):
    """Nearest-rank percentile; None for an empty sample."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[int(rank) - 1]


def _durations(spans, name, parent=None):
    return [
        e - s for n, s, e, p in spans
        if n == name and (parent is None or (p >= 0 and spans[p][0] == parent))
    ]


def _self_times(spans, name):
    child_time = defaultdict(float)
    for _, s, e, p in spans:
        if p >= 0:
            child_time[p] += e - s
    return [e - s - child_time[i] for i, (n, s, e, _) in enumerate(spans) if n == name]


def _children_per_span(spans, parent_name, child_name):
    per_parent = {i: 0 for i, sp in enumerate(spans) if sp[0] == parent_name}
    for n, _, _, p in spans:
        if n == child_name and p in per_parent:
            per_parent[p] += 1
    return list(per_parent.values())


def _median(values):
    """Nearest-rank median, so a count stays a whole number; 0 if empty."""
    return _percentile(values, 50) or 0


# (metric base name, unit, span name, required parent span); each metric
# is reported as .p50, .p90 and .n over the matching spans
TIMED_LAYERS = (
    ("autodiff.backward_ms", "ms", "autodiff.backward", None),
    ("model.loss_and_grad_ms", "ms", "model.loss_and_grad", None),
    ("model.train_s", "s", "model.train", None),
    ("encoders.forward_ms", "ms", "encoders.forward", None),
    ("evidential.evidence_batch_ms", "ms", "evidential.evidence_batch", None),
    ("model.combine_batch_ms", "ms", "model.combine_batch", None),
    ("model.val_loss_s", "s", "model.loss_overall", "model.train"),
    ("evidential.init_enn_s", "s", "evidential.init_enn", None),
    ("model.init_model_s", "s", "model.init_model", None),
    ("data.generate_synthetic_s", "s", "data.generate_synthetic", None),
    ("data.split_s", "s", "data.split", None),
    ("data.fit_preprocess_s", "s", "data.fit_preprocess", None),
    ("data.apply_preprocess_s", "s", "data.apply_preprocess", None),
    ("data.load_dataset_s", "s", "data.load_dataset", None),
    ("data.write_dataset_s", "s", "data.write_dataset", None),
    ("model.save_checkpoint_s", "s", "model.save_checkpoint", None),
    ("model.load_checkpoint_s", "s", "model.load_checkpoint", None),
    ("model.predict_probs_ms", "ms", "model.predict_probs", None),
    ("model.predict_batch_s", "s", "model.predict_batch", None),
    ("metrics.evaluate_ms", "ms", "metrics.evaluate", None),
    ("metrics.auroc_ms", "ms", "metrics.auroc", None),
)
UNIT_SCALE = {"s": 1.0, "ms": 1e3}


def _distribution(out, base, unit, seconds):
    values = [v * UNIT_SCALE[unit] for v in seconds]
    out[f"{base}.p50"] = (_percentile(values, 50) or 0.0, unit)
    out[f"{base}.p90"] = (_percentile(values, 90) or 0.0, unit)
    out[f"{base}.n"] = (len(values), "count")


def layer_metrics(tracer):
    """Per-layer metrics from one traced run: name -> (value, unit)."""
    spans = tracer.spans
    out = {}
    for base, unit, name, parent in TIMED_LAYERS:
        _distribution(out, base, unit, _durations(spans, name, parent))
    # train minus its traced children: Adam updates, batching, dropout masks
    _distribution(out, "model.train_self_s", "s", _self_times(spans, "model.train"))

    loads = zip(tracer.observed["load_rows"], _durations(spans, "data.load_dataset"))
    out["data.load_rows_per_s"] = (_median([rows / dt for rows, dt in loads]), "1/s")
    out["autodiff.tape_nodes_per_step"] = (_median(tracer.observed["tape_nodes"]), "count")
    out["model.train_steps"] = (
        _median(_children_per_span(spans, "model.train", "model.loss_and_grad")), "count")
    out["model.epochs_run"] = (_median(tracer.observed["epochs_run"]), "count")
    out["model.n_params"] = (_median(tracer.observed["n_params"]), "count")
    batches = len(_durations(spans, "model.predict_batch"))
    conflicts = tracer.counts["masses.degree_of_conflict"]
    out["masses.degree_of_conflict_calls"] = (conflicts // batches if batches else 0, "count")
    out["trace.spans"] = (len(spans), "count")
    return out
