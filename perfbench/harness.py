"""Workloads, measurement loop and correctness gate of the evidfuse benchmark.

Every input is generated from the workload seed; the program sees only
public ``evidfuse`` calls.  The load is closed-loop: one caller, each
operation starts after the previous one returned.  A run is

1. one untimed warm-up (set-up plus one pass), because the first run in
   a process is 1.4-1.7x slower than later ones;
2. untraced passes for ``seconds`` (plus repeated set-ups on
   ``ingest-eval``), reporting each end-to-end metric as the median of
   its samples over the run;
3. with tracing on, the same untraced passes followed by traced ones;
   the per-layer numbers and the tracing overhead come from those.

Readings of the speed gauge (``speed.py``) are taken between the timed
calls, and each timing is scaled by the readings in and around its
interval (``Run.scaled``), so the numbers state the program's cost at
one reference machine speed rather than at the shared host's load of
the moment.  The samples as measured are kept and printed beside them.

Untraced runs take timestamps and gauge readings only around the calls
the benchmark makes itself (``run_experiment``, ``evaluate_checkpoint``,
``load_checkpoint``, ``predict_probs``, ``predict_batch``) and at the
return of ``init_model`` and ``train`` as ``experiment`` calls them, once
per run.

Every operation and correctness check counts as attempted; a failure is
logged with its traceback, counted, and ends only the current pass.
"""

import bisect
import dataclasses
import gc
import hashlib
import json
import logging
import os
import resource
import shutil
import statistics
import sys
import time

import numpy as np

import evidfuse
from evidfuse import data, experiment, model
from evidfuse.config import RunConfig
from evidfuse.data import SyntheticConfig

import speed
import tracing

log = logging.getLogger("perfbench")
now = time.perf_counter

# Quality floor for test AUROC; it must sit below the generator's
# closed-form Bayes-optimal AUROC (0.964 for informativeness 0.3/0.3).
AUROC_FLOOR = 0.80
# predict_probs takes milliseconds, so each pass times it several times
PREDICT_REPEATS = 5
INGEST_SETUP_REPEATS = 5


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str                       # "train": time run_experiment; "ingest": time evaluation
    n: int
    fusion_grouping: str
    encoder: str
    prototypes: int
    batch_size: int
    epochs: int
    n_source_blocks: int = 4
    auroc_floor: float = AUROC_FLOOR
    setup_repeats: int = INGEST_SETUP_REPEATS

    def synthetic(self, seed):
        return SyntheticConfig(n=self.n, d_struct=16, d_embed=8,
                               informativeness=(0.3, 0.3), conflict_rate=0.1, seed=seed)

    def run_config(self, seed, out_dir, manifest=None):
        return RunConfig(
            task=self.name,
            dataset=manifest,
            synthetic=None if manifest else self.synthetic(seed),
            fusion_grouping=self.fusion_grouping,
            n_source_blocks=self.n_source_blocks,
            encoder=self.encoder,
            prototypes=self.prototypes,
            batch_size=self.batch_size,
            max_epochs=self.epochs,
            patience=0,                 # fixed work per run
            seeds=(seed,),
            output_dir=out_dir,
            force=True,
        )


WORKLOADS = {
    w.name: w for w in (
        Workload("train-small-batch", "train", n=5000, fusion_grouping="modalities",
                 encoder="mlp", prototypes=20, batch_size=32, epochs=5),
        Workload("train-many-sources", "train", n=5000, fusion_grouping="data-sources",
                 encoder="resnet", prototypes=100, batch_size=1024, epochs=3),
        Workload("ingest-eval", "ingest", n=25000, fusion_grouping="modalities",
                 encoder="mlp", prototypes=20, batch_size=128, epochs=1),
    )
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "train_samples_per_s": "1/s",
    "eval_s": "s",
    "predict_rows_per_s": "1/s",
    "explain_rows_per_s": "1/s",
    "test_auroc": "ratio",
    "peak_rss_mb": "MB",
}


class PassFailed(Exception):
    """An operation failed; it is already counted and logged."""


class Boundaries:
    """Once-per-run timestamps at the return of ``init_model`` and around
    ``train``, taken where ``experiment`` looks those functions up.

    ``on_return``, when set, runs after each of the two return timestamps
    (a speed-gauge reading) and returns how long it took; ``paused`` sums
    those durations, which the caller takes out of its own timing."""

    def __init__(self):
        self._saved = []
        self.on_return = None
        self.clear()

    def clear(self):
        self.init_done = self.train_start = self.train_done = None
        self.paused = 0.0

    def _returned(self):
        if self.on_return is not None:
            self.paused += self.on_return()

    def install(self):
        init_model, train = experiment.init_model, experiment.train

        def timed_init_model(*args, **kwargs):
            result = init_model(*args, **kwargs)
            self.init_done = now()
            self._returned()
            return result

        def timed_train(*args, **kwargs):
            self.train_start = now()
            result = train(*args, **kwargs)
            self.train_done = now()
            self._returned()
            return result

        self._saved = [("init_model", init_model), ("train", train)]
        experiment.init_model, experiment.train = timed_init_model, timed_train

    def restore(self):
        for attr, original in self._saved:
            setattr(experiment, attr, original)
        self._saved = []


class Run:
    """State of one workload run: paths, counters and metric samples."""

    def __init__(self, workload, seed, work_dir):
        self.w = workload
        self.seed = seed
        self.work_dir = work_dir
        self.data_dir = os.path.join(work_dir, "data")
        self.out_dir = os.path.join(work_dir, "runs")
        self.seed_dir = os.path.join(self.out_dir, workload.name, f"seed_{seed}")
        self.checkpoint = os.path.join(self.seed_dir, "checkpoint.json")
        self.bounds = Boundaries()
        self.attempted = 0
        self.failed = 0
        self.samples = []            # (name, value as measured, start, end)
        self.readings = []           # (time, speed-gauge reading)
        self.manifest = None
        self.test_inputs = None
        self.reference_artifacts = None

    # -- accounting ---------------------------------------------------------

    def op(self, what, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            log.exception("%s: operation %s failed", self.w.name, what)
            raise PassFailed(what) from None

    def check(self, what, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log.error("%s: check %s failed %s", self.w.name, what, detail)

    def record(self, name, value, start=None, end=None):
        """A sample of an end-to-end metric; a timing or a rate gives the
        interval it measured, so that it can be scaled (``scaled``)."""
        self.samples.append((name, value, start, end))

    def gauge(self):
        """Take a speed-gauge reading; returns the seconds it took."""
        t0 = now()
        reading = speed.reference_seconds()
        t1 = now()
        self.readings.append(((t0 + t1) / 2, reading))
        return t1 - t0

    def scaled(self):
        """name -> (values at the reference speed, values as measured).

        A timing or rate is scaled by the mean of the gauge readings
        inside its interval and the nearest one on either side."""
        times = [t for t, _ in self.readings]
        out = {}
        for name, value, start, end in self.samples:
            at_reference = value
            if start is not None and self.readings:
                lo = max(bisect.bisect_right(times, start) - 1, 0)
                hi = bisect.bisect_left(times, end) + 1
                mean = statistics.fmean(r for _, r in self.readings[lo:hi])
                factor = speed.REFERENCE_S / mean
                at_reference = value * factor if END_TO_END_UNITS[name] == "s" else value / factor
            scaled, raw = out.setdefault(name, ([], []))
            scaled.append(at_reference)
            raw.append(value)
        return out

    def clear_samples(self):
        self.samples.clear()
        self.readings.clear()

    def guarded(self, what, fn):
        """Run one pass or set-up; a failure never leaves this boundary."""
        # every training step's tape is a reference cycle: collect the last
        # pass's garbage here, not inside the next pass's timed region
        gc.collect()
        try:
            fn()
        except PassFailed:
            pass
        except Exception:
            self.attempted += 1
            self.failed += 1
            log.exception("%s: %s failed", self.w.name, what)

    # -- shared steps -------------------------------------------------------

    def _artifacts(self):
        digests = {}
        for top in (self.data_dir, self.out_dir):
            for dirpath, _, files in os.walk(top):
                for f in files:
                    path = os.path.join(dirpath, f)
                    with open(path, "rb") as fh:
                        digests[os.path.relpath(path, self.work_dir)] = (
                            hashlib.sha256(fh.read()).hexdigest())
        return digests

    def check_artifacts(self):
        digests = self._artifacts()
        if self.reference_artifacts is None:
            self.reference_artifacts = digests
        changed = sorted(k for k in digests.keys() | self.reference_artifacts.keys()
                         if digests.get(k) != self.reference_artifacts.get(k))
        self.check("artifacts_byte_identical", not changed, changed)

    def _after_experiment(self, summary):
        auroc = summary["per_seed"][str(self.seed)]["auroc"]
        self.check("test_auroc_floor", auroc > self.w.auroc_floor,
                   f"{auroc} <= {self.w.auroc_floor}")
        with open(os.path.join(self.seed_dir, "history.json"), encoding="utf-8") as fh:
            epochs = len(json.load(fh)["history"])
        n_train = int(data.SPLIT_FRACTIONS[0] * self.w.n)
        start, end = self.bounds.train_start, self.bounds.train_done
        self.record("train_samples_per_s", n_train * epochs / (end - start), start, end)
        self.record("test_auroc", auroc)
        self.check_artifacts()

    def _make_test_inputs(self, dataset, config):
        """Test-split model inputs, built as run_experiment builds them."""
        train_set, _, test_set = data.split(dataset, self.seed)
        state = data.fit_preprocess(train_set)
        specs = experiment.resolve_source_specs(config, dataset, state)
        self.test_inputs = experiment.assemble_inputs(
            specs, state, data.apply_preprocess(state, test_set), test_set)

    def evaluate_and_predict(self):
        """Time evaluation, prediction and explanation on the test split,
        with a gauge reading after the first two; returns the seconds the
        readings took."""
        t0 = now()
        report = self.op("evaluate_checkpoint", experiment.evaluate_checkpoint,
                         self.checkpoint, self.manifest)
        t1 = now()
        self.record("eval_s", t1 - t0, t0, t1)
        with open(os.path.join(self.seed_dir, "report.json"), encoding="utf-8") as fh:
            saved = json.load(fh)
        self.check("evaluate_checkpoint_matches_report",
                   json.loads(json.dumps(report)) == saved)
        paused = self.gauge()

        fitted, _ = self.op("load_checkpoint", model.load_checkpoint, self.checkpoint)
        rows = len(self.test_inputs[0])
        for _ in range(PREDICT_REPEATS):
            t0 = now()
            probs = self.op("predict_probs", model.predict_probs, fitted, self.test_inputs)
            t1 = now()
            self.record("predict_rows_per_s", rows / (t1 - t0), t0, t1)
        paused += self.gauge()
        t0 = now()
        preds = self.op("predict_batch", model.predict_batch, fitted, self.test_inputs)
        t1 = now()
        self.record("explain_rows_per_s", rows / (t1 - t0), t0, t1)
        self.check("predict_batch_matches_predict_probs",
                   len(preds) == rows
                   and np.array_equal(np.stack([p.probs for p in preds]), probs))
        return paused

    # -- workload kinds -----------------------------------------------------

    def prepare(self):
        """Write the manifest and build the test inputs.  On ``ingest-eval``
        this is the timed set-up, which also trains the short checkpoint;
        training workloads evaluate their runs against this manifest."""
        ingest = self.w.kind == "ingest"
        if ingest:
            self.gauge()
        t0 = now()
        dataset = self.op("generate_synthetic", data.generate_synthetic,
                          self.w.synthetic(self.seed))
        self.manifest = self.op("write_dataset", data.write_dataset, dataset, self.data_dir)
        config = self.w.run_config(self.seed, self.out_dir,
                                   manifest=self.manifest if ingest else None)
        if ingest:
            self.bounds.clear()
            summary = self.op("run_experiment", experiment.run_experiment, config)
            t1 = now()
            self.record("setup_s", t1 - t0 - self.bounds.paused, t0, t1)
            self._after_experiment(summary)
            self.gauge()
        self._make_test_inputs(dataset, config)

    def one_pass(self):
        t0 = now()
        if self.w.kind == "train":
            self.bounds.clear()
            summary = self.op("run_experiment", experiment.run_experiment,
                              self.w.run_config(self.seed, self.out_dir))
            t1 = now()
            self.record("setup_s", self.bounds.init_done - t0, t0, self.bounds.init_done)
            self.record("run_s", t1 - t0 - self.bounds.paused, t0, t1)
            self._after_experiment(summary)
            self.gauge()
            self.evaluate_and_predict()
        else:
            paused = self.evaluate_and_predict()
            t1 = now()
            self.record("run_s", t1 - t0 - paused, t0, t1)
        self.gauge()

    def measure(self, seconds):
        self.gauge()
        start = now()
        passes = 0
        while passes == 0 or now() - start < seconds:
            self.guarded("pass", self.one_pass)
            passes += 1
        return passes


def _summarize(run):
    """End-to-end value per metric: the median over the run of its samples
    at the reference speed.  Returns (metrics, notes on each sample)."""
    metrics, notes = {}, {}
    for name, (values, raw) in run.scaled().items():
        unit = END_TO_END_UNITS[name]
        metrics[name] = (statistics.median(values), unit)
        notes[name] = f"median of {len(values)}"
        if unit in ("s", "1/s"):
            best = (max if unit == "1/s" else min)(raw)
            notes[name] += f"; as measured: median {statistics.median(raw):.6g}, best {best:.6g}"
    if run.readings:
        readings = [r for _, r in run.readings]
        notes["gauge"] = (f"speed gauge: median {statistics.median(readings):.6g} s over "
                          f"{len(readings)} readings, reference {speed.REFERENCE_S} s")
    return metrics, notes


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(workload, seed, seconds, trace, work_root):
    """One benchmark run; returns the result document, the trace document
    (None untraced) and a note per end-to-end metric on its samples."""
    work_dir = os.path.join(work_root, f"{workload.name}-seed{seed}-pid{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    run = Run(workload, seed, work_dir)
    run.bounds.install()
    run.bounds.on_return = run.gauge
    trace_doc, notes = None, {}
    try:
        run.guarded("warm-up", lambda: (run.prepare(), run.one_pass()))
        if run.manifest is None or run.test_inputs is None:
            raise PassFailed("warm-up set-up")
        run.clear_samples()
        if not trace:
            # ingest set-ups alternate with passes, so both sample the whole
            # run rather than one phase of the machine's speed
            rounds = workload.setup_repeats if workload.kind == "ingest" else 1
            for _ in range(rounds):
                if workload.kind == "ingest":
                    run.guarded("set-up", run.prepare)
                run.measure(seconds / rounds)
            metrics, notes = _summarize(run)
            metrics["peak_rss_mb"] = (_peak_rss_mb(), "MB")
        else:
            run.measure(seconds)
            untraced_run_s = statistics.median(run.scaled()["run_s"][0])
            run.clear_samples()
            # spans of init_model and train must not contain gauge readings
            run.bounds.on_return = None
            tracer = tracing.Tracer(evidfuse)
            tracer.install()
            try:
                run.guarded("traced set-up", run.prepare)
                passes = run.measure(seconds)
            finally:
                tracer.restore()
            traced_run_s = statistics.median(run.scaled()["run_s"][0])
            metrics = tracing.layer_metrics(tracer)
            metrics["trace.passes"] = (passes, "count")
            metrics["trace.untraced_run_s"] = (untraced_run_s, "s")
            metrics["trace.traced_run_s"] = (traced_run_s, "s")
            metrics["trace.overhead_s"] = (traced_run_s - untraced_run_s, "s")
            metrics["trace.overhead_share"] = (
                (traced_run_s - untraced_run_s) / untraced_run_s, "ratio")
            trace_doc = tracer.to_json_dict()
    except PassFailed:
        metrics = {}
    except Exception:
        run.attempted += 1
        run.failed += 1
        log.exception("%s: run failed", workload.name)
        metrics = {}
    finally:
        run.bounds.restore()
        shutil.rmtree(work_dir, ignore_errors=True)

    result = {
        "correct": run.failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, trace_doc, notes


def machine_info(root):
    """What the numbers were measured on, printed with every result."""
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "process_threads": _os_threads(),
        "git_commit": _git_commit(root),
    }


def _os_threads():
    """Threads of this process, BLAS workers included (Linux only)."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def _git_commit(root):
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        with open(os.path.join(git, ref), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def print_result(name, result, notes=None):
    """Human-readable metric lines, then the result as one JSON line."""
    notes = notes or {}
    for metric, entry in result["metrics"].items():
        note = f"  ({notes[metric]})" if metric in notes else ""
        print(f"{name}  {metric} = {entry['value']:.6g} {entry['unit']}{note}")
    if "gauge" in notes:
        print(f"# {name}: {notes['gauge']}")
    rate = result["failed"] / result["attempted"]
    print(f"{name}  error_rate = {rate:.6g} ratio "
          f"({result['failed']} failed of {result['attempted']} attempted)")
    print(json.dumps(result, sort_keys=True))
