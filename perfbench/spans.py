"""In-memory span tracer for the throttleid package, installed from outside.

`install` rebinds public functions of each layer module (plant,
excitation, features, regression, tuning, rollout, pipeline) to timing
wrappers. A name is rebound in its defining module and in every other
throttleid module that imported it, so `pipeline.simulate` and
`plant.simulate` both reach the wrapper; nothing under src/ changes.
`uninstall` puts the original objects back.

Span-level functions record one span each: name, start, end, parent id
and the time covered by their children. Per-step functions (`plant.step`
and the rollout loop's `predict` / `build_row` / `lambda_feature`) are
called ~10^5 times per operation, so they are aggregated as a call count
and busy time instead, and their time counts as child time of the
enclosing span. Calls made from inside a per-step function (e.g. the
`expand` inside a per-step `predict`) pass through untimed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter

import numpy as np

# By module name: the package attribute `throttleid.rollout` is the
# rollout function, not the module.
excitation, features, pipeline, plant, regression, rollout, tuning = (
    importlib.import_module(f"throttleid.{name}") for name in
    ("excitation", "features", "pipeline", "plant", "regression", "rollout", "tuning"))

# Units of the per-layer metrics (declared in BENCHMARK.json) that must
# repeat exactly between traced runs: counts are "count"; byte sizes of
# files the program wrote or read are "B"; bytes and flops derived from
# array shapes are "computed_B" / "computed_flop".
DETERMINISTIC_UNITS = ("count", "B", "computed_B", "computed_flop")


def _arg(fn, args, kwargs, name):
    """Value of parameter `name` in a call of `fn`, however it was passed."""
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


class Tracer:
    """Spans and counters of one traced operation, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.steps: dict[str, list] = {}     # name -> [calls, busy seconds]
        self.counts: Counter = Counter()
        self._stack: list[dict] = []
        self._in_step = False
        self._patches: list[tuple] = []

    # -- wrappers ---------------------------------------------------------
    def _span_wrapper(self, name, fn, post=None, errors=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_step:
                return fn(*args, **kwargs)
            rec = {"id": len(self.spans),
                   "parent": self._stack[-1]["id"] if self._stack else None,
                   "name": name, "start": 0.0, "end": 0.0, "child_s": 0.0}
            self.spans.append(rec)
            self._stack.append(rec)
            rec["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                if errors is not None and isinstance(err, errors[0]):
                    self.counts[errors[1]] += 1
                raise
            finally:
                rec["end"] = time.perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1]["child_s"] += rec["end"] - rec["start"]
            if post is not None:
                post(self.counts, fn, args, kwargs, result)
            return result
        return wrapper

    def _step_wrapper(self, name, fn):
        acc = self.steps.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_step:
                return fn(*args, **kwargs)
            self._in_step = True
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._in_step = False
                acc[0] += 1
                acc[1] += dt
                if self._stack:
                    self._stack[-1]["child_s"] += dt
        return wrapper

    # -- rebinding --------------------------------------------------------
    def _rebind(self, original, wrapper, modules) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def _modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "throttleid" or n.startswith("throttleid."))]

    def function(self, module, attr, post=None, errors=None) -> None:
        """Span-wrap `module.attr` everywhere throttleid binds it."""
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        self._rebind(original, self._span_wrapper(name, original, post, errors),
                     self._modules())

    def method(self, cls, attr, name, post=None) -> None:
        """Span-wrap a plain method or classmethod of `cls`."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self._span_wrapper(name, raw.__func__, post))
        else:
            new = self._span_wrapper(name, raw, post)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, new)

    def per_step(self, module, attr, name, only=None) -> None:
        """Aggregate `module.attr` as calls + busy time, in `only` or everywhere."""
        original = getattr(module, attr)
        self._rebind(original, self._step_wrapper(name, original),
                     [only] if only is not None else self._modules())

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- reductions -------------------------------------------------------
    def busy(self, name) -> float:
        return sum((s["end"] - s["start"] for s in self.spans if s["name"] == name), 0.0)

    def self_time(self, name) -> float:
        return sum((s["end"] - s["start"] - s["child_s"]
                   for s in self.spans if s["name"] == name), 0.0)

    def calls(self, name) -> int:
        return sum(1 for s in self.spans if s["name"] == name)


# -- counters computed from calls ------------------------------------------
def _file_size(counter):
    """Post hook adding the size of the file named by the `path` argument."""
    def post(counts, fn, args, kwargs, result):
        counts[counter] += os.path.getsize(_arg(fn, args, kwargs, "path"))
    return post


def _save_corpus(counts, fn, args, kwargs, manifest):
    out = _arg(fn, args, kwargs, "out_dir")
    files = [e["file"] for e in manifest["segments"]] + ["manifest.json"]
    counts["excitation.save_corpus.bytes"] += sum(
        os.path.getsize(os.path.join(out, f)) for f in files)


def _assemble(counts, fn, args, kwargs, ds):
    counts["features.assemble.rows"] += len(ds)


def _expand(counts, fn, args, kwargs, phi):
    counts["regression.expand.bytes"] += phi.nbytes


def _raw_moments(counts, fn, args, kwargs, result):
    n_rows, width = np.shape(_arg(fn, args, kwargs, "features"))
    t_shape = np.shape(_arg(fn, args, kwargs, "targets"))
    m = t_shape[1] if len(t_shape) == 2 else 1
    # nominal dense GEMM count of X^T X and X^T Y
    counts["regression.raw_moments.flops"] += 2 * n_rows * width * (width + m)


def _fit(counts, fn, args, kwargs, model):
    counts["regression.fit.sweeps"] += int(model.sweeps)
    counts["regression.fit.nnz"] += int(np.count_nonzero(model.K))


def _rollout(counts, fn, args, kwargs, result):
    model = _arg(fn, args, kwargs, "model")
    trace = _arg(fn, args, kwargs, "trace")
    counts["rollout.rollout.steps"] += len(trace) + 1 - model.n
    if isinstance(result, tuple):   # collect_raw=True: (trajectory, raw)
        traj, raw = result
        out = np.column_stack([traj.thrusts, traj.pressures, traj.m_fuel, traj.m_ox])
        counts["rollout.rollout.clamps"] += int(np.any(out != raw, axis=1).sum())


def install(tracer: Tracer) -> None:
    """Wrap every traced function; undo with `tracer.uninstall()`."""
    # Per-step wrappers first, so the span pass below no longer finds the
    # original `predict` bound in the rollout module.
    tracer.per_step(plant, "step", "plant.step")
    tracer.per_step(regression, "predict", "regression.predict", only=rollout)
    tracer.per_step(features, "build_row", "features.build_row", only=rollout)
    tracer.per_step(features, "lambda_feature", "features.lambda_feature", only=rollout)

    tracer.function(plant, "simulate",
                    errors=(plant.PropellantDepletedError, "plant.simulate.depleted"))
    tracer.method(plant.PlantTrajectory, "to_csv", "plant.to_csv",
                  _file_size("plant.to_csv.bytes"))
    tracer.method(plant.PlantTrajectory, "from_csv", "plant.from_csv",
                  _file_size("plant.from_csv.bytes"))
    tracer.function(excitation, "build_corpus")
    tracer.function(excitation, "save_corpus", post=_save_corpus)
    tracer.function(features, "assemble", post=_assemble)
    tracer.function(features, "merge")
    tracer.function(regression, "expand", post=_expand)
    tracer.function(regression, "raw_moments", post=_raw_moments)
    tracer.function(regression, "fit_from_moments", post=_fit,
                    errors=(Exception, "regression.fit_from_moments.failed"))
    tracer.function(regression, "predict")
    tracer.function(tuning, "sweep_mu")
    tracer.function(rollout, "rollout", post=_rollout,
                    errors=(rollout.RolloutDivergenceError, "rollout.rollout.diverged"))
    tracer.function(rollout, "error_windows")
    tracer.function(rollout, "timeseries_csv", post=_file_size("rollout.timeseries_csv.bytes"))
    for attr in ("cmd_gen_data", "cmd_train", "cmd_validate", "load_trajectories"):
        tracer.function(pipeline, attr)


def layer_metrics(tracer: Tracer, names, traced_s: float, untraced_s: float) -> dict:
    """The per-layer metrics `names` of one traced operation, by name.

    `<layer>.<function>.busy_s` / `.self_s` come from the spans; other
    names not computed here are counters kept by the post hooks."""
    t, c = tracer, tracer.counts
    step_calls, _ = t.steps.get("plant.step", [0, 0.0])
    pred_calls, pred_busy = t.steps.get("regression.predict", [0, 0.0])
    sim_busy = t.busy("plant.simulate")
    roll_busy = t.busy("rollout.rollout")
    roll_steps = c["rollout.rollout.steps"]
    fits = t.calls("regression.fit_from_moments")
    fit_busy = t.busy("regression.fit_from_moments")
    values = {
        "plant.simulate.busy_s": sim_busy,
        "plant.simulate.steps": step_calls,
        "plant.simulate.us_per_step": 1e6 * sim_busy / step_calls if step_calls else 0.0,
        "regression.fit_from_moments.calls": fits,
        "regression.fit_from_moments.s_per_fit": fit_busy / fits if fits else 0.0,
        "regression.predict.busy_s": t.busy("regression.predict") + pred_busy,
        "regression.predict.calls": t.calls("regression.predict") + pred_calls,
        "tuning.sweep_mu.fits": sum(
            1 for s in t.spans if s["name"] == "regression.fit_from_moments"
            and s["parent"] is not None
            and t.spans[s["parent"]]["name"] == "tuning.sweep_mu"),
        "rollout.rollout.us_per_step": 1e6 * roll_busy / roll_steps if roll_steps else 0.0,
        "trace.ref_wall_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
    }
    for name in names:
        if name in values:
            continue
        stem, kind = name.rsplit(".", 1)
        if kind == "busy_s":
            values[name] = t.busy(stem)
        elif kind == "self_s":
            values[name] = t.self_time(stem)
        else:
            values[name] = c[name]
    return values
