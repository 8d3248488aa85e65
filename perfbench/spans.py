"""In-memory span tracer for the traced run, and the per-layer metrics.

Tracing is done from the benchmark's own files: ``Tracer.install`` replaces
public functions at the module attributes where their callers look them
up, and ``uninstall`` puts the originals back, so no file under ``src/``
changes and untraced ops run the program exactly as shipped.  Each wrapper
records a span (name, start, end, parent, op id, error flag).  numpy's
rfft/irfft are counted, not spanned: a construct makes thousands of them.

Everything runs on one thread with no queues, so no layer ever waits on
another and there is no wait-time metric.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import time
from collections import defaultdict

import numpy as np

#: (module, attribute, span name).  The same function is wrapped at every
#: module that imported it by name, since that is where calls look it up.
TARGETS = (
    ("ma_singular.cli", "classify_curve", "curves.classify_curve"),
    ("ma_singular.extract", "classify_curve", "curves.classify_curve"),
    ("ma_singular.cli", "march", "march.march"),
    ("ma_singular.march", "assemble_rhs", "march.assemble_rhs"),
    ("ma_singular.geometry", "assemble_rhs", "march.assemble_rhs"),
    ("ma_singular.march", "stability_monitor", "march.stability_monitor"),
    ("ma_singular.cli", "eval_field", "coeffs.eval_field"),
    ("ma_singular.march", "eval_field", "coeffs.eval_field"),
    ("ma_singular.geometry", "eval_field", "coeffs.eval_field"),
    ("ma_singular.cli", "jacobian", "geometry.jacobian"),
    ("ma_singular.cli", "reconstruct_graph", "geometry.reconstruct_graph"),
    ("ma_singular.cli", "pde_residual", "geometry.pde_residual"),
    ("ma_singular.geometry", "hessian_from_strip", "geometry.hessian_from_strip"),
    ("ma_singular.cli", "reflect_solution", "geometry.reflect_solution"),
    ("ma_singular.cli", "patch_to_csv", "geometry.patch_to_csv"),
    ("ma_singular.cli", "patch_from_csv", "geometry.patch_from_csv"),
    ("ma_singular.cli", "patch_sampler", "extract.patch_sampler"),
    ("ma_singular.extract", "PatchSampler.__call__", "extract.sampler"),
    ("ma_singular.cli", "limit_gradient", "extract.limit_gradient"),
    ("ma_singular.cli", "hausdorff_distance", "extract.hausdorff_distance"),
    ("ma_singular.cli", "curves_overlay_svg", "svgplot.curves_overlay_svg"),
    ("ma_singular.cli", "image_curves_svg", "svgplot.image_curves_svg"),
    ("ma_singular.cli", "residual_strip_svg", "svgplot.residual_strip_svg"),
)

COMMANDS = ("construct", "roundtrip", "verify", "plot")
MARCH_STATUSES = ("completed", "box-exit", "instability-abort", "ellipticity",
                  "non-finite")


def _resolve(module: str, attribute: str):
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Spans and FFT counts of traced ops, kept in memory until the end."""

    def __init__(self, targets=TARGETS):
        self.t0 = time.perf_counter()
        self.op_id = -1
        self.names, self.start, self.end = [], [], []
        self.parent, self.op, self.error = [], [], []
        self.march_result = {}          # span index -> (status, levels)
        self.fft_calls = defaultdict(int)
        self.fft_points = defaultdict(int)
        self._stack = []
        self._patches = []
        for module, attribute, name in targets:
            owner, attr = _resolve(module, attribute)
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original, self._wrap(name, original)))
        for attr in ("rfft", "irfft"):
            original = getattr(np.fft, attr)
            self._patches.append((np.fft, attr, original,
                                  self._count_fft(original, attr == "irfft")))

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.error.append(False)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, error: bool = False) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self.error[idx] = error

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(idx, error=True)
                raise
            self.close(idx)
            if name == "march.march":
                self.march_result[idx] = (result.status, result.n_levels)
            return result
        return traced

    def _count_fft(self, fn, inverse: bool):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            if self._stack:  # only inside command spans
                self.fft_calls[self.op_id] += 1
                # Real samples transformed: irfft's output, rfft's input.
                self.fft_points[self.op_id] += out.size if inverse else np.size(a)
            return out
        return counted

    def install(self, op_id: int) -> None:
        self.op_id = op_id
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("op,span,name,parent,start_s,end_s,error\n")
            for i, name in enumerate(self.names):
                fh.write(f"{self.op[i]},{i},{name},{self.parent[i]},"
                         f"{self.start[i] - self.t0!r},{self.end[i] - self.t0!r},"
                         f"{int(self.error[i])}\n")

    def layer_metrics(self, ops) -> dict:
        """Per-op layer metrics over the traced ops listed in ``ops``."""
        ops = set(ops)
        n_ops = len(ops)
        total = defaultdict(float)      # inclusive seconds by name
        own = defaultdict(float)        # self seconds by name
        calls = defaultdict(int)
        errors = defaultdict(int)
        per_call = defaultdict(list)
        child = defaultdict(float)
        march_of = {}                   # span -> enclosing march span or -1
        monitors = defaultdict(int)     # march span -> monitor calls inside
        rhs_in_march = rhs_outside = 0
        spans = 0
        for i, name in enumerate(self.names):
            p = self.parent[i]
            march_of[i] = i if name == "march.march" else march_of.get(p, -1)
            if self.op[i] not in ops:
                continue
            spans += 1
            duration = self.end[i] - self.start[i]
            child[p] += duration
            total[name] += duration
            calls[name] += 1
            errors[name] += self.error[i]
            if name in ("march.assemble_rhs", "march.stability_monitor",
                        "coeffs.eval_field"):
                per_call[name].append(duration)
            if name == "march.assemble_rhs":
                if march_of[i] >= 0:
                    rhs_in_march += 1
                else:
                    rhs_outside += 1
            if name == "march.stability_monitor" and march_of[i] >= 0:
                monitors[march_of[i]] += 1
        for i, name in enumerate(self.names):
            if self.op[i] in ops:
                own[name] += self.end[i] - self.start[i] - child[i]

        stored = skipped = 0
        status = defaultdict(int)
        for idx, (st, levels) in self.march_result.items():
            if self.op[idx] in ops:
                stored += levels
                status[st] += 1
                # Each monitored level after the axis is stored, skipped, or
                # (the second in a row over threshold) the abort.
                skipped += (monitors[idx] - levels
                            - (st == "instability-abort"))

        def per_op(value):
            return value / n_ops

        def median_us(name):
            values = per_call[name]
            return 1e6 * statistics.median(values) if values else 0.0

        m = {}
        for cmd in COMMANDS:
            m[f"cli.{cmd}.self_s"] = per_op(own[f"cli.{cmd}"])
        m["curves.classify_curve.calls"] = per_op(calls["curves.classify_curve"])
        m["curves.classify_curve.s"] = per_op(total["curves.classify_curve"])
        m["march.march.s"] = per_op(total["march.march"])
        m["march.steps"] = per_op(math.ceil(rhs_in_march / 4))
        m["march.levels_stored"] = per_op(stored)
        m["march.levels_skipped"] = per_op(skipped)
        m["march.assemble_rhs.calls"] = per_op(calls["march.assemble_rhs"])
        m["march.assemble_rhs.us"] = median_us("march.assemble_rhs")
        m["march.stability_monitor.us"] = median_us("march.stability_monitor")
        m["coeffs.eval_field.calls"] = per_op(calls["coeffs.eval_field"])
        m["coeffs.eval_field.us"] = median_us("coeffs.eval_field")
        m["fft.calls"] = per_op(sum(self.fft_calls[o] for o in ops))
        m["fft.points"] = per_op(sum(self.fft_points[o] for o in ops))
        for name in ("jacobian", "reconstruct_graph", "pde_residual",
                     "reflect_solution", "patch_to_csv", "patch_from_csv"):
            m[f"geometry.{name}.s"] = per_op(total[f"geometry.{name}"])
        m["geometry.hessian_from_strip.calls"] = per_op(
            calls["geometry.hessian_from_strip"])
        m["geometry.rhs_passes_per_level"] = (rhs_outside / stored
                                              if stored else 0.0)
        m["extract.patch_sampler.s"] = per_op(total["extract.patch_sampler"])
        m["extract.sampler.calls"] = per_op(calls["extract.sampler"])
        m["extract.sampler.s"] = per_op(total["extract.sampler"])
        m["extract.limit_gradient.self_s"] = per_op(own["extract.limit_gradient"])
        m["extract.hausdorff_distance.s"] = per_op(
            total["extract.hausdorff_distance"])
        m["svgplot.s"] = per_op(sum(v for k, v in total.items()
                                    if k.startswith("svgplot.")))
        for st in MARCH_STATUSES:
            m[f"march.status.{st}"] = per_op(status[st])
        for name in error_span_names():
            m[f"{name}.errors"] = per_op(errors[name])
        m["trace.spans"] = per_op(spans)
        return m


def error_span_names() -> list:
    """Every span name, in a fixed order, for the ``.errors`` counts."""
    names = [f"cli.{cmd}" for cmd in COMMANDS]
    for _, _, name in TARGETS:
        if name not in names:
            names.append(name)
    return names
