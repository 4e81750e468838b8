"""Span tracing of the qnspect layers, applied from outside the package.

Every public function of a layer module is wrapped, and the wrapper is
installed at every import site inside the package (modules bind imported
names at import time, so ``qsim.sample_many`` and ``spectro.amplitude_ff``
must be patched as well as the defining module).  Spans are kept in memory;
self time, call counts and work counts are derived from them after a pass.

A span is recorded for each call into a layer from another layer or from
the benchmark; calls a layer makes to its own public functions run inside
the caller's span (their work counts are still recorded), so
``<layer>.calls`` counts calls into the layer.  A span's exclusive time is
its duration minus the time of its direct child spans and of the tracer's
own bookkeeping after each child returns.  Summing exclusive times per layer
attributes every traced instant to the innermost active layer, so the layer
self times plus the unattributed remainder add up to the traced wall time
exactly.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = ("slepian", "waveform", "filterfn", "lp_reduce", "optimize",
          "noisegen", "qsim", "spectro", "cli")

# work counters whose per-pass totals must repeat exactly at one seed
WORK_COUNTS = (
    "qsim.segment_steps",
    "noisegen.trajectories",
    "noisegen.harmonic_terms",
    "filterfn.ff_evals",
    "filterfn.gz_cells",
    "waveform.samples",
    "slepian.samples",
    "spectro.band_integrals",
    "lp_reduce.rows_in",
    "lp_reduce.rows_kept",
    "cli.bytes_written",
    "cli.files_written",
)

# counts derived from array sizes rather than observed directly
COMPUTED_COUNTS = ("noisegen.harmonic_terms", "filterfn.ff_evals", "filterfn.gz_cells",
                   "qsim.segment_steps", "spectro.band_integrals")

# every per-layer metric the traced run reports, with its unit
PER_LAYER_UNITS = {
    **{f"{layer}.{kind}": unit for layer in LAYERS
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    **dict.fromkeys(WORK_COUNTS, "count"),
    "cli.bytes_written": "bytes",
    "qsim.steps_per_s": "1/s",
    "noisegen.samples_per_s": "1/s",
    "filterfn.ff_evals_per_s": "1/s",
    "lp_reduce.keep_ratio": "1",
    "lp_reduce.rows_per_s": "1/s",
    "optimize.build_self_s": "s",
    "optimize.solve_s": "s",
    "proc.ref_kernel_s": "s",
    "proc.cpu_s": "s",
    "proc.cpu_util": "1",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "trace.spans": "count",
}

# span fields
_NAME, _LAYER, _START, _END, _PARENT, _JOB, _CHILD = range(7)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Patches the layer functions of an imported ``qnspect`` and records spans."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.job = None
        self._stack: list[int] = []
        self._paused = 0
        self._patches: list[tuple] = []
        self._harmonics: dict = {}
        noisegen = sys.modules[package.__name__ + ".noisegen"]
        self._psd_eval = noisegen.psd_eval  # unwrapped, for computed counts
        self._waveform_type = sys.modules[package.__name__ + ".waveform"].PiecewiseConstantWaveform
        self._counters = {
            ("qsim", "survival_probabilities"): self._count_survival,
            ("qsim", "propagate"): self._count_propagate,
            ("noisegen", "sample_many"): self._count_sample_many,
            ("filterfn", "amplitude_ff"): self._count_ff,
            ("filterfn", "dephasing_ff"): self._count_ff,
            ("filterfn", "dephasing_ff_dc"): self._count_ff_dc,
            ("filterfn", "higher_order_ff"): self._count_gz,
            ("slepian", "dpss"): self._count_dpss,
            ("spectro", "overlap_matrix"): self._count_overlap,
            ("lp_reduce", "prune_constraints"): self._count_prune,
            ("cli", "main"): self._count_cli,
        }

    # -- installation ---------------------------------------------------

    def install(self):
        prefix = self.package.__name__
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == prefix or name.startswith(prefix + "."))]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{prefix}.{layer}"]
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(obj, layer, name))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, obj))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    @contextlib.contextmanager
    def pause(self):
        """Calls made inside record no spans and no counts (gate checks)."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def reset(self):
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []

    # -- the wrapper ----------------------------------------------------

    def _wrap(self, fn, layer, name):
        counter = self._counters.get((layer, name))
        builds_waveforms = layer == "waveform"

        def count(args, kwargs, result):
            if counter is not None:
                counter(args, kwargs, result)
            if builds_waveforms and isinstance(result, self._waveform_type):
                self.counts["waveform.samples"] += result.n

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            stack = self._stack
            parent = stack[-1] if stack else -1
            if parent >= 0 and self.spans[parent][_LAYER] == layer:
                # a call inside its own layer: no span, its time is the caller's
                result = fn(*args, **kwargs)
                count(args, kwargs, result)
                return result
            span = [name, layer, time.perf_counter(), 0.0, parent, self.job, 0.0]
            index = len(self.spans)
            self.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_END] = time.perf_counter()
                stack.pop()
            self.counts[f"{layer}.calls"] += 1
            count(args, kwargs, result)
            if parent >= 0:
                self.spans[parent][_CHILD] += time.perf_counter() - span[_START]
            return result

        return traced

    # -- work counters (called after the traced call returns) -------------

    def _count_survival(self, args, kwargs, result):
        waveform = _arg(args, kwargs, 0, "waveform")
        self.counts["qsim.segment_steps"] += result.n_realizations * waveform.n

    def _count_propagate(self, args, kwargs, result):
        self.counts["qsim.segment_steps"] += _arg(args, kwargs, 0, "waveform").n

    def _count_sample_many(self, args, kwargs, result):
        model = _arg(args, kwargs, 0, "model")
        n = int(_arg(args, kwargs, 1, "n"))
        dt = float(_arg(args, kwargs, 2, "dt"))
        rows = result.shape[0]
        self.counts["noisegen.trajectories"] += rows
        self.counts["noisegen.samples"] += rows * n
        self.counts["noisegen.harmonic_terms"] += rows * n * self._harmonic_count(model, n, dt)

    def _harmonic_count(self, model, n, dt):
        """Harmonics with nonzero amplitude in the synthesis of ``model`` on (n, dt)."""
        key = (model, n, dt)
        if key not in self._harmonics:
            import numpy as np

            if model.kind == "dc_delta":
                count = 0
            else:
                omegas = np.arange(1, n // 2 + 1) * (2.0 * np.pi / (n * dt))
                count = int(np.count_nonzero(self._psd_eval(model, omegas) > 0.0))
            self._harmonics[key] = count
        return self._harmonics[key]

    def _count_ff(self, args, kwargs, result):
        self.counts["filterfn.ff_evals"] += result.omegas.size * _arg(args, kwargs, 0, "waveform").n

    def _count_ff_dc(self, args, kwargs, result):
        self.counts["filterfn.ff_evals"] += _arg(args, kwargs, 0, "waveform").n

    def _count_gz(self, args, kwargs, result):
        self.counts["filterfn.gz_cells"] += result.values.size

    def _count_dpss(self, args, kwargs, result):
        self.counts["slepian.samples"] += result.sequences.size

    def _count_overlap(self, args, kwargs, result):
        self.counts["spectro.band_integrals"] += result.matrix.size

    def _count_prune(self, args, kwargs, result):
        self.counts["lp_reduce.rows_in"] += _arg(args, kwargs, 0, "full").num_rows
        self.counts["lp_reduce.rows_kept"] += result.num_rows

    def _count_cli(self, args, kwargs, result):
        argv = list(_arg(args, kwargs, 0, "argv"))
        if "--out" not in argv:
            return
        out = argv[argv.index("--out") + 1]
        for entry in os.scandir(out):
            if entry.is_file():
                self.counts["cli.files_written"] += 1
                self.counts["cli.bytes_written"] += entry.stat().st_size

    # -- summaries --------------------------------------------------------

    def layer_self_times(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for span in self.spans:
            out[span[_LAYER]] += (span[_END] - span[_START]) - span[_CHILD]
        return out

    def optimize_split(self) -> tuple[float, float]:
        """(exclusive build_design_problem time, inclusive solve_design time)."""
        build = solve = 0.0
        for span in self.spans:
            if span[_LAYER] == "optimize" and span[_NAME] == "build_design_problem":
                build += (span[_END] - span[_START]) - span[_CHILD]
            elif span[_LAYER] == "optimize" and span[_NAME] == "solve_design":
                solve += span[_END] - span[_START]
        return build, solve

    def span_records(self):
        """Spans as dicts (name, layer, start, end, parent id, job id)."""
        return [
            {"id": i, "name": s[_NAME], "layer": s[_LAYER], "start": s[_START],
             "end": s[_END], "parent": s[_PARENT], "job": s[_JOB]}
            for i, s in enumerate(self.spans)
        ]
