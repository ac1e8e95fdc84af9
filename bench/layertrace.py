"""Layer tracing from outside the program.

``Tracer.install`` wraps the public functions of the fatcomp layers in every
place where a caller looks them up: module globals (``from .riccati import
first_blowup`` binds a name in ``fatcomp.hopf``), class attributes (bound
methods such as ``CurvatureBlocks.assemble`` are looked up on the class) and
the ``checks.CHECKS`` registry. Each wrapped call records one span
``[name, start, end, parent, row, cpu_start, cpu_end, extra]`` in memory;
``uninstall`` restores the originals. Spans are written out only when the
run ends, and the per-layer metrics are computed from them.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from typing import Callable

import fatcomp
from fatcomp import checks, cli, curvature, hopf, models, riccati, structure

_MODULES = (fatcomp, models, riccati, structure, curvature, hopf, checks, cli)
_WEDGE = ("riccati.wedge_first_zero", "riccati.wedge_det_sign_changes")
LAYERS = ("models", "riccati", "curvature", "hopf", "checks", "cli")


def _steps(sol, evals):
    return len(sol.t_grid) - 1


def _evals(result, evals):
    return evals


def _elapsed(result, evals):
    return [result.name, result.elapsed]


# (module, attribute, span name, extra recorder)
_FUNCTIONS = (
    (models, "blowup_time_kab", "models.blowup_time_kab", None),
    (models, "diameter_certificate", "models.diameter_certificate", None),
    (riccati, "integrate_jacobi", "riccati.integrate_jacobi", _steps),
    (riccati, "first_blowup", "riccati.first_blowup", _evals),
    (riccati, "wedge_first_zero", "riccati.wedge_first_zero", None),
    (riccati, "wedge_det_sign_changes", "riccati.wedge_det_sign_changes", None),
    (hopf, "conjugate_time", "hopf.conjugate_time", None),
    (hopf, "integrate_extremal", "hopf.integrate_extremal", None),
    (hopf, "sublaplacian_along", "hopf.sublaplacian_along", None),
    (checks, "run_check", "checks.run_check", _elapsed),
    (cli, "_blowup_row_kab", "cli._blowup_row_kab", None),
)
_METHODS = ((curvature.CurvatureBlocks, "assemble", "curvature.assemble"),)
# Dense-output evaluations of N(t); counted, not timed, since first_blowup
# makes thousands of them per call.
_COUNTED = ((riccati.JacobiSolution, ("N", "det_N", "sigma_min_N")),)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.row = -1
        self.evals = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._registry: list | None = None

    # -- wrapping ------------------------------------------------------

    def wrap(self, name: str, fn: Callable, extra=None) -> Callable:
        """Return fn recording one span per call; extra(result, evals) fills its last field."""
        cpu = name in _WEDGE
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.row, 0.0, 0.0, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            evals0 = tracer.evals
            if cpu:
                rec[5] = time.process_time()
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                if cpu:
                    rec[6] = time.process_time()
                tracer._stack.pop()
            if extra is not None:
                rec[7] = extra(result, tracer.evals - evals0)
            return result

        return traced

    def _count(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.evals += 1
            return fn(*args, **kwargs)

        return counted

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for module, attr, name, extra in _FUNCTIONS:
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, extra)
            for caller in _MODULES:
                for key, value in list(vars(caller).items()):
                    if value is original:
                        self._set(caller, key, wrapper)
        for cls, attr, name in _METHODS:
            self._set(cls, attr, self.wrap(name, vars(cls)[attr]))
        for cls, attrs in _COUNTED:
            for attr in attrs:
                self._set(cls, attr, self._count(vars(cls)[attr]))
        self._registry = list(checks.CHECKS)
        checks.CHECKS[:] = [(n, self.wrap(f"checks.{n}", fn)) for n, fn in self._registry]

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._registry is not None:
            checks.CHECKS[:] = self._registry
            self._registry = None

    # -- output --------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as f:
            for i, span in enumerate(self.spans):
                f.write(json.dumps({"id": i, **dict(zip(_FIELDS, span))}) + "\n")


_FIELDS = ("name", "start", "end", "parent", "row", "cpu_start", "cpu_end", "extra")


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

def layer_metrics(
    spans: list[list], rounds: int, round_s: float, overhead_pct: float, check_names
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of ``rounds`` identical traced rounds.

    ``check_names`` are the registry checks that get a ``checks.<name>.s``
    metric.

    Counts and self times are per round; durations are medians over calls.
    A layer the workload never enters reads 0.
    """
    durations: dict[str, list[float]] = {}
    selfs: dict[str, list[float]] = {}
    extras: dict[str, list] = {}
    child = [0.0] * len(spans)
    for name, t0, t1, parent, *_ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    module_self = dict.fromkeys(LAYERS, 0.0)
    cpu = wall = 0.0
    for i, (name, t0, t1, parent, row, c0, c1, extra) in enumerate(spans):
        dur = t1 - t0
        durations.setdefault(name, []).append(dur)
        selfs.setdefault(name, []).append(dur - child[i])
        if extra is not None:
            extras.setdefault(name, []).append(extra)
        layer = name.split(".")[0]
        if layer in module_self:
            module_self[layer] += dur - child[i]
        if name in _WEDGE:
            cpu += c1 - c0
            wall += dur

    def p50(name: str, scale: float, source=durations) -> float:
        vals = source.get(name)
        return statistics.median(vals) * scale if vals else 0.0

    def calls(name: str) -> float:
        return len(durations.get(name, ())) / rounds

    m: dict[str, tuple[float, str]] = {}
    m["models.blowup_time_kab.us_p50"] = (p50("models.blowup_time_kab", 1e6), "us")
    m["models.blowup_time_kab.calls"] = (calls("models.blowup_time_kab"), "count")
    m["models.diameter_certificate.self_us_p50"] = (p50("models.diameter_certificate", 1e6, selfs), "us")
    m["riccati.integrate_jacobi.ms_p50"] = (p50("riccati.integrate_jacobi", 1e3), "ms")
    m["riccati.integrate_jacobi.calls"] = (calls("riccati.integrate_jacobi"), "count")
    m["riccati.integrate_jacobi.steps"] = (sum(extras.get("riccati.integrate_jacobi", ())) / rounds, "count")
    m["riccati.first_blowup.self_ms_p50"] = (p50("riccati.first_blowup", 1e3, selfs), "ms")
    m["riccati.first_blowup.calls"] = (calls("riccati.first_blowup"), "count")
    fb_evals = extras.get("riccati.first_blowup", ())
    m["riccati.first_blowup.evals"] = (sum(fb_evals) / len(fb_evals) if fb_evals else 0.0, "count")
    for short in ("wedge_first_zero", "wedge_det_sign_changes"):
        m[f"riccati.{short}.ms_p50"] = (p50(f"riccati.{short}", 1e3), "ms")
        m[f"riccati.{short}.calls"] = (calls(f"riccati.{short}"), "count")
    m["riccati.wedge.cpu_per_wall"] = (cpu / wall if wall > 0.0 else 0.0, "ratio")
    m["curvature.assemble.us_p50"] = (p50("curvature.assemble", 1e6), "us")
    m["curvature.assemble.calls"] = (calls("curvature.assemble"), "count")
    m["hopf.conjugate_time.self_ms_p50"] = (p50("hopf.conjugate_time", 1e3, selfs), "ms")
    m["hopf.integrate_extremal.ms_p50"] = (p50("hopf.integrate_extremal", 1e3), "ms")
    m["hopf.sublaplacian_along.ms_p50"] = (p50("hopf.sublaplacian_along", 1e3), "ms")
    elapsed = dict.fromkeys(check_names, 0.0)
    for name, seconds in extras.get("checks.run_check", ()):
        elapsed[name] += seconds / rounds
    for name, seconds in elapsed.items():
        m[f"checks.{name}.s"] = (seconds, "s")
    for layer, seconds in module_self.items():
        m[f"{layer}.self_s"] = (seconds / rounds, "s")
    m["trace.round_s"] = (round_s, "s")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    return m
