"""Spans around the layer entry points as ``softsphere.harness`` binds them.

``Tracer`` replaces the harness module's references to each layer's public
functions with wrappers that record a span (name, start, end, parent, round,
frame) plus the counts the call returns.  Layer names are the softsphere
module names.  Spans stay in memory until ``write`` dumps them as JSON lines.

While tracing, every ``narrow_phase`` call is checked against the
brute-force oracle in ``checks``; the oracle's time is recorded on the frame
and subtracted from every frame figure.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Dict, List

from softsphere import harness

from checks import narrow_phase_oracle


def _counts_update(args, result):
    return {"rebuilds": result}


def _counts_broad(args, result):
    return {"pairs": len(result)}


def _counts_solve(args, result):
    _state, distance, collision, config = args[:4]
    return {"projections": config.iterations * (len(distance) + len(collision)),
            "residual_m": result[-1]}


# harness attribute -> (span name, count extractor)
LAYER_CALLS = {
    "generate_scene": ("scenes.generate_scene", None),
    "compute_curvature": ("mesh.compute_curvature", None),
    "build_sphere_set": ("spheres.build_sphere_set", None),
    "update_spheres": ("spheres.update_spheres", _counts_update),
    "object_bounding_sphere": ("detect.object_bounding_sphere", None),
    "broad_phase": ("detect.broad_phase", _counts_broad),
    "narrow_phase": ("detect.narrow_phase", None),
    "predict": ("pbd.predict", None),
    "solve_step": ("pbd.solve_step", _counts_solve),
    "stability_metric": ("harness.stability_metric", None),
    "tunneled_count": ("harness.tunneled_count", None),
}


class Tracer:
    """Records spans in memory; install() wraps the harness bindings.

    Layer spans are flat: none of the wrapped functions calls another
    through the harness.  The runner marks set-up and frame boundaries;
    closing one adds its root span and makes it the parent of every span
    recorded since it began.
    """

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.round = 0
        self.frame = -1
        self.oracle_s = 0.0
        self.oracle_failures: List[str] = []
        self.t0 = perf_counter()
        self._first = 0
        self._saved: Dict[str, object] = {}

    # -- spans -------------------------------------------------------------

    def begin(self, frame: int) -> None:
        """Start a set-up (frame -1) or a frame: later spans belong to it."""
        self.frame = frame
        self.oracle_s = 0.0
        self._first = len(self.spans)

    def end(self, start: float, stop: float, **attrs) -> None:
        """Close what ``begin`` started, as a root span from start to stop."""
        name = "harness.setup" if self.frame < 0 else "harness.frame"
        root = len(self.spans)
        for span in self.spans[self._first:]:
            span["parent"] = root
        self.spans.append(dict(name=name, start=start, end=stop, parent=None,
                               round=self.round, frame=self.frame, **attrs))

    def _span(self, name: str, start: float, stop: float) -> dict:
        span = {"name": name, "start": start, "end": stop, "parent": None,
                "round": self.round, "frame": self.frame}
        self.spans.append(span)
        return span

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn, counts):
        def traced(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            span = self._span(name, start, perf_counter())
            if counts is not None:
                span.update(counts(args, result))
            return result
        return traced

    def _wrap_narrow(self, fn):
        traced = self._wrap("detect.narrow_phase", fn, None)

        def checked(pair, objects, params, two_sided=True):
            contacts, raw = traced(pair, objects, params, two_sided=two_sided)
            span = self.spans[-1]
            span.update(raw=raw, validated=len(contacts))
            t = perf_counter()
            broken = narrow_phase_oracle(pair, objects, params, two_sided,
                                         contacts, raw)
            self.oracle_s += perf_counter() - t
            self.oracle_failures.extend(
                f"round {self.round} frame {self.frame}: {b}" for b in broken)
            return contacts, raw
        return checked

    def install(self) -> None:
        for attr, (name, counts) in LAYER_CALLS.items():
            fn = getattr(harness, attr)
            self._saved[attr] = fn
            if attr == "narrow_phase":
                setattr(harness, attr, self._wrap_narrow(fn))
            else:
                setattr(harness, attr, self._wrap(name, fn, counts))

    def uninstall(self) -> None:
        for attr, fn in self._saved.items():
            setattr(harness, attr, fn)
        self._saved = {}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                row = dict(span, start=span["start"] - self.t0,
                           end=span["end"] - self.t0)
                fh.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

DETECT_CHILDREN = ("detect.object_bounding_sphere", "detect.broad_phase",
                   "spheres.update_spheres", "detect.narrow_phase")
SCORING = ("harness.stability_metric", "harness.tunneled_count")


def frame_breakdown(tracer: Tracer):
    """Per-frame seconds by span name, plus the derived residues.

    ``detect.other`` is the program's own detect time minus its timed
    children; ``harness.self`` is the frame wall time minus every timed
    span.  Both come out in seconds and must not be negative.
    """
    rows = []
    children = defaultdict(lambda: defaultdict(float))
    counts = defaultdict(lambda: defaultdict(float))
    for span in tracer.spans:
        if span["parent"] is None:
            continue
        secs = children[span["parent"]]
        secs[span["name"]] += span["end"] - span["start"]
        for key in ("rebuilds", "pairs", "raw", "validated", "projections",
                    "residual_m"):
            if key in span:
                counts[span["parent"]][key] += span[key]
    for index, span in enumerate(tracer.spans):
        if span["name"] != "harness.frame":
            continue
        secs = dict(children[index])
        detect = span["detect_s"] - span.get("oracle_s", 0.0)
        secs["detect.other"] = detect - sum(secs.get(n, 0.0)
                                            for n in DETECT_CHILDREN)
        top = (secs.get("pbd.predict", 0.0) + detect
               + secs.get("pbd.solve_step", 0.0)
               + sum(secs.get(n, 0.0) for n in SCORING))
        secs["harness.self"] = span["wall_s"] - top
        secs["wall"] = span["wall_s"]
        rows.append((secs, counts[index]))
    return rows


def setup_breakdown(tracer: Tracer) -> List[Dict[str, float]]:
    """Seconds by span name under each set-up span."""
    out = {index: defaultdict(float)
           for index, span in enumerate(tracer.spans)
           if span["name"] == "harness.setup"}
    for span in tracer.spans:
        if span["parent"] in out:
            out[span["parent"]][span["name"]] += span["end"] - span["start"]
    return list(out.values())


def layer_metrics(tracer: Tracer, untraced_p50_ms: float):
    """Per-layer metrics, and any frame whose spans do not add up.

    Times are means per frame, so that the timed spans plus
    ``harness.self_ms`` add up to ``harness.frame_ms``.  The tracing
    overhead compares frame-time medians, traced against untraced.
    """
    rows = frame_breakdown(tracer)
    n = len(rows)
    problems = [f"frame {k}: {name} is {secs[name] * 1e3:.4f} ms"
                for k, (secs, _) in enumerate(rows)
                for name in ("detect.other", "harness.self")
                if secs[name] < 0]

    def mean_ms(*names):
        return 1e3 * sum(secs.get(m, 0.0) for secs, _ in rows
                         for m in names) / n

    def total(key):
        return sum(c.get(key, 0.0) for _, c in rows)

    setups = setup_breakdown(tracer)

    def setup_s(name):
        return statistics.median(s.get(name, 0.0) for s in setups)

    solve_s = sum(secs.get("pbd.solve_step", 0.0) for secs, _ in rows)
    traced_p50_ms = 1e3 * statistics.median(secs["wall"] for secs, _ in rows)
    values = {
        "scenes.generate_scene_s": (setup_s("scenes.generate_scene"), "s"),
        "mesh.compute_curvature_s": (setup_s("mesh.compute_curvature"), "s"),
        "spheres.build_sphere_set_s": (setup_s("spheres.build_sphere_set"),
                                       "s"),
        "spheres.update_spheres_ms": (mean_ms("spheres.update_spheres"), "ms"),
        "spheres.rebuilds": (total("rebuilds") / n, "count"),
        "detect.object_bounds_ms": (
            mean_ms("detect.object_bounding_sphere"), "ms"),
        "detect.broad_phase_ms": (mean_ms("detect.broad_phase"), "ms"),
        "detect.candidate_pairs": (total("pairs") / n, "count"),
        "detect.narrow_phase_ms": (mean_ms("detect.narrow_phase"), "ms"),
        "detect.raw_overlaps": (total("raw") / n, "count"),
        "detect.validated_contacts": (total("validated") / n, "count"),
        "detect.cone_keep_ratio": (
            total("validated") / max(total("raw"), 1.0), "ratio"),
        "detect.other_ms": (mean_ms("detect.other"), "ms"),
        "pbd.predict_ms": (mean_ms("pbd.predict"), "ms"),
        "pbd.solve_ms": (mean_ms("pbd.solve_step"), "ms"),
        "pbd.projections": (total("projections") / n, "count"),
        "pbd.ns_per_projection": (
            1e9 * solve_s / max(total("projections"), 1.0), "ns"),
        "pbd.residual_m": (total("residual_m") / n, "m"),
        "harness.scoring_ms": (mean_ms(*SCORING), "ms"),
        "harness.self_ms": (mean_ms("harness.self"), "ms"),
        "harness.frame_ms": (mean_ms("wall"), "ms"),
        "trace.overhead_pct": (
            100.0 * (traced_p50_ms - untraced_p50_ms) / untraced_p50_ms, "%"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, problems
