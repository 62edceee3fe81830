"""The three workloads and the frame loop that times and checks them.

Each workload is a built-in scene at its shipped settings (method
``circumsphere``), with the benchmark's seed passed as ``SceneConfig.seed``.
A round is one call into ``softsphere.harness.run_scene``; a run repeats
whole rounds, so every run attempts the same frames in the same proportion.

Timing comes from outside the program.  The first ``predict`` call of a
round marks the end of set-up; the frame hook marks the end of each frame.
The hook's own checking time is excluded from every frame figure.
"""

from __future__ import annotations

import resource
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, List, Optional

import numpy as np

from softsphere import harness
from softsphere.scenes import builtin_scene

from checks import ClothDrapeCheck, FloorDropCheck, ShellImpactCheck
from tracing import Tracer, layer_metrics


@dataclass(frozen=True)
class Workload:
    scene: str
    checker: type


WORKLOADS = {
    "cloth-drape": Workload("cloth-over-sphere", ClothDrapeCheck),
    "shell-impact": Workload("two-sphere-impact", ShellImpactCheck),
    "floor-drop": Workload("sphere-drop-on-plane", FloorDropCheck),
}

# set-up time is the median of at least this many set-ups per run
SETUP_SAMPLES = 7


@dataclass
class Round:
    """What one simulated scene produced."""

    setup_s: float = 0.0
    frame_s: List[float] = field(default_factory=list)
    detect_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    contact_frames: int = 0
    problems: List[str] = field(default_factory=list)


class _SetupDone(Exception):
    """Raised at the first predict call to stop a set-up-only round."""


def simulate(config, checker_cls, tracer: Optional[Tracer] = None) -> Round:
    """Run one round, timing set-up and frames and checking every frame.

    A frame fails if it breaks a check, or if the program raises during it;
    the frames that a raise leaves unsimulated fail too.
    """
    out = Round(attempted=config.frames)
    checker = checker_cls(config)
    inner = harness.predict
    mark = {}
    in_hook = False

    def first_predict(state, solver_cfg):
        harness.predict = inner
        checker.start(state)
        mark["t"] = perf_counter()
        out.setup_s = mark["t"] - mark["call"]
        if tracer is not None:
            tracer.end(mark["call"], mark["t"])
            tracer.begin(0)
        return inner(state, solver_cfg)

    def hook(frame, world, row, _predicted):
        nonlocal in_hook
        in_hook = True
        stop = perf_counter()
        excluded = tracer.oracle_s if tracer is not None else 0.0
        wall = stop - mark["t"] - excluded
        out.frame_s.append(wall)
        out.detect_s.append(row.detect_time_s - excluded)
        if tracer is not None:
            tracer.end(mark["t"], stop, wall_s=wall,
                       detect_s=row.detect_time_s, oracle_s=excluded)
        out.contact_frames += row.validated_contacts > 0
        broken = checker.frame(world)
        if broken:
            out.failed += 1
            out.problems.append(f"frame {frame}: {'; '.join(broken)}")
        if tracer is not None:
            tracer.begin(frame + 1)
        in_hook = False
        mark["t"] = perf_counter()

    harness.predict = first_predict
    if tracer is not None:
        tracer.begin(-1)
    mark["call"] = perf_counter()
    try:
        harness.run_scene(config, frame_hook=hook)
    except Exception as exc:  # the program's fault: count it, keep running
        if in_hook:
            raise
        done = len(out.frame_s)
        out.failed += config.frames - done
        out.problems.append(f"frame {done}: raised {exc!r}")
    finally:
        harness.predict = inner
    if out.contact_frames == 0:
        out.problems.append("no frame had a validated contact")
    return out


def setup_only(config, tracer: Optional[Tracer] = None) -> float:
    """Seconds from the call into the harness to the start of frame 0."""
    inner = harness.predict
    mark = {}

    def stop(state, solver_cfg):
        mark["t"] = perf_counter()
        raise _SetupDone

    harness.predict = stop
    if tracer is not None:
        tracer.round += 1
        tracer.begin(-1)
    start = perf_counter()
    try:
        harness.run_scene(config)
    except _SetupDone:
        pass
    finally:
        harness.predict = inner
    if tracer is not None:
        tracer.end(start, mark["t"])
    return mark["t"] - start


def run_rounds(one_round: Callable, seconds: float) -> list:
    """Call ``one_round`` for whole rounds filling about ``seconds``.

    At least one round always runs; another starts only if a round as long
    as the last one still ends within ``seconds``.
    """
    start = perf_counter()
    out = []
    while True:
        t = perf_counter()
        out.append(one_round())
        last = perf_counter() - t
        if perf_counter() - start + last > seconds:
            return out


def _setups(config, rounds: List[Round], tracer: Optional[Tracer]) -> List[float]:
    """Set-up times of the rounds, topped up to SETUP_SAMPLES."""
    times = [r.setup_s for r in rounds]
    while len(times) < SETUP_SAMPLES:
        times.append(setup_only(config, tracer))
    return times


def _report(rounds: List[Round]):
    problems = [f"round {k}: {p}" for k, r in enumerate(rounds)
                for p in r.problems]
    for line in problems[:20]:
        print(line, file=sys.stderr)
    correct = all(r.contact_frames > 0 for r in rounds)
    return (correct, sum(r.attempted for r in rounds),
            sum(r.failed for r in rounds))


def end_to_end(name: str, seed: int, seconds: float) -> dict:
    """The untraced run: every end-to-end metric.

    The median frame figures are taken per round and the run reports their
    median over rounds, so one round slowed by other load on the machine
    does not move the result.  The 90th percentile pools every frame of
    the run, which puts the most samples in the tail.
    """
    work = WORKLOADS[name]
    config = builtin_scene(work.scene, seed=seed)
    rounds = run_rounds(lambda: simulate(config, work.checker), seconds)
    setups = _setups(config, rounds, None)
    correct, attempted, failed = _report(rounds)

    def per_round(stat):
        return statistics.median(
            stat(1e3 * np.array(r.frame_s), 1e3 * np.array(r.detect_s))
            for r in rounds)

    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "frame_ms_p50": (per_round(lambda f, d: np.median(f)), "ms"),
        "frame_ms_p90": (float(np.percentile(
            [t for r in rounds for t in r.frame_s], 90)) * 1e3, "ms"),
        "detect_ms_p50": (per_round(lambda f, d: np.median(d)), "ms"),
        "frames_per_s": (per_round(lambda f, d: 1e3 * len(f) / f.sum()),
                         "1/s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def per_layer(name: str, seed: int, seconds: float, spans_path) -> dict:
    """The traced run: untraced and traced rounds, alternating.

    The untraced rounds give the base for the tracing overhead; alternating
    keeps warm-up and machine load from landing on one side only.
    """
    work = WORKLOADS[name]
    config = builtin_scene(work.scene, seed=seed)
    tracer = Tracer()

    def pair():
        plain = simulate(config, work.checker)
        tracer.install()
        try:
            return plain, simulate(config, work.checker, tracer)
        finally:
            tracer.uninstall()
            tracer.round += 1

    pairs = run_rounds(pair, seconds)
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    tracer.install()
    try:
        _setups(config, traced, tracer)
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    plain_ms = 1e3 * float(np.median([t for r in plain for t in r.frame_s]))
    metrics, problems = layer_metrics(tracer, plain_ms)
    correct, attempted, failed = _report(plain + traced)
    for line in (tracer.oracle_failures + problems)[:20]:
        print(line, file=sys.stderr)
    correct = correct and not tracer.oracle_failures and not problems
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}
