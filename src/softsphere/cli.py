"""Command-line front end: run scenes, sweep update thresholds, compare methods.

Exit codes: 0 on success, 2 for bad scene descriptions or arguments (a
value out of range or not finite, an empty number list and an ``--out``
path that cannot be written included), 3 when a run aborts midway
because the solver goes unstable or a deforming mesh produces a degenerate
triangle (the partial CSV is kept).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional

from .harness import DEFAULT_D_GRID, run_each, run_scene, summarize
from .mesh import MeshError
from .pbd import SolverInstabilityError
from .scenes import (BUILTIN_SCENES, METHODS, SceneConfig, SceneError,
                     builtin_scene, parse_scene_file)


def _load_scene(spec: str, args: argparse.Namespace) -> SceneConfig:
    """Resolve a scene argument: a built-in name or an INI file path."""
    overrides = {}
    for attr, key in (("frames", "frames"), ("seed", "seed"),
                      ("method", "method"), ("iterations", "iterations"),
                      ("d", "update_threshold")):
        value = getattr(args, attr, None)
        if value is not None:
            overrides[key] = value
    if spec in BUILTIN_SCENES:
        config = builtin_scene(spec)
    else:
        path = Path(spec)
        if not path.exists():
            raise SceneError(f"'{spec}' is neither a built-in scene "
                             f"({', '.join(sorted(BUILTIN_SCENES))}) nor a file")
        config = parse_scene_file(path)
    return replace(config, **overrides)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("scene",
                        help="built-in scene name or path to a scene INI file")
    parser.add_argument("--out", help="write per-frame metrics CSV here")
    parser.add_argument("--frames", type=int, help="override frame count")
    parser.add_argument("--seed", type=int, help="override random seed")
    parser.add_argument("--iterations", type=int,
                        help="override solver iterations")


def _parse_floats(text: str, what: str) -> List[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        values = []
    if not values:
        raise SceneError(f"bad {what} list: '{text}'")
    return values


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_scene(args.scene, args)
    result = run_scene(config, out_path=args.out)
    summary = summarize(result)
    print(f"scene '{config.name}': {len(result.metrics)} frames, "
          f"method {config.method}")
    print(f"  mean detect {summary['mean_detect_time_s'] * 1e3:.3f} ms, "
          f"mean solve {summary['mean_solve_time_s'] * 1e3:.3f} ms")
    print(f"  rebuilds total {summary['total_rebuilds']}, "
          f"mean contacts {summary['mean_validated_contacts']:.1f} "
          f"(raw {summary['mean_raw_contacts']:.1f})")
    print(f"  mean stability {summary['mean_stability_m']:.6g} m, "
          f"final tunneled {summary['final_tunneled']}")
    if args.out:
        print(f"  metrics: {args.out}")
    return 0


def _run_and_tabulate(args: argparse.Namespace, config: SceneConfig,
                      field: str, values: List, title: str) -> int:
    """``run_each`` over ``values``, then one table line per run."""
    rows = run_each(config, field, values, out_path=args.out)
    print(title)
    print(f"  {field:>16}  {'rebuilds/frame':>14}  {'detect ms':>10}  "
          f"{'solve ms':>9}  {'contacts':>9}  {'stability':>12}  "
          f"{'tunneled':>8}")
    for row in rows:
        print(f"  {row[field]!s:>16}  "
              f"{row['mean_rebuilds_per_frame']:>14.1f}  "
              f"{row['mean_detect_time_s'] * 1e3:>10.3f}  "
              f"{row['mean_solve_time_s'] * 1e3:>9.3f}  "
              f"{row['mean_validated_contacts']:>9.1f}  "
              f"{row['mean_stability_m']:>12.6g}  "
              f"{row['final_tunneled']:>8}")
    if args.out:
        print(f"  summary: {args.out}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_scene(args.scene, args)
    d_values = (_parse_floats(args.d_list, "threshold") if args.d_list
                else list(DEFAULT_D_GRID))
    return _run_and_tabulate(args, config, "update_threshold", d_values,
                             f"scene '{config.name}', method "
                             f"{config.method}: update-threshold sweep")


def _cmd_compare(args: argparse.Namespace) -> int:
    config = _load_scene(args.scene, args)
    methods = (args.methods.split(",") if args.methods else list(METHODS))
    for m in methods:
        if m not in METHODS:
            raise SceneError(f"unknown method '{m}' (expected one of {METHODS})")
    return _run_and_tabulate(args, config, "method", methods,
                             f"scene '{config.name}': method comparison")


def _cmd_scenes(_args: argparse.Namespace) -> int:
    for name in sorted(BUILTIN_SCENES):
        print(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="softsphere",
        description="Deformable-body collision simulation with "
                    "curvature-adaptive sphere detection.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate one scene")
    _add_common(run_p)
    run_p.add_argument("--method", choices=METHODS,
                       help="override detection method")
    run_p.add_argument("--d", type=float,
                       help="override the sphere update threshold")
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep",
                             help="sweep the sphere update threshold")
    _add_common(sweep_p)
    sweep_p.add_argument("--method", choices=METHODS,
                         help="override detection method")
    sweep_p.add_argument("--d", dest="d_list",
                         help="comma-separated threshold values "
                              "(default: 0,0.3,0.7,0.9,1.5,2)")
    sweep_p.set_defaults(func=_cmd_sweep)

    cmp_p = sub.add_parser("compare",
                           help="run each detection method on one scene")
    _add_common(cmp_p)
    cmp_p.add_argument("--methods",
                       help="comma-separated method names (default: all)")
    cmp_p.set_defaults(func=_cmd_compare)

    scenes_p = sub.add_parser("scenes", help="list built-in scenes")
    scenes_p.set_defaults(func=_cmd_scenes)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SceneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        if exc.filename is None:  # not a file's fault: a closed pipe, say
            raise
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    except SolverInstabilityError as exc:
        print(f"solver instability: {exc}", file=sys.stderr)
        return 3
    except MeshError as exc:
        # scene loading wraps mesh errors as SceneError, so this one came
        # from a mesh that degenerated mid-run
        print(f"degenerate mesh: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
