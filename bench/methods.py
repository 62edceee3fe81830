#!/usr/bin/env python3
"""Reference comparison of the three detection methods.

Run from the repository root:

    python3 bench/methods.py

Simulates cloth-drape and floor-drop (seed 0, shipped settings) once with
each method, and reports the program's own per-frame detect time and the
most vertices the benchmark's checks found through the obstacle in any one
frame.  Prints a Markdown table and writes it as CSV to
``bench/runs/methods.csv``.  Takes about half a minute.
"""

import csv

from run import HERE, prepare

METHODS = ("bounding-ball", "circumsphere", "polygon-exact")
WORKLOADS = ("cloth-drape", "floor-drop")
FIELDS = ("workload", "method", "frames", "detect_ms_p50", "detect_ms_mean",
          "max_tunnelled", "tunnelled_frames", "failed_frames")


def compare(name: str, method: str) -> dict:
    import numpy as np
    from softsphere.scenes import builtin_scene
    from workloads import WORKLOADS as TABLE, simulate

    work = TABLE[name]
    counts = []

    class Recording(work.checker):
        def frame(self, world):
            counts.append(self.tunnelled(world))
            return super().frame(world)

    result = simulate(builtin_scene(work.scene, method=method, seed=0),
                      Recording)
    detect_ms = 1e3 * np.array(result.detect_s)
    counts = np.array(counts)
    return {"workload": name, "method": method, "frames": len(detect_ms),
            "detect_ms_p50": round(float(np.median(detect_ms)), 3),
            "detect_ms_mean": round(float(detect_ms.mean()), 3),
            "max_tunnelled": int(counts.max()),
            "tunnelled_frames": int(np.count_nonzero(counts)),
            "failed_frames": result.failed}


def main() -> None:
    prepare()
    rows = [compare(name, method) for name in WORKLOADS for method in METHODS]
    print("| " + " | ".join(FIELDS) + " |")
    print("|" + " --- |" * len(FIELDS))
    for row in rows:
        print("| " + " | ".join(str(row[f]) for f in FIELDS) + " |")
    out = HERE / "runs" / "methods.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=FIELDS)
        writer.writeheader()
        writer.writerows(rows)


if __name__ == "__main__":
    main()
