"""The ``.det.csv`` hash gate: a change that keeps behaviour keeps the bytes.

``softsphere run <scene> --method <m>`` writes a deterministic companion
CSV whose sha256 is recorded in CHANGES.md.  This module reruns eight of
the nine scene × method pairs at their shipped frame counts and compares
each file's sha256 with that record.  Two-sphere-impact under
polygon-exact takes too long for the suite and stays a manual check.

The hashes depend on the summation order of numpy's einsum, so the test
runs only under the numpy version they were recorded with.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from softsphere.harness import run_scene
from softsphere.scenes import builtin_scene

HASHED_WITH_NUMPY = "2.4.6"

DET_SHA256 = {
    ("cloth-over-sphere", "circumsphere"):
        "c5f186c5bc234f202853c763cc741e72b75eb75a24f3dd6397b1ead1fbf7c70d",
    ("cloth-over-sphere", "bounding-ball"):
        "cd1acc4f165e3a914586b20e3f57fac8426ca8feaffdb88db9198e1049e72420",
    ("cloth-over-sphere", "polygon-exact"):
        "4cc05e95b04aacb40757541d7b504de5c1f9ca572bbbcd8012e39ec01c27ba1e",
    ("two-sphere-impact", "circumsphere"):
        "62714d575ba0a0760133aad969a23ccd244fd0f1159db82b919033ff7ca2d9cb",
    ("two-sphere-impact", "bounding-ball"):
        "2b274d06dad3e21a2750b839e3461ea2c4d17e15bfdd38c5df45b0967e8a947f",
    ("sphere-drop-on-plane", "circumsphere"):
        "b52bd4a1854590c317cb865cd18fbc2d7a7cd8de0c319ff22ecfe8f570c8d379",
    ("sphere-drop-on-plane", "bounding-ball"):
        "9a5e589a10a2a3d0abb36839801690a4b55c9d4bc5cab0e541ab974940f26307",
    ("sphere-drop-on-plane", "polygon-exact"):
        "0fe5b03357f4580391439295d3fc90acc33247bd5d11a1b478693bdd05fcf885",
}


@pytest.mark.skipif(np.__version__ != HASHED_WITH_NUMPY,
                    reason=f"hashes recorded with numpy {HASHED_WITH_NUMPY}")
@pytest.mark.parametrize("scene,method", list(DET_SHA256),
                         ids=[f"{s}-{m}" for s, m in DET_SHA256])
def test_det_csv_sha256_matches_the_record(tmp_path, scene, method):
    run_scene(replace(builtin_scene(scene), method=method),
              out_path=tmp_path / "run.csv")
    det = (tmp_path / "run.det.csv").read_bytes()
    assert hashlib.sha256(det).hexdigest() == DET_SHA256[scene, method]
