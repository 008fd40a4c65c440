"""What ``import repro`` loads into every process that uses the package."""

import os
import subprocess
import sys
from pathlib import Path

import repro


def test_import_repro_leaves_out_scipy_stats():
    # scipy.stats alone adds ~45 MB of RSS and ~0.5 s to the import, in
    # the main process and every worker; calibration needs only
    # scipy.special.  A fresh interpreter sees what the import pulls in.
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, repro; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
        check=True,
    )
    assert out.stdout.strip() == "[]"
