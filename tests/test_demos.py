import os
import subprocess
import sys
from pathlib import Path

import ietistokes

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_run_cleanly(tmp_path):
    # each demo in a fresh interpreter, as a user runs it: exit 0 and
    # nothing on stderr, warnings shown
    assert len(DEMOS) == 5
    src = str(Path(ietistokes.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    for demo in DEMOS:
        proc = subprocess.run([sys.executable, "-W", "default", str(demo)], cwd=tmp_path,
                              capture_output=True, text=True, env=env, timeout=300)
        assert (demo.name, proc.returncode, proc.stderr) == (demo.name, 0, "")
        assert proc.stdout
