"""tools/console-checks.sh, the console-script checks CI runs against
the installed so-lab, run here through the module entry point."""
import os
import subprocess
import sys
from pathlib import Path

import so_lab

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(so_lab.__file__).resolve().parents[1])


def test_console_checks_pass(tmp_path):
    env = {**os.environ,
           "SO_LAB": f"{sys.executable} -m so_lab.cli",
           "PATH": os.pathsep.join([str(Path(sys.executable).parent), os.environ["PATH"]]),
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(["bash", str(ROOT / "tools" / "console-checks.sh")], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
