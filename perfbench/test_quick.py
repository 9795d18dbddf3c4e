"""Self-test of the benchmark at tiny sizes: python3 -m pytest perfbench"""

import os
import subprocess
import sys


def test_quick_mode():
    run = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    proc = subprocess.run([sys.executable, run, "--quick"], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
