import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_same_outputs_on_the_checkout_itself():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "same_outputs.py"), ROOT, ROOT,
         "--seeds", "1", "--workload", "closed-form"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "6 commands, 0 with a difference or a failed check\n"
