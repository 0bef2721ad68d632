"""Run a Python child from a small launcher process and read its peak RSS.

A forked child inherits its parent's high-water RSS, so a child started from
pytest would read pytest's own peak.  The launcher is a fresh, small
interpreter: it pins itself, and so the child, to at most two cores, so the
number of worker threads is the same on any machine, starts the child, and
prints the child's exit code and its ru_maxrss from os.wait4 after the
child's own output.
"""

import os
import subprocess
import sys
from typing import List, Tuple

import bibeta

LAUNCHER = """
import os, subprocess, sys
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])
proc = subprocess.Popen(sys.argv[1:])
_, status, usage = os.wait4(proc.pid, 0)
sys.stdout.flush()
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def run_python(args: List[str], timeout: float = 120) -> Tuple[str, int]:
    """Run `python *args` on at most two cores with this checkout's bibeta; its stdout and peak RSS in KiB.

    Fails the calling test if the child exits nonzero.
    """
    src = os.path.dirname(os.path.dirname(bibeta.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", LAUNCHER, sys.executable, *args], env=env,
                          capture_output=True, text=True, check=True, timeout=timeout)
    out, _, last = done.stdout.rstrip("\n").rpartition("\n")
    code, peak = map(int, last.split())
    assert code == 0, done.stderr
    return out, peak
