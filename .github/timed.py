"""Run a command and print its wall time and peak RSS.

    python .github/timed.py LABEL -- CMD [ARG...]

prints `LABEL: X s wall, Y MB peak RSS` once CMD exits 0, and exits with
CMD's status otherwise. The peak is CMD's own, read from `os.wait4`, not
the maximum over every child this process or its parent has waited for.
"""
import os
import subprocess
import sys
import time

if len(sys.argv) < 4 or sys.argv[2] != "--":
    sys.exit(__doc__)
label, command = sys.argv[1], sys.argv[3:]
start = time.perf_counter()
child = subprocess.Popen(command)
_, wait_status, usage = os.wait4(child.pid, 0)
wall = time.perf_counter() - start
status = os.waitstatus_to_exitcode(wait_status)
if status:
    sys.exit(status)
print(f"{label}: {wall:.2f} s wall, {usage.ru_maxrss / 1024:.0f} MB peak RSS")
