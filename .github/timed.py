"""Run a command and print its wall time and peak RSS.

    python .github/timed.py LABEL -- CMD [ARG...]

prints `LABEL: X s wall, Y MB peak RSS` once CMD exits 0, and exits with
CMD's status otherwise.
"""
import resource
import subprocess
import sys
import time

if len(sys.argv) < 4 or sys.argv[2] != "--":
    sys.exit(__doc__)
label, command = sys.argv[1], sys.argv[3:]
start = time.perf_counter()
status = subprocess.run(command).returncode
wall = time.perf_counter() - start
if status:
    sys.exit(status)
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"{label}: {wall:.2f} s wall, {peak:.0f} MB peak RSS")
