"""Run a command and print its wall time and peak RSS.

    python .github/timed.py LABEL [--max-rss-mb N] -- CMD [ARG...]

prints `LABEL: X s wall, Y MB peak RSS` once CMD exits 0, and exits with
CMD's status otherwise. With `--max-rss-mb N`, it also exits 1 when that
peak exceeds N MB. The peak is CMD's own, read from `os.wait4`, not the
maximum over every child this process or its parent has waited for.
"""
import os
import subprocess
import sys
import time

args = sys.argv[1:]
max_rss_mb = None
if args[1:2] == ["--max-rss-mb"] and len(args) > 2:
    try:
        max_rss_mb = float(args[2])
    except ValueError:
        sys.exit(__doc__)
    del args[1:3]
if len(args) < 3 or args[1] != "--":
    sys.exit(__doc__)
label, command = args[0], args[2:]
start = time.perf_counter()
child = subprocess.Popen(command)
_, wait_status, usage = os.wait4(child.pid, 0)
wall = time.perf_counter() - start
status = os.waitstatus_to_exitcode(wait_status)
if status:
    sys.exit(status)
peak_mb = usage.ru_maxrss / 1024
print(f"{label}: {wall:.2f} s wall, {peak_mb:.0f} MB peak RSS")
if max_rss_mb is not None and peak_mb > max_rss_mb:
    print(f"{label}: peak RSS {peak_mb:.0f} MB exceeds the {max_rss_mb:g} MB limit")
    sys.exit(1)
