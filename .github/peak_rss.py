"""Run one mckay3 command and hold it to a peak-RSS bound.

Usage: PYTHONPATH=src python .github/peak_rss.py <bound MB> <mckay3 args...>

The command runs as `python -m mckay3 <args...>` with its stdout discarded.
This script exits with the command's own code if that is not 0, and with 1
if the command's peak resident set size is above the bound.
"""

import resource
import subprocess
import sys

bound_mb, args = float(sys.argv[1]), sys.argv[2:]
code = subprocess.call([sys.executable, "-m", "mckay3", *args], stdout=subprocess.DEVNULL)
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux
print(f"{' '.join(args)}: exit {code}, peak RSS {peak_mb:.1f} MB")
sys.exit(code or (peak_mb > bound_mb and f"peak RSS above {bound_mb:g} MB"))
