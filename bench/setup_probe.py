"""Set-up probe: import the CLI and parse the given configs, then print the
monotonic clock so the parent can time interpreter start to ready.

Usage: python3 bench/setup_probe.py SRC_DIR CONFIG [CONFIG ...]
"""

import sys
import time

sys.path.insert(0, sys.argv[1])

from hwq.cli import parse_config  # noqa: E402

for path in sys.argv[2:]:
    parse_config(path)
print(time.monotonic())
