"""Set-up probe: a fresh interpreter imports the CLI and loads one workload's
corpus and ratings, the work every coldpair command does before its own.

    python3 perfbench/setup_probe.py SRC_DIR CORPUS RATINGS
"""

import sys

sys.path.insert(0, sys.argv[1])

import coldpair.cli  # noqa: E402,F401  (the import is what is being timed)
from coldpair.cf import load_ratings  # noqa: E402
from coldpair.corpus import load_corpus  # noqa: E402

load_corpus(sys.argv[2])
load_ratings(sys.argv[3])
