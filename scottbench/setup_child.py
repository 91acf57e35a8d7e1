"""One sample of ``setup_s``: a fresh interpreter imports the package, runs a
workload's warm-up and exits.

    PYTHONPATH=src python3 scottbench/setup_child.py decide

``run.py`` starts it from the checkout root and takes the process's CPU time.
"""

import sys

import scottgroups
import warmups

getattr(warmups, sys.argv[1])(scottgroups)
