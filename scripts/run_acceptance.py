#!/usr/bin/env python3
"""Run the acceptance suite with per-criterion pass lines visible."""

import subprocess
import sys

if __name__ == "__main__":
    sys.exit(subprocess.call([sys.executable, "-m", "pytest", "tests/test_acceptance.py", "-v", "-s"]))
