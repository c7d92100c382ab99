#!/usr/bin/env python3
"""Emit plot-ready CSV data for the three threshold-factor surface panels
of figure 3 (pure formula evaluation) by driving the CLI.

The experiment figures 4-6 come from scripts/reproduce_section_iv.py.
"""

import argparse
import os
import subprocess
import sys


def run(args):
    print("+", " ".join(args))
    rc = subprocess.call([sys.executable, "-m", "tempest.cli", *args])
    if rc != 0:
        sys.exit(rc)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="figure_data")
    args = ap.parse_args()

    os.makedirs(args.out, exist_ok=True)
    for panel in "abc":
        run(["figure3", "--panel", panel, "--seed", "0",
             "--out", os.path.join(args.out, f"figure3_{panel}.csv")])


if __name__ == "__main__":
    main()
