"""Sweep the phase-transition curves beta(alpha) for every threshold kind.

The weak curve is the exact recovery boundary; the sectional and strong
curves are lower bounds, each in two flavors: the direct bound and its
lifted refinement (the direct bound is the c3 -> 0 member of the lifted
family, so the lifted curve always sits at or above it).

Writes threshold_curves.csv to the current directory and prints a small
table.  Takes a few seconds.
"""

import csv
import pathlib

import numpy as np

from l1lab import threshold_bisect

GRID = np.round(np.arange(0.1, 0.95, 0.1), 2)

CURVES = [
    ("weak", "direct"),
    ("weak_nonneg", "direct"),
    ("sectional", "direct"),
    ("sectional", "lifted"),
    ("strong", "direct"),
    ("strong", "lifted"),
    ("strong_nonneg", "direct"),
    ("strong_nonneg", "lifted"),
]


def main():
    rows = {alpha: {} for alpha in GRID}
    for kind, method in CURVES:
        label = f"{kind}:{method}"
        print(f"computing {label} ...")
        for alpha in GRID:
            rows[alpha][label] = threshold_bisect(float(alpha), kind, method).beta

    out = pathlib.Path("threshold_curves.csv")
    labels = [f"{k}:{m}" for k, m in CURVES]
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha"] + labels)
        for alpha in GRID:
            writer.writerow([alpha] + [f"{rows[alpha][l]:.6f}" for l in labels])
    print(f"\nwrote {out.resolve()}\n")

    print("alpha  " + "  ".join(f"{l:>18s}" for l in labels))
    for alpha in GRID:
        print(f"{alpha:5.2f}  "
              + "  ".join(f"{rows[alpha][l]:18.5f}" for l in labels))
    print("\nNote the ordering at every alpha: strong <= sectional <= weak,")
    print("nonneg strong >= strong, and lifted >= direct within each kind.")


if __name__ == "__main__":
    main()
