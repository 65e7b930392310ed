# Sample Haar-random states, map them into (sigma1^2) space, and check the
# polytope facets empirically.  Writes plot-ready CSV next to this script.
#
#   python demos/04_polytope_sampling.py

import pathlib

import numpy as np

from hosvd3 import classify_batch

OUT = pathlib.Path(__file__).with_name("polytope_cloud.csv")
COUNT = 20_000

rng = np.random.Generator(np.random.Philox(99))
z = rng.standard_normal((COUNT, 8)) + 1j * rng.standard_normal((COUNT, 8))
z /= np.linalg.norm(z, axis=1, keepdims=True)

sig = classify_batch(z).sigma
s1, s2, s3 = sig.T

print(f"sampled {COUNT} Haar-random states")
print(f"per-mode range of sigma1^2: "
      f"[{s1.min():.4f}, {s1.max():.4f}] x [{s2.min():.4f}, {s2.max():.4f}]"
      f" x [{s3.min():.4f}, {s3.max():.4f}]")

facets = {
    "s1+s2-s3": s1 + s2 - s3,
    "s1+s3-s2": s1 + s3 - s2,
    "s2+s3-s1": s2 + s3 - s1,
}
print("\nfacet value maxima (each bounded by 1):")
for name, values in facets.items():
    print(f"  max {name} = {values.max():.6f},  violations: "
          f"{int(np.count_nonzero(values > 1 + 1e-10))}")

print("\nhow close samples come to the bounds:")
print(f"  min sigma1^2 over all modes: {sig.min():.4f}   (lower bound 1/2)")
print(f"  max sigma1^2 over all modes: {sig.max():.4f}   (upper bound 1)")

with OUT.open("w", newline="") as fh:
    fh.write("s1,s2,s3\n")
    for row in sig:
        fh.write(f"{row[0]:.6f},{row[1]:.6f},{row[2]:.6f}\n")
print(f"\nwrote {OUT.name}; pair it with `hosvd3 polytope-mesh --resolution 17`")
print("to overlay the cloud on the facet/edge geometry in any plotting tool.")
