"""Wall-clock comparison of the two scan strategies.

Run from the repo root:  python3 demos/06_scan_benchmark.py
(Equivalent to the CLI: simba bench-scan --len 4096 --dim 64 --state 16)
"""

import os

from simba.bench import bench_scan, rows_to_csv

print(f"hardware threads: {os.cpu_count()}")
rows = bench_scan(4096, 64, 16, chunks=[32, 64, 128])
print(rows_to_csv(rows), end="")
seq = rows[0][5]
print()
for strategy, t, dp, w, chunk, ms in rows[1:]:
    print(f"chunk {chunk:>4}: {ms:7.2f} ms  ({ms / seq:.2f}x the sequential loop)")
print("\nthe chunked scan advances every block's recurrence together, one")
print("vectorized numpy step per position, and stitches the carried states")
print("with one short sequential pass.  It runs on one thread, so any win")
print("comes from about 2*chunk + T/chunk numpy steps over larger arrays")
print("replacing T steps over small ones.")
