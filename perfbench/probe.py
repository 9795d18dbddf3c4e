"""Fixed reference work that measures how fast the machine runs right now.

On a shared machine the same command can take half again as long from
one minute to the next. The benchmark runs this script as a child process
in every round, next to the CLI invocations, and scales their wall times
by ``PROBE_REF_S`` / (its median wall time), so that such changes cancel
out. The work mirrors the CLI's: interpreter start-up and the numpy
import, CSV parsing into floats, and a stable argsort of distance rows.
It never imports the program, so a change to the program cannot move it.
"""

import csv
import io

import numpy as np

rng = np.random.default_rng(12345)
rows = rng.random((3000, 11)).tolist()
text = "\n".join(",".join(map(repr, row)) for row in rows)
total = 0.0
for _ in range(4):
    for row in csv.reader(io.StringIO(text)):
        total += sum(float(v) for v in row)
d2 = rng.random((300, 3000))
for _ in range(3):
    total += float(np.argsort(d2, axis=1, kind="stable")[:, :10].sum())
print(total)
