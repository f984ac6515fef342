"""Machine-speed probe that shares a CPU with the benchmark's children.

    python3 bench/pace.py

Repeats one fixed unit of pure-Python work (Fraction arithmetic, dict and
tuple traffic, the same kind of object churn hkrlab does), sleeping
GAP_S after each unit, until its standard input is closed; then prints one
JSON list with a row ``[start, end, cpu]`` per unit: the monotonic clock
when the unit started and ended, and the CPU time it took.  It prints
``ready`` once it has warmed up.

On a shared host the speed of a CPU drifts by tens of percent within
seconds, and the two CPUs of a 2-CPU machine do not drift together.  The
runner pins the probe and the child to one CPU, so that the probe samples
the speed of the very CPU the child runs on, a few percent of the time,
and scales each time the child measured by the probe's speed over the
same interval.  The probe's CPU time, not its wall time, is the speed, so
time the probe waits for the CPU does not count.
"""

import json
import sys
import threading
import time
from fractions import Fraction

UNIT_STEPS = 360  # about 2 ms of CPU time on a 2.1 GHz Xeon
GAP_S = 0.02  # so the probe takes about a tenth of its CPU


def unit():
    acc = {}
    for i in range(UNIT_STEPS):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 7 - 3, i % 5 + 1)
        acc.setdefault(tuple(sorted((i % 11, i % 3, i % 5))), []).append(i)
    return acc


def main():
    stop = threading.Event()
    watcher = threading.Thread(target=lambda: (sys.stdin.read(), stop.set()), daemon=True)
    watcher.start()
    for _ in range(100):
        unit()
    print("ready", flush=True)
    rows = []
    while not stop.wait(GAP_S):
        start, c0 = time.monotonic(), time.thread_time()
        unit()
        rows.append((start, time.monotonic(), time.thread_time() - c0))
    print(json.dumps(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
