"""Timing scaled to a nominal machine speed.

On a small shared virtual machine the speed of a core drifts by up to 2x
over seconds and minutes, because of what other tenants run on the host. The
drift shows in CPU time as much as in wall time, so neither can be steadied by
taking more samples. Each measured interval is therefore scaled by how fast a
fixed reference ran around it:

* in-process work is scaled by a pure-Python reference (dict building, small
  calls, sorting: the kind of work hatlab does), timed before and after the
  interval and, from a ``SIGALRM`` handler, every ``SAMPLE_EVERY_S`` during
  it; the handler's own time is taken out of the interval;
* a subprocess is scaled by the start-up time of a bare interpreter
  (``python -c pass``), timed before and after it, because process start-up
  drifts differently from in-process work.

Neither reference touches hatlab, so a change to hatlab cannot move them; only
the machine can. All work runs on one pinned CPU, so the references measure
the core the work ran on.
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
from time import perf_counter

REFERENCE_S = 0.0026
"""Nominal time of ``reference_s``. Scaled times are seconds on a machine where
the reference takes this long; it makes the hbsf 10x3 sweep read about 2.55 s,
its time in the ROADMAP baseline (2 vCPUs at 2.0 GHz)."""

INTERPRETER_S = 0.060
"""Nominal start-up time of a bare interpreter on the same machine."""

SAMPLE_EVERY_S = 0.25

_ROUNDS = 600


def _bump(d, k):
    return d.get(k, 0) + 1


def reference_s() -> float:
    """Seconds one run of the in-process reference takes now."""
    began = perf_counter()
    for i in range(_ROUNDS):
        d = {j: (j * i) % 7 for j in range(8)}
        e = {k: _bump(d, k) for k in d if k % 2}
        tuple(sorted(e.items()))
    return perf_counter() - began


def interpreter_s(env) -> float:
    """Seconds a bare interpreter takes to start and exit now."""
    began = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, capture_output=True, timeout=60, check=True)
    return perf_counter() - began


def measure(call, env=None):
    """Run ``call`` and return ``(result, error, seconds, scale)``: the raw
    seconds it took and the factor that turns them into nominal seconds.
    With ``env``, the call runs a subprocess with that environment and is
    scaled by interpreter start-up; otherwise by the in-process reference."""
    if env is not None:
        before = interpreter_s(env)
        result, error, seconds = _run(call)
        return result, error, seconds, INTERPRETER_S / ((before + interpreter_s(env)) / 2)
    samples = [reference_s()]
    spent = 0.0

    def sample(signum, frame):
        nonlocal spent
        began = perf_counter()
        samples.append(reference_s())
        spent += perf_counter() - began

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        result, error, seconds = _run(call)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)
    samples.append(reference_s())
    return result, error, seconds - spent, REFERENCE_S / statistics.mean(samples)


def _run(call):
    began = perf_counter()
    try:
        result, error = call(), None
    except Exception as exc:  # a failing operation is counted by the caller, not fatal
        result, error = None, exc
    return result, error, perf_counter() - began


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU it is allowed to use."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
