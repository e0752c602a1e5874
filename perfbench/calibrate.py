"""How fast this host runs Python right now, measured with a fixed task.

The host is shared: the same code runs up to 1.7 times as slowly for seconds
at a time, and a process's CPU time stretches with its wall time, so neither
clock alone gives the same figure twice.  The benchmark therefore runs a short
reference task after every INTERVAL_S of CPU time, in the same process and
inside judgements too, and scales each judgement's CPU time by how long the
reference tasks around it took against `REFERENCE_S`, their CPU time at the
nominal speed.  A judgement that takes as long as three reference tasks reads
3 × REFERENCE_S, whatever the host's speed at that moment.

The task is a small normaliser for the untyped lambda calculus, pure Python
of the kind defuncc runs (frozen dataclass nodes, recursive walks, fresh
names, free-variable sets, structural equality), and it does not touch
defuncc, so a change to the program cannot change it.  It frees all it
allocates and runs with the cyclic collector off, so the program's heap does
not change its time either.
"""

from __future__ import annotations

import gc
import signal
import statistics
from dataclasses import dataclass
from itertools import count
from time import thread_time

# CPU time of one reference task at the nominal speed (about the median on a
# shared 2-vCPU host with Python 3.11)
REFERENCE_S = 0.0008
INTERVAL_S = 0.01  # CPU time between reference tasks
REACH = 8  # reference tasks on each side of a timed span that set its speed


@dataclass(frozen=True)
class V:
    name: str


@dataclass(frozen=True)
class L:
    binder: str
    body: object


@dataclass(frozen=True)
class A:
    fn: object
    arg: object


def _free(t) -> frozenset:
    if isinstance(t, V):
        return frozenset((t.name,))
    if isinstance(t, L):
        return _free(t.body) - {t.binder}
    return _free(t.fn) | _free(t.arg)


def _subst(t, name: str, value, fresh):
    if isinstance(t, V):
        return value if t.name == name else t
    if isinstance(t, A):
        return A(_subst(t.fn, name, value, fresh), _subst(t.arg, name, value, fresh))
    if t.binder == name:
        return t
    if t.binder in _free(value):
        new = f"{t.binder}'{next(fresh)}"
        return L(new, _subst(_subst(t.body, t.binder, V(new), fresh), name, value, fresh))
    return L(t.binder, _subst(t.body, name, value, fresh))


def _normalize(t, fresh):
    if isinstance(t, L):
        return L(t.binder, _normalize(t.body, fresh))
    if isinstance(t, V):
        return t
    fn = _normalize(t.fn, fresh)
    if isinstance(fn, L):
        return _normalize(_subst(fn.body, fn.binder, t.arg, fresh), fresh)
    return A(fn, _normalize(t.arg, fresh))


def _church(n: int):
    body = V("z")
    for _ in range(n):
        body = A(V("s"), body)
    return L("s", L("z", body))


def _alpha_eq(a, b, env: dict) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, V):
        return env.get(a.name, a.name) == b.name
    if isinstance(a, A):
        return _alpha_eq(a.fn, b.fn, env) and _alpha_eq(a.arg, b.arg, env)
    return _alpha_eq(a.body, b.body, {**env, a.binder: b.binder})


_MUL = L("m", L("n", L("s", A(V("m"), A(V("n"), V("s"))))))
_ADD = L("m", L("n", L("s", L("z", A(A(V("m"), V("s")), A(A(V("n"), V("s")), V("z")))))))


def reference_task() -> bool:
    """(4 + 5) × 6 on Church numerals, normalised and compared with 54."""
    fresh = count()
    term = A(A(_MUL, A(A(_ADD, _church(4)), _church(5))), _church(6))
    return _alpha_eq(_normalize(term, fresh), _church(54), {})


def measure_once() -> float:
    """CPU seconds of one reference task, with the cyclic collector off.  An
    untimed run first brings the task's code and data back into the caches,
    so that what the program ran just before does not change the time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        reference_task()
        start = thread_time()
        answer = reference_task()
        elapsed = thread_time() - start
    finally:
        if enabled:
            gc.enable()
    if not answer:
        raise RuntimeError("the reference task gave a wrong answer")
    return elapsed


class Speed:
    """While on, a SIGPROF handler runs the reference task after every
    INTERVAL_S of the process's CPU time, so the host's speed is sampled
    inside long judgements as well as between short ones."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0  # CPU time taken by the ticks themselves
        self._busy = False
        self._old_handler = None

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = thread_time()
        try:
            self.samples.append(measure_once())
        except RecursionError:  # interrupted deep in the program's recursion
            pass
        finally:
            self.spent += thread_time() - start  # warm-up run included
            self._busy = False

    def __enter__(self) -> "Speed":
        self._old_handler = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._old_handler)

    def mark(self) -> tuple[float, float, int]:
        return thread_time(), self.spent, len(self.samples)

    def scaled(self, start: tuple[float, float, int], end: tuple[float, float, int]) -> float:
        """CPU seconds from mark `start` to mark `end`, less the reference tasks
        run in between, at the nominal speed.  The speed is taken from the
        samples in between and REACH more on each side, so call this only
        once the run is over."""
        (cpu0, spent0, n0), (cpu1, spent1, n1) = start, end
        window = self.samples[max(0, n0 - REACH):n1 + REACH]
        if not window:
            raise RuntimeError("no reference task ran; the sampling timer is not working")
        own = (cpu1 - cpu0) - (spent1 - spent0)
        return own * REFERENCE_S * statistics.fmean(1 / s for s in window)
