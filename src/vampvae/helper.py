"""The package's one helper thread (`helper`), the CPU count it reads
(`usable_cpus`, read by `Helper.submit` only) and the claims it runs.

The helper computes the pairwise Gaussian density of `distributions`
beside the rest of an unrecorded pass (see `priors`), when it is idle: the
density's row blocks are units of `Claims`, offered to the helper as soon
as z is drawn, and the helper claims them one at a time while the calling
thread runs the rest of the pass. Where the density is recorded, the
caller claims the blocks left (`Claims.finish`) and waits only for the
block the helper holds, so a helper whose core is busy elsewhere costs at
most one block. `training.step` claims its Adam updates the same way, each
queued once `backward` passes its parameter on as final, and `backward`
queues the replays of its `Branch`es. A process allowed one CPU hands the
helper nothing: the caller runs every unit and every branch itself.

This module holds no autodiff op: every op, span and tape node stays on
the calling thread. The helper runs numpy calls only, each row by the same
calls as inline, so the bytes do not depend on which thread ran a unit.
"""

from __future__ import annotations

import os
import queue
import threading
from concurrent import futures
from typing import Callable, Iterable


class Helper:
    """The package's one helper thread: it runs the calls submitted to it
    one at a time, in order, and reports each through a `Future`. It is a
    daemon thread, started on first use, and idle between calls; no option
    governs it. Three kinds of call reach it: the branch replays of
    `backward`, which queue, and the claiming of a started density's
    blocks and of a training step's Adam updates (`Claims.offer`), which
    starts only on an idle helper, so neither waits behind a replay.
    `submit` is the one place the package reads the CPU count: in a
    process allowed one CPU the helper takes no call at all, and each
    caller runs the refused work itself, at once. A call withdrawn before
    it starts no longer counts as pending. A forked child starts from a
    fresh helper: the parent's thread does not exist there, and a call it
    had pending would hold the helper busy for good."""

    def __init__(self):
        self._reset()
        if hasattr(os, "register_at_fork"):
            os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self._calls = queue.SimpleQueue()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self._pending = 0  # calls submitted and not yet finished

    def submit(self, fn: Callable[[], object],
               if_idle: bool = False) -> futures.Future | None:
        """Queue `fn`; with `if_idle`, only when no call is pending, and in
        any case only where the process may use two or more CPUs, else
        return None. Code running on the helper is inside a pending call, so
        it never hands work to itself."""
        if usable_cpus() == 1:
            return None
        with self._lock:
            if if_idle and self._pending:
                return None
            if self._thread is None or not self._thread.is_alive():
                self._thread = threading.Thread(
                    target=self._serve, name="vampvae-helper", daemon=True)
                self._thread.start()
            self._pending += 1
        task = futures.Future()
        self._calls.put((task, fn))
        return task

    def withdraw(self, task: futures.Future) -> bool:
        """Cancel `task` unless the helper has started it; True if it did."""
        with self._lock:
            if not task.cancel():
                return False
            self._pending -= 1
            return True

    def _finished(self) -> None:
        # before the waiter is woken, so that its next call finds the helper
        # idle
        with self._lock:
            self._pending -= 1

    def _serve(self) -> None:
        while True:
            task, fn = self._calls.get()
            if task.set_running_or_notify_cancel():  # else withdrawn
                try:
                    result = fn()
                except BaseException as exc:  # reported to the waiter
                    self._finished()
                    task.set_exception(exc)
                else:
                    self._finished()
                    task.set_result(result)
            task = fn = result = None


helper = Helper()


def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class Claims:
    """Units of work, each a function of a slot, claimed one at a time in
    the order they were added by the calling thread (slot 0) and the helper
    (slot 1), so each runs once, on the first thread to claim it.

    The caller adds units and may start the helper claiming (`offer`,
    refused on a busy helper and on one CPU); the helper claims until none
    is left, and a unit added after that needs another `offer`. The units
    run numpy calls only: no op, span or tape node is ever made on the
    helper. After an error no unit is claimed. `finish` runs the units left
    on the calling thread and ends the claims, as leaving a ``with`` block
    does without running them: a helper call not yet started is withdrawn,
    so the caller never waits for a unit the helper has not started; the
    running one is waited for, and its error raised unless the block raises
    its own."""

    def __init__(self, units: Iterable[Callable[[int], object]] = ()):
        self._units = list(units)
        self._next = 0  # the next unit to claim
        self._lock = threading.Lock()
        self._open = True
        self._claiming = False  # a helper call will claim the next unit
        self._task: futures.Future | None = None

    def __enter__(self) -> "Claims":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        with self._lock:
            self._open = False
        # dropped here: a helper's error would hold the claims in a cycle
        task, self._task = self._task, None
        if task is None or helper.withdraw(task):
            return
        futures.wait([task])
        if exc_type is None:
            task.result()  # the helper's error, if it had one

    def add(self, unit: Callable[[int], object]) -> None:
        with self._lock:
            self._units.append(unit)

    def claim(self, slot: int = 0) -> Callable[[int], object] | None:
        with self._lock:
            if self._open and self._next < len(self._units):
                self._next += 1
                return self._units[self._next - 1]
            if slot:
                # in the same hold as finding none left, so a unit added
                # from now on is offered again
                self._claiming = False
            return None

    def run(self, slot: int = 0) -> None:
        """Run claimed units until none is left."""
        try:
            unit = self.claim(slot)
            while unit is not None:
                unit(slot)
                unit = self.claim(slot)
        except BaseException:
            with self._lock:
                self._open = False
            raise

    def offer(self) -> bool:
        """Whether the helper claims the units left: it is claiming
        already, or it was idle and starts now."""
        with self._lock:
            if self._claiming or not self._open:
                return self._claiming
            self._claiming = True
        task = helper.submit(lambda: self.run(1), if_idle=True)
        with self._lock:
            if task is None:
                self._claiming = False
            else:
                self._task = task
        return task is not None

    def finish(self) -> None:
        """Run the units left on the calling thread, then end the claims."""
        with self:
            self.run()
