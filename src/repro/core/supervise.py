"""Supervised fork fan-out: every task attempt runs in a forked child.

:func:`run_supervised` is the one fan-out primitive of the sharded
runner.  Each task is a thunk called as ``thunk(attempt)`` inside a
forked child; only its result is pickled back over a pipe, so the thunk
itself (a closure over datasets, configs and stores) never needs to be
picklable.  The parent multiplexes every child's pipe, kills attempts
that outlive the deadline, retries failures with seeded-jitter backoff,
and returns one :class:`ForkedOutcome` per task — nothing raises.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from typing import Callable, Dict, List, Optional, Sequence

from ..logutil import get_logger

_LOG = get_logger("core.supervise")

#: Fork start method: children inherit the thunk and everything it
#: closes over by memory, and (unlike spawn) thunks need not pickle.
_MP = multiprocessing.get_context("fork")

#: Seconds between a child's liveness beats over its result pipe.
HEARTBEAT_INTERVAL = 0.2


@dataclass
class ForkedOutcome:
    """Final verdict for one supervised task across all of its attempts.

    ``exit_reason`` is the *last* attempt's fate: ``ok``, ``error`` (the
    thunk raised, or its result could not be pickled), ``crashed`` (the
    child died without reporting — segfault, ``kill -9``, ``os._exit``)
    or ``deadline`` (the watchdog SIGKILLed a hung attempt).
    """

    index: int
    ok: bool
    value: object = None
    error: str = ""
    exit_reason: str = "ok"
    attempts: int = 1
    duration_seconds: float = 0.0
    heartbeats: int = 0

    @property
    def retries(self) -> int:
        return max(0, self.attempts - 1)

    def to_json(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "ok": self.ok,
            "error": self.error,
            "exit_reason": self.exit_reason,
            "attempts": self.attempts,
            "retries": self.retries,
            "duration_seconds": round(self.duration_seconds, 6),
            "heartbeats": self.heartbeats,
        }


@dataclass
class _Running:
    """One in-flight forked attempt (parent-side bookkeeping)."""

    index: int
    attempt: int  # 0-based
    proc: object
    started: float
    heartbeats: int = 0


def _supervised_entry(thunk, attempt: int, conn, heartbeat_interval: float) -> None:
    """Child side: heartbeat over the result pipe while the thunk runs.

    The pipe carries ``(tag, payload)`` tuples — ``("hb", n)`` liveness
    beats from a daemon thread, then exactly one ``("ok", result)`` or
    ``("err", message)``.  A lock serialises the two senders; interleaved
    ``send`` calls from different threads would corrupt the stream.
    """
    send_lock = threading.Lock()
    stop = threading.Event()

    def _beat() -> None:
        beats = 0
        while not stop.wait(heartbeat_interval):
            beats += 1
            try:
                with send_lock:
                    conn.send(("hb", beats))
            except OSError:
                return

    if heartbeat_interval > 0:
        threading.Thread(
            target=_beat, daemon=True, name="borges-heartbeat"
        ).start()
    try:
        message = ("ok", thunk(attempt))
    except BaseException as exc:  # noqa: BLE001 — report, don't traceback
        message = ("err", f"{type(exc).__name__}: {exc}")
    stop.set()
    with send_lock:
        try:
            conn.send(message)
        except OSError:
            pass  # the parent closed its end: nobody is left to tell
        except Exception as exc:  # noqa: BLE001
            # send() pickles before it writes, so the pipe is still
            # clean: report the result as an error, not a silent death.
            message = ("err", f"result not picklable: {type(exc).__name__}: {exc}")
            conn.send(message)
    conn.close()
    os._exit(0 if message[0] == "ok" else 1)


def _drain_and_reap(conn, proc, timeout: float = 5.0) -> None:
    """Drain a child's pipe end, then terminate and join the child.

    Order matters: a child mid-``send`` of a payload larger than the
    pipe buffer is blocked in ``write(2)`` and cannot exit, so a
    ``join()`` that never drains the parent end deadlocks.  Drain first,
    keep draining while the join waits, escalate to SIGKILL at the
    timeout.
    """

    def _drain() -> None:
        try:
            while conn.poll(0):
                try:
                    conn.recv()
                except (EOFError, OSError):
                    return
        except (OSError, ValueError):
            return

    _drain()
    if proc.is_alive():
        proc.terminate()
    deadline = time.monotonic() + timeout
    while proc.is_alive() and time.monotonic() < deadline:
        _drain()
        proc.join(0.05)
    if proc.is_alive():
        proc.kill()
    proc.join(1.0)
    conn.close()


def run_supervised(
    thunks: Sequence[Callable[[int], object]],
    *,
    max_workers: Optional[int] = None,
    deadline: Optional[float] = None,
    retries: int = 0,
    retry_policy=None,
    heartbeat_interval: float = HEARTBEAT_INTERVAL,
    on_outcome: Optional[Callable[[ForkedOutcome], None]] = None,
) -> List[ForkedOutcome]:
    """Supervised fan-out: run each thunk to a :class:`ForkedOutcome`.

    Each *thunk* is called as ``thunk(attempt)`` (0-based attempt
    number) in a forked child.  At most *max_workers* attempts run at
    once.  An attempt that raises, crashes, or outlives *deadline*
    seconds (SIGKILLed) is retried up to *retries* more times, sleeping
    *retry_policy*'s seeded-jitter backoff between attempts.  Nothing
    raises: every task gets an outcome, in input order, and
    ``on_outcome`` fires from the supervisor as each task reaches its
    final verdict.

    The total wall clock per task is bounded by
    ``deadline × (retries + 1)`` plus backoff, which is what makes a
    sharded run survive a sleep-forever shard.
    """
    thunks = list(thunks)
    if not thunks:
        return []
    cap = max(1, max_workers if max_workers else len(thunks))
    if retry_policy is None:
        from ..resilience.policy import RetryPolicy

        retry_policy = RetryPolicy(base_delay=0.0, jitter=0.0)
    results: List[Optional[ForkedOutcome]] = [None] * len(thunks)
    heartbeat_tally = [0] * len(thunks)
    spent = [0.0] * len(thunks)  # completed-attempt seconds per task
    pending = list(range(len(thunks)))  # first attempts, ready now
    retry_at: List[tuple] = []  # (ready_monotonic, index, attempt)
    active: Dict[object, _Running] = {}

    def _spawn(index: int, attempt: int) -> None:
        parent, child = _MP.Pipe(duplex=False)
        proc = _MP.Process(
            target=_supervised_entry,
            args=(thunks[index], attempt, child, heartbeat_interval),
            daemon=True,
            name=f"borges-forked-{index}-a{attempt}",
        )
        proc.start()
        child.close()
        active[parent] = _Running(index, attempt, proc, time.monotonic())

    def _finalize(run: _Running, ok, value, error, reason, duration) -> None:
        outcome = ForkedOutcome(
            index=run.index,
            ok=ok,
            value=value,
            error=error,
            exit_reason=reason,
            attempts=run.attempt + 1,
            duration_seconds=spent[run.index] + duration,
            heartbeats=heartbeat_tally[run.index],
        )
        results[run.index] = outcome
        if on_outcome is not None:
            on_outcome(outcome)

    def _attempt_failed(run: _Running, error: str, reason: str) -> None:
        """Schedule a retry of a failed attempt, or finalize the task."""
        duration = time.monotonic() - run.started
        if run.attempt < retries:
            spent[run.index] += duration
            delay = retry_policy.delay_for(
                run.attempt + 1, key=f"task-{run.index}"
            )
            retry_at.append((time.monotonic() + delay, run.index, run.attempt + 1))
            _LOG.warning(
                "supervised task %d attempt %d failed (%s: %s); retrying "
                "in %.3fs", run.index, run.attempt + 1, reason, error, delay,
            )
            return
        _finalize(run, False, None, error, reason, duration)

    try:
        while pending or retry_at or active:
            now = time.monotonic()
            retry_at.sort()
            while retry_at and retry_at[0][0] <= now and len(active) < cap:
                _, index, attempt = retry_at.pop(0)
                _spawn(index, attempt)
            while pending and len(active) < cap:
                _spawn(pending.pop(0), 0)
            if not active:
                # Only backoff sleeps remain; wait for the earliest.
                time.sleep(
                    max(0.0, min(r[0] for r in retry_at) - time.monotonic())
                )
                continue
            timeout = None
            if deadline is not None:
                expiry = min(r.started + deadline for r in active.values())
                timeout = max(0.0, expiry - time.monotonic())
            if retry_at:
                until_retry = max(0.0, retry_at[0][0] - time.monotonic())
                timeout = (
                    until_retry if timeout is None
                    else min(timeout, until_retry)
                )
            for conn in _connection_wait(list(active), timeout):
                run = active[conn]
                try:
                    tag, payload = conn.recv()
                except (EOFError, OSError):
                    active.pop(conn)
                    conn.close()
                    run.proc.join()
                    _attempt_failed(
                        run,
                        f"exited with code {run.proc.exitcode} "
                        "before reporting a result",
                        "crashed",
                    )
                    continue
                if tag == "hb":
                    run.heartbeats += 1
                    heartbeat_tally[run.index] += 1
                    continue
                active.pop(conn)
                conn.close()
                run.proc.join()
                if tag == "ok":
                    duration = time.monotonic() - run.started
                    _finalize(run, True, payload, "", "ok", duration)
                else:
                    _attempt_failed(run, str(payload), "error")
            if deadline is not None:
                now = time.monotonic()
                hung = [
                    conn for conn, run in active.items()
                    if now - run.started >= deadline
                ]
                for conn in hung:
                    run = active.pop(conn)
                    # SIGKILL, not SIGTERM: a truly hung child may ignore
                    # or never reach a TERM handler.
                    run.proc.kill()
                    _drain_and_reap(conn, run.proc)
                    _attempt_failed(
                        run,
                        f"hung past the {deadline:.3g}s deadline (SIGKILLed "
                        f"after {run.heartbeats} heartbeats)",
                        "deadline",
                    )
    finally:
        for conn, run in list(active.items()):
            run.proc.kill()
            _drain_and_reap(conn, run.proc)
        active.clear()
    return [outcome for outcome in results if outcome is not None]
