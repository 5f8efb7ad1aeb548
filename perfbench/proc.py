"""Child processes, their environment, and small statistics helpers."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"

#: Longest any one child may run before it is killed (seconds).
CHILD_TIMEOUT = 60.0


def child_env(work: Path) -> Dict[str, str]:
    """The environment every program process runs with.

    ``REPRO_*`` switches from the caller's environment are dropped so
    each run takes the program's default paths; the trace cache and
    temporary files stay inside the work directory.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_TRACE_CACHE"] = str(work / "default-cache")
    env["TMPDIR"] = str(work / "tmp")
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    return env


@dataclass
class Finished:
    """A reaped child: exit code, output, wall time, CPU time (its own
    and its reaped children's) and peak RSS."""

    code: int
    stdout: str
    stderr: str
    started: float
    wall_s: float
    cpu_s: float
    peak_rss_mb: float

    def last_json(self) -> Dict:
        lines = [line for line in self.stdout.splitlines() if line.strip()]
        if self.code != 0 or not lines:
            raise RuntimeError(
                f"child failed (exit {self.code}): {self.stderr[-2000:]}"
            )
        return json.loads(lines[-1])


class Child:
    """A spawned program process whose resource usage is reaped with it."""

    def __init__(self, argv: Sequence[str], env: Dict[str, str], log_dir: Path,
                 tag: str) -> None:
        log_dir.mkdir(parents=True, exist_ok=True)
        self.out_path = log_dir / f"{tag}.out"
        self.err_path = log_dir / f"{tag}.err"
        self._out = self.out_path.open("w")
        self._err = self.err_path.open("w")
        self.started = time.perf_counter()
        # Its own process group, so a kill also takes the sweep's pool
        # workers with it.
        self.popen = subprocess.Popen(
            list(argv), env=env, cwd=str(ROOT), stdout=self._out,
            stderr=self._err, stdin=subprocess.DEVNULL, start_new_session=True,
        )

    def _kill_group(self) -> None:
        try:
            os.killpg(self.popen.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def wait(self, timeout: float = CHILD_TIMEOUT) -> Finished:
        killer = threading.Timer(timeout, self._kill_group)
        killer.start()
        try:
            _, status, usage = os.wait4(self.popen.pid, 0)
        finally:
            killer.cancel()
        ended = time.perf_counter()
        self.popen.returncode = os.waitstatus_to_exitcode(status)
        self._out.close()
        self._err.close()
        return Finished(
            code=self.popen.returncode,
            stdout=self.out_path.read_text(),
            stderr=self.err_path.read_text(),
            started=self.started,
            wall_s=ended - self.started,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
        )

    def stop(self, sig, timeout: float = 30.0) -> Finished:
        if self.popen.returncode is None:
            try:
                self.popen.send_signal(sig)
            except ProcessLookupError:
                pass
        return self.wait(timeout)

    def kill(self) -> None:
        """Kill and reap the child (and its group) if it is still running."""
        if self.popen.returncode is None:
            self._kill_group()
            self.wait(10.0)


def run_child(argv: Sequence[str], env: Dict[str, str], log_dir: Path,
              tag: str) -> Finished:
    return Child(argv, env, log_dir, tag).wait()


def python_argv(script: str, *args: str) -> List[str]:
    return [sys.executable, str(BENCH / script), *args]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def process_cpu_s(pid: int) -> float:
    """CPU seconds every thread of a live process has run so far
    (``/proc/<pid>/task/*/schedstat``, nanosecond resolution)."""
    total = 0
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            total += int((task / "schedstat").read_text().split()[0])
        except (FileNotFoundError, ProcessLookupError):
            pass  # a thread that ended meanwhile
    return total / 1e9


class Window:
    """A measurement window of ``seconds``: it keeps starting steps
    while the next one, as long as the median step so far, would still
    end inside it."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.started = time.perf_counter()
        self.steps: List[float] = []
        self._step_started = self.started

    def begin(self) -> None:
        self._step_started = time.perf_counter()

    def end(self) -> None:
        self.steps.append(time.perf_counter() - self._step_started)

    def more(self) -> bool:
        if not self.steps:
            return True
        elapsed = time.perf_counter() - self.started
        return elapsed + median(self.steps) <= self.seconds


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def environment() -> Dict[str, object]:
    """The host facts a result depends on."""
    import platform

    import numpy

    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "nproc": usable_cpus(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": has_numba,
    }
