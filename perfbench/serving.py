"""The serve workload: ``repro serve`` driven over TCP.

The server runs as its own process (``python -m repro.cli serve``).
This process is the client: it generates the sessions from the seed
(each a seeded window of one quick-scale benchmark trace, cycling
``loadgen.BENCH_CONFIGS``; counts and sizes in ``config.json``),
pre-encodes every wire message, and multiplexes the sessions over one
connection per usable CPU.  Two kinds of pass run against one server:

- **saturating**: every chunk is written as fast as TCP accepts it;
  ``wall_s`` runs from the first ``open`` to the last ``closed`` reply.
- **open loop**: chunks are due on a fixed schedule at an absolute
  offered rate (elements/s, ``config.json``); each phase event's
  latency is its receive time minus the due time of the chunk that
  carried element ``step - 1``.  How late the generator sent, against
  the schedule, is reported as ``loadgen.lag_p99_ms``.

Every served phase stream is byte-compared against the offline
``run_detector`` reference (``loadgen.verify_sessions``).
"""

from __future__ import annotations

import asyncio
import bisect
import json
import shutil
import signal
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import layers
from proc import (
    Child, Window, median, percentile, process_cpu_s, python_argv, usable_cpus,
)

#: ``repro serve-stats`` processes timed per run, at least: one after
#: every saturating pass, the rest at the end.
WARM_SAMPLES = 7
#: Chunk size (elements) and its seeded jitter, as in ``repro serve-bench``.
CHUNK = 256
JITTER = CHUNK // 4
#: Longest wait for the replies of one pass (seconds).
REPLY_TIMEOUT = 60.0
#: Pause before the open-loop schedule starts (seconds).
SCHEDULE_LEAD = 0.05


def generate_sessions(seed: int, cache_dir: Path, sessions: int, elements: int):
    """Seeded sessions over quick-scale suite traces (runs the VM): one
    seeded window per benchmark, cycled against ``BENCH_CONFIGS`` by
    ``loadgen``'s own spec builder."""
    from repro.serve.loadgen import _make_specs
    from repro.workloads.suite import load_suite

    rng = np.random.default_rng(seed)
    traces = load_suite(scale=0.3, cache_dir=cache_dir)
    sources = []
    for name, (branch_trace, _) in traces.items():
        data = np.asarray(branch_trace.array)
        offset = int(rng.integers(0, max(1, data.size - elements + 1)))
        sources.append((f"{name}@{offset}", data[offset:offset + elements].copy()))
    return _make_specs(sources, sessions, "s")


class Plan:
    """Seeded chunking and send order, with pre-encoded element lists."""

    def __init__(self, specs, rng: np.random.Generator) -> None:
        self.specs = specs
        bounds: List[List[int]] = []
        for spec in specs:
            ends, position = [], 0
            while position < spec.elements.size:
                position = min(spec.elements.size,
                               position + CHUNK + int(rng.integers(0, JITTER)))
                ends.append(position)
            bounds.append(ends)
        self.ends = bounds
        # Saturating order: rounds over every open session, each in a
        # seeded shuffle (as ``loadgen.run_load``), so all sessions
        # stay live together and the resident cap is exceeded.
        self.rounds: List[Tuple[int, int]] = []
        next_chunk = [0] * len(specs)
        active = list(range(len(specs)))
        while active:
            survivors = []
            for pick in rng.permutation(len(active)):
                session = active[pick]
                self.rounds.append((session, next_chunk[session]))
                next_chunk[session] += 1
                if next_chunk[session] < len(bounds[session]):
                    survivors.append(session)
            active = survivors
        # Open-loop schedule: independent users.  Session arrivals are
        # spread evenly (seeded jitter) so that, while arrivals last, the
        # offered rate is ``rate`` elements/s; each session then sends
        # its chunks evenly over ``lifetime`` seconds and closes.
        self.arrival_slots = (rng.permutation(len(specs)) + rng.random(len(specs))) / len(specs)
        self.fragments: List[List[bytes]] = []
        for spec, ends in zip(specs, bounds):
            starts = [0] + ends[:-1]
            self.fragments.append([
                json.dumps(spec.elements[a:b].tolist(), separators=(",", ":")).encode()
                for a, b in zip(starts, ends)
            ])
        self.elements = int(sum(spec.elements.size for spec in specs))


class Wire:
    """One NDJSON connection: raw writes, timestamped replies."""

    def __init__(self, reader, writer, replies: "Pass") -> None:
        self.reader = reader
        self.writer = writer
        self.replies = replies
        self.task = asyncio.ensure_future(self._read())

    async def _read(self) -> None:
        try:
            while True:
                line = await self.reader.readline()
                if not line:
                    break
                self.replies.on_message(json.loads(line), time.perf_counter())
        finally:
            self.replies.fail_pending("connection closed")

    async def write(self, data: bytes) -> None:
        self.writer.write(data)
        if self.writer.transport.get_write_buffer_size() > 1 << 16:
            await self.writer.drain()

    async def close(self) -> None:
        self.task.cancel()
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class Pass:
    """Replies of one pass: per-session events, opened/closed futures."""

    def __init__(self, sids: List[str]) -> None:
        loop = asyncio.get_running_loop()
        self.position = {sid: index for index, sid in enumerate(sids)}
        self.opened = [loop.create_future() for _ in sids]
        self.closed = [loop.create_future() for _ in sids]
        self.events: Dict[str, List[Dict]] = {}
        self.times: Dict[str, List[float]] = {}
        self.errors: List[Dict] = []
        self.close_times: List[float] = []

    def on_message(self, message: Dict, at: float) -> None:
        op = message.get("op")
        sid = message.get("sid")
        if op == "event":
            self.events.setdefault(sid, []).append(message["event"])
            self.times.setdefault(sid, []).append(at)
        elif op == "opened":
            _resolve(self.opened[self.position[sid]], at)
        elif op == "closed":
            self.close_times.append(at)
            _resolve(self.closed[self.position[sid]], message)
        elif op == "error":
            self.errors.append(message)
            if sid in self.position:
                error = RuntimeError(message.get("error"))
                _resolve(self.opened[self.position[sid]], error=error)
                _resolve(self.closed[self.position[sid]], error=error)

    def fail_pending(self, reason: str) -> None:
        for future in self.opened + self.closed:
            _resolve(future, error=RuntimeError(reason))


def _resolve(future: asyncio.Future, result=None, error=None) -> None:
    if not future.done():
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(result)


def _sid(prefix: str, spec) -> str:
    return f"{prefix}-{spec.sid}"


async def _connect(port: int, count: int, replies: Pass) -> List[Wire]:
    from repro.serve.protocol import MAX_LINE_BYTES

    wires = []
    for _ in range(count):
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=MAX_LINE_BYTES)
        wires.append(Wire(reader, writer, replies))
    return wires


async def _request(port: int, op: str) -> Dict:
    """One sid-less request (healthz/stats) on a fresh connection."""
    from repro.serve.protocol import MAX_LINE_BYTES

    reader, writer = await asyncio.open_connection(
        "127.0.0.1", port, limit=MAX_LINE_BYTES)
    writer.write(json.dumps({"op": op}).encode() + b"\n")
    await writer.drain()
    reply = json.loads(await reader.readline())
    writer.close()
    await writer.wait_closed()
    return reply


async def run_pass(port: int, plan: Plan, prefix: str, connections: int,
                   rate: Optional[float] = None,
                   lifetime: float = 0.0) -> Dict[str, object]:
    """Replay every session once: saturating (``rate`` None) or on the
    open-loop schedule at ``rate`` elements/s."""
    replies = Pass([_sid(prefix, spec) for spec in plan.specs])
    wires = await _connect(port, connections, replies)
    specs = plan.specs
    started = time.perf_counter()
    for index, spec in enumerate(specs):
        message = {"op": "open", "sid": _sid(prefix, spec),
                   "config": spec.config.to_dict()}
        await wires[index % connections].write(
            json.dumps(message, separators=(",", ":")).encode() + b"\n")
    await asyncio.wait_for(asyncio.gather(*replies.opened), REPLY_TIMEOUT)
    lags: List[float] = []
    due: List[List[float]] = [[0.0] * len(ends) for ends in plan.ends]
    if rate is None:
        order = [(0.0, session, chunk) for session, chunk in plan.rounds]
    else:
        start = time.perf_counter() + SCHEDULE_LEAD
        arrivals = (start + plan.arrival_slots * (plan.elements / rate)).tolist()
        order = sorted(
            (arrivals[session] + lifetime * chunk / len(ends), session, chunk)
            for session, ends in enumerate(plan.ends)
            for chunk in range(len(ends))
        )
    for due_at, session, chunk in order:
        spec = specs[session]
        sid = _sid(prefix, spec).encode()
        if rate is not None:
            now = time.perf_counter()
            if due_at > now:
                await asyncio.sleep(due_at - now)
                now = time.perf_counter()
            lags.append(now - due_at)
            due[session][chunk] = due_at
        wire = wires[session % connections]
        await wire.write(b'{"op":"events","sid":"' + sid + b'","elements":'
                         + plan.fragments[session][chunk] + b"}\n")
        if chunk == len(plan.ends[session]) - 1:
            await wire.write(b'{"op":"close","sid":"' + sid + b'"}\n')
    for wire in wires:
        await wire.writer.drain()
    summaries = await asyncio.wait_for(
        asyncio.gather(*replies.closed, return_exceptions=True), REPLY_TIMEOUT)
    ended = max(replies.close_times) if replies.close_times else time.perf_counter()
    for wire in wires:
        await wire.close()
    return {
        "replies": replies, "started": started, "ended": ended,
        "summaries": summaries, "lags": lags, "due": due,
    }


def phase_latencies(plan: Plan, result: Dict, prefix: str) -> List[float]:
    """Open-loop phase latency samples (ms): receive time minus due time."""
    replies: Pass = result["replies"]  # type: ignore[assignment]
    samples = []
    for session, spec in enumerate(plan.specs):
        sid = _sid(prefix, spec)
        for event, at in zip(replies.events.get(sid, []), replies.times.get(sid, [])):
            if event.get("ev") not in ("phase_enter", "phase_exit"):
                continue
            element = min(max(int(event["step"]) - 1, 0), spec.elements.size - 1)
            chunk = bisect.bisect_right(plan.ends[session], element)
            samples.append((at - result["due"][session][chunk]) * 1e3)
    return samples


def failed_sessions(plan: Plan, result: Dict, prefix: str) -> int:
    """Sessions that errored, closed short, or served a wrong phase stream."""
    from repro.serve.loadgen import verify_sessions

    replies: Pass = result["replies"]  # type: ignore[assignment]
    specs = [replace(spec, sid=_sid(prefix, spec)) for spec in plan.specs]
    bad = set(verify_sessions(specs, replies.events))
    for spec, summary in zip(specs, result["summaries"]):
        if not isinstance(summary, dict) or summary.get("elements") != spec.elements.size:
            bad.add(spec.sid)
    for message in replies.errors:
        bad.add(str(message.get("sid")))
    return len(bad)


def _histogram_p99_ms(stats: Dict, name: str) -> float:
    from repro.obs.metrics import Histogram

    data = stats.get("metrics", {}).get("histograms", {}).get(name)
    return Histogram.from_dict(data).quantile(0.99) * 1e3 if data else 0.0


class Server:
    """A ``repro serve`` process (optionally traced) and its port."""

    def __init__(self, argv: List[str], env, work: Path, tag: str) -> None:
        self.child = Child(argv, env, work / "logs", tag)
        self.port = self._wait_port()

    def _wait_port(self) -> int:
        deadline = time.perf_counter() + 60.0
        while time.perf_counter() < deadline:
            text = self.child.err_path.read_text()
            for line in text.splitlines():
                if line.startswith("serving on "):
                    return int(line.split()[2].rsplit(":", 1)[1])
            if self.child.popen.poll() is not None:
                break
            time.sleep(0.002)
        self.child.kill()
        raise RuntimeError(f"server did not start: {self.child.err_path.read_text()[-2000:]}")

    def peak_rss_mb(self) -> float:
        """The server's peak resident set so far (``VmHWM``)."""
        status = Path(f"/proc/{self.child.popen.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self):
        return self.child.stop(signal.SIGINT)


class ServeWorkload:
    """One serve workload: setup samples, passes, checks."""

    def __init__(self, settings: Dict, work: Path, env, seed: int) -> None:
        self.settings = settings
        #: The resident cap: 1/8 of the sessions, so every session parks
        #: and rehydrates mid-trace.
        self.max_resident = settings["sessions"] // 8
        self.work = work
        self.env = env
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.connections = usable_cpus()
        self.samples: Dict[str, List[float]] = {
            "setup_s": [], "wall_s": [], "cpu_s": [], "warm_s": [],
            "warm_cpu_s": [], "peak_rss_mb": [], "latency_ms": [], "lag_ms": [],
        }
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.servers = 0

    def server_argv(self, trace_dir: Optional[Path]) -> List[str]:
        spool = self.work / f"spool-{self.servers}"
        args = ["--port", "0", "--spool", str(spool),
                "--max-resident", str(self.max_resident)]
        if trace_dir is None:
            return [sys.executable, "-m", "repro.cli", "serve", *args]
        return python_argv("serve_child.py", str(trace_dir), *args)

    async def start(self, trace_dir: Optional[Path] = None):
        """Spawn a server and generate sessions; one setup_s sample."""
        tag = f"server-{self.servers}"
        self.servers += 1
        started = time.perf_counter()
        server = Server(self.server_argv(trace_dir), self.env, self.work, tag)
        while True:
            try:
                if (await _request(server.port, "healthz")).get("status") == "ok":
                    break
            except (ConnectionError, OSError):
                pass
            await asyncio.sleep(0.002)
        ready = time.perf_counter()
        cache = self.work / f"sessions-{tag}"
        specs = generate_sessions(self.seed, cache, self.settings["sessions"],
                                  self.settings["elements_per_session"])
        generated = time.perf_counter()
        shutil.rmtree(cache, ignore_errors=True)
        return server, specs, (ready - started) + (generated - ready)

    async def run_pass(self, server: Server, plan: Plan, open_loop=False) -> Dict:
        prefix = f"p{self.passes}"
        self.passes += 1
        rate = self.settings["offered_rate"] if open_loop else None
        result = await run_pass(server.port, plan, prefix, self.connections,
                                rate, self.settings["session_seconds"])
        self.attempted += len(plan.specs)
        self.failed += failed_sessions(plan, result, prefix)
        result["prefix"] = prefix
        result["wall_s"] = result["ended"] - result["started"]
        return result

    def warm(self, server: Server) -> None:
        """A fresh ``repro serve-stats`` process against the live server."""
        done = Child([sys.executable, "-m", "repro.cli", "serve-stats",
                      "--port", str(server.port)], self.env, self.work / "logs",
                     f"serve-stats-{len(self.samples['warm_s'])}").wait()
        self.attempted += 1
        self.failed += int(done.code != 0)
        self.samples["warm_s"].append(done.wall_s)
        self.samples["warm_cpu_s"].append(done.cpu_s)

    async def measure(self, seconds: float) -> Dict[str, float]:
        """Raw end-to-end figures.

        An open-loop pass over half of the sessions runs first, on a
        server of its own (phase latency).  Then, while the next one
        fits in ``seconds``, a fresh server with an empty spool takes one
        saturating pass over every session, so that each pass starts
        from the same server state.  Every server spawned is a
        ``setup_s`` sample; each saturating pass is followed by a
        ``repro serve-stats`` process (``warm_cpu_s``, ``warm_s``)."""
        # Byte-compile and page in the server's imports once, untimed.
        Child([sys.executable, "-c", "import repro.cli, repro.serve.server"],
              self.env, self.work / "logs", "warm-up").wait()
        server = None
        try:
            server, specs, setup = await self.start()
            self.samples["setup_s"].append(setup)
            plan = Plan(specs, self.rng)
            half = Plan(specs[::2], self.rng)
            loop = await self.run_pass(server, half, open_loop=True)
            self.samples["latency_ms"] = phase_latencies(half, loop, loop["prefix"])
            self.samples["lag_ms"] = [lag * 1e3 for lag in loop["lags"]]
            window = Window(seconds)
            while window.more():
                window.begin()
                server.stop()
                server, _, setup = await self.start()
                self.samples["setup_s"].append(setup)
                pid = server.child.popen.pid
                cpu_before = process_cpu_s(pid)
                sat = await self.run_pass(server, plan)
                self.samples["cpu_s"].append(process_cpu_s(pid) - cpu_before)
                self.samples["wall_s"].append(sat["wall_s"])
                self.samples["peak_rss_mb"].append(server.peak_rss_mb())
                self.warm(server)
                window.end()
            while len(self.samples["warm_s"]) < WARM_SAMPLES:
                self.warm(server)
            server.stop()
        finally:
            if server is not None:
                server.child.kill()
        self.elements = plan.elements
        return {name: median(self.samples[name]) for name in
                ("setup_s", "cpu_s", "warm_cpu_s", "peak_rss_mb", "wall_s",
                 "warm_s")}

    async def measure_traced(self) -> Dict[str, object]:
        """Untraced then traced saturating pass; per-layer metrics."""
        servers = []
        trace_dir = self.work / "trace"
        try:
            server, specs, _ = await self.start()
            servers.append(server)
            plan = Plan(specs, self.rng)
            untraced = await self.run_pass(server, plan)
            server.stop()
            server, _, _ = await self.start(trace_dir)
            servers.append(server)
            traced = await self.run_pass(server, plan)
            server.child.popen.send_signal(signal.SIGUSR1)
            pass_dump = trace_dir / f"server-pass-{server.child.popen.pid}.json"
            deadline = time.perf_counter() + 30.0
            while not pass_dump.exists() and time.perf_counter() < deadline:
                await asyncio.sleep(0.005)
            stats = await _request(server.port, "stats")
            loop = await self.run_pass(server, plan, open_loop=True)
            server.stop()
        finally:
            for server in servers:
                server.child.kill()
        self.elements = plan.elements
        dumps = layers.load_dumps(trace_dir)
        during = [d for d in dumps if d["role"] == "server-pass"]
        final = [d for d in dumps if d["role"] == "server"]
        return serve_layers(during, final, stats, traced, untraced,
                            [lag * 1e3 for lag in loop["lags"]])


def serve_layers(during, final, stats, traced, untraced, lags) -> Dict[str, object]:
    """Per-layer metrics of the traced server: self times during the
    saturating pass, path census over the server's whole life."""
    counters = stats.get("metrics", {}).get("counters", {})
    self_times = layers.self_times(during)
    whole = layers.self_times(final)
    counts = layers.counts(final)
    other = traced["wall_s"] - sum(self_times.values())
    metrics = {
        "workloads.run_s": whole.get("workloads.run", 0.0),
        "profiles.io_s": whole.get("profiles.io", 0.0),
        "core.kernels.dense_s": whole.get("core.kernels.dense", 0.0),
        "core.kernels.dense_members": counts.get("dense_members", 0),
        "core.kernels.batched_s": whole.get("core.kernels.batched", 0.0),
        "core.kernels.batched_members": counts.get("batched_members", 0),
        "core.bank.run_s": whole.get("core.bank.run", 0.0),
        "core.bank.lane_members": counts.get("kernel_path.legacy", 0),
        "serve.protocol.decode_s": self_times.get("serve.protocol.decode", 0.0),
        "serve.protocol.encode_s": self_times.get("serve.protocol.encode", 0.0),
        "serve.session.feed_s": self_times.get("serve.session.feed", 0.0),
        "serve.feed_p99_ms": _histogram_p99_ms(stats, "serve.feed_seconds"),
        "serve.session.park_s": self_times.get("serve.session.park", 0.0),
        "serve.session.rehydrate_s": self_times.get("serve.session.rehydrate", 0.0),
        "serve.parks": counters.get("serve.sessions_parked", 0),
        "serve.rehydrations": counters.get("serve.sessions_rehydrated", 0),
        "loadgen.lag_p99_ms": percentile(lags, 99) if lags else 0.0,
        "other_s": other,
        "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
        "trace.overhead_ratio": traced["wall_s"] / untraced["wall_s"] - 1.0,
    }
    table = {
        "traced wall_s (saturating pass)": traced["wall_s"],
        "server self times during the pass": dict(
            sorted(self_times.items(), key=lambda kv: -kv[1])),
        "other_s (server outside traced layers)": other,
    }
    return {"metrics": metrics, "table": table}
