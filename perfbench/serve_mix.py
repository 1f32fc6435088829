"""serve-mix: two closed-loop clients against ``cedar-repro serve --jobs 2``.

Why: requests are the analytic experiments (``table3``-``table6``,
``figure3``, ``restructuring``), each with a machine-spec override from
a seeded pool, so the serve layers (HTTP, cache, coalescing, job worker
processes) and the model layers do the work and the crossbar does none.
That makes it the control for every simulator optimisation.

Closed loop: each client waits for its reply before sending the next
request, as ``cedar-repro submit`` does; two clients, one per core.  Half
the requests repeat an earlier key (cache hits), and some of those repeat
the key just sent, so they arrive while it is still in flight and are
coalesced.  A request is timed from submit until its result bytes are in
hand; completion is taken from the job's SSE ``end`` event, not from a
polling wait.
"""

from __future__ import annotations

import cProfile
import hashlib
import os
import pstats
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

from perfbench import inputs
from perfbench.measure import (
    Outcome,
    Profile,
    add_per_layer,
    hardware_layers,
    timing_metrics,
    median,
)


CLIENTS = 2
SERVER_JOBS = 2

#: Server starts per run; setup_s is their median, the last one serves.
SETUPS = 3

#: Specs in the override pool: with six experiments, enough distinct
#: keys that a run never runs out of new ones.
SPECS = 300
MAX_REQUESTS = 3600

#: How often the closed loop pauses, once no request is in flight, to
#: probe host speed, and how many reference samples each pause takes.
PROBE_SECONDS = 1.0
PROBE_SAMPLES = 3

#: Keys whose job the traced run re-executes in-process.
MODEL_KEYS = 120

_ANNOUNCE = "cedar-repro serving on http://"


class Server:
    """One ``cedar-repro serve`` process on a fresh cache directory."""

    def __init__(self, root: str, workdir: str, tag: str) -> None:
        from repro.serve.client import ServeClient

        self.cache_dir = os.path.join(workdir, f"serve-cache-{tag}")
        self.log_path = os.path.join(workdir, f"serve-{tag}.log")
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        began = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                 "--jobs", str(SERVER_JOBS), "--cache-dir", self.cache_dir],
                cwd=root, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=log,
            )
        try:
            port = self._await_port()
            self.client = ServeClient(port=port, timeout=60.0)
            if self.client.healthz().get("status") not in (None, "ok"):
                raise RuntimeError("server reports unhealthy")
        except BaseException:
            self.stop()
            raise
        self.setup_seconds = time.perf_counter() - began

    def _await_port(self) -> int:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.process.returncode}: "
                    + open(self.log_path).read()[-400:]
                )
            with open(self.log_path) as log:
                for line in log:
                    if line.startswith(_ANNOUNCE):
                        address = line[len(_ANNOUNCE):].split()[0]
                        return int(address.rsplit(":", 1)[1])
            time.sleep(0.005)
        raise RuntimeError("server did not announce its port within 60 s")

    def stop(self) -> None:
        """Interrupt the server (it shuts down cleanly) and reap it."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


class State:
    def __init__(self, seed: int, root: str, workdir: str) -> None:
        self.keys = inputs.serve_keys(seed, SPECS)
        self.sequence = inputs.op_sequence(seed, len(self.keys), MAX_REQUESTS)
        self.setup_seconds: List[float] = []
        self.server: Optional[Server] = None
        for attempt in range(SETUPS):
            if self.server is not None:
                self.server.stop()
            self.server = Server(root, workdir, f"{os.getpid()}-{attempt}")
            self.setup_seconds.append(self.server.setup_seconds)

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()


class _Loop:
    """The closed loop: CLIENTS threads drawing from one request sequence."""

    def __init__(self, state: State, seconds: float) -> None:
        self.state = state
        self.deadline = time.perf_counter() + seconds
        self.lock = threading.Lock()
        self.idle = threading.Condition(self.lock)
        self.in_flight = 0
        self.next_probe = time.perf_counter()
        self.probing = 0.0
        self.position = 0
        #: (key index, cache status, milliseconds)
        self.done: List[tuple] = []
        self.bodies: Dict[int, str] = {}
        self.outcome = Outcome()

    def _next(self) -> Optional[int]:
        with self.lock:
            while True:
                now = time.perf_counter()
                if (now >= self.deadline
                        or self.position >= len(self.state.sequence)):
                    return None
                if now < self.next_probe:
                    break
                if self.in_flight:
                    self.idle.wait()
                    continue
                # Nothing in flight and the other client is parked on this
                # lock: the reference loop runs on otherwise idle cores.
                self.outcome.speed.sample(PROBE_SAMPLES)
                self.probing += time.perf_counter() - now
                self.next_probe = time.perf_counter() + PROBE_SECONDS
            key_index = self.state.sequence[self.position]
            self.position += 1
            self.in_flight += 1
            self.outcome.attempted += 1
            return key_index

    def _settled(self) -> None:
        with self.lock:
            self.in_flight -= 1
            self.idle.notify_all()

    def _request(self, key_index: int) -> None:
        from repro.errors import ServeError

        client = self.state.server.client
        experiment, spec = self.state.keys[key_index]
        config = None if spec is None else {"spec": spec}
        try:
            began = time.perf_counter()
            document = client.submit(experiment, config=config)
            job = document["job"]
            if job["state"] not in ("done", "failed"):
                for _event in client.events(job["id"]):
                    pass
            # The result's cache header names how the job resolved (hit,
            # miss or coalesced); at submit a coalesced job still reads miss.
            body, status = client.result(job["id"])
            elapsed = time.perf_counter() - began
        except (ServeError, OSError) as error:
            with self.lock:
                self.outcome.fail(f"{experiment} {spec}: {error}")
            return
        digest = hashlib.sha256(body).hexdigest()
        with self.lock:
            first = self.bodies.setdefault(key_index, digest)
            if first != digest:
                self.outcome.fail(
                    f"{experiment} {spec}: repeat body differs from the first"
                )
            self.done.append((key_index, status, elapsed * 1000.0))

    def _client(self) -> None:
        while True:
            key_index = self._next()
            if key_index is None:
                return
            try:
                self._request(key_index)
            finally:
                self._settled()

    def run(self) -> float:
        """Run the clients; returns the loop's wall time less its probes."""
        began = time.perf_counter()
        threads = [threading.Thread(target=self._client) for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - began - self.probing


def _latencies(loop: _Loop, status: str) -> List[float]:
    return [ms for _key, got, ms in loop.done if got == status]


def run(state: State, seconds: float) -> Outcome:
    """The untraced run: end-to-end metrics."""
    loop = _Loop(state, seconds)
    outcome = loop.outcome
    wall = loop.run()
    outcome.notes.append(
        f"throughput_per_s is jobs_per_s: {len(loop.done)} requests resolved "
        f"in {wall:.3f} s"
    )
    timing_metrics(outcome, len(loop.done) / wall,
                   _latencies(loop, "miss"), _latencies(loop, "hit"))
    outcome.notes.append(
        f"coalesced requests: {len(_latencies(loop, 'coalesced'))}"
    )
    return outcome


def _scrape(text: str) -> Dict[str, float]:
    """Unlabelled samples and histogram buckets from /metrics text."""
    values: Dict[str, float] = {}
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        name, _, value = line.rpartition(" ")
        values[name] = float(value)
    return values


def _histogram_p50(values: Dict[str, float], name: str) -> float:
    """Upper edge of the bucket holding the median observation."""
    total = values.get(f"{name}_count", 0.0)
    prefix = f'{name}_bucket{{le="'
    edges = sorted(
        (float(key[len(prefix):-2]), count)
        for key, count in values.items()
        if key.startswith(prefix) and not key.endswith('+Inf"}')
    )
    for edge, cumulative in edges:
        if cumulative >= total / 2.0:
            return edge
    return edges[-1][0] if edges else 0.0


def run_traced(state: State, seconds: float) -> Outcome:
    """The traced run: per-layer metrics.

    Half the run's time is the same closed loop, after which the server's
    ``/metrics`` give the serve counters.  Then the jobs of up to
    ``MODEL_KEYS`` missed keys run again in this process, through the same
    ``execute_job`` a worker process runs: plain (``model.run_ms``) and
    under cProfile.
    """
    from repro.serve.schema import canonical_config
    from repro.serve.worker import execute_job

    loop = _Loop(state, seconds / 2.0)
    wall = loop.run()
    scraped = _scrape(state.server.client.metrics_text())
    state.close()
    outcome = loop.outcome

    missed: Dict[int, float] = {}
    for key_index, status, ms in loop.done:
        if status == "miss" and len(missed) < MODEL_KEYS:
            missed.setdefault(key_index, ms)
    plain: List[float] = []
    records = 0
    overheads: List[float] = []
    profile = Profile()
    traced = 0.0
    for key_index, miss_ms in missed.items():
        experiment, spec = state.keys[key_index]
        payload = {"experiment": experiment,
                   "config": canonical_config({"spec": spec})}
        began = time.perf_counter()
        job = execute_job(payload, lambda data: None)
        elapsed = time.perf_counter() - began
        records += job["trace_meta"]["records_seen"]
        plain.append(elapsed * 1000.0)
        overheads.append(miss_ms - elapsed * 1000.0)
        profiler = cProfile.Profile()
        began = time.perf_counter()
        profiler.enable()
        execute_job(payload, lambda data: None)
        profiler.disable()
        traced += time.perf_counter() - began
        profile.add(pstats.Stats(profiler))
    values = hardware_layers(profile, words=0)
    misses = scraped.get("serve_cache_misses_total", 0.0)
    values["serve.cache_hits"] = scraped.get("serve_cache_hits_total", 0.0)
    values["serve.cache_misses"] = misses
    values["serve.coalesced"] = scraped.get("serve_coalesced_requests_total", 0.0)
    values["trace.records"] = records
    values["serve.job_ms_p50"] = _histogram_p50(scraped, "serve_job_latency_ms")
    if plain:
        values["model.run_ms"] = median(plain)
        values["parallel.task_overhead_ms"] = median(overheads)
        values["parallel.efficiency"] = (
            misses * (sum(plain) / len(plain) / 1000.0) / (SERVER_JOBS * wall)
        )
        values["bench.trace_overhead"] = traced / (sum(plain) / 1000.0)
    else:
        outcome.fail("no cache misses to re-run in-process")
    add_per_layer(outcome, values, len(plain))
    return outcome
