"""serve-tcp: requests through ``TcpTransport`` to a server child process.

The server (``server.py``) runs a ``FeatureServer`` over a
``FeatureService`` with the serving defaults (exact estimator, 2 ms batch
window, batch 32, result cache on) on a 2-thread pool with tenant weights
2:1.  This process is the only client: one event loop, one connection.

Mix: 75% of requests go to three single-instance templates (three
fast-path coalescing groups), 25% to a 13-instance template that falls
back to per-request execution; 1 in 5 requests repeats an earlier
(template, x) exactly; 1 in 8 single-instance requests carries 16 samples.

Phases after an untimed warm-up, alternating in five rounds: open-loop
Poisson arrivals at ``light`` (100/s) and ``mid`` (250/s), each request
timed from its due time, then a closed loop with 64 requests in flight.
The workload is the only one with batch-window wait, coalescing, a result
cache, admission and wire encoding; light isolates window and wire cost,
mid adds queueing, and the closed loop finds the ceiling.  ``op_p50_ms``
is the light-phase median and ``circuits_per_s`` the closed-loop
throughput in circuits delivered (rows x Ansatz instances, cache hits
included).
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.features import generate_features
from repro.serve import BackpressureError, RequestTimeoutError, TcpTransport

from harness import Run, percentile, timing
from server import SERVE_CONFIG, templates

LIGHT_RPS, MID_RPS, IN_FLIGHT = 100.0, 250.0, 64
# Shares of --seconds: light needs >= 1000 requests (ten beyond p99), the
# closed loop the longest stretch (its throughput moves most with the host).
LIGHT_SHARE, MID_SHARE, CLOSED_SHARE = 0.45, 0.2, 0.35
# The phases alternate in this many rounds, so each one samples the host
# across the whole run; the shared host's speed switches every few seconds.
ROUNDS = 5
WARMUP_S = 1.0
MEMORY_REQUESTS = 64
# Closed-loop replies in the first moments of a round, while all callers
# are still on their first request, are not steady state.
RAMP_S = 0.25
COLD_STARTS = 9
REPEAT_P, BIG_P, BIG_ROWS, SHIFTED_P = 0.2, 1 / 8, 16, 0.25
HISTORY = 256
GATE_EVERY = 20
OVERLOAD_P99_MS = 100.0


@dataclass
class Request:
    template: str
    x: np.ndarray
    tenant: str
    circuits: int


class Mix:
    """Seeded request stream over the four templates."""

    def __init__(self, seed: int, catalog: dict) -> None:
        self.rng = np.random.default_rng(seed)
        self.catalog = catalog
        self.single = sorted(name for name, (s, _) in catalog.items() if s.num_ansatze == 1)
        self.shifted = sorted(name for name, (s, _) in catalog.items() if s.num_ansatze > 1)
        self.history: list[tuple[str, np.ndarray]] = []

    def next(self) -> Request:
        rng = self.rng
        if self.history and rng.random() < REPEAT_P:
            template, x = self.history[int(rng.integers(len(self.history)))]
        else:
            if rng.random() < SHIFTED_P:
                template, rows = self.shifted[int(rng.integers(len(self.shifted)))], 1
            else:
                template = self.single[int(rng.integers(len(self.single)))]
                rows = BIG_ROWS if rng.random() < BIG_P else 1
            strategy, encoder_rows = self.catalog[template]
            x = rng.uniform(0, 2 * np.pi, (rows, encoder_rows, strategy.num_qubits))
            self.history = (self.history + [(template, x)])[-HISTORY:]
        tenant = "gold" if rng.random() < 2 / 3 else "silver"
        circuits = x.shape[0] * self.catalog[template][0].num_ansatze
        return Request(template, x, tenant, circuits)


class Phase:
    """Outcome counts and latencies of one load phase."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.latencies: list[float] = []
        self.late: list[float] = []
        self.inflight: list[int] = []
        self.counts = dict.fromkeys(
            ("attempted", "completed", "refused", "timed_out", "failed"), 0
        )
        self.wall = 0.0
        self.in_time = [0, 0]  # closed loop: replies, circuits before deadlines
        self.rounds: list[float] = []
        self.samples: list[tuple[str, np.ndarray, np.ndarray]] = []

    async def send(self, transport: TcpTransport, request: Request, start: float) -> bool:
        """One request; whether it completed."""
        self.counts["attempted"] += 1
        try:
            out = await transport.submit(request.template, request.x, tenant=request.tenant)
        except BackpressureError:
            self.counts["refused"] += 1
            self.latencies.append(float("inf"))
            return False
        except RequestTimeoutError:
            self.counts["timed_out"] += 1
            self.latencies.append(float("inf"))
            return False
        except (ConnectionError, RuntimeError, ValueError) as exc:
            print(f"{self.name}: request failed: {exc!r}", file=sys.stderr)
            self.counts["failed"] += 1
            self.latencies.append(float("inf"))
            return False
        self.latencies.append(time.perf_counter() - start)
        self.counts["completed"] += 1
        if self.counts["completed"] % GATE_EVERY == 0:
            self.samples.append((request.template, request.x, out))
        return True

    @property
    def failures(self) -> int:
        return self.counts["refused"] + self.counts["timed_out"] + self.counts["failed"]

    def summary(self) -> dict:
        lat = timing(self.latencies)
        out = {**self.counts, "latency_ms": lat, "wall_s": self.wall}
        if self.rounds:
            out["rounds_rps"] = self.rounds
        if self.late:
            out["late_p99_ms"] = percentile(self.late, 99) * 1e3
        if self.inflight:
            quarter = max(1, len(self.inflight) // 4)
            head = float(np.mean(self.inflight[:quarter]))
            tail = float(np.mean(self.inflight[-quarter:]))
            out["inflight_first_last_quarter"] = [head, tail]
            p99 = lat.get("p99", lat.get("p90", lat["p50"]))
            out["overloaded"] = bool(p99 > OVERLOAD_P99_MS or tail > 2 * head + 2)
        return out


async def open_loop(transport, mix: Mix, phase: Phase, rate: float, seconds: float, rng) -> None:
    """Poisson arrivals at ``rate`` for ``seconds``, timed from due time."""
    count = max(1, int(rate * seconds))
    requests = [mix.next() for _ in range(count)]
    offsets = np.cumsum(rng.exponential(1 / rate, count))
    tasks = []
    start = time.perf_counter()
    for request, offset in zip(requests, offsets, strict=True):
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        phase.late.append(time.perf_counter() - due)
        phase.inflight.append(sum(not t.done() for t in tasks[-512:]))
        tasks.append(asyncio.ensure_future(phase.send(transport, request, due)))
    await asyncio.gather(*tasks)
    phase.wall += time.perf_counter() - start


async def closed_loop(transport, mix: Mix, phase: Phase, seconds: float) -> None:
    """``IN_FLIGHT`` callers that each send again on every reply; replies
    between the end of the ramp and the deadline count towards throughput."""
    start = time.perf_counter()
    counted, deadline = start + min(RAMP_S, seconds / 2), start + seconds

    async def caller() -> None:
        while time.perf_counter() < deadline:
            request = mix.next()
            ok = await phase.send(transport, request, time.perf_counter())
            if ok and counted <= time.perf_counter() <= deadline:
                phase.in_time[0] += 1
                phase.in_time[1] += request.circuits

    before = phase.in_time[0]
    await asyncio.gather(*(caller() for _ in range(IN_FLIGHT)))
    phase.wall += deadline - counted
    phase.rounds.append((phase.in_time[0] - before) / (deadline - counted))


async def command(proc, payload: dict) -> dict:
    proc.stdin.write((json.dumps(payload) + "\n").encode())
    await proc.stdin.drain()
    line = await proc.stdout.readline()
    if not line:
        raise ConnectionError(f"server child exited during {payload['cmd']!r}")
    return json.loads(line)


async def cold_start(proc, catalog: dict, seed: int) -> TcpTransport:
    """Service set-up in the child on emptied compile caches, connect and
    handshake, then one request per template: everything before every
    template has answered once."""
    port = (await command(proc, {"cmd": "setup"}))["port"]
    transport = await TcpTransport.connect("127.0.0.1", port)
    rng = np.random.default_rng([seed, 1])
    for name, (strategy, rows) in catalog.items():
        x = rng.uniform(0, 2 * np.pi, (1, rows, strategy.num_qubits))
        await transport.submit(name, x)
    return transport


async def measure(transport, mix: Mix, seconds: float, rng) -> dict:
    phases = {name: Phase(name) for name in ("light", "mid", "closed")}
    share = seconds / ROUNDS
    for _ in range(ROUNDS):
        gc.collect()
        await open_loop(transport, mix, phases["light"], LIGHT_RPS, share * LIGHT_SHARE, rng)
        await open_loop(transport, mix, phases["mid"], MID_RPS, share * MID_SHARE, rng)
        await closed_loop(transport, mix, phases["closed"], share * CLOSED_SHARE)
    return phases


async def warm_up(transport, mix: Mix) -> None:
    await closed_loop(transport, mix, Phase("warmup"), WARMUP_S)


def _figures(phases: dict) -> dict:
    light, closed = phases["light"], phases["closed"]
    completed, circuits = closed.in_time
    return {
        "op_p50_ms": percentile(light.latencies, 50) * 1e3,
        "circuits_per_s": circuits / closed.wall,
        "capacity_rps": completed / closed.wall,
        "phases": {name: p.summary() for name, p in phases.items()},
    }


async def _main(args, run: Run) -> None:
    here = Path(__file__).resolve().parent
    argv = [sys.executable, str(here / "server.py")]
    if args.spans:
        argv.append(str(args.spans))
    proc = await asyncio.create_subprocess_exec(
        *argv, stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
        env=dict(os.environ),
    )
    transport = None
    try:
        if not (await proc.stdout.readline()):
            raise ConnectionError("server child failed to start")
        catalog = templates()
        setups = []

        async def cold_starts(count: int) -> None:
            for _ in range(count):
                gc.collect()
                start = time.perf_counter()
                transport = await cold_start(proc, catalog, args.seed)
                setups.append(time.perf_counter() - start)
                await transport.aclose()
                await command(proc, {"cmd": "teardown"})

        # Half the cold starts before the load phases and half after, so
        # set-up is sampled across the run rather than in one burst.
        await cold_starts(COLD_STARTS - COLD_STARTS // 2)
        rng = np.random.default_rng(args.seed)
        mix = Mix(args.seed, catalog)
        # Peak heap growth of the server over one more cold start and a fixed
        # sequence of requests.  Sent one at a time: concurrent requests make
        # the peak depend on how many happen to be in flight together.
        await command(proc, {"cmd": "mem_on"})
        transport = await cold_start(proc, catalog, args.seed)
        sequence = Phase("memory")
        for _ in range(MEMORY_REQUESTS):
            await sequence.send(transport, mix.next(), 0.0)
        mem = (await command(proc, {"cmd": "mem_off"}))["mem_peak_mb"]
        await warm_up(transport, mix)

        seconds = args.seconds / 2 if args.trace else args.seconds
        phases = await measure(transport, mix, seconds, rng)
        plain = _figures(phases)
        timed = [phases[name] for name in ("light", "mid", "closed")]
        run.attempted = sum(p.counts["attempted"] for p in timed)
        run.failed = sum(p.failures for p in timed)
        samples = [s for p in phases.values() for s in p.samples]
        run.report["server"] = await command(proc, {"cmd": "report"})
        await transport.aclose()
        transport = None
        await command(proc, {"cmd": "teardown"})
        await cold_starts(COLD_STARTS // 2)

        if args.trace:
            missing = (await command(proc, {"cmd": "trace_on"}))["missing"]
            transport = await cold_start(proc, catalog, args.seed)
            await warm_up(transport, mix)
            await command(proc, {"cmd": "mark", "name": "start"})
            traced_phases = await measure(transport, mix, seconds, rng)
            await command(proc, {"cmd": "mark", "name": "end"})
            traced = _figures(traced_phases)
            report = await command(proc, {"cmd": "report"})
            run.layers.update(report["layers"])
            late = traced_phases["light"].late + traced_phases["mid"].late
            run.layers["loadgen.late_p99_ms"] = percentile(late, 99) * 1e3
            run.report["layers"] = {"ratios": report["ratios"], "hooks_missing": missing}
            run.report["tracing_overhead"] = {
                key: traced[key] - plain[key]
                for key in ("op_p50_ms", "circuits_per_s", "capacity_rps")
            }
            run.report["traced"] = traced
            samples += [s for p in traced_phases.values() for s in p.samples]
            await transport.aclose()
            transport = None
            await command(proc, {"cmd": "teardown"})

        proc.stdin.write(b'{"cmd": "exit"}\n')
        await proc.stdin.drain()
        await asyncio.wait_for(proc.wait(), 30)
    finally:
        if transport is not None:
            await transport.aclose()
        if proc.returncode is None:
            proc.kill()
            await proc.wait()

    # Every sampled response must equal a standalone sweep bit for bit.
    execution = SERVE_CONFIG.execution
    mismatches = sum(
        not np.array_equal(
            out,
            generate_features(
                catalog[template][0], x, config=execution.merged(seed=execution.seed)
            ),
        )
        for template, x, out in samples
    )
    run.gate("responses_equal_standalone", bool(samples) and mismatches == 0,
             sampled=len(samples), mismatches=mismatches)

    run.metric("setup_s", float(np.median(setups)), "s", len(setups))
    run.metric("mem_peak_mb", mem, "MB", 1)
    light = plain["phases"]["light"]
    run.metric("op_p50_ms", plain["op_p50_ms"], "ms", light["latency_ms"]["n"])
    run.metric("circuits_per_s", plain["circuits_per_s"], "1/s", phases["closed"].in_time[0])
    run.report["untraced"] = plain
    run.report["setup_s"] = setups


def main(args) -> Run:
    run = Run(args, "serve-tcp")
    asyncio.run(_main(args, run))
    return run
