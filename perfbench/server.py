"""serve-tcp server child: a ``FeatureServer`` over a ``FeatureService``.

Started by ``serve.py`` with ``python3 perfbench/server.py``; it imports
the program once, then obeys one JSON command per stdin line and answers
each with one JSON line on stdout:

    setup      empty the compile caches, build + register + start the
               service and its TCP server           -> {"port"}
    teardown   stop the server and the service       -> {}
    mem_on     start tracing heap allocations        -> {}
    mem_off    stop; the peak heap growth            -> {"mem_peak_mb"}
    trace_on   wrap the traced layers (serve too)    -> {"missing"}
    mark       note the start / end of a traced phase -> {}
    report     layer metrics over the marked phase, service metrics,
               peak RSS growth                      -> {...}
    exit       tear down, write spans, leave
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import asyncio  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import ServeConfig  # noqa: E402
from repro.core.ansatz import fig8_ansatz  # noqa: E402
from repro.core.strategies import AnsatzExpansion  # noqa: E402
from repro.quantum.batched import clear_parametric_cache  # noqa: E402
from repro.quantum.compile import clear_compile_cache  # noqa: E402
from repro.serve import FeatureServer, FeatureService  # noqa: E402

import layers  # noqa: E402
from harness import POOL_WORKERS, peak_rss_mb, rss_mb  # noqa: E402
import spans  # noqa: E402

QUBITS = 6
SERVE_CONFIG = ServeConfig(
    pool="thread", max_workers=POOL_WORKERS, tenant_weights={"gold": 2.0, "silver": 1.0}
)


def templates() -> dict:
    """name -> (strategy, encoder rows).  Three single-instance templates
    (the 4-layer Fig. 8 Ansatz at rows 2/3/4: three fast-path coalescing
    groups) and one 13-instance order-1 expansion, which falls back to
    per-request execution."""
    single = [
        (f"fig8-r{rows}", AnsatzExpansion(circuit=fig8_ansatz(QUBITS, 4), order=0), rows)
        for rows in (2, 3, 4)
    ]
    shifted = ("shift13", AnsatzExpansion(circuit=fig8_ansatz(QUBITS, 1), order=1), 2)
    return {name: (strategy, rows) for name, strategy, rows in [*single, shifted]}


class Child:
    def __init__(self, spans_path: str | None) -> None:
        self.baseline_rss_mb = rss_mb()
        self.spans_path = spans_path
        self.service: FeatureService | None = None
        self.server: FeatureServer | None = None
        self.tracer: spans.Tracer | None = None
        self.window = [0.0, 0.0]

    async def setup(self) -> dict:
        clear_compile_cache()
        clear_parametric_cache()
        service = FeatureService(SERVE_CONFIG)
        for name, (strategy, rows) in templates().items():
            service.register(name, strategy, rows=rows)
        await service.start()
        self.service = service
        self.server = await FeatureServer(service).start()
        return {"port": self.server.address[1]}

    async def teardown(self) -> dict:
        if self.server is not None:
            await self.server.stop()
        if self.service is not None:
            await self.service.stop()
        self.server = self.service = None
        gc.collect()
        return {}

    def trace_on(self) -> dict:
        self.tracer = spans.start(serve=True)
        return {"missing": self.tracer.missing}

    def mark(self, name: str) -> dict:
        self.window[0 if name == "start" else 1] = time.perf_counter()
        return {}

    def mem_off(self) -> dict:
        peak = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        return {"mem_peak_mb": peak}

    def report(self) -> dict:
        out = {"rss_growth_mb": peak_rss_mb() - self.baseline_rss_mb}
        if self.service is not None:
            snapshot = self.service.metrics()
            out["service"] = {
                "coalesce_ratio": snapshot.coalesce_ratio,
                "result_cache": snapshot.result_cache,
            }
        if self.tracer is not None:
            values, bases = layers.per_request(self.tracer.spans, tuple(self.window))
            out["layers"] = values
            out["ratios"] = bases
        return out

    async def serve(self) -> None:
        loop = asyncio.get_running_loop()
        reader = asyncio.StreamReader()
        await loop.connect_read_pipe(lambda: asyncio.StreamReaderProtocol(reader), sys.stdin)
        reply({"ready": True})
        try:
            while line := await reader.readline():
                command = json.loads(line)
                cmd = command["cmd"]
                if cmd == "exit":
                    break
                if cmd == "setup":
                    reply(await self.setup())
                elif cmd == "teardown":
                    reply(await self.teardown())
                elif cmd == "mem_on":
                    tracemalloc.start()
                    reply({})
                elif cmd == "mem_off":
                    reply(self.mem_off())
                elif cmd == "trace_on":
                    reply(self.trace_on())
                elif cmd == "mark":
                    reply(self.mark(command["name"]))
                elif cmd == "report":
                    reply(self.report())
                else:
                    raise ValueError(f"unknown command {cmd!r}")
        finally:
            await self.teardown()
            if self.tracer is not None:
                self.tracer.uninstall()
                if self.spans_path:
                    self.tracer.dump(self.spans_path)


def reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, default=float) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    asyncio.run(Child(sys.argv[1] if len(sys.argv) > 1 else None).serve())
