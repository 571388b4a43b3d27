"""Network transport: framing, bit-equality over TCP, split answers, errors."""

from __future__ import annotations

import asyncio
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.config import ExecutionConfig, ServeConfig, TransportConfig
from repro.core.ansatz import fig8_ansatz
from repro.core.features import generate_features
from repro.core.strategies import AnsatzExpansion, strategy_from_name
from repro.serve import (
    BackpressureError,
    FeatureServer,
    FeatureService,
    ProtocolError,
    RequestTimeoutError,
    TcpTransport,
    decode_array,
    encode_array,
    pack_frame,
    read_frame,
    run_load,
)
from repro.serve.client import Transport
from repro.serve.service import TEMPLATE_SEED

QUBITS = 3
ROWS = 2

FAST_EXECUTION = ExecutionConfig(vectorize="auto", compile="auto", seed=7)
FALLBACK_EXECUTION = ExecutionConfig(vectorize="off", seed=7)
SHOTS_EXECUTION = FAST_EXECUTION.merged(estimator="shots", shots=64)


OBSERVABLE = strategy_from_name("observable", num_qubits=QUBITS)
#: Multi-instance templates: Clifford at theta = 0 (the Pauli engine), and a
#: non-Clifford expansion point (one shared encoder pass).
PAULI_HYBRID = strategy_from_name("hybrid", num_qubits=QUBITS, layers=1)
ROTATED_HYBRID = strategy_from_name(
    "hybrid", num_qubits=QUBITS, layers=1, base_parameters=np.full(QUBITS, 0.3)
)


def make_service(
    execution: ExecutionConfig = FAST_EXECUTION, strategy=OBSERVABLE, **overrides
):
    defaults = dict(batch_window_ms=2.0, pool="serial", execution=execution)
    defaults.update(overrides)
    service = FeatureService(ServeConfig(**defaults))
    service.register("t", strategy, rows=ROWS)
    return service


def angles(k: int = 4, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(0, np.pi, size=(k, ROWS, QUBITS))


# ---------------------------------------------------------------- framing
def _pipe() -> tuple[asyncio.StreamReader, asyncio.StreamReader]:
    """A loopback: feed bytes into a reader directly."""
    return asyncio.StreamReader(), asyncio.StreamReader()


def test_frame_round_trip():
    async def main():
        header = {"type": "submit", "id": "r1", "seed": None}
        payload = np.arange(6, dtype=np.float64).tobytes()
        reader = asyncio.StreamReader()
        reader.feed_data(pack_frame(header, payload))
        reader.feed_eof()
        got_header, got_payload = await read_frame(reader)
        assert got_header == header
        assert got_payload == payload
        assert await read_frame(reader) is None  # clean EOF after

    asyncio.run(main())


def test_frame_bad_magic_rejected():
    async def main():
        reader = asyncio.StreamReader()
        reader.feed_data(b"HTTP/1.1 200 OK\r\n\r\n")
        reader.feed_eof()
        with pytest.raises(ProtocolError, match="magic"):
            await read_frame(reader)

    asyncio.run(main())


def test_frame_version_mismatch_rejected():
    async def main():
        frame = bytearray(pack_frame({"type": "hello"}))
        frame[4] = 99  # the version byte follows the 4-byte magic
        reader = asyncio.StreamReader()
        reader.feed_data(bytes(frame))
        reader.feed_eof()
        with pytest.raises(ProtocolError, match="version 99"):
            await read_frame(reader)

    asyncio.run(main())


def test_frame_oversize_rejected_before_allocation():
    async def main():
        frame = pack_frame({"type": "submit"}, b"x" * 1024)
        reader = asyncio.StreamReader()
        reader.feed_data(frame)
        reader.feed_eof()
        with pytest.raises(ProtocolError, match="max_frame_bytes"):
            await read_frame(reader, max_frame_bytes=128)

    asyncio.run(main())


def test_frame_mid_frame_close_rejected():
    async def main():
        frame = pack_frame({"type": "submit"}, b"x" * 64)
        reader = asyncio.StreamReader()
        reader.feed_data(frame[:-10])
        reader.feed_eof()
        with pytest.raises(ProtocolError, match="mid-frame"):
            await read_frame(reader)

    asyncio.run(main())


def test_array_codec_is_bit_exact():
    x = np.random.default_rng(3).standard_normal((5, 7))
    meta, payload = encode_array(x)
    assert np.array_equal(decode_array(meta, payload), x)
    # Non-contiguous views encode their logical content.
    sliced = x[::2, 1:]
    meta, payload = encode_array(sliced)
    assert np.array_equal(decode_array(meta, payload), sliced)
    with pytest.raises(ProtocolError, match="does not match"):
        decode_array({"shape": [5, 7]}, payload)


# --------------------------------------------------------- the equality chain
@pytest.mark.parametrize(
    "strategy,execution",
    [
        (OBSERVABLE, FAST_EXECUTION),
        (OBSERVABLE, FALLBACK_EXECUTION),
        (PAULI_HYBRID, FAST_EXECUTION),
        (PAULI_HYBRID, SHOTS_EXECUTION),
        (ROTATED_HYBRID, FAST_EXECUTION),
    ],
    ids=["fast", "fallback", "pauli", "shots-pauli", "shared-encoder"],
)
def test_tcp_response_bit_equal_to_in_process_and_standalone(strategy, execution):
    """The serving contract: TCP == in-process submit == generate_features."""

    async def main():
        service = make_service(execution, strategy)
        x = angles(k=4)
        async with service:
            in_process = await service.submit("t", x, seed=5)
            async with FeatureServer(service) as server:
                host, port = server.address
                async with await TcpTransport.connect(host, port) as transport:
                    over_tcp = await transport.submit("t", x, seed=5)
        return in_process, over_tcp

    in_process, over_tcp = asyncio.run(main())
    execution_cfg = execution if execution.seed == 5 else execution.merged(seed=5)
    standalone = np.asarray(
        generate_features(strategy, angles(k=4), config=execution_cfg)
    )
    assert np.array_equal(over_tcp, in_process)
    assert np.array_equal(over_tcp, standalone)


def test_request_seed_is_tri_state_over_tcp(monkeypatch):
    """Omitted = template seed (no "seed" key on the wire), int = that seed,
    None = fresh entropy -- the same three states as in-process submit."""
    import repro.serve.transport as transport_module

    sent = []
    pack = transport_module.pack_frame

    def recording_pack(header, *args, **kwargs):
        sent.append(header)
        return pack(header, *args, **kwargs)

    monkeypatch.setattr(transport_module, "pack_frame", recording_pack)
    execution = ExecutionConfig(estimator="shots", shots=64, seed=7)

    async def main():
        service = make_service(execution, result_cache_size=0)
        x = angles(k=2)
        async with service, FeatureServer(service) as server:
            host, port = server.address
            async with await TcpTransport.connect(host, port) as transport:
                omitted = await transport.submit("t", x)
                seeded = await transport.submit("t", x, seed=7)
                other = await transport.submit("t", x, seed=8)
                fresh = await transport.submit("t", x, seed=None)
        return omitted, seeded, other, fresh

    omitted, seeded, other, fresh = asyncio.run(main())
    assert np.array_equal(omitted, seeded)
    assert not np.array_equal(omitted, other)
    assert fresh.shape == omitted.shape
    requests = [h for h in sent if h.get("type") == "submit"]
    assert ["seed" in h for h in requests] == [False, True, True, True]
    assert [h.get("seed") for h in requests[1:]] == [7, 8, None]


def _received_frames(monkeypatch, submit_extra: dict | None = None) -> list:
    """Record every frame header either transport half reads off the
    socket, optionally adding ``submit_extra`` keys to each ``submit``
    header the client sends."""
    import repro.serve.transport as transport_module

    received = []
    read, pack = transport_module.read_frame, transport_module.pack_frame

    async def recording_read(*args, **kwargs):
        frame = await read(*args, **kwargs)
        if frame is not None:
            received.append(frame[0])
        return frame

    def injecting_pack(header, *args, **kwargs):
        if submit_extra and header.get("type") == "submit":
            header = {**header, **submit_extra}
        return pack(header, *args, **kwargs)

    monkeypatch.setattr(transport_module, "read_frame", recording_read)
    monkeypatch.setattr(transport_module, "pack_frame", injecting_pack)
    return received


def _frame_bytes(header: dict) -> int:
    """Wire size of a received frame: its packed header plus its payload."""
    shape = header.get("array", {}).get("shape", [])
    return len(pack_frame(header)) + 8 * int(np.prod(shape))


def test_streamed_response_bit_equal(monkeypatch):
    received = _received_frames(monkeypatch)

    async def main():
        # 16 samples x 10 features (1280 payload bytes) cannot fit one
        # 1024-byte frame: the answer is split into result frames of
        # consecutive rows, and the reassembled array must agree with
        # in-process bit for bit.
        service = make_service(transport=TransportConfig(max_frame_bytes=1024))
        x = angles(k=16)
        async with service:
            in_process = await service.submit("t", x, seed=9)
            async with FeatureServer(service) as server:
                host, port = server.address
                async with await TcpTransport.connect(host, port) as transport:
                    streamed = await transport.submit("t", x, seed=9)
        assert np.array_equal(streamed, in_process)

    asyncio.run(main())
    (submit,) = [h for h in received if h["type"] == "submit"]
    results = [h for h in received if h["type"] == "result"]
    assert len(results) >= 2
    assert all(h["id"] == submit["id"] and h["rows"] == 16 for h in results)
    assert all(_frame_bytes(h) <= 1024 for h in results)
    starts = np.cumsum([0] + [h["array"]["shape"][0] for h in results])
    assert [h["lo"] for h in results] == list(starts[:-1])
    assert starts[-1] == 16
    assert not {"begin", "block", "end"} & {h["type"] for h in received}


def test_fitting_response_is_one_result_frame_despite_stream_header(monkeypatch):
    """The frame bound alone decides streaming: a client-side ``stream``
    key is not part of the protocol and changes nothing."""
    received = _received_frames(monkeypatch, submit_extra={"stream": True})

    async def main():
        service = make_service()
        x = angles(k=6)
        async with service:
            in_process = await service.submit("t", x, seed=9)
            async with FeatureServer(service) as server:
                host, port = server.address
                async with await TcpTransport.connect(host, port) as transport:
                    over_tcp = await transport.submit("t", x, seed=9)
        assert np.array_equal(over_tcp, in_process)

    asyncio.run(main())
    (submit,) = [h for h in received if h["type"] == "submit"]
    assert submit["stream"] is True  # the server did read the key
    replies = [h["type"] for h in received if h.get("id") == submit["id"]]
    assert replies == ["submit", "result"]


def test_oversized_response_streams_automatically():
    async def main():
        # A frame bound too small for the whole response but fine for
        # per-chunk blocks: the server must stream without being asked.
        service = make_service(
            transport=TransportConfig(max_frame_bytes=2048),
            execution=FAST_EXECUTION.merged(chunk_size=2),
        )
        k = 32
        x = angles(k=k)
        async with service:
            in_process = await service.submit("t", x, seed=1)
            assert in_process.nbytes + 512 > 2048  # single frame cannot fit
            async with FeatureServer(service) as server:
                host, port = server.address
                async with await TcpTransport.connect(host, port) as transport:
                    over_tcp = await transport.submit("t", x, seed=1)
        assert np.array_equal(over_tcp, in_process)

    asyncio.run(main())


def test_oversized_response_fails_cleanly_when_streaming_disabled():
    """A 1-D (single-sample) response past the frame bound is split into
    frames of consecutive values like any other answer: it arrives
    bit-equal to in-process, and the connection carries the next request."""

    async def main():
        service = make_service(transport=TransportConfig(max_frame_bytes=400))
        wide = strategy_from_name("observable", num_qubits=QUBITS, locality=3)
        service.register("wide", wide, rows=ROWS)  # 64 features: 512 bytes
        x = angles(k=1)[0]
        async with service:
            in_process = await service.submit("wide", x, seed=1)
            async with FeatureServer(service) as server:
                host, port = server.address
                async with await TcpTransport.connect(host, port) as transport:
                    over_tcp = await transport.submit("wide", x, seed=1)
                    small = await transport.submit("t", angles(k=1)[0], seed=1)
        assert over_tcp.shape == (64,)
        assert np.array_equal(over_tcp, in_process)
        assert small.shape == (10,)

    asyncio.run(main())


# ------------------------------------------------------------ split answers
def _one_slice_frame_bytes(request_id, answer: np.ndarray) -> int:
    """The largest one-slice ``result`` frame of ``answer``: its last slice."""
    rows = len(answer)
    meta, payload = encode_array(answer[-1:])
    header = {"type": "result", "id": request_id, "lo": rows - 1, "rows": rows,
              "array": meta}
    return len(pack_frame(header, payload))


def _whole_frame_bytes(request_id, answer: np.ndarray) -> int:
    meta, payload = encode_array(answer)
    header = {"type": "result", "id": request_id, "lo": 0, "rows": len(answer),
              "array": meta}
    return len(pack_frame(header, payload))


async def _reassemble(frames: list[bytes], max_frame_bytes: int) -> asyncio.Future:
    """Feed ``frames`` through a socket-free client's frame handler; the
    future of the request they answer."""
    client = TcpTransport(asyncio.StreamReader(), None)
    future = asyncio.get_running_loop().create_future()
    client._pending["r1"] = future
    reader = asyncio.StreamReader()
    for frame in frames:
        reader.feed_data(frame)
    reader.feed_eof()
    while (frame := await read_frame(reader, max_frame_bytes=max_frame_bytes)) is not None:
        assert not future.done()  # resolved only by the answer's last frame
        client._handle_frame(*frame)
    return future


@given(
    ndim=st.sampled_from([1, 2]),
    rows=st.integers(1, 40),
    cols=st.integers(1, 80),
    position=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=80, deadline=None)
def test_split_answer_fits_the_bound_and_reassembles(ndim, rows, cols, position, seed):
    """At any bound from one slice per frame up to the whole answer, every
    ``result`` frame fits the bound and the client's reassembly is the
    answer bit for bit; below one slice no frame is written at all."""
    from repro.serve.transport import _result_frames

    shape = (cols,) if ndim == 1 else (rows, cols)
    answer = np.random.default_rng(seed).standard_normal(shape)
    lowest = _one_slice_frame_bytes("r1", answer)
    bound = lowest + round(position * (_whole_frame_bytes("r1", answer) - lowest))
    frames = _result_frames("r1", answer, bound)
    assert frames and all(len(frame) <= bound for frame in frames)
    assert np.array_equal(asyncio.run(_reassemble(frames, bound)).result(), answer)
    with pytest.raises(ProtocolError, match="max_frame_bytes"):
        _result_frames("r1", answer, lowest - 1)


def _result_frame(lo: int, rows: int, block: np.ndarray) -> bytes:
    meta, payload = encode_array(block)
    header = {"type": "result", "id": "r1", "lo": lo, "rows": rows, "array": meta}
    return pack_frame(header, payload)


@pytest.mark.parametrize(
    "frames",
    [
        [(1, 3, 3, 4)],
        [(0, 2, 3, 4), (3, 1, 3, 4)],
        [(0, 2, 3, 4), (1, 2, 3, 4)],
        [(0, 2, 3, 4), (2, 3, 3, 4)],
        [(0, 2, 3, 4), (2, 2, 2, 4)],
        [(0, 2, 3, 4), (2, 2, 3, 5)],
    ],
    ids=["late-start", "gap", "overlap", "overrun", "reshaped-slice", "changed-rows"],
)
def test_client_refuses_frames_that_do_not_continue_the_answer(frames):
    """A split answer must be filled in order from ``lo = 0`` with slices of
    one shape and within ``rows``; any other frame fails that request alone
    (the frame handler does not raise, so the connection survives).  Each
    frame is ``(lo, slices, cols, rows)``."""
    packed = [
        _result_frame(lo, rows, np.ones((slices, cols)))
        for lo, slices, cols, rows in frames
    ]
    future = asyncio.run(_reassemble(packed, 2**20))
    with pytest.raises(ProtocolError, match="result frame for request 'r1'"):
        future.result()


@pytest.mark.parametrize("bound", ["whole", "between", "one-slice"])
@pytest.mark.parametrize("sample", ["1-D", "2-D"])
def test_split_answer_over_tcp_bit_equal(monkeypatch, sample, bound):
    """TCP == in-process ``submit`` == ``generate_features`` whether the
    answer fits one frame or is split; the server reads requests under the
    same bound, so a 1-D answer's floor is the request frame, not one value."""
    received = _received_frames(monkeypatch)
    wide = strategy_from_name("observable", num_qubits=QUBITS, locality=3)
    batch = angles(k=1 if sample == "1-D" else 4)
    standalone = np.asarray(
        generate_features(wide, batch, config=FAST_EXECUTION.merged(seed=3))
    )
    x, standalone = (batch[0], standalone[0]) if sample == "1-D" else (batch, standalone)
    meta, payload = encode_array(x)
    request = len(pack_frame(
        {"type": "submit", "id": "r1", "template": "wide", "tenant": "default",
         "seed": 3, "array": meta}, payload,
    ))
    one_slice = max(_one_slice_frame_bytes("r1", standalone), request)
    whole = _whole_frame_bytes("r1", standalone)
    max_frame_bytes = {"whole": whole, "between": (whole + one_slice) // 2,
                       "one-slice": one_slice}[bound]
    transport = TransportConfig(max_frame_bytes=max_frame_bytes)

    async def main():
        service = FeatureService(ServeConfig(
            batch_window_ms=2.0, pool="serial", execution=FAST_EXECUTION,
            result_cache_size=0, transport=transport,
        ))
        service.register("wide", wide, rows=ROWS)  # 64 features
        async with service:
            in_process = await service.submit("wide", x, seed=3)
            async with FeatureServer(service) as server:
                host, port = server.address
                connect = TcpTransport.connect(host, port, config=transport)
                async with await within(connect) as client:
                    over_tcp = await within(client.submit("wide", x, seed=3))
        return in_process, over_tcp

    in_process, over_tcp = asyncio.run(main())
    assert np.array_equal(over_tcp, in_process)
    assert np.array_equal(over_tcp, standalone)
    frames = sum(h["type"] == "result" for h in received)
    assert (frames == 1) if bound == "whole" else (frames >= 2)
    if bound == "one-slice" and sample == "2-D":
        assert frames == len(standalone)


def test_oversized_welcome_fails_the_handshake_cleanly(caplog):
    """A template catalog over the frame bound answers the ``hello`` with a
    connection-scoped ``protocol`` error naming the bound, and the server
    hangs up without an unhandled exception."""

    async def main():
        bound = TransportConfig(max_frame_bytes=230)
        service = make_service(transport=bound)
        for name in ("a", "b", "c"):
            service.register(name, AnsatzExpansion(fig8_ansatz(3, 1), order=0), rows=ROWS)
        async with service, FeatureServer(service) as server:
            host, port = server.address
            with pytest.raises(ProtocolError, match="max_frame_bytes=230"):
                await within(TcpTransport.connect(host, port, config=bound))

    with caplog.at_level(logging.ERROR, logger="asyncio"):
        asyncio.run(main())
    assert not [r for r in caplog.records if r.name == "asyncio" and r.levelno >= logging.ERROR]


#: Deadline on every await of the frame-bound and connection-loss tests:
#: a request that never gets an answer fails here instead of hanging.
DEADLINE_S = 5.0


def within(awaitable):
    return asyncio.wait_for(awaitable, DEADLINE_S)


def test_oversized_block_fails_only_its_request(monkeypatch):
    """One row too wide for any frame: the server writes none of the
    answer's ``result`` frames, so that request alone fails with the
    ``protocol`` code and the same connection carries the next request."""
    received = _received_frames(monkeypatch)

    async def main():
        bound = TransportConfig(max_frame_bytes=400)
        service = make_service(transport=bound)
        wide = strategy_from_name("observable", num_qubits=4, locality=2)
        service.register("wide", wide, rows=1)  # 67 features: 536 bytes a row
        x = np.random.default_rng(0).uniform(0, np.pi, size=(3, 1, 4))
        async with service:
            async with FeatureServer(service) as server:
                host, port = server.address
                connect = TcpTransport.connect(host, port, config=bound)
                async with await within(connect) as transport:
                    with pytest.raises(ProtocolError, match="max_frame_bytes"):
                        await within(transport.submit("wide", x, seed=1))
                    small = await within(transport.submit("t", angles(k=2), seed=1))
                    assert small.shape == (2, 10)

    asyncio.run(main())
    (failed,) = [h["id"] for h in received if h.get("template") == "wide"]
    assert [h["type"] for h in received if h.get("id") == failed] == ["submit", "error"]


def test_oversized_request_fails_before_it_is_sent():
    """The client refuses a request frame over its own bound before writing
    it (the server would hang up on it), and the connection survives."""

    async def main():
        bound = TransportConfig(max_frame_bytes=400)
        service = make_service(transport=bound)
        async with service:
            async with FeatureServer(service) as server:
                host, port = server.address
                connect = TcpTransport.connect(host, port, config=bound)
                async with await within(connect) as transport:
                    with pytest.raises(ProtocolError, match="max_frame_bytes"):
                        await within(transport.submit("t", angles(k=40), seed=1))
                    small = await within(transport.submit("t", angles(k=2), seed=1))
                    assert small.shape == (2, 10)
            assert service.metrics().requests_total == 1

    asyncio.run(main())


def test_oversized_error_frame_still_answers_its_request():
    """A timeout error frame over the bound goes out bare (id and code), so
    the request fails with its typed error instead of waiting forever, and
    the connection carries the next request."""

    async def main():
        # The full timeout frame is 237 bytes; a bare one fits.  The deadline
        # expires inside the batch window.
        bound = TransportConfig(max_frame_bytes=230)
        service = make_service(transport=bound, batch_window_ms=200.0)
        async with service:
            async with FeatureServer(service) as server:
                host, port = server.address
                connect = TcpTransport.connect(host, port, config=bound)
                async with await within(connect) as transport:
                    with pytest.raises(RequestTimeoutError):
                        await within(transport.submit("t", angles(k=1), timeout_s=0.05))
                    small = await within(transport.submit("t", angles(k=1), seed=1))
                    assert small.shape == (1, 10)

    asyncio.run(main())


def test_request_after_connection_loss_fails_fast():
    """Once the server is gone no reply can arrive: every later request on
    the transport raises ``ConnectionError`` instead of waiting forever."""

    async def main():
        service = make_service()
        async with service:
            async with FeatureServer(service) as server:
                host, port = server.address
                async with await within(TcpTransport.connect(host, port)) as transport:
                    await within(transport.submit("t", angles(k=1)[0], seed=1))
                    await server.stop()
                    await asyncio.sleep(0.05)  # the client reads the hang-up
                    for _ in range(2):
                        with pytest.raises(ConnectionError, match="connection lost: "):
                            await within(transport.submit("t", angles(k=1)[0], seed=1))

    asyncio.run(main())


def test_single_sample_round_trip_over_tcp():
    async def main():
        service = make_service()
        x = angles(k=1)
        async with service:
            in_process = await service.submit("t", x[0], seed=2)
            async with FeatureServer(service) as server:
                host, port = server.address
                async with await TcpTransport.connect(host, port) as transport:
                    over_tcp = await transport.submit("t", x[0], seed=2)
        assert over_tcp.ndim == 1
        assert np.array_equal(over_tcp, in_process)

    asyncio.run(main())


# ----------------------------------------------------- coalescing over TCP
def test_concurrent_tcp_requests_coalesce():
    async def main():
        service = make_service(batch_window_ms=20.0, result_cache_size=0)
        async with service:
            async with FeatureServer(service) as server:
                host, port = server.address
                async with await TcpTransport.connect(host, port) as transport:
                    results = await asyncio.gather(
                        *(
                            transport.submit("t", angles(seed=i), seed=i)
                            for i in range(8)
                        )
                    )
            assert len(results) == 8
            metrics = service.metrics()
            assert metrics.flushed_requests_total == 8
            assert metrics.coalesce_ratio > 1.0

    asyncio.run(main())


def test_run_load_over_tcp_transport():
    async def main():
        service = make_service(result_cache_size=0)
        async with service:
            async with FeatureServer(service) as server:
                host, port = server.address
                async with await TcpTransport.connect(host, port) as transport:
                    report = await run_load(
                        transport, requests=12, concurrency=6, seed=0
                    )
            assert report.completed == 12
            assert report.rejected == 0
            assert service.metrics().coalesce_ratio > 1.0

    asyncio.run(main())


class _FailingTransport:
    """A :class:`Transport` whose every request raises ``error``."""

    def __init__(self, error: Exception) -> None:
        self.error = error

    def templates(self) -> tuple[str, ...]:
        return ("t",)

    def template_shape(self, name: str) -> tuple[int, int]:
        return (ROWS, QUBITS)

    async def submit(self, template, x, *, tenant="default", seed=TEMPLATE_SEED,
                     timeout_s=None):
        raise self.error

    async def predict(self, template, x, *, tenant="default", seed=TEMPLATE_SEED,
                      timeout_s=None):
        raise self.error


@pytest.mark.parametrize("sequential", [False, True])
def test_run_load_counts_backpressure_as_rejected(sequential):
    transport = _FailingTransport(BackpressureError("tenant queue full"))
    assert isinstance(transport, Transport)
    report = asyncio.run(
        run_load(transport, requests=8, concurrency=4, sequential=sequential)
    )
    assert (report.completed, report.rejected) == (0, 8)


@pytest.mark.parametrize("sequential", [False, True])
def test_run_load_propagates_other_failures(sequential):
    """A crash is not backpressure: it fails the load run."""
    transport = _FailingTransport(RuntimeError("kernel exploded"))
    with pytest.raises(RuntimeError, match="kernel exploded"):
        asyncio.run(
            run_load(transport, requests=8, concurrency=4, sequential=sequential)
        )


# ------------------------------------------------------------ typed errors
#: One malformed request per case: the angle to plant, the request keywords,
#: and the error the shared request check raises.
MALFORMED = {
    "nan": (np.nan, {}, ValueError),
    "inf": (np.inf, {}, ValueError),
    "seed-float": (None, {"seed": 1.5}, TypeError),
    "seed-bool": (None, {"seed": True}, TypeError),
    "seed-negative": (None, {"seed": -1}, ValueError),
    "tenant-int": (None, {"tenant": 7}, TypeError),
    "timeout-bool": (None, {"timeout_s": True}, ValueError),
}


def _malformed(case: str) -> tuple[np.ndarray, dict, type]:
    bad, kwargs, error = MALFORMED[case]
    x = angles()
    if bad is not None:
        x[1, 0, 2] = bad
    return x, kwargs, error


def assert_untouched(service: FeatureService) -> None:
    """A refused request left no trace: not counted, cached or admitted."""
    snapshot = service.metrics()
    assert snapshot.requests_total == 0
    assert snapshot.result_cache["currsize"] == 0
    assert snapshot.queue_depth == 0


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_request_fails_like_in_process(case):
    x, kwargs, error = _malformed(case)

    async def main():
        service = make_service()
        async with service:
            for _ in range(2):  # a repeat is refused again, not a cache hit
                with pytest.raises(error):
                    await service.submit("t", x, **kwargs)
            async with FeatureServer(service) as server:
                host, port = server.address
                async with await TcpTransport.connect(host, port) as transport:
                    with pytest.raises(error):
                        await transport.submit("t", x, **kwargs)
            assert_untouched(service)

    asyncio.run(main())


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_raw_frame_is_bad_request(case):
    """The server runs the check too: a raw frame that skips the client's
    gets a ``bad_request`` error frame, and nothing reaches admission."""
    x, kwargs, _ = _malformed(case)

    async def main():
        service = make_service()
        async with service:
            async with FeatureServer(service) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                meta, payload = encode_array(x)
                header = {"type": "submit", "id": "r1", "template": "t", "array": meta}
                writer.write(pack_frame({**header, **kwargs}, payload))
                await writer.drain()
                frame = await read_frame(reader)
                writer.close()
                await writer.wait_closed()
            assert frame is not None
            assert frame[0]["type"] == "error"
            assert frame[0]["code"] == "bad_request"
            assert_untouched(service)

    asyncio.run(main())


def test_error_codes_map_to_typed_exceptions():
    async def main():
        service = make_service(max_queue_depth=1, batch_window_ms=50.0,
                               result_cache_size=0)
        async with service:
            async with FeatureServer(service) as server:
                host, port = server.address
                async with await TcpTransport.connect(host, port) as transport:
                    with pytest.raises(KeyError, match="unknown template"):
                        await transport.submit("nope", angles())
                    with pytest.raises(ValueError, match="expects"):
                        await transport.submit(
                            "t", np.zeros((2, ROWS, QUBITS + 1))
                        )
                    with pytest.raises(ValueError, match="no rows"):
                        await transport.submit("t", np.zeros((0, ROWS, QUBITS)))
                    first = asyncio.ensure_future(
                        transport.submit("t", angles(seed=1))
                    )
                    # Give the first submit time to cross the socket and
                    # occupy the only admission slot.
                    for _ in range(50):
                        await asyncio.sleep(0.001)
                        if service.metrics().queue_depth > 0:
                            break
                    with pytest.raises(BackpressureError):
                        await transport.submit("t", angles(seed=2))
                    assert (await first) is not None

    asyncio.run(main())


def test_timeout_over_tcp_is_structured(monkeypatch):
    from repro.serve import engine

    real_execute = engine.execute_flush

    def slow_execute(artifacts, requests):
        import time as _time

        _time.sleep(0.25)
        return real_execute(artifacts, requests)

    monkeypatch.setattr("repro.serve.service.execute_flush", slow_execute)

    async def main():
        service = make_service(result_cache_size=0)
        async with service:
            async with FeatureServer(service) as server:
                host, port = server.address
                async with await TcpTransport.connect(host, port) as transport:
                    with pytest.raises(RequestTimeoutError) as info:
                        await transport.submit(
                            "t", angles(seed=1), timeout_s=0.05
                        )
                    assert info.value.template == "t"
                    assert info.value.timeout_s == 0.05
            # The abandoned flush still drains without orphaned futures.
        assert service.metrics().timeouts_total == 1

    asyncio.run(main())


def test_protocol_violation_answered_then_disconnected():
    async def main():
        service = make_service()
        async with service:
            async with FeatureServer(service) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"GET / HTTP/1.1\r\n\r\n")
                await writer.drain()
                frame = await read_frame(reader)
                assert frame is not None
                header, _ = frame
                assert header["type"] == "error"
                assert header["code"] == "protocol"
                assert await reader.read() == b""  # server hung up
                writer.close()
                await writer.wait_closed()

    asyncio.run(main())


# ----------------------------------------------- disconnects and draining
def test_client_disconnect_cancels_server_side():
    async def main():
        service = make_service(batch_window_ms=200.0, result_cache_size=0)
        async with service:
            async with FeatureServer(service) as server:
                host, port = server.address
                transport = await TcpTransport.connect(host, port)
                submit = asyncio.ensure_future(
                    transport.submit("t", angles(seed=1))
                )
                for _ in range(100):
                    await asyncio.sleep(0.001)
                    if service.metrics().queue_depth > 0:
                        break
                assert service.metrics().queue_depth == 1
                # Vanishing mid-window withdraws the queued request and
                # releases its admission units.
                await transport.aclose()
                with pytest.raises(ConnectionError):
                    await submit
                for _ in range(100):
                    await asyncio.sleep(0.001)
                    if service.metrics().queue_depth == 0:
                        break
                assert service.metrics().queue_depth == 0

    asyncio.run(main())


def test_graceful_drain_finishes_inflight_then_refuses():
    async def main():
        service = make_service(batch_window_ms=30.0, result_cache_size=0)
        async with service:
            server = FeatureServer(service)
            await server.start()
            host, port = server.address
            transport = await TcpTransport.connect(host, port)
            inflight = asyncio.ensure_future(
                transport.submit("t", angles(seed=1), seed=1)
            )
            for _ in range(100):
                await asyncio.sleep(0.001)
                if service.metrics().queue_depth > 0:
                    break
            stop = asyncio.ensure_future(server.stop())
            # The in-flight request completes (and bit-equal at that).
            result = await inflight
            await stop
            expected = await service.submit("t", angles(seed=1), seed=1)
            assert np.array_equal(result, expected)
            # New connections are refused after drain.
            with pytest.raises(OSError):
                await TcpTransport.connect(host, port)
            await transport.aclose()

    asyncio.run(main())


def test_server_requires_started_service():
    async def main():
        service = make_service()
        server = FeatureServer(service)
        with pytest.raises(Exception, match="started"):
            await server.start()

    asyncio.run(main())


def test_server_uses_serve_config_transport():
    async def main():
        service = make_service(
            transport=TransportConfig(host="127.0.0.1", port=0)
        )
        async with service:
            async with FeatureServer(service) as server:
                assert server.config is service.config.transport
                host, _port = server.address
                assert host == "127.0.0.1"

    asyncio.run(main())


# --------------------------------------------------------------- the client
def test_feature_client_over_tcp_matches_in_process():
    """``TcpTransport.submit(tenant=, seed=)`` equals the in-process call."""

    async def main():
        service = make_service(result_cache_size=0)
        x = angles(k=3)
        async with service:
            assert isinstance(service, Transport)
            in_process = await service.submit("t", x, tenant="a", seed=4)
            async with FeatureServer(service) as server:
                host, port = server.address
                async with await TcpTransport.connect(host, port) as transport:
                    over_tcp = await transport.submit("t", x, tenant="a", seed=4)
            tenants = [name for name, _ in service.metrics().tenants]
        assert np.array_equal(over_tcp, in_process)
        assert tenants == ["a"]

    asyncio.run(main())


def test_predict_over_tcp():
    class DoubleHead:
        def predict(self, features):
            return features * 2

    async def main():
        service = make_service()
        service.register(
            "headed",
            strategy_from_name("observable", num_qubits=QUBITS),
            rows=ROWS,
            head=DoubleHead(),
        )
        x = angles(k=2)
        async with service:
            in_process = await service.predict("headed", x, seed=6)
            async with FeatureServer(service) as server:
                host, port = server.address
                async with await TcpTransport.connect(host, port) as transport:
                    assert transport.templates() == ("headed", "t")
                    assert transport.template_shape("headed") == (ROWS, QUBITS)
                    over_tcp = await transport.predict("headed", x, seed=6)
                    with pytest.raises(ValueError, match="no head"):
                        await transport.predict("t", x)
        assert np.array_equal(over_tcp, in_process)

    asyncio.run(main())
