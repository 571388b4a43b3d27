"""Network transport: asyncio TCP server + client for the serving layer.

:class:`FeatureServer` fronts a started :class:`FeatureService` with a
stdlib ``asyncio.start_server`` listener speaking the length-prefixed
JSON+binary protocol of :mod:`repro.serve.protocol`.  One connection
multiplexes any number of in-flight requests (frames carry request ids),
so concurrent submits from one client coalesce in the service's
micro-batcher exactly like in-process peers.  The contract carried over
the wire is the service's own: a TCP response is decoded from the raw
bytes of the array the in-process ``submit`` produced, hence bit-equal
to ``generate_features(strategy, x, config=execution.merged(seed=seed))``.

Deadlines and disconnects map onto the service's withdrawal paths:

* a per-request ``timeout_s`` (header, falling back to the transport
  config's ``request_timeout_s``) rides into ``service.submit`` -- on
  expiry the one request leaves its coalescing group and its client gets
  an ``error`` frame with code ``timeout`` while flush-mates complete;
* a client that disconnects mid-request has its server-side tasks
  cancelled, which withdraws its requests the same way.

Header values reach ``service.submit`` as sent, so a frame with a tenant
that is not a string, a seed that is not a non-negative integer, a
deadline that is not a positive number or non-finite angles gets a
``bad_request`` error frame -- the client half runs the same check before
framing.

Every answer is one or more ``result`` frames of consecutive slices along
axis 0 of the response (rows of a 2-D response, values of a 1-D one).
The whole response is one frame when that frame fits ``max_frame_bytes``;
a larger one is split into as many slices per frame as fit, and one of
which not even a single slice fits fails its request with a ``protocol``
error before any of its frames is written.  A ``welcome`` over the bound
answers its ``hello`` with a connection-scoped ``protocol`` error, then
the server hangs up.  :meth:`FeatureServer.stop` drains gracefully: the
listener closes first (no new connections), in-flight requests run to
completion, then connections close.

:class:`TcpTransport` is the client half: it implements the
:class:`~repro.serve.client.Transport` protocol over a socket, caching
the ``welcome`` catalog so ``templates()`` / ``template_shape()`` stay
synchronous, filling a split answer's slices in order into one array,
and re-raising typed errors from stable wire codes.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
from typing import Any

import numpy as np

from repro.api.config import TransportConfig
from repro.serve.fairness import BackpressureError
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    _result_frame_bytes,
    decode_array,
    encode_array,
    pack_frame,
    read_frame,
)
from repro.serve.service import (
    TEMPLATE_SEED,
    FeatureService,
    RequestTimeoutError,
    ServiceClosedError,
    _check_request,
)

__all__ = ["FeatureServer", "TcpTransport"]


def _error_code(exc: BaseException) -> str:
    """Map a service-side exception onto its stable wire code."""
    if isinstance(exc, RequestTimeoutError):
        return "timeout"
    if isinstance(exc, BackpressureError):
        return "backpressure"
    if isinstance(exc, KeyError):
        return "unknown_template"
    if isinstance(exc, ServiceClosedError):
        return "unavailable"
    if isinstance(exc, ProtocolError):
        return "protocol"
    if isinstance(exc, (ValueError, TypeError)):
        return "bad_request"
    return "internal"


def _check_frame_size(frame: bytes, max_frame_bytes: int) -> None:
    """Refuse to write a frame the reading side would reject."""
    if len(frame) > max_frame_bytes:
        raise ProtocolError(
            f"frame of {len(frame)} bytes exceeds max_frame_bytes={max_frame_bytes}"
        )


def _result_frames(
    request_id: Any, result: np.ndarray, max_frame_bytes: int
) -> list[bytes]:
    """The ``result`` frames answering ``request_id`` with ``result``.

    One frame holds the whole response when it fits ``max_frame_bytes``;
    otherwise each frame holds as many consecutive slices along axis 0 as
    fit.  A response of which not even one slice fits raises
    :class:`ProtocolError`, so none of its frames is written.
    """
    result = np.ascontiguousarray(result, dtype=np.float64)
    rows = len(result) if result.ndim else 1

    def frame(lo: int, block: np.ndarray) -> bytes:
        meta, payload = encode_array(block)
        return pack_frame(
            {"type": "result", "id": request_id, "lo": lo, "rows": rows, "array": meta}, payload
        )

    whole = frame(0, result)
    if len(whole) <= max_frame_bytes:
        return [whole]
    shape = result.shape[1:]
    if not result.ndim or _result_frame_bytes(request_id, rows, shape) > max_frame_bytes:
        raise ProtocolError(
            f"response of {len(whole)} bytes exceeds max_frame_bytes="
            f"{max_frame_bytes}, and no frame fits one slice of shape {shape}"
        )
    # Trim the widest frame (every slice, header sized at the last start)
    # by as many slices as its excess over the bound needs.
    widest = _result_frame_bytes(request_id, rows, shape, rows)
    step = max(1, rows + (max_frame_bytes - widest) // (8 * math.prod(shape)))
    return [frame(lo, result[lo : lo + step]) for lo in range(0, rows, step)]


def _raise_for_code(code: str, message: str, header: dict[str, Any]) -> None:
    """Client side: re-raise the typed exception a wire code stands for."""
    if code == "timeout":
        raise RequestTimeoutError(
            message,
            template=str(header.get("template", "")),
            tenant=str(header.get("tenant", "")),
            timeout_s=header.get("timeout_s"),
        )
    if code == "backpressure":
        raise BackpressureError(message)
    if code == "unknown_template":
        raise KeyError(message)
    if code == "unavailable":
        raise ServiceClosedError(message)
    if code == "protocol":
        raise ProtocolError(message)
    if code == "bad_request":
        raise ValueError(message)
    raise RuntimeError(message)


class _Connection:
    """Server-side state of one accepted connection."""

    __slots__ = ("reader", "writer", "tasks", "max_frame_bytes")

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        max_frame_bytes: int,
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.tasks: set[asyncio.Task] = set()
        self.max_frame_bytes = max_frame_bytes

    async def send(self, header: dict[str, Any], payload: bytes = b"") -> None:
        """Write one frame (see :meth:`write`)."""
        await self.write(pack_frame(header, payload))

    async def write(self, frame: bytes) -> None:
        """Write one packed frame; drain for backpressure.

        A frame over the bound is refused with :class:`ProtocolError`
        before any byte is written, so it fails only the request that
        produced it; the peer would drop the whole connection on it.  No
        write lock: each frame is ONE bytes object and
        ``StreamWriter.write`` appends it atomically on the loop, so
        concurrent senders cannot interleave frame fragments.
        """
        _check_frame_size(frame, self.max_frame_bytes)
        self.writer.write(frame)
        await self.writer.drain()


class FeatureServer:
    """TCP front over a started :class:`FeatureService`.

    Usage::

        async with service, FeatureServer(service) as server:
            host, port = server.address
            ...

    The transport config comes from (in precedence order) the
    ``transport=`` override, ``service.config.transport``, or plain
    :class:`TransportConfig` defaults.  The server borrows the service:
    stopping the server never stops the service.
    """

    def __init__(
        self,
        service: FeatureService,
        *,
        transport: TransportConfig | None = None,
    ) -> None:
        if not isinstance(service, FeatureService):
            raise TypeError(f"service must be a FeatureService, got {service!r}")
        if transport is None:
            transport = service.config.transport
        if transport is None:
            transport = TransportConfig()
        if not isinstance(transport, TransportConfig):
            raise TypeError(f"transport must be a TransportConfig, got {transport!r}")
        self.service = service
        self.config = transport
        self._server: asyncio.Server | None = None
        self._connections: set[_Connection] = set()
        self._draining = False

    # ------------------------------------------------------------ lifecycle
    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0`` to the real one)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        host, port = self._server.sockets[0].getsockname()[:2]
        return str(host), int(port)

    async def start(self) -> FeatureServer:
        if self._server is not None:
            raise RuntimeError("server is already started")
        if not self.service.started or self.service.closed:
            raise ServiceClosedError("FeatureServer needs a started service")
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        return self

    async def stop(self) -> None:
        """Graceful drain: stop accepting, finish in-flight work, close."""
        if self._server is None:
            return
        self._draining = True
        self._server.close()
        await self._server.wait_closed()
        self._server = None
        for connection in list(self._connections):
            # In-flight request tasks answer their clients before the
            # socket closes; the read loop exits on its own at EOF.
            while connection.tasks:
                await asyncio.gather(
                    *list(connection.tasks), return_exceptions=True
                )
            with contextlib.suppress(Exception):
                connection.writer.close()
                await connection.writer.wait_closed()
        self._connections.clear()

    async def __aenter__(self) -> FeatureServer:
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # ------------------------------------------------------------ connection
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = _Connection(reader, writer, self.config.max_frame_bytes)
        self._connections.add(connection)
        try:
            while True:
                try:
                    frame = await read_frame(
                        reader, max_frame_bytes=self.config.max_frame_bytes
                    )
                    if frame is None:
                        break  # client closed cleanly
                    await self._dispatch(connection, *frame)
                except ProtocolError as exc:
                    # The stream position is untrustworthy past a framing
                    # error, and a welcome over the bound opens no session:
                    # answer once, then hang up.
                    with contextlib.suppress(Exception):
                        await connection.send(
                            {"type": "error", "id": None, "code": "protocol",
                             "message": str(exc)}
                        )
                    break
        finally:
            # A vanished client withdraws its outstanding requests: the
            # cancellation rides into service.submit, which discards each
            # still-queued request from its coalescing group.
            for task in list(connection.tasks):
                task.cancel()
            if connection.tasks:
                await asyncio.gather(*list(connection.tasks), return_exceptions=True)
            self._connections.discard(connection)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _dispatch(
        self, connection: _Connection, header: dict[str, Any], payload: bytes
    ) -> None:
        kind = header["type"]
        if kind == "hello":
            await connection.send(
                {
                    "type": "welcome",
                    "version": PROTOCOL_VERSION,
                    "templates": {
                        name: self.service.template_info(name)
                        for name in self.service.templates()
                    },
                }
            )
            return
        if kind in ("submit", "predict"):
            task = asyncio.ensure_future(
                self._serve_request(connection, kind, header, payload)
            )
            connection.tasks.add(task)
            task.add_done_callback(connection.tasks.discard)
            return
        await connection.send(
            {
                "type": "error",
                "id": header.get("id"),
                "code": "bad_request",
                "message": f"unknown message type {kind!r}",
            }
        )

    # -------------------------------------------------------------- requests
    async def _serve_request(
        self,
        connection: _Connection,
        kind: str,
        header: dict[str, Any],
        payload: bytes,
    ) -> None:
        request_id = header.get("id")
        try:
            if self._draining:
                raise ServiceClosedError("server is draining; reconnect elsewhere")
            x = decode_array(header.get("array", {}), payload)
            tenant = header.get("tenant", "default")
            # Tri-state seed: key absent = template default, null = fresh
            # entropy per call, int = that seed.
            seed = header["seed"] if "seed" in header else TEMPLATE_SEED
            timeout_s = header.get("timeout_s", self.config.request_timeout_s)
            template = str(header.get("template", ""))
            serve = self.service.predict if kind == "predict" else self.service.submit
            result = await serve(
                template, x, tenant=tenant, seed=seed, timeout_s=timeout_s
            )
            for frame in _result_frames(
                request_id, result, self.config.max_frame_bytes
            ):
                await connection.write(frame)
        except asyncio.CancelledError:
            raise
        except (ConnectionError, BrokenPipeError):
            pass  # the client is gone; nobody is listening for an answer
        except BaseException as exc:  # noqa: B036 - every failure answers the client
            error: dict[str, Any] = {
                "type": "error",
                "id": request_id,
                "code": _error_code(exc),
                "message": str(exc),
            }
            if isinstance(exc, RequestTimeoutError):
                error["template"] = exc.template
                error["tenant"] = exc.tenant
                error["timeout_s"] = exc.timeout_s
            with contextlib.suppress(Exception):
                try:
                    await connection.send(error)
                except ProtocolError:
                    # Over the frame bound: the id and code alone still
                    # answer the request, which would otherwise wait forever.
                    await connection.send({k: error[k] for k in ("type", "id", "code")})


class TcpTransport:
    """Client half of the wire protocol; a :class:`Transport` over TCP.

    Build with :meth:`connect`::

        transport = await TcpTransport.connect(host, port)
        features = await transport.submit("mnist", angles, tenant="team-a")

    One transport multiplexes concurrent requests over one socket (ids
    route responses), so ``asyncio.gather`` over many submits coalesces
    server-side exactly like in-process callers.  A request the service
    would refuse for its angles, seed or deadline raises here, before it
    is framed, with the service's own error type, and one whose frame
    exceeds ``max_frame_bytes`` raises :class:`ProtocolError` before it
    is sent.  Connection loss fails every pending request with
    :class:`ConnectionError`, and every later one at once.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        config: TransportConfig | None = None,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self.config = config if config is not None else TransportConfig()
        self._pending: dict[str, asyncio.Future] = {}
        #: A split answer so far: its array and how many slices are in.
        self._partial: dict[str, tuple[np.ndarray, int]] = {}
        self._templates: dict[str, dict[str, Any]] = {}
        self._counter = 0
        self._closed = False
        #: Why the read loop ended; set, no reply can arrive any more.
        self._lost: BaseException | None = None
        self._read_task: asyncio.Task | None = None

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        config: TransportConfig | None = None,
    ) -> TcpTransport:
        """Open a connection, handshake, and cache the template catalog."""
        reader, writer = await asyncio.open_connection(host, port)
        transport = cls(reader, writer, config=config)
        try:
            await transport._send({"type": "hello", "version": PROTOCOL_VERSION})
            frame = await read_frame(
                reader, max_frame_bytes=transport.config.max_frame_bytes
            )
            if frame is None:
                raise ConnectionError("server closed during handshake")
            header, _ = frame
            if header.get("type") == "error":
                _raise_for_code(
                    str(header.get("code", "internal")),
                    str(header.get("message", "handshake failed")),
                    header,
                )
            if header.get("type") != "welcome":
                raise ProtocolError(f"expected welcome, got {header.get('type')!r}")
        except BaseException:
            await transport.aclose()  # a failed handshake keeps no socket
            raise
        transport._templates = dict(header.get("templates", {}))
        transport._read_task = asyncio.ensure_future(transport._read_loop())
        return transport

    # ------------------------------------------------------------- catalog
    def templates(self) -> tuple[str, ...]:
        return tuple(sorted(self._templates))

    def template_shape(self, name: str) -> tuple[int, int]:
        info = self._templates.get(name)
        if info is None:
            raise KeyError(
                f"unknown template {name!r}; served: {self.templates()}"
            )
        return int(info["rows"]), int(info["cols"])

    # ------------------------------------------------------------- requests
    async def submit(
        self,
        template: str,
        x: np.ndarray,
        *,
        tenant: str = "default",
        seed: Any = TEMPLATE_SEED,
        timeout_s: float | None = None,
    ) -> np.ndarray:
        return await self._request("submit", template, x, tenant, seed, timeout_s)

    async def predict(
        self,
        template: str,
        x: np.ndarray,
        *,
        tenant: str = "default",
        seed: Any = TEMPLATE_SEED,
        timeout_s: float | None = None,
    ) -> np.ndarray:
        return await self._request("predict", template, x, tenant, seed, timeout_s)

    async def _request(
        self,
        kind: str,
        template: str,
        x: np.ndarray,
        tenant: str,
        seed: Any,
        timeout_s: float | None,
    ) -> np.ndarray:
        if self._closed:
            raise ConnectionError("transport is closed")
        if self._lost is not None:
            raise ConnectionError(f"connection lost: {self._lost}")
        x = np.asarray(x, dtype=float)
        _check_request(x, tenant, seed, timeout_s)
        self._counter += 1
        request_id = f"r{self._counter}"
        meta, payload = encode_array(x)
        header: dict[str, Any] = {
            "type": kind,
            "id": request_id,
            "template": template,
            "tenant": tenant,
            "array": meta,
        }
        if seed is not TEMPLATE_SEED:
            header["seed"] = None if seed is None else int(seed)
        if timeout_s is not None:
            header["timeout_s"] = float(timeout_s)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            await self._send(header, payload)
            return await future
        finally:
            self._pending.pop(request_id, None)
            self._partial.pop(request_id, None)

    async def _send(self, header: dict[str, Any], payload: bytes = b"") -> None:
        # Frames are single bytes objects: write() appends atomically on
        # the loop, so no lock is needed to keep frames contiguous.
        frame = pack_frame(header, payload)
        _check_frame_size(frame, self.config.max_frame_bytes)
        self._writer.write(frame)
        await self._writer.drain()

    # ------------------------------------------------------------- read loop
    async def _read_loop(self) -> None:
        error: BaseException = ConnectionError("server closed the connection")
        try:
            while True:
                frame = await read_frame(
                    self._reader, max_frame_bytes=self.config.max_frame_bytes
                )
                if frame is None:
                    break
                self._handle_frame(*frame)
        except asyncio.CancelledError:
            error = ConnectionError("transport closed")
        except BaseException as exc:  # noqa: B036 - fail pending, never die silent
            error = exc
        finally:
            self._lost = error
            self._fail_pending(error)

    def _handle_frame(self, header: dict[str, Any], payload: bytes) -> None:
        kind = header["type"]
        request_id = str(header.get("id"))
        future = self._pending.get(request_id)
        if kind == "result":
            if future is not None and not future.done():
                try:
                    answer = self._fill(request_id, header, payload)
                    if answer is not None:
                        future.set_result(answer)
                except ProtocolError as exc:
                    future.set_exception(exc)
        elif kind == "error":
            if future is not None and not future.done():
                try:
                    _raise_for_code(
                        str(header.get("code", "internal")),
                        str(header.get("message", "request failed")),
                        header,
                    )
                except BaseException as exc:  # noqa: B036 - typed re-raise
                    future.set_exception(exc)
            elif header.get("id") is None:
                # Connection-scoped error (protocol violation): fatal.
                raise ProtocolError(str(header.get("message", "protocol error")))

    def _fill(
        self, request_id: str, header: dict[str, Any], payload: bytes
    ) -> np.ndarray | None:
        """File one ``result`` frame; the answer once all its slices are in.

        A request's frames arrive in order, so each must start where the
        last one ended, stay within the answer's ``rows`` and carry slices
        of the same shape; any other frame raises :class:`ProtocolError`.
        """
        part = decode_array(header.get("array", {}), payload)
        lo, rows = header.get("lo"), header.get("rows")
        count = len(part) if part.ndim else 1
        answer, filled = self._partial.pop(request_id, (None, 0))
        if answer is None and lo == 0 and rows == count:
            return part  # the whole answer in one frame
        if not (isinstance(lo, int) and isinstance(rows, int) and rows >= 0):
            raise ProtocolError(f"result frame carries lo={lo!r}, rows={rows!r}")
        if answer is None:
            answer = np.empty((rows, *part.shape[1:]))
        expected = (filled, len(answer), answer.shape[1:])
        if (lo, rows, part.shape[1:]) != expected or lo + count > rows:
            raise ProtocolError(
                f"result frame for request {request_id!r} carries slices [{lo}, "
                f"{lo + count}) of {rows}, each {part.shape[1:]}; expected slices "
                f"from {filled} of {len(answer)}, each {answer.shape[1:]}"
            )
        answer[lo : lo + count] = part
        if lo + count == rows:
            return answer
        self._partial[request_id] = (answer, lo + count)
        return None

    def _fail_pending(self, error: BaseException) -> None:
        for future in self._pending.values():
            if not future.done():
                future.set_exception(
                    ConnectionError(f"connection lost: {error}")
                )
        self._pending.clear()
        self._partial.clear()

    # ------------------------------------------------------------- lifecycle
    async def aclose(self) -> None:
        """Close the socket and fail anything still pending."""
        if self._closed:
            return
        self._closed = True
        if self._read_task is not None:
            self._read_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._read_task
        with contextlib.suppress(Exception):
            self._writer.close()
            await self._writer.wait_closed()
        self._fail_pending(ConnectionError("transport closed"))

    async def __aenter__(self) -> TcpTransport:
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()
