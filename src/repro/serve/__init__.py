"""repro.serve -- async multi-tenant feature service with micro-batching.

The serving layer the paper's hybrid HPC-QC deployment implies: many
clients, one shared device session, cross-request micro-batching so
concurrent requests for the same template fuse into one stacked kernel
pass -- with per-request bit-equality to standalone
``generate_features`` calls preserved (see :mod:`repro.serve.engine`).

Public surface::

    from repro.serve import FeatureService, ServeConfig

    service = FeatureService(ServeConfig(batch_window_ms=2.0, pool="thread"))
    service.register("mnist", strategy, rows=2)
    async with service:
        features = await service.submit("mnist", angles, tenant="team-a")
        print(service.metrics().to_dict())

and over the network (same bits, different wire -- see
:mod:`repro.serve.transport` / :mod:`repro.serve.protocol`)::

    async with service, FeatureServer(service) as server:
        host, port = server.address
        async with await TcpTransport.connect(host, port) as transport:
            features = await transport.submit("mnist", angles, tenant="team-a")

The service and the TCP transport both implement :class:`Transport`, so
code (and :func:`run_load`) written against one runs over the other.
"""

from repro.api.config import (
    SERVE_POOLS,
    TRANSPORT_CONFIG_FIELDS,
    ServeConfig,
    TransportConfig,
)
from repro.serve.batcher import MicroBatcher, PendingRequest
from repro.serve.client import LoadReport, Transport, run_load
from repro.serve.engine import (
    FlushRequest,
    TemplateArtifacts,
    build_artifacts,
    execute_flush,
)
from repro.serve.fairness import (
    AdmissionController,
    BackpressureError,
    WeightedRoundRobin,
)
from repro.serve.metrics import (
    LATENCY_WINDOW,
    MetricsSnapshot,
    ServiceMetrics,
    TenantStats,
)
from repro.serve.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    ERROR_CODES,
    FRAME_MAGIC,
    FRAME_OVERHEAD,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_array,
    encode_array,
    pack_frame,
    read_frame,
)
from repro.serve.result_cache import ResultCache, ResultCacheInfo, result_key
from repro.serve.service import (
    FeatureService,
    Registration,
    RequestTimeoutError,
    ServiceClosedError,
)
from repro.serve.transport import FeatureServer, TcpTransport

__all__ = [
    "ServeConfig",
    "SERVE_POOLS",
    "TransportConfig",
    "TRANSPORT_CONFIG_FIELDS",
    "FeatureService",
    "Registration",
    "ServiceClosedError",
    "RequestTimeoutError",
    "Transport",
    "TcpTransport",
    "FeatureServer",
    "LoadReport",
    "run_load",
    "PROTOCOL_VERSION",
    "FRAME_MAGIC",
    "FRAME_OVERHEAD",
    "DEFAULT_MAX_FRAME_BYTES",
    "ERROR_CODES",
    "ProtocolError",
    "pack_frame",
    "read_frame",
    "encode_array",
    "decode_array",
    "MicroBatcher",
    "PendingRequest",
    "AdmissionController",
    "BackpressureError",
    "WeightedRoundRobin",
    "ResultCache",
    "ResultCacheInfo",
    "result_key",
    "ServiceMetrics",
    "MetricsSnapshot",
    "TenantStats",
    "LATENCY_WINDOW",
    "FlushRequest",
    "TemplateArtifacts",
    "build_artifacts",
    "execute_flush",
]
