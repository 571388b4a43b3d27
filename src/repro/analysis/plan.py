"""Config/plan lint: cross-field ``ExecutionConfig`` diagnostics.

Per-field validation already lives in ``ExecutionConfig.__post_init__`` --
anything that makes a single knob *illegal* raises there, at construction.
This module covers the next ring out: combinations that are individually
legal but jointly wrong or pathological for the execution plan they
describe.  A config that validates can still ask for more shards than the
register has amplitudes, starve a stochastic estimator of its measurement
budget, pin a GPU namespace under an estimator that bounces every chunk
back to the host, or slice the work grid below the per-dispatch overhead
crossover.  Each such finding becomes a structured
:class:`~repro.analysis.diagnostics.Diagnostic` instead of a mid-sweep
surprise.

Severities follow the admission rule: *provably wrong at runtime* (RPA101,
RPA106) is an error; *legal but likely not what you meant / will be slow*
is a warning.
"""

from __future__ import annotations

import pickle
from typing import TYPE_CHECKING

import numpy as np

from repro.analysis.diagnostics import ERROR, Diagnostic, DiagnosticReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.config import ExecutionConfig, ServeConfig

__all__ = ["MIN_EFFICIENT_CHUNK", "lint_config", "lint_serve_config"]

#: Work-grid rows below which per-job dispatch overhead (future plumbing,
#: pickling, scheduler bookkeeping priced in ``cluster.task_costs``)
#: rivals the kernel work itself.  The expensive-backend default
#: (``EXPENSIVE_CHUNK_SIZE = 8``) sits deliberately above this floor.
MIN_EFFICIENT_CHUNK = 4

#: Estimators that sample host-side after every chunk evolution: shots draw
#: ``rng.binomial`` on NumPy expectations, shadows draw random-basis snapshots.
_STOCHASTIC_ESTIMATORS = ("shots", "shadows")


def _lint_shards(config: ExecutionConfig, num_qubits: int | None) -> list[Diagnostic]:
    """RPA101: the slab decomposition needs >= 1 amplitude per shard."""
    shards = config.backend.shards
    if num_qubits is None or shards <= 2**num_qubits:
        return []
    return [
        Diagnostic(
            "RPA101",
            f"shards={shards} exceeds the 2^{num_qubits} = "
            f"{2**num_qubits} amplitudes of a {num_qubits}-qubit register; "
            f"the slab decomposition needs at least one amplitude per shard",
            fix_hint=f"use shards <= {2**num_qubits} (and ideally "
            f"<< for useful slab sizes), or widen the circuit",
            location="config.backend.shards",
        )
    ]


def _lint_round_trips(config: ExecutionConfig) -> list[Diagnostic]:
    """RPA102: stochastic estimators bounce device results back to host."""
    if config.estimator not in _STOCHASTIC_ESTIMATORS:
        return []
    resolved = config.resolved_array_backend
    if resolved == "numpy":
        return []
    spelled = (
        f"array_backend={config.array_backend!r}"
        if config.array_backend == resolved
        else f"array_backend={config.array_backend!r} (resolves to {resolved!r})"
    )
    return [
        Diagnostic(
            "RPA102",
            f"estimator={config.estimator!r} samples host-side (NumPy RNG "
            f"draws on host arrays), so {spelled} forces "
            f"a device->host round-trip per chunk",
            fix_hint="use estimator='exact' to stay device-resident, or "
            "array_backend='numpy' if sampling dominates anyway",
            location="config.array_backend",
        )
    ]


def _lint_picklability(config: ExecutionConfig) -> list[Diagnostic]:
    """RPA103: process pools need the config (and its backend) to pickle."""
    if isinstance(config.seed, np.random.Generator):
        return [
            Diagnostic(
                "RPA103",
                "seed is a live numpy Generator: the config cannot "
                "serialize (to_dict/JSON raise) and Generator state does "
                "not ship to process-pool workers",
                fix_hint="pass an int seed; workers derive independent "
                "streams from it via SeedSequence",
                location="config.seed",
            )
        ]
    try:
        pickle.dumps(config)
    except Exception as exc:
        return [
            Diagnostic(
                "RPA103",
                f"config does not pickle ({type(exc).__name__}: {exc}); "
                f"process-pool dispatch will fail at submit time",
                fix_hint="keep backend/noise-model payloads picklable "
                "(plain arrays and value objects, no lambdas or open "
                "handles)",
                location="config.backend",
            )
        ]
    return []


def _lint_chunking(config: ExecutionConfig) -> list[Diagnostic]:
    """RPA104: chunks below the dispatch-overhead crossover."""
    if config.chunk_size is None or config.chunk_size >= MIN_EFFICIENT_CHUNK:
        return []
    return [
        Diagnostic(
            "RPA104",
            f"chunk_size={config.chunk_size} is below the per-dispatch "
            f"overhead crossover ({MIN_EFFICIENT_CHUNK}); scheduling and "
            f"serialization will rival the kernel work per job",
            fix_hint=f"use chunk_size >= {MIN_EFFICIENT_CHUNK}, or None "
            f"for the backend default",
            location="config.chunk_size",
        )
    ]


def _lint_vectorize(config: ExecutionConfig) -> list[Diagnostic]:
    """RPA105: vectorize requested on a per-sample-only backend."""
    if config.vectorize != "auto" or config.backend.supports_vectorize:
        return []
    return [
        Diagnostic(
            "RPA105",
            f"vectorize='auto' requested but backend "
            f"{config.backend.name!r} has no batched engine "
            f"(supports_vectorize=False); every chunk runs the per-sample "
            f"reference path",
            fix_hint="drop vectorize='auto' (it buys nothing here), or "
            "switch to a backend with batched execution",
            location="config.vectorize",
        )
    ]


def _lint_budget(config: ExecutionConfig) -> list[Diagnostic]:
    """RPA106: a stochastic estimator with nothing to measure."""
    found: list[Diagnostic] = []
    if config.estimator == "shots" and config.shots == 0:
        found.append(
            Diagnostic(
                "RPA106",
                "estimator='shots' with shots=0: every expectation "
                "estimate would average zero samples",
                fix_hint="set shots >= 1, or use estimator='exact'",
                location="config.shots",
            )
        )
    if config.estimator == "shadows" and config.snapshots == 0:
        found.append(
            Diagnostic(
                "RPA106",
                "estimator='shadows' with snapshots=0: the classical "
                "shadow would be built from zero snapshots",
                fix_hint="set snapshots >= 1, or use estimator='exact'",
                location="config.snapshots",
            )
        )
    return found


def lint_config(
    config: ExecutionConfig, *, num_qubits: int | None = None
) -> DiagnosticReport:
    """Cross-field lint of one (already-validated) execution config.

    ``num_qubits`` is the register width of the intended workload; without
    it the width-dependent checks (RPA101) are skipped -- a config alone
    does not know how wide its circuits will be.
    """
    found = _lint_shards(config, num_qubits)
    found += _lint_round_trips(config)
    found += _lint_picklability(config)
    found += _lint_chunking(config)
    found += _lint_vectorize(config)
    found += _lint_budget(config)
    return DiagnosticReport.collect(found)


# --------------------------------------------------------------- serve plan


def _lint_batch_window(config: ServeConfig) -> list[Diagnostic]:
    """RPA110: a zero/negative window never coalesces anything."""
    if config.batch_window_ms > 0:
        return []
    if config.batch_window_ms < 0:
        # Provably wrong at runtime (the service refuses to start on it):
        # override the registered warning severity up to error.
        return [
            Diagnostic(
                "RPA110",
                f"batch_window_ms={config.batch_window_ms} is negative; "
                f"there is no such thing as a flush before admission",
                severity=ERROR,
                fix_hint="use a positive window (milliseconds), or 0 to "
                "disable coalescing explicitly",
                location="serve.batch_window_ms",
            )
        ]
    return [
        Diagnostic(
            "RPA110",
            "batch_window_ms=0 flushes every request alone: concurrent "
            "requests sharing a template fingerprint never coalesce into "
            "one stacked pass",
            fix_hint="use a small positive window (1-10 ms) to let "
            "in-flight peers share each program's evolve call",
            location="serve.batch_window_ms",
        )
    ]


def _lint_tenant_weights(config: ServeConfig) -> list[Diagnostic]:
    """RPA112: a non-positive weight starves that tenant forever."""
    return [
        Diagnostic(
            "RPA112",
            f"tenant_weights[{name!r}]={weight} can never win a "
            f"weighted-round-robin pick while any positive-weight tenant "
            f"has pending requests; tenant {name!r} starves under load",
            fix_hint="give every named tenant a positive weight (shares "
            "are relative; unnamed tenants weigh 1.0)",
            location=f"serve.tenant_weights[{name!r}]",
        )
        for name, weight in config.tenant_weights
        if weight <= 0
    ]


def _lint_transport_timeout(config: ServeConfig) -> list[Diagnostic]:
    """RPA114: a deadline inside the batch window times every request out."""
    transport = config.transport
    if transport is None or transport.request_timeout_s is None:
        return []
    if transport.request_timeout_s * 1e3 >= config.batch_window_ms:
        return []
    return [
        Diagnostic(
            "RPA114",
            f"transport.request_timeout_s={transport.request_timeout_s} is "
            f"shorter than batch_window_ms={config.batch_window_ms}: a "
            f"request's deadline can expire while it is still waiting for "
            f"its coalescing window, so every served request times out "
            f"before any flush starts",
            fix_hint="raise request_timeout_s well above the window (plus "
            "expected flush time), or shrink batch_window_ms",
            location="serve.transport.request_timeout_s",
        )
    ]


def _lint_frame_bytes(config: ServeConfig, num_features: int | None) -> list[Diagnostic]:
    """RPA115: a bound below one feature row's frame answers no multi-row request."""
    transport = config.transport
    if transport is None:
        return []
    from repro.serve.protocol import _result_frame_bytes

    cols = num_features if num_features is not None else 1
    # One row of a two-row answer, its request id as TcpTransport numbers it.
    floor = _result_frame_bytes("r1", 2, (cols,))
    if transport.max_frame_bytes >= floor:
        return []
    return [
        Diagnostic(
            "RPA115",
            f"transport.max_frame_bytes={transport.max_frame_bytes} is below "
            f"the {floor}-byte result frame of one feature row of {cols} "
            f"value(s): no split answer fits a frame, so multi-row requests "
            f"cannot be answered (each fails with the protocol code)",
            fix_hint=f"use max_frame_bytes >= {floor} (generously larger in "
            f"practice; the default is 16 MiB)",
            location="serve.transport.max_frame_bytes",
        )
    ]


def lint_serve_config(
    config: ServeConfig, *, num_qubits: int | None = None, num_features: int | None = None
) -> DiagnosticReport:
    """Cross-field lint of one (already-validated) serving config.

    Merges the serve-layer checks (RPA110-RPA115) with the nested
    execution config's plan lint, so ``repro lint --serve`` and
    :meth:`ServeConfig.diagnose` see the whole plan a service would run.
    The transport checks (RPA114, RPA115) only apply when the config
    carries a :class:`~repro.api.config.TransportConfig`; RPA115 sizes a
    response row of ``num_features`` values (one when not given).
    """
    execution = config.execution
    assert execution is not None  # ServeConfig canonicalized it
    report = lint_config(execution, num_qubits=num_qubits)
    found = _lint_batch_window(config)
    found += _lint_tenant_weights(config)
    found += _lint_transport_timeout(config)
    found += _lint_frame_bytes(config, num_features)
    return report + DiagnosticReport.collect(found)
