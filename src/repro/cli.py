"""Command-line entry point: quick experiment runs without writing code.

Usage::

    python -m repro table3   [--train N] [--test N] [execution flags]
    python -m repro table4   [--train N] [--test N] [execution flags]
    python -m repro scaling  [--nodes 1 2 4 8 ...]
    python -m repro budgets  [--epsilon E] [--delta D]
    python -m repro counts
    python -m repro config   [execution flags]
    python -m repro lint     [paths ...] [--num-qubits N] [--json]
                             [--strict] [--serve [serve flags]]
                             [execution flags]
    python -m repro serve    [--requests N] [--concurrency N] [--samples K]
                             [--templates N] [--tenants N] [--qubits N]
                             [--rows N] [--listen [HOST:PORT]]
                             [serve flags] [execution flags]

Execution flags (``--estimator``, ``--shots``, ``--snapshots``,
``--chunk-size``, ``--policy``, ``--compile``, ``--seed``, ``--backend
{ideal,noisy,mitigated}``, ``--noise-p1``, ``--vectorize {auto,off}``,
``--shards``, ``--array-backend {auto,numpy,cupy,torch}``) build one
:class:`~repro.api.config.ExecutionConfig` shared by every model in the
run (``--shards k`` with ``k > 1`` selects the backend
``DistributedStatevectorBackend(shards=k)``); ``repro config`` prints the
resolved config as JSON (the same wire form ``ExecutionConfig.from_json``
accepts).

Serve flags (``--window-ms``, ``--max-batch``, ``--queue-depth``,
``--queue-cost``, ``--tenant-weight NAME=W`` repeatable, ``--cache-size``
(``0`` turns the result cache off), ``--cache-ttl``, ``--pool
{serial,thread,process}``, ``--workers``) build one
:class:`~repro.api.config.ServeConfig` around the execution flags;
transport flags (``--listen [HOST:PORT]``, ``--request-timeout``,
``--max-frame-bytes``, which also decides when an answer is split) nest a
:class:`~repro.api.config.TransportConfig` inside it.  ``repro serve``
runs a multi-tenant load test through the micro-batching feature service
-- in-process by default; with ``--listen`` it starts a real TCP server
and drives the same load through a socket client -- and prints the load
report plus the service metrics snapshot as JSON; ``repro lint --serve``
lints the combined serve+transport+execution plan (codes RPA11x).

Each experiment subcommand is a reduced-size version of the corresponding
benchmark (see benchmarks/ for the full definitions and assertions).
"""

from __future__ import annotations

import argparse
import contextlib
import sys

import numpy as np

__all__ = ["main"]


def _compile_knob(text: str) -> str | int:
    """argparse type for --compile: proper CLI errors instead of tracebacks.

    The knob grammar itself ("auto"/"off"/width >= 1) is owned by
    :func:`repro.quantum.compile.resolve_fusion_width`; this only converts
    digits and rewraps the canonical error for argparse.
    """
    from repro.quantum.compile import resolve_fusion_width

    knob: str | int = text
    if text not in ("auto", "off"):
        # Non-int text falls through for resolve_fusion_width's canonical error.
        with contextlib.suppress(ValueError):
            knob = int(text)
    try:
        resolve_fusion_width(knob)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return knob


def _int_at_least(minimum: int):
    """argparse type factory for bounded integer execution flags."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"must be an int >= {minimum}, got {text!r}"
            ) from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def _add_execution_flags(
    parser: argparse.ArgumentParser,
    *,
    vectorize_default: str = "off",
    compile_default: str = "off",
) -> None:
    """The unified execution knobs, one flag per ExecutionConfig field.

    The defaults are the library's reference path (``vectorize=off``,
    ``compile=off``); serving flips both to ``auto``, the faster engines
    (every sweep mode coalesces).
    """
    from repro.hpc.scheduler import SCHEDULING_POLICIES

    group = parser.add_argument_group("execution")
    group.add_argument(
        "--estimator", choices=["exact", "shots", "shadows"], default="exact",
        help="measurement model (default: exact)",
    )
    group.add_argument("--shots", type=_int_at_least(0), default=1024)
    group.add_argument("--snapshots", type=_int_at_least(0), default=512)
    group.add_argument(
        "--chunk-size", type=_int_at_least(1), default=None,
        help="work-grid rows per job (default: backend-appropriate)",
    )
    group.add_argument(
        "--policy", choices=list(SCHEDULING_POLICIES), default="work_stealing",
        help="live dispatch submission order (default: work_stealing)",
    )
    group.add_argument(
        "--compile", type=_compile_knob, default=compile_default,
        help='circuit engine: "auto", "off" or a fusion width '
        f"(default: {compile_default})",
    )
    group.add_argument("--seed", type=int, default=0)
    group.add_argument(
        "--backend", choices=["ideal", "noisy", "mitigated"], default="ideal",
        help="execution regime (default: ideal statevector)",
    )
    group.add_argument(
        "--vectorize", choices=["auto", "off"], default=vectorize_default,
        help="batched structure-shared Q-matrix execution where the backend "
        f"supports it (default: {vectorize_default})",
    )
    group.add_argument(
        "--noise-p1", type=float, default=None,
        help="1q depolarizing probability for noisy/mitigated backends "
        "(2q is 10x, the usual hardware ratio; default: 0.002)",
    )
    group.add_argument(
        "--shards", type=_int_at_least(1), default=1,
        help="statevector slab count: >1 selects the sharded distributed "
        "backend (power of two; ideal regime only; default: 1)",
    )
    group.add_argument(
        "--array-backend", choices=["auto", "numpy", "cupy", "torch"],
        default="numpy",
        help="array namespace for the hot kernels (repro.xp); auto picks "
        "the best installed accelerator (default: numpy)",
    )


def _tenant_weight(text: str) -> tuple[str, float]:
    """argparse type for --tenant-weight NAME=WEIGHT pairs."""
    name, sep, raw = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(
            f"expected NAME=WEIGHT, got {text!r}"
        )
    try:
        weight = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"weight must be a number, got {raw!r}"
        ) from None
    return (name, weight)


def _add_serve_flags(parser: argparse.ArgumentParser) -> None:
    """The serving knobs, one flag per ServeConfig field."""
    from repro.api.config import SERVE_POOLS

    group = parser.add_argument_group("serving")
    group.add_argument(
        "--window-ms", type=float, default=2.0,
        help="micro-batch coalescing window in ms; 0 disables (default: 2)",
    )
    group.add_argument(
        "--max-batch", type=_int_at_least(1), default=32,
        help="flush a group early at this many coalesced requests "
        "(default: 32)",
    )
    group.add_argument(
        "--queue-depth", type=_int_at_least(1), default=256,
        help="per-tenant admitted-request bound; overflow is rejected with "
        "backpressure (default: 256)",
    )
    group.add_argument(
        "--queue-cost", type=float, default=None,
        help="per-tenant admitted cost-unit bound (default: unbounded)",
    )
    group.add_argument(
        "--tenant-weight", type=_tenant_weight, action="append", default=[],
        metavar="NAME=W",
        help="fairness weight for a named tenant (repeatable; unnamed "
        "tenants get weight 1)",
    )
    group.add_argument(
        "--cache-size", type=_int_at_least(0), default=1024,
        help="result-cache entries; 0 turns the cache off (default: 1024)",
    )
    group.add_argument(
        "--cache-ttl", type=float, default=None,
        help="result-cache TTL in seconds (default: no expiry)",
    )
    group.add_argument(
        "--pool", choices=list(SERVE_POOLS), default="thread",
        help="worker pool the shared device runs on (default: thread)",
    )
    group.add_argument(
        "--workers", type=_int_at_least(1), default=None,
        help="pool size (default: auto)",
    )
    group = parser.add_argument_group("transport")
    group.add_argument(
        "--listen", nargs="?", const="127.0.0.1:0", default=None,
        metavar="HOST:PORT",
        help="serve over TCP and drive the load through a real socket "
        "client (port 0 picks a free port; bare --listen means "
        "127.0.0.1:0)",
    )
    group.add_argument(
        "--request-timeout", type=float, default=30.0, metavar="S",
        help="per-request deadline in seconds; 0 disables (default: 30)",
    )
    group.add_argument(
        "--max-frame-bytes", type=_int_at_least(1), default=16 * 2**20,
        help="wire frame size bound in bytes; a response larger than one "
        "frame is split into frames of consecutive rows (default: 16 MiB)",
    )


def _listen_address(raw: str) -> tuple[str, int]:
    """Parse a ``HOST:PORT`` --listen value into its parts."""
    host, sep, port = raw.rpartition(":")
    if not sep or not host:
        print(
            f"repro: --listen expects HOST:PORT, got {raw!r}", file=sys.stderr
        )
        raise SystemExit(2)
    try:
        return host, int(port)
    except ValueError:
        print(f"repro: --listen port must be an int, got {port!r}", file=sys.stderr)
        raise SystemExit(2) from None


def _serve_config_from_args(args: argparse.Namespace):
    """Build the ServeConfig from the serve + execution + transport flags."""
    from repro.api import ServeConfig, TransportConfig

    execution = _config_from_args(args)
    host, port = _listen_address(args.listen) if args.listen else ("127.0.0.1", 0)
    try:
        transport = TransportConfig(
            host=host,
            port=port,
            request_timeout_s=args.request_timeout or None,
            max_frame_bytes=args.max_frame_bytes,
        )
        return ServeConfig(
            execution=execution,
            batch_window_ms=args.window_ms,
            max_batch_size=args.max_batch,
            max_queue_depth=args.queue_depth,
            max_queue_cost=args.queue_cost,
            tenant_weights=tuple(args.tenant_weight),
            result_cache_size=args.cache_size,
            result_cache_ttl_s=args.cache_ttl,
            pool=args.pool,
            max_workers="auto" if args.workers is None else args.workers,
            transport=transport,
        )
    except ValueError as exc:
        print(f"repro: invalid serve flags: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _config_from_args(args: argparse.Namespace):
    """Build the run's ExecutionConfig from the execution flags.

    Remaining cross-flag validation (estimator x backend regime,
    noise-probability bounds) lives in ExecutionConfig/NoiseModel; surface
    those as clean CLI errors too, not tracebacks.
    """
    from repro.api import ExecutionConfig
    from repro.quantum.backends import (
        DensityMatrixBackend,
        DistributedStatevectorBackend,
        MitigatedBackend,
    )
    from repro.quantum.noise import NoiseModel

    try:
        backend = None
        if args.backend in ("noisy", "mitigated"):
            if args.shards > 1:
                raise ValueError(
                    f"--shards {args.shards} requires --backend ideal; "
                    f"--backend {args.backend} has no sharded execution path"
                )
            p1 = 0.002 if args.noise_p1 is None else args.noise_p1
            noisy = DensityMatrixBackend(NoiseModel.depolarizing(p1))
            backend = MitigatedBackend(noisy) if args.backend == "mitigated" else noisy
        elif args.noise_p1 is not None:
            # Silently running the ideal backend under a "noisy" flag would
            # mislabel a study; fail like every other bad combination.
            raise ValueError(
                "--noise-p1 requires --backend noisy or mitigated"
            )
        elif args.shards > 1:
            backend = DistributedStatevectorBackend(shards=args.shards)
        return ExecutionConfig(
            estimator=args.estimator,
            shots=args.shots,
            snapshots=args.snapshots,
            chunk_size=args.chunk_size,
            seed=args.seed,
            compile=args.compile,
            dispatch_policy=args.policy,
            backend=backend,
            vectorize=args.vectorize,
            array_backend=args.array_backend,
        )
    except ValueError as exc:
        print(f"repro: invalid execution flags: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _cmd_config(args: argparse.Namespace) -> int:
    print(_config_from_args(args).to_json(indent=2))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Static analysis: config/plan lint + repo-invariant AST lint.

    With source paths, runs :mod:`repro.analysis.astlint` over them; the
    execution flags are always linted as a plan
    (:func:`repro.analysis.plan.lint_config`), so ``repro lint`` with no
    paths is a pure pre-flight check of a prospective run; ``--serve``
    lints the serve flags too (RPA11x via
    :func:`repro.analysis.plan.lint_serve_config`).  Exit status: 0
    clean, 1 findings at error severity (or any finding under
    ``--strict``), 2 invalid flags.
    """
    from repro.analysis.astlint import lint_paths
    from repro.analysis.plan import lint_config, lint_serve_config

    if args.serve:
        serve_config = _serve_config_from_args(args)
        report = lint_serve_config(serve_config, num_qubits=args.num_qubits)
    else:
        config = _config_from_args(args)
        report = lint_config(config, num_qubits=args.num_qubits)
    if args.paths:
        report = report + lint_paths(args.paths)
    print(report.to_json(indent=2) if args.json else report.render())
    if args.strict:
        return 0 if report.clean else 1
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """Multi-tenant load test through the feature service.

    Registers ``--templates`` distinct encodings (observable-construction
    strategies of alternating locality), then drives ``--requests``
    concurrent requests from ``--tenants`` round-robin tenants through the
    micro-batcher -- in-process by default, or through a real TCP server
    plus socket client with ``--listen``.  Prints ``{"load": ...,
    "metrics": ...}`` as JSON -- the CI smoke asserts
    ``metrics.coalesce_ratio > 1`` on this output for both paths.
    """
    import asyncio
    import json

    from repro.core.strategies import strategy_from_name
    from repro.serve import FeatureServer, FeatureService, TcpTransport, run_load

    config = _serve_config_from_args(args)
    service = FeatureService(config)
    for i in range(args.templates):
        strategy = strategy_from_name(
            "observable", num_qubits=args.qubits, locality=1 + i % 2
        )
        service.register(f"template-{i}", strategy, rows=args.rows + i // 2)
    tenants = tuple(f"tenant-{i}" for i in range(args.tenants))
    load_kwargs = dict(
        requests=args.requests,
        concurrency=args.concurrency,
        samples=args.samples,
        tenants=tenants,
        seed=args.seed,
    )

    async def drive():
        async with service:
            report = await run_load(service, **load_kwargs)
            return report, service.metrics(), None

    async def drive_tcp():
        async with service, FeatureServer(service) as server:
            host, port = server.address
            async with await TcpTransport.connect(
                host, port, config=config.transport
            ) as transport:
                report = await run_load(transport, **load_kwargs)
            return report, service.metrics(), {"host": host, "port": port}

    report, metrics, address = asyncio.run(drive_tcp() if args.listen else drive())
    payload = {"load": report.to_dict(), "metrics": metrics.to_dict()}
    if address is not None:
        payload["transport"] = address
    print(json.dumps(payload, indent=2))
    return 0 if report.completed == report.requests else 1


def _cmd_table3(args: argparse.Namespace) -> int:
    from repro.core import (
        HybridStrategy,
        ObservableConstruction,
        PostVariationalClassifier,
        VariationalClassifier,
    )
    from repro.data import binary_coat_vs_shirt
    from repro.ml import LogisticRegression, accuracy

    config = _config_from_args(args)
    split = binary_coat_vs_shirt(train_per_class=args.train, test_per_class=args.test)
    flat = split.x_train.reshape(split.num_train, -1) / (2 * np.pi)
    flat_test = split.x_test.reshape(split.num_test, -1) / (2 * np.pi)
    logistic = LogisticRegression().fit(flat, split.y_train)
    print(
        f"logistic        train {accuracy(split.y_train, logistic.predict(flat)):.3f} "
        f"test {accuracy(split.y_test, logistic.predict(flat_test)):.3f}"
    )
    var = VariationalClassifier(epochs=args.epochs).fit(split.x_train, split.y_train)
    print(
        f"variational     train {var.score(split.x_train, split.y_train):.3f} "
        f"test {var.score(split.x_test, split.y_test):.3f}"
    )
    for name, strat in (
        ("observable L=2", ObservableConstruction(qubits=4, locality=2)),
        ("hybrid 1+1", HybridStrategy(order=1, locality=1)),
    ):
        clf = PostVariationalClassifier(strategy=strat, config=config).fit(
            split.x_train, split.y_train
        )
        print(
            f"{name:<15} train {clf.score(split.x_train, split.y_train):.3f} "
            f"test {clf.score(split.x_test, split.y_test):.3f}  (m={strat.num_features})"
        )
    return 0


def _cmd_table4(args: argparse.Namespace) -> int:
    from repro.core import HybridStrategy, PostVariationalClassifier
    from repro.data import multiclass_fashion
    from repro.ml import SoftmaxRegression, accuracy

    config = _config_from_args(args)
    split = multiclass_fashion(train_total=args.train, test_total=args.test)
    flat = split.x_train.reshape(split.num_train, -1) / (2 * np.pi)
    flat_test = split.x_test.reshape(split.num_test, -1) / (2 * np.pi)
    logistic = SoftmaxRegression(num_classes=10).fit(flat, split.y_train)
    print(
        f"logistic   train {accuracy(split.y_train, logistic.predict(flat)):.3f} "
        f"test {accuracy(split.y_test, logistic.predict(flat_test)):.3f}"
    )
    pv = PostVariationalClassifier(
        strategy=HybridStrategy(order=1, locality=2), num_classes=10, config=config
    ).fit(split.x_train, split.y_train)
    print(
        f"PV 1o+2l   train {pv.score(split.x_train, split.y_train):.3f} "
        f"test {pv.score(split.x_test, split.y_test):.3f}"
    )
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    from repro.hpc import CircuitTask, NodeSpec, scaling_report, strong_scaling

    tasks = [
        CircuitTask(num_circuits=25, shots=1024, result_bytes=25 * 13 * 8)
        for _ in range(args.tasks)
    ]
    points = strong_scaling(tasks, NodeSpec(shot_rate=1e5), args.nodes)
    print(scaling_report(points))
    return 0


def _cmd_budgets(args: argparse.Namespace) -> int:
    from repro.core import table2_grid

    for label, asym in (("asymptotic", True), ("explicit constants", False)):
        print(f"-- {label} --")
        rows = table2_grid(
            k=8, n=4, d=400, order=1, locality=2,
            epsilon=args.epsilon, delta=args.delta, asymptotic=asym,
        )
        for r in rows:
            print(
                f"{r.strategy:<26} p={r.p:<4} q={r.q:<4} direct={r.direct:.3e} "
                f"shadows={r.shadows:.3e}  -> {r.winner}"
            )
    return 0


def _cmd_counts(_: argparse.Namespace) -> int:
    from repro.core import count_shift_configurations
    from repro.quantum import count_local_paulis

    print("Eq.16 circuits (k=8): " + ", ".join(
        f"R={r}: {count_shift_configurations(8, r)}" for r in range(4)
    ))
    print("Eq.18 observables (n=4): " + ", ".join(
        f"L={loc}: {count_local_paulis(4, loc)}" for loc in range(5)
    ))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    t3 = sub.add_parser("table3", help="reduced Table III run")
    t3.add_argument("--train", type=int, default=60)
    t3.add_argument("--test", type=int, default=20)
    t3.add_argument("--epochs", type=int, default=15)
    _add_execution_flags(t3)
    t3.set_defaults(fn=_cmd_table3)

    t4 = sub.add_parser("table4", help="reduced Table IV run")
    t4.add_argument("--train", type=int, default=100)
    t4.add_argument("--test", type=int, default=50)
    _add_execution_flags(t4)
    t4.set_defaults(fn=_cmd_table4)

    cf = sub.add_parser(
        "config", help="print the resolved ExecutionConfig as JSON"
    )
    _add_execution_flags(cf)
    cf.set_defaults(fn=_cmd_config)

    li = sub.add_parser(
        "lint",
        help="static analysis: plan lint of the execution flags + "
        "repo-invariant AST lint of any given source paths",
    )
    li.add_argument(
        "paths", nargs="*",
        help="files/directories for the AST lint (codes RPA3xx); "
        "omit to lint only the execution flags",
    )
    li.add_argument(
        "--num-qubits", type=_int_at_least(1), default=None,
        help="register width of the intended workload (enables the "
        "shards-vs-2^n check)",
    )
    li.add_argument(
        "--json", action="store_true", help="emit diagnostics as JSON"
    )
    li.add_argument(
        "--strict", action="store_true",
        help="exit nonzero on any finding, not just errors",
    )
    li.add_argument(
        "--serve", action="store_true",
        help="lint the serve flags as a ServeConfig plan (codes RPA11x)",
    )
    _add_execution_flags(li)
    _add_serve_flags(li)
    li.set_defaults(fn=_cmd_lint)

    sv = sub.add_parser(
        "serve",
        help="in-process multi-tenant load test of the micro-batching "
        "feature service (JSON load report + metrics)",
    )
    sv.add_argument("--requests", type=_int_at_least(1), default=64)
    sv.add_argument("--concurrency", type=_int_at_least(1), default=16)
    sv.add_argument(
        "--samples", type=_int_at_least(1), default=2,
        help="samples per request (default: 2)",
    )
    sv.add_argument(
        "--templates", type=_int_at_least(1), default=2,
        help="distinct registered templates (default: 2)",
    )
    sv.add_argument(
        "--tenants", type=_int_at_least(1), default=2,
        help="round-robin tenant count (default: 2)",
    )
    sv.add_argument("--qubits", type=_int_at_least(1), default=4)
    sv.add_argument(
        "--rows", type=_int_at_least(1), default=2,
        help="encoding rows per sample (default: 2)",
    )
    _add_serve_flags(sv)
    _add_execution_flags(sv, vectorize_default="auto", compile_default="auto")
    sv.set_defaults(fn=_cmd_serve)

    sc = sub.add_parser("scaling", help="simulated-cluster strong scaling")
    sc.add_argument("--tasks", type=int, default=128)
    sc.add_argument("--nodes", type=int, nargs="+", default=[1, 2, 4, 8, 16, 32])
    sc.set_defaults(fn=_cmd_scaling)

    bu = sub.add_parser("budgets", help="Table II measurement budgets")
    bu.add_argument("--epsilon", type=float, default=0.1)
    bu.add_argument("--delta", type=float, default=0.05)
    bu.set_defaults(fn=_cmd_budgets)

    co = sub.add_parser("counts", help="Eq. 16/18 ensemble sizes")
    co.set_defaults(fn=_cmd_counts)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
