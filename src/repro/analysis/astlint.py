"""Codebase lint: repo invariants the generic linters cannot express.

Run as ``python -m repro.analysis.astlint src/`` (CI does) or through
``repro lint <paths>``.  Three invariants, each with a stable code:

* **RPA301 / RPA304 / RPA305 -- kernel hygiene.**  The hot kernels
  (:data:`KERNEL_BASENAMES`) have one body, written against an ``xp``
  array namespace (:mod:`repro.xp`).  A function that accepts ``xp`` but
  calls a NumPy contraction kernel directly has pinned that contraction to
  the host -- or carries a second, NumPy-only copy of the body beside the
  ``xp`` one (RPA301); importing an
  accelerator library (torch/cupy) instead of going through ``repro.xp``
  breaks the lazy-detection contract (RPA304); and drawing global
  randomness (``np.random.*`` / the ``random`` module) inside a kernel
  breaks the seed contract that every stochastic estimator pins
  bit-for-bit in tests (RPA305).

* **RPA302 -- frozen-dataclass discipline.**  ``object.__setattr__`` is the
  one sanctioned escape hatch for frozen dataclasses and only inside
  ``__post_init__`` (field canonicalization at construction).  Anywhere
  else it mutates a value object other code assumes immutable (configs are
  hashed, cached, and shipped across process pools).

* **RPA303 -- typed public surface.**  Modules under :data:`TYPED_SCOPES`
  (``repro.api``, ``repro.analysis``, ``repro.xp``) ship a ``py.typed``
  marker, so their public functions must carry complete annotations --
  every parameter (``self``/``cls`` excepted) and the return type.

The checker is pure :mod:`ast` -- no imports of the linted code -- so it
runs on any tree.  Files that do not parse abort with a single error
diagnostic for that file; the other checks are skipped.
"""

from __future__ import annotations

import argparse
import ast
import sys
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path

from repro.analysis.diagnostics import Diagnostic, DiagnosticReport

__all__ = [
    "KERNEL_BASENAMES",
    "TYPED_SCOPES",
    "lint_source",
    "lint_paths",
    "iter_python_files",
    "main",
]

#: Hot-path kernel modules (matched by basename) held to the xp-routing,
#: no-direct-accelerator-import, no-global-randomness invariants.
KERNEL_BASENAMES = frozenset(
    {"statevector.py", "batched.py", "density.py", "compile.py", "gates.py"}
)

#: Path fragments marking the typed public surface (RPA303).  A file is in
#: scope when its POSIX path contains a fragment or ends with one.
TYPED_SCOPES = ("repro/api/", "repro/analysis/", "repro/xp.py")

#: Accelerator libraries that must only ever be imported inside repro.xp.
_ACCELERATOR_MODULES = frozenset({"torch", "cupy", "cupyx"})

#: NumPy contraction kernels whose direct use inside an ``xp``-parameterized
#: function pins the hot path to the host.
_NP_HOT_CALLS = frozenset({"einsum", "tensordot", "matmul", "moveaxis"})

_FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef


def _is_kernel_module(path: str) -> bool:
    return Path(path).name in KERNEL_BASENAMES


def _in_typed_scope(path: str) -> bool:
    posix = Path(path).as_posix()
    return any(fragment in posix for fragment in TYPED_SCOPES)


def _numpy_aliases(tree: ast.Module) -> set[str]:
    """Local names bound to the numpy module (``import numpy as np``)."""
    aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name == "numpy":
                    aliases.add(item.asname or "numpy")
    return aliases


def _functions(tree: ast.Module) -> Iterator[_FunctionNode]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _all_args(node: _FunctionNode) -> list[ast.arg]:
    args = node.args
    every = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    if args.vararg is not None:
        every.append(args.vararg)
    if args.kwarg is not None:
        every.append(args.kwarg)
    return every


def _check_kernel_hygiene(
    tree: ast.Module, path: str
) -> Iterator[Diagnostic]:
    """RPA301/RPA304/RPA305 over one kernel module's AST."""
    np_names = _numpy_aliases(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            roots = (
                [item.name.split(".")[0] for item in node.names]
                if isinstance(node, ast.Import)
                else [(node.module or "").split(".")[0]]
            )
            for root in roots:
                if root in _ACCELERATOR_MODULES:
                    yield Diagnostic(
                        "RPA304",
                        f"kernel module imports {root!r} directly; "
                        f"accelerator access must go through repro.xp "
                        f"(lazy detection, one namespace per process)",
                        fix_hint="take an xp: ArrayNamespace parameter and "
                        "use its ops",
                        location=f"{path}:{node.lineno}",
                    )
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "random"
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id in np_names
            ):
                yield Diagnostic(
                    "RPA305",
                    f"kernel draws global randomness via "
                    f"np.random.{func.attr}(); stochastic estimators pin a "
                    f"bit-exact seed contract that global state breaks",
                    fix_hint="thread an explicit np.random.Generator from "
                    "the config seed",
                    location=f"{path}:{node.lineno}",
                )
    for func in _functions(tree):
        if not any(arg.arg == "xp" for arg in _all_args(func)):
            continue
        for sub in ast.walk(func):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in _NP_HOT_CALLS
                and isinstance(sub.func.value, ast.Name)
                and sub.func.value.id in np_names
            ):
                # The namespaces carry no tensordot: einsum spells any contraction.
                op = "einsum" if sub.func.attr == "tensordot" else sub.func.attr
                yield Diagnostic(
                    "RPA301",
                    f"{func.name}() takes an xp namespace but calls "
                    f"np.{sub.func.attr}() directly: that contraction is "
                    f"pinned to host NumPy regardless of the configured "
                    f"array backend",
                    fix_hint=f"call xp.{op}() instead; xp=None "
                    f"means the NumPy namespace, so one body serves every "
                    f"backend",
                    location=f"{path}:{sub.lineno}",
                )


def _check_frozen_mutation(tree: ast.Module, path: str) -> Iterator[Diagnostic]:
    """RPA302: object.__setattr__ outside __post_init__."""
    allowed: set[int] = set()
    for func in _functions(tree):
        if func.name == "__post_init__":
            for sub in ast.walk(func):
                allowed.add(id(sub))
    for node in ast.walk(tree):
        if id(node) in allowed or not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "__setattr__"
            and isinstance(func.value, ast.Name)
            and func.value.id == "object"
        ):
            yield Diagnostic(
                "RPA302",
                "object.__setattr__ outside __post_init__ mutates a frozen "
                "dataclass other code assumes immutable (configs are "
                "hashed, cached, and shipped across process pools)",
                fix_hint="build a new instance (dataclasses.replace) or "
                "confine canonicalization to __post_init__",
                location=f"{path}:{node.lineno}",
            )


def _public_functions(
    tree: ast.Module,
) -> Iterator[tuple[_FunctionNode, bool]]:
    """Yield (function, is_method) for the module's public surface.

    Public = top-level functions and methods of top-level public classes.
    Underscore-prefixed names are private -- except dunders, which *are*
    the public protocol surface.  Nested functions are implementation
    detail and skipped.
    """

    def is_public(name: str) -> bool:
        return not name.startswith("_") or (
            name.startswith("__") and name.endswith("__")
        )

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and is_public(
            node.name
        ):
            yield node, False
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and is_public(item.name):
                    yield item, True


def _check_annotations(tree: ast.Module, path: str) -> Iterator[Diagnostic]:
    """RPA303: complete annotations on the typed public surface."""
    for func, is_method in _public_functions(tree):
        args = _all_args(func)
        if is_method and args and args[0].arg in ("self", "cls"):
            args = args[1:]
        missing = [arg.arg for arg in args if arg.annotation is None]
        if func.returns is None:
            missing.append("return")
        if missing:
            yield Diagnostic(
                "RPA303",
                f"public function {func.name}() is missing annotations for "
                f"{missing}; this module ships typed (py.typed)",
                fix_hint="annotate every parameter and the return type",
                location=f"{path}:{func.lineno}",
            )


def lint_source(source: str, path: str = "<string>") -> DiagnosticReport:
    """Lint one module's source text under the rules its path selects."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return DiagnosticReport.collect(
            [
                Diagnostic(
                    "RPA303",
                    f"file does not parse: {exc.msg}",
                    fix_hint="fix the syntax error; no other checks ran",
                    location=f"{path}:{exc.lineno or 0}",
                )
            ]
        )
    found: list[Diagnostic] = []
    if _is_kernel_module(path):
        found.extend(_check_kernel_hygiene(tree, path))
    found.extend(_check_frozen_mutation(tree, path))
    if _in_typed_scope(path):
        found.extend(_check_annotations(tree, path))
    return DiagnosticReport.collect(found)


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``.py`` files."""
    for entry in paths:
        root = Path(entry)
        if root.is_dir():
            yield from sorted(root.rglob("*.py"))
        else:
            yield root


def lint_paths(paths: Iterable[str | Path]) -> DiagnosticReport:
    """Lint every Python file under ``paths`` into one merged report."""
    found: list[Diagnostic] = []
    for file in iter_python_files(paths):
        found.extend(lint_source(file.read_text(), str(file)))
    return DiagnosticReport.collect(found)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point (``python -m repro.analysis.astlint src/``)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.astlint",
        description="Repo-invariant AST lint (codes RPA301-RPA305).",
    )
    parser.add_argument("paths", nargs="+", help="files or directories to lint")
    parser.add_argument(
        "--json", action="store_true", help="emit diagnostics as a JSON array"
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero on any diagnostic, not just errors",
    )
    options = parser.parse_args(argv)
    report = lint_paths(options.paths)
    print(report.to_json(indent=2) if options.json else report.render())
    if options.strict:
        return 0 if report.clean else 1
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
