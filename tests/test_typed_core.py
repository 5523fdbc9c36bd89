"""The typed-core gate, approximated locally.

CI runs mypy over ``repro.core``, ``repro.cloud``, ``repro.obs``,
``repro.matching`` (the columnar hot path lives there), ``repro.gateway``
and ``repro.client`` (the Algorithm-3 expansion and filter kernels)
with ``disallow_untyped_defs`` (see ``[tool.mypy]`` in pyproject.toml
and the ``typecheck`` workflow job).  The development container does
not ship mypy, so this test enforces the *completeness* half of that
contract — every function in the typed core carries a full signature
(parameter annotations + return annotation) — via the AST.  mypy in CI
then checks the annotations are also *consistent*.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: The typed core: the packages pyproject's ``[tool.mypy]`` overrides
#: hold to ``disallow_untyped_defs`` / ``disallow_incomplete_defs``.
TYPED_PACKAGES = (
    "repro/core",
    "repro/cloud",
    "repro/obs",
    "repro/matching",
    "repro/gateway",
    "repro/client",
)


def _typed_core_files() -> list[Path]:
    files: list[Path] = []
    for package in TYPED_PACKAGES:
        files.extend(sorted((SRC / package).rglob("*.py")))
    assert files, "typed-core packages not found under src/"
    return files


def _missing_annotations(node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    """The unannotated pieces of one signature (empty = fully typed)."""
    missing: list[str] = []
    args = node.args
    positional = args.posonlyargs + args.args
    for index, arg in enumerate(positional + args.kwonlyargs):
        if index == 0 and arg.arg in ("self", "cls"):
            continue
        if arg.annotation is None:
            missing.append(arg.arg)
    if args.vararg is not None and args.vararg.annotation is None:
        missing.append("*" + args.vararg.arg)
    if args.kwarg is not None and args.kwarg.annotation is None:
        missing.append("**" + args.kwarg.arg)
    if node.returns is None:
        missing.append("return")
    return missing


def test_typed_core_signatures_are_complete():
    """Every def in the typed-core packages is annotated."""
    offenders: list[str] = []
    for path in _typed_core_files():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            missing = _missing_annotations(node)
            if missing:
                rel = path.relative_to(REPO)
                offenders.append(
                    f"{rel}:{node.lineno} {node.name}: missing {', '.join(missing)}"
                )
    assert not offenders, (
        "untyped signatures in the typed core (CI's mypy gate would "
        "reject these):\n" + "\n".join(offenders)
    )


def test_mypy_config_targets_the_typed_core():
    """pyproject pins mypy to the same packages this test scans."""
    if sys.version_info < (3, 11):
        pytest.skip("tomllib requires Python 3.11+")
    import tomllib

    config = tomllib.loads((REPO / "pyproject.toml").read_text(encoding="utf-8"))
    mypy = config["tool"]["mypy"]
    assert set(mypy["packages"]) == {
        package.replace("/", ".") for package in TYPED_PACKAGES
    }
    assert mypy["disallow_untyped_defs"] is True
    strict_override = next(
        o
        for o in config["tool"]["mypy"]["overrides"]
        if o.get("disallow_untyped_defs") is True
    )
    assert set(strict_override["module"]) == {
        package.replace("/", ".") + ".*" for package in TYPED_PACKAGES
    }


def test_typed_core_annotations_evaluate():
    """``typing.get_type_hints`` resolves on representative public APIs.

    Guards against annotations that parse but reference names missing
    at runtime (broken forward references, conditional imports).
    """
    import typing

    from repro.cloud.server import CloudAnswer, CloudServer
    from repro.core.protocol import NetworkChannel
    from repro.obs import Observability
    from repro.obs.registry import MetricsRegistry
    from repro.obs.tracing import Tracer

    for api in (
        CloudServer.__init__,
        CloudServer.answer,
        CloudServer.apply_delta,
        CloudAnswer.__init__,
        NetworkChannel.transmit,
        Observability.__init__,
        MetricsRegistry.register_callback,
        Tracer.span,
    ):
        hints = typing.get_type_hints(api)
        assert "return" in hints, f"{api.__qualname__} lacks a return annotation"
