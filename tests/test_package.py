"""Tests for the top-level package surface (what ``import repro`` promises)."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackages_importable(self):
        import repro.bench
        import repro.core
        import repro.gpusim
        import repro.multiprec
        import repro.polynomials
        import repro.tracking

        assert repro.core.GPUEvaluator is repro.GPUEvaluator

    def test_headline_workflow(self):
        """The README's quickstart snippet, condensed."""
        system = repro.random_regular_system(dimension=4, monomials_per_polynomial=2,
                                             variables_per_monomial=2, max_variable_degree=2,
                                             seed=7)
        point = repro.random_point(4, seed=1)

        gpu = repro.GPUEvaluator(system)
        result = gpu.evaluate(point)
        cpu = repro.CPUReferenceEvaluator(system)
        reference = cpu.evaluate(point)

        gpu_seconds = result.predicted_device_time(repro.GPUCostModel())
        cpu_seconds = repro.CPUCostModel().evaluation_time(reference.operations)
        assert gpu_seconds > 0 and cpu_seconds > 0
        assert len(result.values) == 4
        assert len(result.jacobian) == 4

    def test_device_constants_exported(self):
        assert repro.TESLA_C2050.multiprocessors == 14
        assert repro.XEON_X5690.clock_hz == pytest.approx(3.47e9)

    def test_subpackage_all_lists_resolve(self):
        import repro.core as core
        import repro.gpusim as gpusim
        import repro.multiprec as multiprec
        import repro.polynomials as polynomials
        import repro.tracking as tracking

        for module in (core, gpusim, multiprec, polynomials, tracking):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"


def _imported_modules(path, package):
    """Absolute names of every module an AST import in ``path`` names."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            module = node.module
            if node.level:
                base = package.rsplit(".", node.level - 1)[0]
                module = f"{base}.{module}" if module else base
            yield module
            for alias in node.names:
                yield f"{module}.{alias.name}"


REFERENCE = "repro.multiprec.reference"
CORE_REFERENCE = "repro.core.reference"


def _reference_importers(oracle):
    """Modules under ``src/repro`` outside ``repro.bench`` importing ``oracle``."""
    root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root.parent).with_suffix("").parts
        package = ".".join(parts[:-1])
        module = package if parts[-1] == "__init__" else ".".join(parts)
        if module.startswith("repro.bench") or module == oracle:
            continue
        if oracle in set(_imported_modules(path, package)):
            offenders.append(module)
    return offenders


class TestReferenceModuleBoundary:
    def test_only_benchmarks_import_the_reference_chains(self):
        """``repro.multiprec.reference`` is the oracle of the fused kernels:
        tests and ``repro.bench`` compare against it, product code never
        runs it."""
        assert _reference_importers(REFERENCE) == []

    def test_only_benchmarks_import_the_reference_walk(self):
        """``repro.core.reference`` is the oracle of the compiled evaluation
        plans: tests and ``repro.bench`` compare against it, product code
        never runs it."""
        assert _reference_importers(CORE_REFERENCE) == []

    def test_boundary_scan_sees_relative_imports(self, tmp_path):
        source = tmp_path / "probe.py"
        source.write_text("from ..multiprec import reference\n"
                          "from .reference import qd_add\n", encoding="utf-8")
        assert REFERENCE in set(_imported_modules(source, "repro.core"))
        assert REFERENCE in set(_imported_modules(source, "repro.multiprec"))

    def test_boundary_scan_sees_relative_walk_imports(self, tmp_path):
        source = tmp_path / "probe.py"
        source.write_text("from ..core import reference\n"
                          "from .reference import walk_evaluate\n",
                          encoding="utf-8")
        assert CORE_REFERENCE in set(_imported_modules(source, "repro.tracking"))
        assert CORE_REFERENCE in set(_imported_modules(source, "repro.core"))
