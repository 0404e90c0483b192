"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper, writes the
series to ``benchmarks/results/`` (CSV/JSON), prints it, and asserts the
qualitative shape the paper reports.  Heavy objects (the ResNet-50 workload
and a memoising simulation framework) are shared across the whole benchmark
session so each design point is only ever evaluated once.

Collection and smoke mode
-------------------------
``bench_*.py`` files do not match pytest's default ``test_*`` pattern, so the
tier-1 run never picks them up.  The :func:`pytest_collect_file` hook below
collects them whenever the benchmarks directory (or one of its files) is
explicitly targeted, e.g. ``pytest -q benchmarks``.

Every collected benchmark also carries the ``smoke`` marker;
``pytest -q benchmarks -m smoke`` runs each benchmark exactly once with
pytest-benchmark's timing rounds disabled — a fast import/API sanity sweep of
the whole bench suite.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.config import default_sweep_chip, optimal_chip
from repro.core.simulation import SimulationFramework
from repro.nn import build_resnet50

RESULTS_DIR = Path(__file__).parent / "results"
BENCHMARKS_DIR = Path(__file__).parent


def _invocation_paths(config):
    for arg in config.invocation_params.args:
        path = Path(str(arg).split("::")[0])
        if not path.is_absolute():
            path = config.invocation_params.dir / path
        try:
            yield path.resolve()
        except OSError:  # malformed CLI arg (an option value, etc.)
            continue


def _benchmarks_explicitly_targeted(config) -> bool:
    """True when the invocation names the benchmarks directory or a bench file."""
    return any(
        resolved == BENCHMARKS_DIR or BENCHMARKS_DIR in resolved.parents
        for resolved in _invocation_paths(config)
    )


def pytest_configure(config):
    # The `smoke` marker itself is registered centrally in pyproject.toml.
    # `-m smoke` implies one-shot execution: let pytest-benchmark call every
    # benchmarked function exactly once instead of running timing rounds.
    markexpr = (getattr(config.option, "markexpr", "") or "").strip()
    if markexpr == "smoke" and hasattr(config.option, "benchmark_disable"):
        config.option.benchmark_disable = True


def pytest_collect_file(file_path, parent):
    """Collect bench_*.py modules when the benchmarks tree is targeted.

    The tier-1 ``pytest -x -q`` run from the repo root does not name this
    directory, so it keeps collecting tests/ only.
    """
    if file_path.suffix != ".py" or not file_path.name.startswith("bench_"):
        return None
    resolved = Path(file_path).resolve()
    if resolved in _invocation_paths(parent.config):
        return None  # named directly on the command line: pytest collects it itself
    if not _benchmarks_explicitly_targeted(parent.config):
        return None
    return pytest.Module.from_parent(parent, path=file_path)


def pytest_collection_modifyitems(config, items):
    for item in items:
        if BENCHMARKS_DIR in Path(str(item.fspath)).parents:
            item.add_marker(pytest.mark.smoke)


@pytest.fixture(scope="session")
def resnet50():
    """The paper's benchmark workload."""
    return build_resnet50()


@pytest.fixture(scope="session")
def framework(resnet50):
    """A single memoising framework shared by every benchmark."""
    return SimulationFramework(resnet50)


@pytest.fixture(scope="session")
def sweep_config():
    """The Section VI-A default design point (32×32, dual core, batch 32)."""
    return default_sweep_chip()


@pytest.fixture(scope="session")
def optimal_config():
    """The Section VII optimised design point (128×128, dual core, batch 32)."""
    return optimal_chip()


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory where benchmark series are written."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """List the regenerated figure/table series at the end of a benchmark run."""
    if not RESULTS_DIR.exists():
        return
    artefacts = sorted(RESULTS_DIR.glob("*"))
    if not artefacts:
        return
    terminalreporter.write_sep("-", "regenerated paper figures/tables (benchmarks/results/)")
    for path in artefacts:
        terminalreporter.write_line(f"  {path.relative_to(RESULTS_DIR.parent.parent)}")
    terminalreporter.write_line(
        "  (which module and benchmark reproduce each result: docs/architecture.md)"
    )
