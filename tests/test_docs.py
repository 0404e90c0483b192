"""The ``docs`` lane: documentation that executes, or fails the build.

These guards keep the documentation surface honest:

* every fenced ```` ```python ```` block in ``README.md`` and ``docs/*.md``
  is executed (blocks in one file share a namespace, so a page can build up
  a narrative; blocks containing ``>>>`` run as doctests with output
  checking) — examples cannot silently rot;
* ``examples/quickstart.py`` and ``examples/dual_core_scheduling.py`` run
  end to end;
* ``docs/cli.md`` is diffed against the real argparse parser: every
  subcommand and every flag must be documented;
* every ``repro_*`` metric name the docs mention must be a family the
  code exports.
* ``.github/workflows/ci.yml`` runs every lane, and ``README.md`` lists
  every lane and host-time benchmark command CI's test job runs.

Run with ``pytest -m docs`` (the lane is also part of tier-1).
"""

from __future__ import annotations

import argparse
import ast
import doctest
import re
import runpy
from pathlib import Path
from typing import List, Tuple

import pytest

from repro.cli import build_parser

pytestmark = pytest.mark.docs

REPO_ROOT = Path(__file__).resolve().parents[1]
DOC_FILES = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]


def extract_python_blocks(path: Path) -> List[Tuple[int, str]]:
    """(start line, source) of every fenced ```python block in ``path``.

    Only blocks whose info string is exactly ``python`` are executable
    documentation; ``console``/``text``/untagged fences are illustrative.
    """
    blocks: List[Tuple[int, str]] = []
    fence_lang = None
    start = 0
    lines: List[str] = []
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.strip()
        if fence_lang is None:
            if stripped.startswith("```") and stripped != "```":
                fence_lang = stripped[3:].strip()
                start = number + 1
                lines = []
        elif stripped == "```":
            if fence_lang == "python":
                blocks.append((start, "\n".join(lines) + "\n"))
            fence_lang = None
        else:
            lines.append(line)
    assert fence_lang is None, f"{path}: unterminated ``` fence"
    return blocks


def _documented_files() -> List[Path]:
    return [path for path in DOC_FILES if extract_python_blocks(path)]


@pytest.mark.parametrize(
    "path", _documented_files(), ids=lambda p: str(p.relative_to(REPO_ROOT))
)
def test_doc_python_blocks_execute(path: Path):
    """Each file's ```python blocks run top to bottom in one namespace."""
    namespace = {"__name__": f"docs_{path.stem}"}
    for start_line, source in extract_python_blocks(path):
        if ">>>" in source:
            parser = doctest.DocTestParser()
            test = parser.get_doctest(
                source, namespace, f"{path.name}:{start_line}", str(path), start_line
            )
            runner = doctest.DocTestRunner(verbose=False)
            runner.run(test)
            assert runner.failures == 0, (
                f"{path.name}: doctest block at line {start_line} failed"
            )
        else:
            code = compile(source, f"{path}:{start_line}", "exec")
            exec(code, namespace)  # noqa: S102 - executing our own documentation


def test_readme_has_executable_blocks():
    """The quickstart narrative must stay executable, not drift to prose."""
    assert extract_python_blocks(REPO_ROOT / "README.md")


def test_quickstart_example_runs(capsys):
    runpy.run_path(str(REPO_ROOT / "examples" / "quickstart.py"), run_name="__main__")
    output = capsys.readouterr().out
    assert "quickstart" in output
    assert "Table I" in output


def test_dual_core_scheduling_example_runs(capsys):
    """The example compares ResNet-50's single- and dual-core batch latency."""
    runpy.run_path(str(REPO_ROOT / "examples" / "dual_core_scheduling.py"), run_name="__main__")
    output = capsys.readouterr().out
    assert "Dual-core programming-latency hiding on ResNet-50" in output
    assert output.count("24954") == 7  # one row per batch size, same tiling


def test_cli_doc_documents_every_subcommand_and_flag():
    """docs/cli.md must name every subcommand and every option string."""
    doc = (REPO_ROOT / "docs" / "cli.md").read_text()
    parser = build_parser()
    subparsers = next(
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert subparsers.choices, "CLI has no subcommands?"
    for name, subparser in subparsers.choices.items():
        assert f"## `{name}`" in doc, (
            f"subcommand {name!r} is missing a '## `{name}`' section in docs/cli.md"
        )
        for action in subparser._actions:
            for option in action.option_strings:
                if option in ("-h", "--help"):
                    continue
                assert f"`{option}`" in doc, (
                    f"flag {option} of subcommand {name!r} is undocumented "
                    "in docs/cli.md"
                )


def _exported_metric_families() -> set:
    """Every ``repro_*`` string literal under ``src/repro`` (the family names)."""
    names = set()
    for path in (REPO_ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if re.fullmatch(r"repro_[a-z0-9_]+", node.value):
                    names.add(node.value)
    return names


def test_documented_metric_names_are_exported():
    """A ``repro_*`` token in the docs names a family the server exports.

    A histogram sample suffix (``_bucket``/``_sum``/``_count``) may follow a
    family name, and the argument of a ``grep`` may be a prefix of one
    (``curl .../metrics | grep repro_http``).
    """
    families = _exported_metric_families()
    assert "repro_serve_requests_total" in families
    unknown = []
    for path in DOC_FILES:
        text = path.read_text()
        for match in re.finditer(r"(grep\s+)?\b(repro_[a-z0-9_]+)", text):
            token = match.group(2)
            base = re.sub(r"_(bucket|sum|count)$", "", token)
            if token in families or base in families:
                continue
            if match.group(1) and any(name.startswith(token) for name in families):
                continue
            line = text.count("\n", 0, match.start()) + 1
            unknown.append(f"{path.relative_to(REPO_ROOT)}:{line}: {token}")
    assert not unknown, "docs name metric families nothing exports:\n" + "\n".join(
        unknown
    )


def test_setup_long_description_points_at_readme():
    """setup.py ships the README as the package's long description."""
    source = (REPO_ROOT / "setup.py").read_text()
    assert "README.md" in source
    assert "long_description" in source


def test_http_api_doc_matches_registered_routes():
    """docs/http-api.md and the servers' route table must not diverge.

    Both directions are checked: every route in :data:`repro.serve.API_ROUTES`
    (the table both front-ends register) must be documented with a
    '### METHOD /path' heading, and every such heading in the doc must name a
    registered route.  This is the docs-freshness gate CI runs — adding an
    endpoint without documenting it (or documenting one that does not exist)
    fails the build.
    """
    from repro.serve import API_ROUTES

    doc = (REPO_ROOT / "docs" / "http-api.md").read_text()
    documented = set(
        re.findall(r"^### `(GET|POST) (/[^`]*)`", doc, flags=re.MULTILINE)
    )
    registered = {(method, route) for method, route in API_ROUTES}
    missing = registered - documented
    assert not missing, (
        f"routes registered on the server but missing from docs/http-api.md: "
        f"{sorted(missing)}"
    )
    phantom = documented - registered
    assert not phantom, (
        f"routes documented in docs/http-api.md but not registered on the "
        f"server: {sorted(phantom)}"
    )


def test_new_docs_are_linked_from_readme_and_serving_doc():
    """The PR's acceptance: both new docs exist and README links them."""
    readme = (REPO_ROOT / "README.md").read_text()
    serving = (REPO_ROOT / "docs" / "serving.md").read_text()
    for target in ("docs/http-api.md", "docs/operations.md"):
        assert (REPO_ROOT / target).exists(), f"{target} is missing"
        assert target in readme, f"README.md does not link {target}"
    assert "http-api.md" in serving, "docs/serving.md does not link http-api.md"


CI_WORKFLOW = REPO_ROOT / ".github" / "workflows" / "ci.yml"


def _ci_test_job_commands() -> List[str]:
    """The ``run:`` command of every step in ci.yml's ``test`` job."""
    test_job = CI_WORKFLOW.read_text().split("\n  test:\n", 1)[1]
    return [
        line.split("run:", 1)[1].strip()
        for line in test_job.splitlines()
        if line.strip().startswith("run:")
    ]


def test_ci_workflow_runs_every_lane():
    """The workflow file names each lane CI promises (kept honest here)."""
    workflow = CI_WORKFLOW.read_text()
    for command in (
        "python -m pytest -x -q",
        "python -m pytest -q -m docs",
        "python -m pytest -q -m serving",
        "python -m pytest -q -m chaos",
        "python -m pytest -q -m obs",
        "python -m pytest -q -m asynchttp",
        "tests/test_docs.py::test_http_api_doc_matches_registered_routes",
        "python -m pytest -q benchmarks -m smoke",
        "python3 perfbench/run.py --workload serve-open --seed 1 --seconds 3 --trace 1",
        "python3 perfbench/run.py --workload lenet-reprogram --seed 1 --seconds 3 --trace 0",
        "--trace-out TRACE_serving.json",
        "ruff check .",
        "ruff format --check .",
    ):
        assert command in workflow, f"CI lane missing from ci.yml: {command}"
    assert "upload-artifact" in workflow
    # perfbench/run.py is the one host-time source; no second export
    for retired in ("export_json", "BENCH_serving"):
        assert retired not in workflow, f"ci.yml still mentions {retired}"


def test_readme_lists_every_ci_test_lane():
    """Each ``-m <lane>`` and perfbench command CI's test job runs is in README."""
    readme = (REPO_ROOT / "README.md").read_text()
    commands = _ci_test_job_commands()
    markers = (re.search(r"pytest\b.* -m (\w+)", command) for command in commands)
    lanes = sorted({match.group(1) for match in markers if match})
    perfbench = [c for c in commands if "perfbench/run.py" in c]
    assert {"docs", "serving", "chaos", "obs", "asynchttp", "smoke"} <= set(lanes)
    assert len(perfbench) == 3  # serve-open (traced), lenet-reprogram, lenet-offline
    missing = [f"-m {lane}" for lane in lanes if f"-m {lane}" not in readme]
    missing += [command for command in perfbench if command not in readme]
    assert not missing, f"ci.yml runs these, README.md does not list them: {missing}"
