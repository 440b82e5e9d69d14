"""The CI workflow in step with the tier-1 command and pyproject's floors.

`.github/workflows/tier1.yml` must run the tier-1 command of ROADMAP.md
verbatim in its tier-1 step, and its matrix must hold the oldest Python
and numpy that pyproject.toml admits.  The workflow is read as plain
text, so the check needs no YAML parser.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def _tier1_command() -> str:
    return re.search(r"^\*\*Tier-1 verify:\*\* `([^`]+)`$", _read(ROOT / "ROADMAP.md"),
                     re.M).group(1)


def _floors() -> tuple[str, str]:
    """The oldest Python and numpy that pyproject.toml admits."""
    text = _read(ROOT / "pyproject.toml")
    python = re.search(r'^requires-python = ">=([\d.]+)"$', text, re.M).group(1)
    numpy = re.search(r'^\s*"numpy>=([\d.]+)",?$', text, re.M).group(1)
    return python, numpy


def workflow_problems(text: str, command: str, python: str, numpy: str) -> list[str]:
    """Why the workflow `text` does not run `command` as its tier-1 step
    on Python `python` and numpy `numpy`.*, one line each."""
    problems = []
    lines = text.splitlines()
    starts = [i for i, line in enumerate(lines) if line.strip() == "- name: Tier-1 tests"]
    if len(starts) != 1:
        problems.append(f"{len(starts)} steps named 'Tier-1 tests'")
    else:
        indent = len(lines[starts[0]]) - len(lines[starts[0]].lstrip())
        runs = []
        for line in lines[starts[0] + 1:]:
            if line.strip() and len(line) - len(line.lstrip()) <= indent:
                break  # the next step, or the end of the job
            if line.strip().startswith("run: "):
                runs.append(line.strip()[len("run: "):])
        if runs != [command]:
            problems.append(f"the tier-1 step runs {runs}, not {command!r}")
    # the matrix's lists, not the single values of its `exclude` entries
    matrix = {key: [line for line in lines if line.strip().startswith(f"{key}: [")]
              for key in ("python", "numpy")}
    for key, entry in (("python", f'"{python}"'), ("numpy", f'"numpy=={numpy}.*"')):
        if not any(entry in line for line in matrix[key]):
            problems.append(f"the matrix's {key} holds no {entry}")
    return problems


def test_workflow_runs_the_tier1_command_on_the_oldest_versions():
    assert workflow_problems(_read(WORKFLOW), _tier1_command(), *_floors()) == []


def test_workflow_check_flags_a_drifted_workflow():
    text = _read(WORKFLOW)
    command = _tier1_command()
    python, numpy = _floors()
    assert (python, numpy) == ("3.10", "1.24")
    mutants = {
        "another command": text.replace(command, "python -m pytest -q"),
        "no oldest Python": text.replace('"3.10", ', ""),
        "a newer numpy": text.replace("numpy==1.24.*", "numpy==1.26.*"),
        "the oldest numpy only excluded": text.replace('["numpy==1.24.*", ', '['),
        "the step renamed": text.replace("- name: Tier-1 tests", "- name: Tests"),
        "a second run line": text.replace(f"run: {command}",
                                          f"run: {command}\n        run: true"),
    }
    for name, mutant in mutants.items():
        assert mutant != text, name
        assert len(workflow_problems(mutant, command, python, numpy)) == 1, name
