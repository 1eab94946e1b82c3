"""Every ```python block and every `graphexplore ...` shell example in
README.md runs as written, and every ```json config block parses."""

import json
import re
import shlex
from pathlib import Path

import pytest

from graphexplore.cli import main
from graphexplore.experiments import ExperimentConfig
from graphexplore.instances import FAMILIES

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
CONFIGS = re.findall(r"^```json\n(.*?)^```", TEXT, re.M | re.S)
COMMANDS = [
    shlex.split(block.replace("\\\n", " "))
    for block in re.findall(r"^```\n(graphexplore .*?)^```", TEXT, re.M | re.S)
]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md block {index}", "exec"), {"__name__": "readme"})


def test_readme_has_cli_examples():
    assert COMMANDS


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[1])
def test_readme_cli_example_exits_zero(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv[1:]) == 0


def test_readme_configs_parse():
    assert CONFIGS
    for block in CONFIGS:
        assert ExperimentConfig.from_json_dict(json.loads(block)).instances


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_readme_lists_each_family_with_its_params(family):
    required, optional, _, _ = FAMILIES[family]
    listed = ", ".join(f"`{k}`" for k in required)
    if optional:
        listed += "; optional " + ", ".join(f"`{k}`" for k in optional)
    assert f"`{family}` ({listed})" in " ".join(TEXT.split())
