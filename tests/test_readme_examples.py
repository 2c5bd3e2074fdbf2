"""Every `kovtop ...` example of README's CLI block runs in-process, exits 0,
and writes JSON that validates against its shipped schema."""
import json
import shlex
from pathlib import Path

import jsonschema
import pytest

import kovtop
from kovtop.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
SCHEMAS = Path(kovtop.__file__).parent / "schemas"
#: the schema of each subcommand's JSON output
SCHEMA_OF = {"map": "trajectory", "simulate": "trajectory", "drift": "drift",
             "convergence": "convergence", "check": "check",
             "independence": "independence"}


def _cli_examples():
    # the lines of the first bash block after "## CLI", continuation lines
    # joined, comments dropped
    text = README.read_text().split("\n## CLI\n", 1)[1]
    block = text.split("```bash\n", 1)[1].split("```", 1)[0]
    commands = block.replace("\\\n", " ").splitlines()
    return [shlex.split(c) for c in commands if c.startswith("kovtop ")]


EXAMPLES = _cli_examples()


def test_the_cli_block_lists_every_subcommand():
    assert sorted({argv[1] for argv in EXAMPLES}) == sorted(SCHEMA_OF)


@pytest.mark.parametrize("argv", EXAMPLES, ids=lambda a: a[1])
def test_readme_example_runs(capsys, argv):
    assert main(argv[1:]) == 0
    out = capsys.readouterr().out
    assert out
    if "--format" in argv and argv[argv.index("--format") + 1] == "json":
        schema = json.loads((SCHEMAS / f"{SCHEMA_OF[argv[1]]}.schema.json")
                            .read_text())
        jsonschema.validate(json.loads(out), schema)
