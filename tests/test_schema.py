"""The JSON schemas in ``schema/`` against what the data verbs print."""

import json
from pathlib import Path

import pytest
from jsonschema import Draft7Validator
from referencing import Registry, Resource

from weylcalc import cli

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schema"


def registry() -> Registry:
    """Every schema under its ``$id``, so that ``catalog.v1`` can refer to
    ``diagram.v1#/definitions/diagram``."""
    resources = []
    for path in sorted(SCHEMA_DIR.glob("*.json")):
        contents = json.loads(path.read_text())
        resources.append((contents["$id"], Resource.from_contents(contents)))
    return Registry().with_resources(resources)


def test_every_schema_is_valid_draft7():
    paths = sorted(SCHEMA_DIR.glob("*.json"))
    assert [p.stem for p in paths] == [
        "catalog.v1", "charpoly.v1", "diagram.v1", "orbits.v1", "rootsys.v1", "trace.v1"]
    for path in paths:
        Draft7Validator.check_schema(json.loads(path.read_text()))


@pytest.mark.parametrize("argv", [
    ["rootsys", "E", "8"],
    ["charpoly", "--system", "D4", "--word", "e1-e2,e3-e4,e2-e3,e2+e3"],
    ["diagram", "--system", "D4", "--roots", "e1-e2,e3-e4,e2-e3,e2+e3"],
    ["transform", "dl:8"],
    ["orbits", "--system", "D5", "--k", "2"],
    ["catalog", "E8(b5)"],
])
def test_cli_output_matches_its_schema(capsys, argv):
    assert cli.run(argv) == 0
    obj = json.loads(capsys.readouterr().out)
    schema = registry().contents(obj["schema"])
    validator = Draft7Validator(schema, registry=registry())
    errors = [f"{list(e.absolute_path)}: {e.message}" for e in validator.iter_errors(obj)]
    assert errors == []
