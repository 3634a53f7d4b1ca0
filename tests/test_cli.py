"""Command-line surface: output shapes, exit codes, determinism."""

import hashlib
import json

import pytest

from weylcalc import cli
from weylcalc import diagram as dg


def run_capture(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rootsys_json(capsys):
    code, out, err = run_capture(capsys, ["rootsys", "D", "4"])
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert obj == {
        "schema": "rootsys.v1",
        "system": "D4",
        "family": "D",
        "rank": 4,
        "dim": 4,
        "count": 24,
        "t": 1,
    }


def test_rootsys_list_has_one_root_per_line(capsys):
    code, out, _ = run_capture(capsys, ["rootsys", "D", "4", "--list"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 24
    assert len(set(lines)) == 24
    assert "e1-e2" in lines


def test_rootsys_bad_rank_exits_2(capsys):
    code, out, err = run_capture(capsys, ["rootsys", "E", "9"])
    assert code == 2
    assert out == "" and "error" in err


def test_charpoly_both_orders(capsys):
    word = "e1-e2,e3-e4,e2-e3,e2+e3"
    code, out, _ = run_capture(capsys, ["charpoly", "--system", "D4",
                                        "--word", word])
    assert code == 0
    assert json.loads(out)["charpoly"] == "t^4 + 2*t^2 + 1"
    code, out, _ = run_capture(capsys, ["charpoly", "--system", "D4",
                                        "--word", "e1-e2,e2-e3,e3-e4,e2+e3"])
    assert json.loads(out)["charpoly"] == "t^4 + t^3 + t + 1"


def test_charpoly_bad_root_exits_2(capsys):
    code, _, err = run_capture(capsys, ["charpoly", "--system", "D4",
                                        "--word", "e1-e2,bogus"])
    assert code == 2 and "bogus" in err
    code, _, err = run_capture(capsys, ["charpoly", "--system", "A3",
                                        "--word", "e1+e2"])
    assert code == 2  # a vector, but not a root of A3


def test_diagram_json(capsys):
    code, out, _ = run_capture(capsys, [
        "diagram", "--system", "D4", "--roots", "e1-e2,e3-e4,e2-e3,e2+e3",
    ])
    assert code == 0
    obj = json.loads(out)
    assert obj["schema"] == "diagram.v1"
    assert obj["admissible"] is True
    assert obj["identify"] == "D4(a1)"
    styles = {(e["source"], e["target"]): e["style"]
              for e in obj["diagram"]["edges"]}
    assert styles[(1, 3)] == "dotted"
    d = dg.Diagram.from_dict(obj["diagram"])
    assert dg.identify(d) == "D4(a1)"


def test_transform_json(capsys):
    code, out, _ = run_capture(capsys, ["transform", "dl:6"])
    assert code == 0
    obj = json.loads(out)
    assert obj["schema"] == "trace.v1"
    assert obj["system"] == "D6"
    assert obj["final_identify"] == "D6(a2)"
    assert obj["steps"][0]["op"] == "start"
    assert obj["steps"][0]["word_roots"] == obj["initial_word"]
    assert obj["steps"][-1]["word_roots"] == obj["final_word"]
    assert len({step["charpoly"] for step in obj["steps"]}) == 1


# SHA-256 of the JSON stdout of `weylcalc transform NAME`, recorded from the
# dense-matrix implementation: any change to the element representation
# must leave every trace byte-identical.
TRANSFORM_SHA256 = {
    "d6b2": "6dbffd6666600576e375a2e9ecbcf28aadc85ca56289ac0deb59837c07600516",
    "e7b2": "73ba3bfa73e8737304831967c5ca0ee628c777c5414cb6ac3c6f02594b02bc86",
    "e8b3": "ed57635f512fabc22e17552d1508c6a799907a4420abd62fe6dd0a79240faee8",
    "e8b5": "b342dd88ad495dc86ec283fc27be9d675ce0dca8ef41ec37d8c9da5fc7cc48ea",
    "dl:6": "a2b4f2715e332fd9538807aa42f0c2fd81481adbb87fa37e5148c52d194147dd",
    "dl:8": "01e7784e602aa94531ef2d5aed3b870acb27753e1b3437c2edcc6d0bf64d6f3f",
    "dl:10": "c9de09b96c619f76e779651fa20e31edef03403c9057fd0b6a5a9663e07c48cb",
    "dl:12": "8b37463cd4cd484c9ac18529495f4053218790948e812ed647f619a89c3d74fd",
}


@pytest.mark.parametrize("name", sorted(TRANSFORM_SHA256))
def test_transform_stdout_is_pinned(capsys, name):
    code, out, _ = run_capture(capsys, ["transform", name])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TRANSFORM_SHA256[name]


def test_transform_unknown_name_exits_2(capsys):
    code, _, err = run_capture(capsys, ["transform", "d9b9"])
    assert code == 2 and "unknown transformation" in err
    code, _, err = run_capture(capsys, ["transform", "dl:7"])
    assert code == 2


def test_catalog_json(capsys):
    code, out, _ = run_capture(capsys, ["catalog", "D4(a1)"])
    assert code == 0
    obj = json.loads(out)
    assert obj["schema"] == "catalog.v1"
    assert obj["name"] == "D4(a1)" and obj["system"] == "D4"
    assert obj["charpoly"] == "t^4 + 2*t^2 + 1"
    assert obj["word"] == ["e1-e2", "e3-e4", "e2-e3", "e2+e3"]


def test_catalog_unknown_name_lists_choices(capsys):
    code, _, err = run_capture(capsys, ["catalog", "Z9"])
    assert code == 2 and "D4(a1)" in err


def test_orbits_json(capsys):
    code, out, _ = run_capture(capsys, ["orbits", "--system", "D5", "--k", "2"])
    assert code == 0
    assert json.loads(out) == {
        "schema": "orbits.v1", "system": "D5", "k": 2, "orbits": 2,
    }
    code, _, err = run_capture(capsys, ["orbits", "--system", "D5", "--k", "4"])
    assert code == 2


def test_render_dot(capsys):
    code, out, _ = run_capture(capsys, ["render-dot", "--name", "D4(a1)"])
    assert code == 0
    assert out.startswith('graph "D4(a1)" {')
    assert out.rstrip().endswith("}")
    assert out.count("--") == 4
    assert "style=dashed" in out
    assert 'v0 [label="e1-e2"]' in out


def test_render_dot_requires_input(capsys):
    code, _, err = run_capture(capsys, ["render-dot"])
    assert code == 2 and "render-dot needs" in err


def test_render_dot_from_roots_marks_long_vertices(capsys):
    code, out, _ = run_capture(capsys, [
        "render-dot", "--system", "B3", "--roots", "e1-e2,e2-e3,e3",
    ])
    assert code == 0
    assert "doublecircle" in out


def test_output_is_deterministic(capsys):
    argv = ["diagram", "--system", "D4", "--roots", "e1-e2,e3-e4,e2-e3,e2+e3"]
    _, first, _ = run_capture(capsys, argv)
    _, second, _ = run_capture(capsys, argv)
    assert first == second
    _, dot_a, _ = run_capture(capsys, ["render-dot", "--name", "E6(a1)"])
    _, dot_b, _ = run_capture(capsys, ["render-dot", "--name", "E6(a1)"])
    assert dot_a == dot_b


def test_verify_titsform_suite(capsys):
    code, out, _ = run_capture(capsys, ["verify", "titsform"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 19  # 18 items plus the summary
    assert all(line.startswith("PASS titsform/") for line in lines[:-1])
    assert lines[-1] == "titsform: 18 passed, 0 failed, 0 skipped"


def test_verify_unknown_suite_exits_2(capsys):
    code, _, _ = run_capture(capsys, ["verify", "everything"])
    assert code == 2


def test_verify_items_catch_failures():
    """A failing check inside a suite must surface as a FAIL row, not a crash."""
    label, status, detail = cli._item("probe", lambda: 1 // 0)
    assert (label, status) == ("probe", "FAIL")
    assert "ZeroDivisionError" in detail
    label, status, detail = cli._item("probe", lambda: "fine")
    assert (label, status, detail) == ("probe", "PASS", "fine")


def test_help_exits_zero(capsys):
    code, out, _ = run_capture(capsys, ["--help"])
    assert code == 0
    assert "root literals" in out
    code, _, _ = run_capture(capsys, [])
    assert code == 2


def test_main_raises_system_exit(capsys):
    with pytest.raises(SystemExit):
        cli.main()
