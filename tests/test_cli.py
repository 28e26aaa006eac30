import json
from pathlib import Path

import pytest

from spanpaths import checks, cli

SPAN_DIR = Path(__file__).resolve().parent.parent / "spans"
CIRCLE = str(SPAN_DIR / "circle.span")
INTERVAL = str(SPAN_DIR / "interval.span")


def run(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_circle(capsys):
    code, out, _ = run(capsys, ["enumerate", CIRCLE, "--endpoint", "a", "--max-len", "4"])
    assert code == 0
    assert out.splitlines() == [
        "refl",
        ">s <t",
        ">t <s",
        ">s <t >s <t",
        ">t <s >t <s",
    ]


def test_reduce_interval(capsys):
    code, out, _ = run(capsys, ["reduce", INTERVAL, "--word", ">s <s"])
    assert code == 0
    assert out.strip() == "refl"


def test_stages_table(capsys):
    code, out, _ = run(capsys, ["stages", CIRCLE, "--up-to", "2"])
    assert code == 0
    last = out.strip().splitlines()[-1]
    assert "n=2" in last and "a=5" in last and "b=4" in last
    assert "cycles=0" in last and "bijection=ok" in last


def test_info_circle(capsys):
    code, out, _ = run(capsys, ["info", CIRCLE])
    assert code == 0
    assert "|A| = 1, |B| = 1, |S| = 2" in out
    assert "pi1 rank at basepoint: 1" in out


def test_limit_circle(capsys):
    code, out, _ = run(capsys, ["limit", CIRCLE, "--up-to", "2", "--endpoint", "a"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "classes: 5"
    assert lines[1] == "stage=0 refl"


def test_check_passes_on_circle(capsys):
    code, out, _ = run(
        capsys, ["check", CIRCLE, "--oracle", "--max-len", "6", "--stages", "3"]
    )
    assert code == 0
    assert "all suites passed" in out
    assert "FAIL" not in out


def test_check_is_byte_deterministic(capsys):
    argv = ["check", CIRCLE, "--seed", "5", "--max-len", "6", "--stages", "3"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_check_fails_with_exit_one(capsys, monkeypatch):
    monkeypatch.setattr(
        checks, "run_all", lambda *a, **k: [checks.CheckResult("forced", False, "boom")]
    )
    code, out, _ = run(capsys, ["check", CIRCLE])
    assert code == 1
    assert "FAIL forced" in out


def test_parse_error_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.span"
    bad.write_text("A a\nB b\nS s a b\nbase q\n")
    code, _, err = run(capsys, ["info", str(bad)])
    assert code == 2
    assert "basepoint 'q' not in A" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["info"],
        ["stages"],
        ["enumerate", "--endpoint", "a"],
        ["reduce", "--word", "refl"],
        ["limit", "--endpoint", "a"],
        ["check"],
    ],
)
def test_non_utf8_span_file_exits_two(capsys, tmp_path, argv):
    bad = tmp_path / "bad.span"
    bad.write_bytes(b"A a\xff\nB b\nS s a b\nbase a\n")
    code, out, err = run(capsys, argv[:1] + [str(bad)] + argv[1:])
    assert code == 2
    assert out == ""
    assert err == "error: %s: not UTF-8 text (bad byte at offset 3)\n" % bad


def test_missing_file_exits_two(capsys):
    code, _, err = run(capsys, ["info", "no-such-file.span"])
    assert code == 2
    assert "error" in err


def test_bad_word_exits_two(capsys):
    code, _, err = run(capsys, ["reduce", CIRCLE, "--word", ">s >s"])
    assert code == 2
    assert "alternate" in err


def test_usage_error_exits_two(capsys):
    assert cli.run(["enumerate", CIRCLE]) == 2  # missing --endpoint
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["stages", CIRCLE, "--up-to", "-1"],
        ["limit", CIRCLE, "--up-to", "-1", "--endpoint", "a"],
        ["check", CIRCLE, "--stages", "0"],
        ["check", CIRCLE, "--stages", "1"],
        ["check", CIRCLE, "--max-len", "0"],
        ["enumerate", CIRCLE, "--endpoint", "a", "--max-len", "-3"],
    ],
)
def test_argument_below_minimum_exits_two(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.splitlines()[0].startswith("usage: spanpaths %s" % argv[0])
    assert "error: argument" in err.splitlines()[-1]
    assert "must be at least" in err.splitlines()[-1]


def test_argument_minimums_are_accepted(capsys):
    code, out, _ = run(capsys, ["check", CIRCLE, "--stages", "2", "--max-len", "1"])
    assert code == 0
    assert "all suites passed" in out


def test_json_enumerate(capsys):
    code, out, _ = run(
        capsys, ["enumerate", CIRCLE, "--endpoint", "b", "--max-len", "3", "--json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "enumerate"
    assert payload["words"] == [">s", ">t", ">s <t >s", ">t <s >t"]


def test_json_check_schema(capsys):
    code, out, _ = run(
        capsys, ["check", INTERVAL, "--max-len", "5", "--stages", "3", "--json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert {"name", "ok", "details"} == set(payload["results"][0])


def test_json_stages_row(capsys):
    code, out, _ = run(capsys, ["stages", CIRCLE, "--up-to", "2", "--json"])
    assert code == 0
    payload = json.loads(out)
    row = payload["rows"][2]
    assert row["a_fibers"] == {"a": 5}
    assert row["b_fibers"] == {"b": 4}
    assert row["cycles"] == 0
    assert row["bijection"] == "ok"
