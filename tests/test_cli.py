import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spanpaths import checks, cli
from spanpaths import stages as stages_module

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


def swap_stage_2_glue(build):
    # two entries of stage 2's first forward bridge trade places: its A fold fails
    def build_stages(span, n):
        stages = build(span, n)
        broken = list(stages[2].glue_a[0])
        broken[0], broken[1] = broken[1], broken[0]
        stages[2] = stages[2]._replace(glue_a=(tuple(broken),) + stages[2].glue_a[1:])
        return stages

    return build_stages


def repeat_last_class(cogap):
    # every fold labels one class more, with the last class's word: not injective
    def fold(*args):
        ids = cogap(*args)
        return ids + ids[-1:]

    return fold


@pytest.mark.parametrize(
    "target, attribute, sabotage, verdicts",
    [
        (cli, "build_stages", swap_stage_2_glue, ["ok", "ok", "FAIL", "FAIL"]),
        (stages_module, "cogap_set", repeat_last_class, ["ok", "FAIL", "FAIL", "FAIL"]),
    ],
    ids=["fold-fails-at-stage-2", "labelling-not-injective"],
)
def test_stages_reads_ok_only_where_every_fiber_matched(
    capsys, monkeypatch, target, attribute, sabotage, verdicts
):
    monkeypatch.setattr(target, attribute, sabotage(getattr(target, attribute)))
    argv = ["stages", CIRCLE, "--up-to", "3"]
    code, out, _ = run(capsys, argv)
    assert code == 1
    lines = out.splitlines()
    assert [line.split("bijection=")[1] for line in lines[:4]] == verdicts
    assert lines[4].startswith("mismatch: stage ")
    code, out, _ = run(capsys, argv + ["--json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert [row["bijection"] for row in payload["rows"]] == verdicts


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


# sha256 of the stdout of every pinned command, as text and with --json, keyed
# by (span, argv) with the span file left out of argv: `limit --up-to 4` at every
# vertex of every bundled span (B-side and unreachable endpoints included),
# `stages --up-to 4` and `check --oracle` (whose details strings carry the
# round-trip and item counts), and `info`, `reduce` and `enumerate --max-len 6`
# at the basepoint and at a second endpoint, unreachable on coproduct. The
# info, reduce and enumerate digests were recorded while --json still went
# through json.dumps(payload, indent=2, sort_keys=True)
PINNED_DIGESTS = {
    ("circle", ("check", "--oracle")): (
        "7bdaaee300c99a5f67502cae6927a49d2be0087b8985fa4a7cc5fb761f5c57e4",
        "0d36e12d8276a1cf8fae8ee2fa3c7590b86b3382601da37d74e4e62fdfd79621",
    ),
    ("circle", ("enumerate", "--endpoint", "a", "--max-len", "6")): (
        "9ce7cbb01895ff560bfd491f81c89d6c9e9824635d7176c0f56c1e11fdcc6462",
        "c86f96e3b307543c136b8e57043a724d4826da0747a8528fee0164c11c979b71",
    ),
    ("circle", ("enumerate", "--endpoint", "b", "--max-len", "6")): (
        "85e2f9dd397fde948b6816c3119092b04cf98d4732b4cc56064872e238da8f24",
        "f5dc263f5395a4e2715f2c4e7c95e025ab6a5784796e58530d7b9c047c036066",
    ),
    ("circle", ("info",)): (
        "e3249d2cf0c257dd7f6dbbd88095638429a791af254d541bb1881e1328c3d04e",
        "73eb13a13d1911875bc9bdbdf33a6ed91ea0d22a580fc33604147ae33d3cf01f",
    ),
    ("circle", ("limit", "--up-to", "4", "--endpoint", "a")): (
        "45d31453a4861164ce9048b248dd3818e9b6661fabfae83c2577b10d6b779119",
        "b221381e298fa42356937b00d7b1d378a3b68e8b8b0d8743fc479ebf60240473",
    ),
    ("circle", ("limit", "--up-to", "4", "--endpoint", "b")): (
        "4c52de5282d45202aed9f0a5b2fe45dbadb8f10961fe29b7e873b9490467d8ae",
        "78e9fa6a9000ec1e22fdb236ccaa8e4e65fc27e24c9d8bb5a849564c0ea247b5",
    ),
    ("circle", ("reduce", "--word", ">s <t >t <s >s")): (
        "d4bb8e3a573033c4c01dd506b71bb21854cefb1e7108b489a046f052bbf61c39",
        "4803b1c148797f8fe740c76e88274d23397033977521705deb9493b6ce5300eb",
    ),
    ("circle", ("stages", "--up-to", "4")): (
        "8ee8e2ff145ec8d3e80cbd3e0ee9424fa9ce7fa8fad339838e305b9ec58d4f9f",
        "9114e0122b0d442314e0bac48725ca202713d91047c18413d8b42015c4fe5a47",
    ),
    ("coproduct", ("check", "--oracle")): (
        "ce85c9c15f1860302189b24d927999acd8c1f419ce619fd7a2a47d4ab0ac2dca",
        "4a5259bcef76a1ae174536ff3a4f0212f9caf3415333e841a48660de7c918380",
    ),
    ("coproduct", ("enumerate", "--endpoint", "a0", "--max-len", "6")): (
        "1b5ef8617130bb70b21f5f761cf819fc578d64e30a523fa057b64d25aa8a11e8",
        "6e290d7881554c0c27acf92d7d0468eb15a8bb6556d8d82b1cbe91726e207c33",
    ),
    ("coproduct", ("enumerate", "--endpoint", "b0", "--max-len", "6")): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "3bfa73b8ee42779548d72e552c05e3d2fbf9d96d917a1cb1d97a691a926b5ae7",
    ),
    ("coproduct", ("info",)): (
        "0f693de3e0b2122df7ce544633998c30fe1fe3435b4ecfdb310fe3cbbcfacb4c",
        "c9a91ec04c31330d8ef1247f3e6804caac5cb16b528a2944d19eabcdcd8b5eb9",
    ),
    ("coproduct", ("limit", "--up-to", "4", "--endpoint", "a0")): (
        "ec95ec5eb9e74189933f154b8b4f5d58681c8c992e5184e74e801e8904cf4e77",
        "9f31eae321390b127db85c3137c7026a4564d49785e8b1f18b1002dee64e3919",
    ),
    ("coproduct", ("limit", "--up-to", "4", "--endpoint", "a1")): (
        "3ec0caeadd389725ad0550ab147dd349363ed7dc2196ea8aaa1875b1e9363166",
        "9fc4770b5e54cb74e958908c060fd7685ac6f0b23c54020bd1d7cde24d2575dc",
    ),
    ("coproduct", ("limit", "--up-to", "4", "--endpoint", "b0")): (
        "3ec0caeadd389725ad0550ab147dd349363ed7dc2196ea8aaa1875b1e9363166",
        "35514aee55cc387193cadd412a77fc4e07128c11fc8cb89210c6784beb8d6f3a",
    ),
    ("coproduct", ("reduce", "--word", "refl")): (
        "1b5ef8617130bb70b21f5f761cf819fc578d64e30a523fa057b64d25aa8a11e8",
        "a235d2591169f785ab2a9192890de45120b9023a317bbd1695405da421b33e9c",
    ),
    ("coproduct", ("stages", "--up-to", "4")): (
        "9c5232d04456107cdb54d4a4717d0536ef47502fdf686ea26c6f86a0a642924c",
        "c9490e17e09c0808d62791eb230dc7f5f7c184a8010e9c59258fc2a48e684681",
    ),
    ("interval", ("check", "--oracle")): (
        "2e6f5e0fb35d8900128628df903f6d0ec919346a751e1c8c0cc803cb42f1b7da",
        "19de3a199a9aa9d1bead0919634f7e456337755566cce5cb6d21042bf5d98fd5",
    ),
    ("interval", ("enumerate", "--endpoint", "a", "--max-len", "6")): (
        "1b5ef8617130bb70b21f5f761cf819fc578d64e30a523fa057b64d25aa8a11e8",
        "f6a9f9c6ac2d1329ed9f2f1e5a1b98889dd8c0cb2fcab6f3683f47a6f5512a94",
    ),
    ("interval", ("enumerate", "--endpoint", "b", "--max-len", "6")): (
        "d4bb8e3a573033c4c01dd506b71bb21854cefb1e7108b489a046f052bbf61c39",
        "efe51d7fa65ab3691a54f6a0d17099e198b6ab5d1d3c856f87c8032cedebd7b1",
    ),
    ("interval", ("info",)): (
        "c4f197b274a97e7d1c38d4006ffecf99352106681feee7690f1b99f14f4567b8",
        "e0f3cbf3d07de2c9c57bf0a853b916c12af477e2151bc26d4b8e98355ee22856",
    ),
    ("interval", ("limit", "--up-to", "4", "--endpoint", "a")): (
        "ec95ec5eb9e74189933f154b8b4f5d58681c8c992e5184e74e801e8904cf4e77",
        "07d7f02555c0086d1b154d97736f97cbe3f739a00b8737c2f918ed74e330ae82",
    ),
    ("interval", ("limit", "--up-to", "4", "--endpoint", "b")): (
        "e666cbcc59dee2688ccd5212f2fc1410637151862d472bdc2d01f485e2f74e18",
        "35fe3b8b7bcaf89e4934ddbf81ca3bef69ce3ef04243caf71e03c53ea13ca677",
    ),
    ("interval", ("reduce", "--word", ">s <s >s")): (
        "d4bb8e3a573033c4c01dd506b71bb21854cefb1e7108b489a046f052bbf61c39",
        "9404e8d510b675d52f15ba31867023d681a887172e00ca092f23e647c4a8fb1a",
    ),
    ("interval", ("stages", "--up-to", "4")): (
        "3d761588fc9d740d7eb8f9654d901cdd2f630b9137f2114f3e89379a8b1e08a2",
        "46ca49dba8dbbdf222302335faec058934af692f5154c482ad46653c1ebefd8e",
    ),
    ("theta", ("check", "--oracle")): (
        "d63ab0717e64fa0f3cd78f59658642b4c4d7d13343379717d3bbadb9aba44edd",
        "c8014de81a0b6a2e60a0947f46c3c19e49e8920f751ad83505a58912beff4b6d",
    ),
    ("theta", ("enumerate", "--endpoint", "a", "--max-len", "6")): (
        "b97b98af9f38a905ee33d5fae60d41baa08fdd878c5a6c59e46f1b19fee528c2",
        "ff8f36d787f8be9b56be5cca7a57fdd453a2b23d591e329c7744a807d39922cc",
    ),
    ("theta", ("enumerate", "--endpoint", "b", "--max-len", "6")): (
        "3db6c910445bb3906d91cda8911063c453300743622648252e01b57205e84340",
        "c19efbd345d0a4379fb0580cf510948246b7fa2e858d62ae88ca017c6883078f",
    ),
    ("theta", ("info",)): (
        "45426086a61bc11a14e2393acde5bf5078af7319cddb6236a12cb39158237ce3",
        "14baac11530d7b7071ea1c0f2a60c1d1d87541ae3b0248a845758810317bbffd",
    ),
    ("theta", ("limit", "--up-to", "4", "--endpoint", "a")): (
        "fab702aa44f97212d7042c72cce8b364c964d4ec1cd105449ae6e38184de1c1c",
        "a083dd26c473d70835e57640bbaa75634a7e30e0fd2b816500fa1558667f4ac0",
    ),
    ("theta", ("limit", "--up-to", "4", "--endpoint", "b")): (
        "9a2b88f5edb39f0a6d74706f669c9584afad68ff502e90a02eff574bd1c1d400",
        "047da7d6fc5e229a78b5635e72a727f22a65d2699644a4a627b4c238eddb9219",
    ),
    ("theta", ("reduce", "--word", ">s <t >u <u >t <s")): (
        "1b5ef8617130bb70b21f5f761cf819fc578d64e30a523fa057b64d25aa8a11e8",
        "542846663cf3f9086867194d8512095de569d439a776b2841dea0e2935720ff7",
    ),
    ("theta", ("stages", "--up-to", "4")): (
        "1ff72df252924a152a1ebe1f9d86969b5885d0cdb56539e08917776ce48ae942",
        "84503c1e1c3ec060b4f921d836f5f1c264667315376b0331da9e59a8a63093c9",
    ),
    ("tree4", ("check", "--oracle")): (
        "5eb4594c975e3cbd90d1f479cf10d1c03861405751c7cfd85fe2f7c6c20423f9",
        "054c314d878a0d9cd92fd30db28db9fe1dadd6e89f227aa23cbeb6c9dced1b32",
    ),
    ("tree4", ("enumerate", "--endpoint", "a1", "--max-len", "6")): (
        "1b5ef8617130bb70b21f5f761cf819fc578d64e30a523fa057b64d25aa8a11e8",
        "5ebc525c7d414d8b9b9803902b277d24e0c9ef872b47bae96257660db732b7cf",
    ),
    ("tree4", ("enumerate", "--endpoint", "b2", "--max-len", "6")): (
        "c9e90415a27295baba95c31c44f8642f8236dd4382b8c1bf3769fea76f201600",
        "4de1328ee2986f3c77a8ffe4499835e762c66800f31fc3cdd427051101b86fc8",
    ),
    ("tree4", ("info",)): (
        "7f47d3463d535cbf3a808ea65728609a64783658b6af7fd3385049e2d3825b17",
        "fa948afcde8018a081d973d18a635d07bd26bd029d109bfa112ad619ed7c59ed",
    ),
    ("tree4", ("limit", "--up-to", "4", "--endpoint", "a1")): (
        "ec95ec5eb9e74189933f154b8b4f5d58681c8c992e5184e74e801e8904cf4e77",
        "98e8cdf9ab23bd2e882325a6cdc9cbb3c88817c2b0f8fba90e42d769de835be4",
    ),
    ("tree4", ("limit", "--up-to", "4", "--endpoint", "a2")): (
        "9cd3d87f2cee623ac4ea0c1e5f84870aaef792b334117668b70c247e8313f0f3",
        "1a0c794bc7d8e3a52f8596ce8f2a6e5c1af14b735f7b947b5520e08785880e67",
    ),
    ("tree4", ("limit", "--up-to", "4", "--endpoint", "b1")): (
        "b14bf8d1105e53768449b4aec743c8aef7dc477aa40245673b03b66a96064b3a",
        "718e202cd0ae723c9872aa4cef0dc53df4ee16ab733fc4393bcfe93695d9424b",
    ),
    ("tree4", ("limit", "--up-to", "4", "--endpoint", "b2")): (
        "70097e5a20bd73567fd601aba37f60e077027ab77fece39c3fff81468bcc4504",
        "3088786522ca6efa49a6512dfef9d80ddfb996467f21c3d903021c33816e9826",
    ),
    ("tree4", ("reduce", "--word", ">s1 <s3 >s3 <s1 >s2")): (
        "c9e90415a27295baba95c31c44f8642f8236dd4382b8c1bf3769fea76f201600",
        "9e7e61a4cdf0d4d5f6e6a2ca02be4122e39c34ec48af814aad569146def09f6d",
    ),
    ("tree4", ("stages", "--up-to", "4")): (
        "249b85d84bc8c501af2c338ab52950040e2e9769d979e3ffe87f2b49f4612413",
        "424b074fa62d6dcec4e39d134d4a893867b795d59afd2b9aa101edcbe1233950",
    ),
}


def assert_pinned(capsys, name, args):
    argv = [args[0], str(SPAN_DIR / (name + ".span")), *args[1:]]
    for flags, digest in zip(([], ["--json"]), PINNED_DIGESTS[(name, args)]):
        code, out, _ = run(capsys, argv + flags)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def pinned(*commands):
    return sorted(key for key in PINNED_DIGESTS if key[1][0] in commands)


# one test per command group, so each case keeps its test id
@pytest.mark.parametrize("name, vertex", [(name, args[-1]) for name, args in pinned("limit")])
def test_limit_output_is_pinned(capsys, name, vertex):
    assert_pinned(capsys, name, ("limit", "--up-to", "4", "--endpoint", vertex))


@pytest.mark.parametrize("name", [name for name, _args in pinned("stages")])
def test_stages_output_is_pinned(capsys, name):
    assert_pinned(capsys, name, ("stages", "--up-to", "4"))


@pytest.mark.parametrize("name", [name for name, _args in pinned("check")])
def test_check_oracle_output_is_pinned(capsys, name):
    assert_pinned(capsys, name, ("check", "--oracle"))


@pytest.mark.parametrize("name, args", pinned("info", "reduce", "enumerate"))
def test_info_reduce_enumerate_output_is_pinned(capsys, name, args):
    assert_pinned(capsys, name, args)


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


# each command with arguments that succeed on CIRCLE
GOOD_ARGS = {
    "info": [],
    "stages": [],
    "enumerate": ["--endpoint", "a"],
    "reduce": ["--word", "refl"],
    "limit": ["--endpoint", "a"],
    "check": [],
}
# a bad span file's bytes (None: no file), then bad arguments by command;
# test_non_utf8_span_file_exits_two runs every command on a non-UTF-8 file
BAD_FILES = {
    "missing-file": None,
    "malformed-span": b"A a\nB b\nS s a q\nbase a\n",
}
BAD_ARGS = {
    "unknown-endpoint": {"enumerate": ["--endpoint", "nope"], "limit": ["--endpoint", "nope"]},
    "bad-word": {"reduce": ["--word", ">s >s"]},
}


@pytest.mark.parametrize(
    "command, bad",
    [(command, bad) for command in GOOD_ARGS for bad in BAD_FILES]
    + [(command, bad) for bad, by_command in BAD_ARGS.items() for command in by_command],
)
def test_every_bad_input_exits_two_with_one_error_line(capsys, tmp_path, command, bad):
    path, args = CIRCLE, GOOD_ARGS[command]
    if bad in BAD_FILES:
        path = str(tmp_path / "bad.span")
        if BAD_FILES[bad] is not None:
            Path(path).write_bytes(BAD_FILES[bad])
    else:
        args = BAD_ARGS[bad][command]
    code, out, err = run(capsys, [command, path] + args)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err


def test_library_value_error_exits_two_with_its_message(capsys, monkeypatch):
    def refuse(span, n_max):
        raise ValueError("n_max must be nonnegative")

    monkeypatch.setattr(cli, "build_stages", refuse)
    code, out, err = run(capsys, ["stages", CIRCLE])
    assert (code, out, err) == (2, "", "error: n_max must be nonnegative\n")


def test_run_reuses_one_parser(capsys):
    run(capsys, ["info", CIRCLE])
    run(capsys, ["reduce", CIRCLE, "--word", "refl"])
    assert cli.build_parser() is cli.build_parser()


def spanpaths(*argv):
    """Start ``python -m spanpaths`` on ``argv`` with piped text stdout and stderr."""
    env = dict(os.environ, PYTHONPATH=str(SPAN_DIR.parent / "src"))
    command = [sys.executable, "-m", "spanpaths", *argv]
    pipe = subprocess.PIPE
    return subprocess.Popen(command, env=env, stdout=pipe, stderr=pipe, text=True)


def test_module_entry_point_exit_codes():
    proc = spanpaths("info", CIRCLE)
    out, err = proc.communicate()
    assert (proc.returncode, out.splitlines()[0], err) == (0, "|A| = 1, |B| = 1, |S| = 2", "")
    proc = spanpaths("info", "no-such-file.span")
    out, err = proc.communicate()
    assert (proc.returncode, out) == (2, "")
    assert err == "error: [Errno 2] No such file or directory: 'no-such-file.span'\n"


def test_closed_stdout_exits_two_with_one_error_line():
    # about 1 MB of words: far more than a pipe holds, so the writer is still
    # writing when the reader goes away
    theta = str(SPAN_DIR / "theta.span")
    proc = spanpaths("enumerate", theta, "--endpoint", "a", "--max-len", "14")
    assert proc.stdout.readline() == "refl\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 2
    assert err == "error: [Errno 32] Broken pipe\n"


def test_usage_error_exits_two(capsys):
    assert cli.run(["enumerate", CIRCLE]) == 2  # missing --endpoint
    capsys.readouterr()


def test_help_exits_zero_with_usage_on_stdout(capsys):
    code, out, err = run(capsys, ["--help"])
    assert (code, err) == (0, "")
    assert out.startswith("usage: ")


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


# strings the writer must carry through its splits and its %-templates unchanged
AWKWARD = ['",\n', "{", "[", "]}", "%", "%s", '"', "\\", "é☃😀", "\x00\x1f\x7f", ""]


@pytest.mark.parametrize(
    "value",
    [
        AWKWARD,
        {key: key for key in AWKWARD},
        [{key: value for key in AWKWARD} for value in AWKWARD],
        [{"a": [], "b": {}}, {"a": [1], "b": {"c": 1}}, {"a": [[]], "b": {"c": {}}}],
        [{"a": 1}, {"b": 1}],
        [{"a": 1}, {"a": 1, "b": 2}],
        [{"a": 1, "b": 2}, {"a": 1}],
        [{"a": 1}, {}],
        [{}, {}],
        [{"a": 1}, [1]],
        [1, {"a": 1}, [2], "x"],
        [[], [[]], [{}]],
        [True, 1, False, 0, None],
        [{"a": True}, {"a": 1}, {"a": False}, {"a": 0}],
        [1.0, -0.0, 0.1, 1e300, -1e-300, float("inf"), float("-inf"), float("nan"), 10**30],
        [{"x": 1.5, "y": -2}, {"x": float("nan"), "y": 2.0}],
        ("tuple", (1, 2), [(3,)]),
        {"z": [{"k": [1, {"m": "%"}]}], "a": {"b": {"c": []}}},
        {}, [], "", 0, None, True, 2.5,
    ],
)
def test_json_writer_equals_indented_json_dumps(value):
    assert cli.dumps(value) == json.dumps(value, indent=2, sort_keys=True)


def test_json_writer_equals_indented_json_dumps_on_a_long_flat_list(capsys):
    # the 8 191 words are one flat list of strings, which the writer encodes in one call
    theta = str(SPAN_DIR / "theta.span")
    code, out, _ = run(capsys, ["enumerate", theta, "--endpoint", "a", "--max-len", "12", "--json"])
    payload = json.loads(out)
    assert code == 0 and len(payload["words"]) == 8191
    assert cli.dumps(payload) == json.dumps(payload, indent=2, sort_keys=True)
    assert out == cli.dumps(payload) + "\n"


def test_json_writer_equals_indented_json_dumps_on_arbitrary_values():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text()

    def containers(children):
        # rows sharing one key set take the writer's column path
        rows = st.lists(st.text(max_size=3), max_size=4, unique=True).flatmap(
            lambda keys: st.lists(st.fixed_dictionaries({key: children for key in keys}))
        )
        return st.lists(children) | st.dictionaries(st.text(), children) | rows

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(st.recursive(scalars, containers, max_leaves=20))
    def check(value):
        assert cli.dumps(value) == json.dumps(value, indent=2, sort_keys=True)

    check()


def test_limit_json_names_its_words_from_the_tree(capsys):
    code, out, _ = run(capsys, ["limit", CIRCLE, "--up-to", "2", "--endpoint", "b", "--json"])
    assert code == 0
    reps = json.loads(out)["representatives"]
    assert reps[:2] == [{"stage": 1, "word": ">s"}, {"stage": 1, "word": ">t"}]
