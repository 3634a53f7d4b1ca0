"""Command-line surface: output shapes, exit codes, determinism."""

import ast
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import weylcalc
from weylcalc import cli, rewrite, rootsys
from weylcalc import diagram as dg
from weylcalc.exactla import poly_str


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


@pytest.mark.parametrize("system,literal", [
    ("D4", "e0-e1"), ("A8", "e1-e10"), ("D4", "2x1"), ("D4", "e1--e2"),
    ("D4", "/2"), ("D4", "e\u0661-e2"), ("D4", "e\u00b2-e3"),
])
def test_bad_root_literal_exits_2(capsys, system, literal):
    code, out, err = run_capture(capsys, ["diagram", "--system", system,
                                          "--roots", literal])
    assert code == 2
    assert out == "" and "error" in err


@pytest.mark.parametrize("argv", [
    ["diagram", "--system", "D+4", "--roots", "e1-e2"],
    ["diagram", "--system", "D 4", "--roots", "e1-e2"],
    ["diagram", "--system", "D\u0664", "--roots", "e1-e2"],
    ["diagram", "--system", "D1_6", "--roots", "e1-e2"],
    ["transform", "dl:1_2"],
    ["transform", "dl:+8"],
    ["transform", "dl:\u0668"],
    ["rootsys", "D", "\u0664"],
    ["rootsys", "D", "1_6"],
    ["orbits", "--system", "E6", "--k", "\u0663"],
    ["orbits", "--system", "E6", "--k", "+3"],
], ids=" ".join)
def test_counts_outside_ascii_digits_exit_2(capsys, argv):
    code, out, err = run_capture(capsys, argv)
    assert code == 2
    assert out == "" and "error" in err


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


def test_an_odd_cycle_is_not_admissible(capsys):
    """A triangle with one dotted edge: an odd cycle, so the diagram is not
    admissible and not in the catalog, and the request still exits 0."""
    argv = ["diagram", "--system", "D4", "--roots", "e1-e2,e2-e3,e1+e3"]
    code, out, err = run_capture(capsys, argv)
    assert (code, err) == (0, "")
    obj = json.loads(out)
    assert obj["admissible"] is False and obj["identify"] is None
    assert [e["style"] for e in obj["diagram"]["edges"]] == ["solid", "dotted", "solid"]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "7ad702225f5c0fad3f1aca7b245cacfdcfdce617999e97106a827559420e505b")
    assert run_capture(capsys, [*argv, "--pretty"]) == (0, (
        "diagram on 3 roots in D4\n"
        "  v0 = e1-e2  (short)\n"
        "  v1 = e2-e3  (short)\n"
        "  v2 = e1+e3  (short)\n"
        "  v0 -- v1  (solid)\n"
        "  v0 -- v2  (dotted)\n"
        "  v1 -- v2  (solid)\n"
        "admissible: no\n"
        "identified: not in the catalog\n"), "")


@pytest.mark.parametrize("system, roots", [
    ("B3", "e1-e2,e2-e3,e3"),         # the B3 Coxeter element, not A3
    ("G2", "e1-e2,-2e1+e2+e3"),       # the G2 Coxeter element, not A2
])
def test_diagram_with_long_roots_is_not_simply_laced(capsys, system, roots):
    code, out, _ = run_capture(capsys, ["diagram", "--system", system, "--roots", roots])
    assert code == 0
    obj = json.loads(out)
    assert any(v["long"] for v in obj["diagram"]["vertices"])
    assert obj["identify"] is None


@pytest.mark.parametrize("argv", [
    ["diagram", "--system", "D4", "--roots", "e1-e2,e1-e2"],
    ["diagram", "--system", "D4", "--roots", "e1-e2,e2-e3,e1-e3"],
    ["charpoly", "--system", "D4", "--word", "e1-e2,e1-e2"],
    ["render-dot", "--system", "D4", "--roots", "e1-e2,e2-e1"],
])
def test_dependent_root_list_is_a_usage_error(capsys, argv):
    code, out, err = run_capture(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "linearly dependent" in err


@pytest.mark.parametrize("verb,flag", [("charpoly", "--word"), ("diagram", "--roots")])
def test_a_dependent_word_names_its_dependent_root(capsys, verb, flag):
    assert run_capture(capsys, [verb, "--system", "D4", flag, "e1-e2,e1-e2"]) == (
        2, "", "error: the roots are linearly dependent: e1-e2 depends on the roots before it\n")


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
    "dl:14": "358ea89437416082306b421409404c5376ba5eb80d7f39365da7d2269c6fbc2b",
    "dl:16": "34e0689b2a70d679e7a33db57865f627ffdf1979490046c7f5f32cd42e210fda",
}
# Likewise for `weylcalc transform NAME --pretty`, which lists every step's note.
TRANSFORM_PRETTY_SHA256 = {
    "d6b2": "78113d7f2beba2402abf4cb2bb9132d0ca374c0c7c554ff8223201cad409cce6",
    "e7b2": "5ffc8dcf95ee1af813d37f0230db8ea75afb168a535adf81b6d86bdc40fcef51",
    "e8b3": "9f8cc0cf5ad8a13e95b9e9ef7d31761863c30c9bc7a29b459a107230d9828a4c",
    "e8b5": "0b392aaccc7ac217d95796b4f7606e0c35d7a3d59d8800222ff56e17d191fbbd",
    "dl:6": "8982986cd7d3305997a87837647048eaa3ab704b08d105f6c9255ad20f22d993",
    "dl:8": "b2d934b9f109ad7dabaf050e2c3aef4c6c03aaa9303ef82bb50cd4f7c537bb36",
    "dl:10": "770f9667f91ea5de07b2739c2d446f20e5545fb0a5f3be12cebc52da2e2ae5a7",
    "dl:12": "08aa1846556f5f631f6f2ce80ea58edec0ae03e8efbdefe2f21eba5d92d737c4",
    "dl:14": "e4fce00bc8db68a52406f2f0fe08d9050d8b0fd79c3ecf52aaaf3247139558a6",
    "dl:16": "54c9ffe33b4e195e85e64a7718af19e0645329f2b9665a28695e08fbf3009e38",
}


@pytest.mark.parametrize("name", sorted(TRANSFORM_SHA256))
def test_transform_stdout_is_pinned(capsys, name):
    code, out, _ = run_capture(capsys, ["transform", name])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TRANSFORM_SHA256[name]


@pytest.mark.parametrize("name", sorted(TRANSFORM_PRETTY_SHA256))
def test_transform_pretty_stdout_is_pinned(capsys, name):
    code, out, _ = run_capture(capsys, ["transform", name, "--pretty"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TRANSFORM_PRETTY_SHA256[name]


# SHA-256 pins of data-verb stdout, recorded from the Fraction-coordinate
# implementation: the integer kernel must leave every output byte-identical.
# Per system: `weylcalc rootsys F N --list`.  Per catalog entry: `catalog
# NAME`, then `diagram` and `charpoly` on the entry's word, concatenated.
ROOTSYS_LIST_SHA256 = {
    "A1": "cd1b958b01dc81ac3a075e1f3a95c9e6e14ce1a57a64d7fad3b30cfef0c38d79",
    "A2": "5c6a805293582d8e5452578c64d63466a24e47f7934cce03caf1513b771e90ea",
    "A3": "6e7a8d0744dc051f98a124a6eac1d012fc290a4a10d10f752b42c549999c0c9f",
    "A4": "5b1c3ab956055f553e6c372b485e63b9522b35c9327a22770d8470b2fea93f67",
    "A5": "bb50ae54cfd788e89c38eba9b799296b13bfd4b9ebf23fbcd9e6f459e8e74f0e",
    "A6": "776626b8ec9650f20a63dc1956f548323e6e94eeb4f3c0f96af9ca20ed6bbec8",
    "A7": "331620f46426fc423eb358f34f43ac95a0475f102eb7a3114110543154b9c1ea",
    "A8": "0bb368ab9374af34c46467b7795e5d62a35fe29acd0fdd4f10b472c4f0b34730",
    "B2": "99313fb0f708e6d5bc0fd421528e9a0aa0f239b259387a2e27c9325195ffed5a",
    "B3": "30c0f714148d8c560764d28b7e7adca96973a2a4e9e58b3dc1367afb4c43784c",
    "B4": "2170a6c33e9e241c3115adb74df03bff1a6b431b8542c753eafc812478bd6116",
    "B5": "7b9dc8d8532487a06890cba8eb7e6a80bde5b47dca62529112e7f56ce58a8abc",
    "B6": "42d8455d656ba588d5f267ba18106d476ccaeea00bec298e1772858d68907168",
    "B7": "1f71eff37dda6f588732eeb38249ecb43d609c04f3c1ebc1c0e44c8270054bcf",
    "B8": "81e67eb82e27601ba2e27d7e5272e18e5a38b2ba1b6035d9dd56037a55fa3e0c",
    "C2": "9cf14cb2b7c882c5fd8881aaf1045a6da9bcac56c8faa1c5c2d5cc6de2ebf854",
    "C3": "b1439d1c021e6386e5e7dcadda5e2ab940304f7899a44e4fefe4aa5d3bbf544d",
    "C4": "19597b092d118eacacb5284e82a82863b29708426da84609a2d2972b6a9279bd",
    "C5": "9844ef6457225b7604b0767949e1974112549bc5ae9d7b38f7db2cda1274b42e",
    "C6": "73700cef7c45903e88d384e35d7ddd6bc79d44aa58b28869dc8dffb007296f33",
    "C7": "fa79d1db52986ad140b4b955a52d26b30f07d542aa845ed402615556aa64f45c",
    "C8": "7437d25cf9638516fdef3fc2f00b4432974139915d341af4dd142f5f2c7980d3",
    "D4": "a979dc75c0fbd2ed8ca00a11359db3982681ae48a4c539245ef2df51b25fa9f3",
    "D5": "082e58d2852a0de103d01bba5f26ee1e159d7f8dc4856683390a5ec1b9937b44",
    "D6": "44f9f87c504fb634d2e0ec02fb4e9c3e97c3217408b9dbcc200bb5e6c2ebd6c5",
    "D7": "d22834ee86af56f1be637fed7bc9baf8c27c7c424fc052d85e7f6b9001c981bc",
    "D8": "c405c6941ce575163734ed5f7f275a72f39e87cff236c18b60688cf6d52ab59f",
    "D9": "b2053b9551c14bf95be9f09b6a05391f3ae0fe8b3ae75e7547880bb83a5717fa",
    "D10": "8a488ce83b9cbd11d7050b4322b6e1cf4049c6b6c594ee553fff3c883be82c96",
    "D11": "3baf024233cf0750d366d039760781e0018c9362c4437c06f6ff872e3b17aaa4",
    "D12": "d804b9c2c6de0fe64423ac22a5a074279e122d6164e3c9dc8268aace3982d54a",
    "D13": "ec548c0971e13cd3d659cd509b5242c37eb7bd7327bdd52bd32330c57f234220",
    "D14": "09551d3e1ed6325e5855d3af2f16caf00bc8673196a71387e329c730ff40d528",
    "D15": "886512a1d6dfc1cb310e49e27bff4c86c0e8dc13517d26eca9cd650f89b46df4",
    "D16": "d49bcde9f2d4d2dc99491a8aae89a2316711995bd898784d4fda6d5a1ab4d0a8",
    "E6": "195c1eecf9c344aa0fac75b15d0e946c0b64daf33f4735c7efd5d1ff0ee45cda",
    "E7": "87d9f48438863d434d9dd43a4c9f0f1320421c78e28ee48181b06f36cd1c0856",
    "E8": "cb2e873a19d7e245677e9632379e79e31ef27bcad315812bffa0a77b2f87e486",
    "F4": "f7620c8974973d816883220983c225e347f7900d1552c90ff3d85892338a8f76",
    "G2": "445a8820a89c831a774f131b553ff1826a8f8a587c4442e64bfae66cd6c29f20",
}

CATALOG_WORD_SHA256 = {
    "A1": "2779e6478895d9ad2f188341b32d1eec760ab565831641730962f011f4fa32b3",
    "A2": "cb940bca9e194e0c5add17a3e81523a670f1683b19e3f4737b2d121491921db9",
    "A3": "2ee155fc93fbd9a7d1674d39604a25ed4a897ebbef71e25a9e64ae6868198146",
    "A4": "74df09f1a17851e8562c6114a89e6864491456bcb59bad65cdde3ac4cd7d1f15",
    "A5": "7db10eead796a12b508cdbe7fe84c307c9e3864d03d80f65a19431b27c20ec30",
    "A6": "c75e0d48927045a924aaead5acad87420d2bbd658b63f4ba68a9515615efbeab",
    "A7": "267478c69b79ac7b0817beca82b386ae88bb073b303a0b02c826ec5baa44644f",
    "A8": "68978c49b2bfaf19f8e816981918de59d92b45f50ceeff209649ba7b0b3d9511",
    "D4": "16d6626b02ae123cacf987cdb55c7b2d269851ffcd940ec6f0a56ebdbc93c73b",
    "D5": "c21cc9cef023ee4380dbfac0beb6dd2af98a85b9e79bbd321694e1bcebb19736",
    "D6": "acac4ac274aa90bd34002527b4f0331ced54c15823f2d12461c21c33be8cf938",
    "D7": "fda8e0e58d25ab96ae9b6f0fa996202a57d1f3c1691eca61cdd0e6fbeb2cb73b",
    "D8": "54de764a83ba8acf3c9799cd85efbbfff4a849c10c6d9b58189850cf57a7974e",
    "E6": "11484a2626656da2f10113c7fcaee0f1fb90cf48a1bec3ff2068f5bbdbfa72fe",
    "E7": "042978988d1595a122f667f00ea2343faef71299d839189315988b6d22a1c6bf",
    "E8": "527221b855f3c6c6958f14535a9bfb3930cf5f71235549dc8bde2f2cb43d8dfc",
    "D4(a1)": "7745ec59735536bbb9a6c958ccbc7aec3bd70a41d3dbe76060bd5908ff01b14c",
    "D5(a1)": "ef53ba6b586a41af32790d07f1a628eabf87847ceab6c11483419570226b8d5e",
    "D6(a1)": "6d06d045ee1ec77e143bb3c5e2f36cb7d91b8feb03744edeb68064f52504a9c9",
    "D7(a1)": "60c0b5e151ad7b57923f20d0adcdc377f82686948ac66ed17c82f8451242d662",
    "D7(a2)": "589358b06a906973ac50d23d7e725e050c497ebcd4d52dade4d4fcc80a3d4e77",
    "D8(a1)": "23cd38a65c5b51ece8afcf0fb2a89af4140c82f663895072c2695e226d2de2cd",
    "D8(a2)": "e97bab0001c6610b99bfcacff393003ffdd0a365bc3572e1fbf1315ce50031f1",
    "D8(a3)": "bfaf5ee41ac2ffe7bc2da73b555bacdf27e1b1cf2832e94bf5da7650a17f4b10",
    "D9(a1)": "fcd062e9521c851385d04be95bbd5e744dde91dac08bfb3b48a6b7dc3c784183",
    "D9(a2)": "4d6f0ff0e09ed0403cd69d44a0f453573b29f16551f4ae0b84590187a74624bd",
    "D9(a3)": "7cf2d2e43c7e8184300d9b2eb38ed527775841b7cf2482f6843082ec2f34e7e7",
    "D10(a1)": "a5327f286ca5e01bc8d5c8d5cafd3a781320b2a4c7669c3abed2fc7974336819",
    "D10(a2)": "25cde4e1426bb5f363f947a17d6f6fe066df7be59167a1942105bd301e651eb1",
    "D10(a3)": "3ec9dfe1e1ae54c188dcc492662d5c1366e06042874b6ca69fd58045237ee75a",
    "D10(a4)": "a9e5de330045a72dbce898362fb27975272ef7fb8353ab0a87a80bede392d8d5",
    "D11(a1)": "9e3c9964072877ec565cde55462d101a1e38acf8fa6ba278cceb16955c27ac57",
    "D11(a2)": "b13bfa4430434f67ddebae64ca6c64fca58d98cf3f4ab94993eb4861eb5fa7f4",
    "D11(a3)": "12bfd122c2d3d36aaa61f6d52163150ee73407f842369c9b6b957cf529e0a491",
    "D11(a4)": "3e167bc71249bf5d990764587a7db362fb93d43437890243d0c6541b36f78545",
    "D12(a1)": "2019093f4ae14407cfbba992e32544c5b8ac9d6f80a9ea7c5f9758a56240e2d4",
    "D12(a2)": "5a0829151824129741a7cfb06cd946bf23c821c8d59bd73305e88e2584fbdbb0",
    "D12(a3)": "cdc938b932fa0f88539c2729ba8860e89c52516c5bfacdaf2b719fb544f3bd5b",
    "D12(a4)": "ff81cce8cff3447738821dd45f4c5a85b09795298a8b0fe6dc0972eb820f0f98",
    "D12(a5)": "e5b612ac5751c1d684e4828ee9b5b253fc9d9b3be1e0771aa6092ebe69226e12",
    "D13(a1)": "f242305e4f9eb5449e3614896d6ba0dee2130160feaf8f34d35ce54c3c806760",
    "D13(a2)": "7af0110ae5467587dbf4d7b404c2d825e1c68ccc3d9a07ed039e49ae9e79f685",
    "D13(a3)": "f485c21dc06f2c766c356d0ed0ff3811493f832ac725ad9263d366a1a6591cf0",
    "D13(a4)": "a0385a3ed7f173b9c9cc171b2d40793dd6bc270e8ee8aaf278cb4ec777bb6f6c",
    "D13(a5)": "31ec1e28cd777409cf238c311ff3d5a1502dcdee20e5bbd4b0b7a78ea56c475e",
    "D14(a1)": "2633f67a4f11c0ba47d06a14e6b20a1b8e707f4eff3a60e6430268104846c664",
    "D14(a2)": "9b1a5422bd1e9d90d33b4de956b59198d886ed72d9be1fc62cf339da8dca8570",
    "D14(a3)": "fb29b94f8a07b2143dfae1ed298500640032554fd5db1cfaf9cfd13b1da45397",
    "D14(a4)": "c215193a3a80d0abc920077b95d04d999588f89c7ac5cf03e390d0199cdf6bd1",
    "D14(a5)": "1856fe5dec2f27ce10dfcf5990b8d13f271543d036a19ee43bbea5a6c73217dc",
    "D14(a6)": "c45b322274679a72e5ae8a1e31a1d364177ba88252eb9634ff3142185ee78554",
    "D15(a1)": "18f2fb2b9bea4ff997d8e2c28577485a925af6bc5bdc82e23101f6651fe8736f",
    "D15(a2)": "cce7951922697a6bae52a54e6c1c04c9e081b0d866ff480ce51984a3c16d1765",
    "D15(a3)": "0ee72d6dbbcecb4cde2fdf2f25a69856d25cf2229b6b6d2ef2d07ac574242165",
    "D15(a4)": "783e37559a2c508089c1f52dd3a520348fec300a5f84f0008f35201964d1eb25",
    "D15(a5)": "b9cc9f034dd0571e9b323119488513c5240527d6c44cce24cfad770146ff53b2",
    "D15(a6)": "b35d822a87482b3fe884451441f627e2f042f2dd3408eb6b7bcdc8b0121377da",
    "D16(a1)": "53e61b1629f1ce6a31e464c9679055d132778df8aa38c5ff8e556a66cf21139e",
    "D16(a2)": "98fda15a8a1cb89ec58a9207957fa475079b2c3b95751e0518de75c7475a11dc",
    "D16(a3)": "933e4d11c92182f3600a4077a36d552eecd54bfb72e9790327ac91987176b940",
    "D16(a4)": "de90a40e0e3f43581a3e656616a7d1e0cb112ae39f177ae780976e0e92016fb8",
    "D16(a5)": "f6c34a27a5c5edb565ee7eaf3a3dd5c5c2a4334f74570a4918699db4a00f1754",
    "D16(a6)": "175a1527db2dd46c8eea0289f6824a2131979d48bde3d72ca0d120db32d2e0f7",
    "D16(a7)": "14943a203ea5346cad351e1bfe5f4280ae1af4ab797af8bd06863535f6a50d2a",
    "D8(b3)": "171c6ad9741e49a052ee68aaee8f3bce5dc4fdae4717a806f53dfa4e102818b0",
    "D10(b4)": "27e76d1d9c714bf9b61528076bd7a4bdd5e28a9c19d2af2af2c7b97fa60e21c3",
    "D12(b5)": "067e28aa3468b3c7ba7ca2f8c4d50adb1d6870872a544949173ba35e53b14617",
    "D14(b6)": "13ff4d0428793ee377e96bce325941a630cea044c2cbb99ffd7320db20ce7e34",
    "D16(b7)": "1fc255fc4a02768a240eb0862d9d98450d819ec19ac9b4988c788a2c27fd9b5c",
    "E8(a3)": "0d1bd38b791f134f5ae3677a990dd0da2e2ad9149510f90f361906e5a6011976",
    "E8(b3)": "3aae8ac1ee5e9682f88f77844ce2377dc963354df28784ef8c72ee9ffa2d9561",
    "E7(a2)": "c396003a65fb9014e2ac7b0c2566967933788015e5f124d378e6a83516ab1aad",
    "E7(b2)": "949eef0c8ad1fd5ed34a399ecca45f6daafeb477c48b683dc9e367a49959e92d",
    "D6(a2)": "e62892e8b165e1b5a84ce7e234d42a77de734dcf0e1d22c1751d0ce99b44c03d",
    "D6(b2)": "485f5baebc57662c004ada9e64bf217e4062bc5ccce4d8491d2a1c07ee8a62c5",
    "E6(a1)": "974adf4cc8a9744851c4c5e9e07546615519e3c1e33a7399a0f9834738808b60",
    "E6(a2)": "12aad158c1a4057c46f450b1636a15156175f93f9c4ead7bb825ff4f73239a62",
    "E8(b5)": "98a2ae07edbb43c99c11668673ccc37476a8132d8a87495242a6e342ca1c8918",
    "E8(a5)": "67f46829996a0f63d3c7860c34cd99e4e8e6bdd1544b2431f8f1f0f380b0a69b",
}


@pytest.mark.parametrize("name", sorted(ROOTSYS_LIST_SHA256))
def test_rootsys_list_is_pinned(capsys, name):
    code, out, _ = run_capture(capsys, ["rootsys", name[0], name[1:], "--list"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ROOTSYS_LIST_SHA256[name]


@pytest.mark.parametrize("name", sorted(CATALOG_WORD_SHA256))
def test_catalog_diagram_charpoly_are_pinned(capsys, name):
    entry = dg.catalog(name)
    lits = ",".join(rootsys.format_vector(r) for r in entry.word)
    text = ""
    for argv in (["catalog", name],
                 ["diagram", f"--system={entry.system}", f"--roots={lits}"],
                 ["charpoly", f"--system={entry.system}", f"--word={lits}"]):
        code, out, _ = run_capture(capsys, argv)
        assert code == 0
        text += out
    assert hashlib.sha256(text.encode()).hexdigest() == CATALOG_WORD_SHA256[name]


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


@pytest.mark.parametrize("extra", [
    ["--system", "D4", "--roots", "e1-e2"], ["--system", "D4"], ["--roots", "e1-e2"],
])
def test_render_dot_rejects_name_with_roots(capsys, extra):
    code, out, err = run_capture(capsys, ["render-dot", "--name", "D4", *extra])
    assert code == 2 and out == "" and "not both" in err


def test_render_dot_from_roots_marks_long_vertices(capsys):
    code, out, _ = run_capture(capsys, [
        "render-dot", "--system", "B3", "--roots", "e1-e2,e2-e3,e3",
    ])
    assert code == 0
    assert "doublecircle" in out


# The --pretty texts below were recorded from the implementation before
# these tests were added.
PRETTY_TEXTS = {
    ("rootsys", "B", "3"): "B3: 18 roots in dimension 3 (length ratio t = 2)\n",
    ("orbits", "--system", "D4", "--k", "2"):
        "W(D4) has 3 orbit(s) on unordered sets of 2 mutually orthogonal roots\n",
    ("catalog", "D4(a1)"): (
        "D4(a1) (realized in D4)\n"
        "  word: e1-e2, e3-e4, e2-e3, e2+e3\n"
        "  charpoly: t^4 + 2*t^2 + 1\n"
        "  v0 -- v2  (solid)\n"
        "  v0 -- v3  (solid)\n"
        "  v1 -- v2  (solid)\n"
        "  v1 -- v3  (dotted)\n"),
    ("diagram", "--system", "D4", "--roots", "e1-e2,e3-e4"): (
        "diagram on 2 roots in D4\n"
        "  v0 = e1-e2  (short)\n"
        "  v1 = e3-e4  (short)\n"
        "  no edges\n"
        "admissible: yes\n"
        "identified: A1+A1\n"),
}


@pytest.mark.parametrize("argv", PRETTY_TEXTS, ids=[argv[0] for argv in PRETTY_TEXTS])
def test_pretty_text(capsys, argv):
    code, out, err = run_capture(capsys, [*argv, "--pretty"])
    assert (code, out, err) == (0, PRETTY_TEXTS[argv], "")


# SHA-256 pins recorded before verbs returned their text to ``cli.run``,
# which alone writes stdout: every output must stay byte-identical.
# ``weylcalc [VERB] --help`` under COLUMNS=80 ("" is the top-level help),
# recorded under Python 3.11, whose argparse layout other versions may not share.
HELP_SHA256 = {
    "": "449e231bcfe5b23c78325db3161e2c90a3f104026157b2190ae0cb7760ff5bd3",
    "rootsys": "a06ef2c0543105b77821ca3a08be1c0d49143daa0683f99a0f4a0ef26fe51bc7",
    "charpoly": "9e0b9a53420dc5d354a79eab040c11da5a17a0e456f553ded62d6232ac4f8275",
    "diagram": "94ddc8f532498e9025fc512db1f203a50a11176b07049bce7684e4fed16ead00",
    "transform": "609ee60601f57c36895c487f8976cb1c7006a8888f7f2838afc3d7ad86e39766",
    "verify": "6e6c857d66499f20e7e788cf85fecb257602346b65a00b7160192d96522ec56e",
    "orbits": "4ffaa3a881203acffbf23f556d9b5923e798fa08e32c71168e862ea8fba08112",
    "catalog": "022f311d5c9b1e1869439774f228ad7922cb294b97777f5249da8232a2a45efc",
    "render-dot": "ef3245f4b8786056a0f466513ea564506ca4af33397ae3045fe0e5ca387b69b1",
}

# Per catalog entry: ``catalog NAME --pretty``, then ``render-dot --name NAME``.
CATALOG_TEXT_SHA256 = {
    "A1": "9e1015738de3c1079c3fc79eb7737197793094e1c6560571b9716f3948cebd55",
    "A2": "5e3e8f7fa3c9e11226d16aa4935e7167699ec1499a9e93dd58f94e8ab1042aff",
    "A3": "6fd570639fbc62fb5c15659fc567d80589c0b885d17bced40e1330e5237989b9",
    "A4": "b48d8ac6eb433144fa01eea5372dcaaabd942396c165beece0c128aebf1a4673",
    "A5": "186bb25fb1b2eb4be2e949006bf34c3cd223bc1060baf6c496c1deb6b79c930f",
    "A6": "f31369b7dcf6fb65ea83861c8b4de09eaf28c611c710a25cb444c3be438e0970",
    "A7": "dc1f58d8de963e635277e29479614c1907404dfae376f9b830798c9541405c15",
    "A8": "7dacbf111f00a7183c291e44f94b3ce5e0a778997d7244d26b2558a3baeafa24",
    "D4": "f9372b519372c73e00a0387040cae2f8e7887300959d874abe483ee5baf4619e",
    "D5": "3b9a465d19d34e4b552879bb04b4591b02d835870bd766ae1a67eca50b12689d",
    "D6": "816853d1b67a0f8dcfe2feb6bb9c374bfc197e1e9dbbdd220978391d25eb1c53",
    "D7": "b22244d54c49e3d589f1ae4398ac8cde6799adb025ee7026f7858fa5150c2cd1",
    "D8": "d2248a6e412e76c58f8b707bf7bd161bb01b2e0205dd4a94b584bd4d34c7f9b5",
    "E6": "f3550f8489ea6d50ab43463b91a3db07203042dfdc138ce6e842c8485b9ef238",
    "E7": "331b677dab33df9bce4d52f95634f979085ddb5d28c1ee992af839c0956def0a",
    "E8": "8e1a8e5b6b7bc5dc45f28850abc3dd7a75cad4d29501dec40d164866d782e885",
    "D4(a1)": "539cd650f0e208864b365ae5d170d793f0a52fb119949bf9ba4387fba1ce3f38",
    "D5(a1)": "44c82ec3f82c3849d12825c6f0f18ea0fb2409c238e06a068911209e2d117e83",
    "D6(a1)": "4a01aeba30a83e11a77a3ac362fe89f1a0e742e3e83b0a64c5d52b51f39ba327",
    "D7(a1)": "0f05420ef1b143b3e2dfca447534196911dd3eb2680b8e7a7ff440bd4408dc09",
    "D7(a2)": "a17a95ea2f80fb2894eeb676d7ea3de9a7014a4407feaaf380c6cd25a182f47c",
    "D8(a1)": "71cb4a7768bb3d71836dda59ad3c0162802685edfd8155e6f1be514d720f180c",
    "D8(a2)": "6eb17c43d9787eb23ecbf58fa0967b35e2b57d08a8d3e90c4c6263fb3f79ce2c",
    "D8(a3)": "d04c5d420871393c0626700b72bfb12a9e43cf4926469ebc4ed884d9eb178fb7",
    "D9(a1)": "1aaf06024467c4b3c0eda426261ce7ade8a9da7a27917263dc694545d5e6bb8c",
    "D9(a2)": "0138cafbfbca81c1e7f9aa2c23363df4cf05183abe4b80c29b52eae7285dc055",
    "D9(a3)": "e2b3dbc0499eefc448a738a1c7c71727bc6aec4133671ac56f8726df51f36d0d",
    "D10(a1)": "eead78f79575b09a1a256d286ca85a2a87e843c78c1dc26721bed7790ae27be0",
    "D10(a2)": "1452d2e6053b935a924445a42be9581440cda7886f1a6c2b2932c0740d1493dc",
    "D10(a3)": "f0de5bbf8287d04400387fc28e92fdcb378a9174be75cfd98c4fb1a2ea32c3a5",
    "D10(a4)": "f39bd80bde8ee3f57ea53dc2d36d91e200ea231142e4f4a20df09919b89c4a1f",
    "D11(a1)": "30067b063e7ca9397e446fda0c77bfa7d1d4dfb7a4f3cef388043ccf1cd61020",
    "D11(a2)": "5c7e78a51c3c68527dc662d64cf2d3fbc8f9e270c111f3cdc624bf35a0b53037",
    "D11(a3)": "0528e860b232ac55baa387f29b620397b340d04d09c55e65ba916949773f12c4",
    "D11(a4)": "071e93ca836b620aa7a5da0574756923a63bf20d4cd9d782db2c409874cb6d2c",
    "D12(a1)": "fbe62f07cf268e5df0aefd481472ba3e1a4e8f6d4b9fd08fa8c87153f59e69b2",
    "D12(a2)": "80db250e4dd39511e85f1eaac95d8dc4662a88efd98a7941784f36c787d5bb91",
    "D12(a3)": "2c8f9d5c15d6ce9f138598ab89311c011fdeb58a00f9fc1c409685b0e02f0dbf",
    "D12(a4)": "b1d0d5b080d698900478b6758e091000df2f7c7167a9fb3edbd7cb73eb42c551",
    "D12(a5)": "22328afc20c43989ca8885d644f35af8657c84c8254435f3617a237c791ce5a8",
    "D13(a1)": "96f242d1dba1e2cc70ddcaf7eac73db041ff6593e4761146b102a80c79759ce7",
    "D13(a2)": "7e0714917a8f70226b9713a8b0ce7499f777ad2e8ec83c8f9cc0385f8ecf0580",
    "D13(a3)": "2a466e121aeadfc71c838fd25ac7ddbe2356a94e4a12b2c5f1773e5453e2b57c",
    "D13(a4)": "19acdbea16bde64e5cb653f6b9ad4ffff7949ff23ba8f974d7833fa54c837507",
    "D13(a5)": "2dd0af7d44aebf8c535c4c35a726a615af13a50f1f46c130272b412b5bf7683b",
    "D14(a1)": "536e43e65f5e7d443a007258e7b1a423b6951640b9efbb55beb75b3f7233407c",
    "D14(a2)": "23da02359c0f18241fa65e44b80d7e7b88b59ca8256ab64fb2be44653bca09d9",
    "D14(a3)": "62d06f2fac63ec54f964347d159d74aab60c87974d8dd65c6ba0650757cb9c69",
    "D14(a4)": "d71b2b1638491a83a7810573cc55c99bc1b162cdbfb6b5e14ca2a735a38758d5",
    "D14(a5)": "892e28892ba35058809dc4638584abbfb2b91a407bf9994934e7f889340292fe",
    "D14(a6)": "f42600c60288b8e98f4cd0b133735b695d2bd550ae04061f0e054c5d8d45943d",
    "D15(a1)": "863b9386ce3e3be0f7c6ce853f4f0d1c8d8e7c494efd0e756822e4f6decc7588",
    "D15(a2)": "918b804fadd4ff804fbe0b929622c2e7d1575c9c539674b91300fc26f155f047",
    "D15(a3)": "21c8c077db52d233ac82f301d1b5d3312a72269ba295c2c8b9a70d9c91e6f060",
    "D15(a4)": "312151332e5fe830a880870cf423a8c6af511b00f98f2d6386ebb005de66b225",
    "D15(a5)": "c9de56a5835f223fc2a56cea5b9bbd0c60ac49f34b40bd1d63024cf8bf820a45",
    "D15(a6)": "a77646d9654b849e02a80424046c25e14f207ce6d35823ccac6afd823947c348",
    "D16(a1)": "1f99305cdf007862c598b3bbbaee0da149d91bb3aa9f2acf25f01a2376306b92",
    "D16(a2)": "b7c3cd1ad97e6ea373369895c19253c242cd2f0fd0b4dd30338783b185069ff5",
    "D16(a3)": "cb3ce0b00c81873225a3bb3562673265064e6908053654110ab72034ae3159b7",
    "D16(a4)": "ed7ac2c4a9aabd2fe6b188665b679112e1efefb041830b59024430155609002c",
    "D16(a5)": "6ad3378a87d09062e87642fd64b16979e7a27a2a2638916c000dc45159c57dcf",
    "D16(a6)": "46ba59cbcad43d9baacc8fee2f447ff19b44d56cc348cf8507c56b6bd3015ed2",
    "D16(a7)": "8b10acac3e3beb3f2f23aa7b16f21889ada4da882c7dce46ca9dc5e069649c79",
    "D8(b3)": "6aa6d4d5d6abe051c0e283ba2151e1949ce974f5133b7fa8a0b611632664e0fb",
    "D10(b4)": "4865e78d194139a23fd13f1d03e1a91cb11c7a83137bbabaaa7f38b4eddf6e9f",
    "D12(b5)": "27b41de664920aaf8fde3e51b015247658ac8f02b006a08c43c28d2ac2e0bf28",
    "D14(b6)": "0a84468e9e842ede615c98d85be4c6e83e03b9d943c1fb175a5f5322593b6efd",
    "D16(b7)": "d4b9accecbf163f1e322ff5522d622d230f67b75faae677df7140e3df625ed23",
    "E8(a3)": "6ee0e7c40c7971962d4563b965ee3dd5228b1bad6fa9996a250f8e196fd9e697",
    "E8(b3)": "be9f88781174ec8bcc3f83873460dfa0ea4b1da37d5bacc9896df4fe118ad07f",
    "E7(a2)": "62e66efe29d1af8c8ce582cd2e825f930848f3866a3ea59b075b042b86f6cfc0",
    "E7(b2)": "6d66930a2a47aaeb9e3736f497ff36c1ef11557831a1208b104033984c7ab401",
    "D6(a2)": "f8dd986e10219fde0b6ae48ff1b2cc516f51049fd9936945e29133c48110f183",
    "D6(b2)": "ae63b3264a8088f7dc8aa18017e4ad9abfdddad4c041155978e84ffd8d45fd2c",
    "E6(a1)": "89f08485d29dfcaafff3f87d5c5bf3fcd19bf998282e368b36050068cf99f100",
    "E6(a2)": "ef7af0a5ed35732e70a01e8f663df9133ab4e39d4547ffe9cafd2b35bb86bbf7",
    "E8(b5)": "14a6f971340354b6a3718a9dfd55494c613af4adb55254916f44a6127f3f2856",
    "E8(a5)": "581011151ecf8bf16394bee12f69781726c4ba86abe43ea4069ed90685025c4d",
}

# ``rootsys F N``, then ``rootsys F N --pretty``.
ROOTSYS_SHA256 = {
    "A1": "a23e6f744ac60574b5c681a579159aadc6fe7d245092eb205e292cadb140c43c",
    "B3": "3f2f1f81c8adbc070da47f0f9263518bf0d2ed4a743414b0eba79a7f4b1f59ef",
    "D4": "249d1e26a97e3dba8b771d5e551cca7548ad32f57bc79cec65bff891c24590bf",
    "E8": "e6d9ed4aa958ffb59ab6fb7c434335d53ca26a352d1a80cb77e5207dd68ea64d",
    "G2": "79381d116852b4bcba2777518b282b02bb7c399fff30db81918f33fb59981b05",
}

# ``orbits --system S --k K``, then the same with ``--pretty``.
ORBITS_SHA256 = {
    ("D5", 2): "1169ba3114646d4e787035911508d435f89669ebfdaf6d04ba6cef6867169237",
    ("E6", 3): "5b4df3b05049beb544b48566db2c0e6fc2904d353a1541374399b29e05e76142",
}


def stdout_sha256(capsys, *argvs):
    """SHA-256 of the concatenated stdout of the commands, each exit 0."""
    text = ""
    for argv in argvs:
        code, out, _ = run_capture(capsys, argv)
        assert code == 0, argv
        text += out
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="pins recorded under Python 3.11")
@pytest.mark.parametrize("verb", HELP_SHA256)
def test_help_is_pinned(capsys, monkeypatch, verb):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [verb, "--help"] if verb else ["--help"]
    assert stdout_sha256(capsys, argv) == HELP_SHA256[verb]


def test_catalog_text_pins_cover_the_catalog():
    assert list(CATALOG_TEXT_SHA256) == list(dg.catalog_names())


@pytest.mark.parametrize("name", CATALOG_TEXT_SHA256)
def test_catalog_pretty_and_render_dot_are_pinned(capsys, name):
    assert stdout_sha256(capsys, ["catalog", name, "--pretty"],
                         ["render-dot", "--name", name]) == CATALOG_TEXT_SHA256[name]


@pytest.mark.parametrize("name", ROOTSYS_SHA256)
def test_rootsys_json_and_pretty_are_pinned(capsys, name):
    argv = ["rootsys", name[0], name[1:]]
    assert stdout_sha256(capsys, argv, [*argv, "--pretty"]) == ROOTSYS_SHA256[name]


@pytest.mark.parametrize("system,k", ORBITS_SHA256)
def test_orbits_json_and_pretty_are_pinned(capsys, system, k):
    argv = ["orbits", "--system", system, "--k", str(k)]
    assert stdout_sha256(capsys, argv, [*argv, "--pretty"]) == ORBITS_SHA256[(system, k)]


@pytest.mark.parametrize("argv,message", [
    (["diagram", "--system", "D4", "--roots", "e1-e2,,e3-e4"],
     "error: empty entry in the root list\n"),
    (["render-dot", "--name", "Z9"], "error: unknown catalog name 'Z9'; valid names: {}\n"),
])
def test_usage_errors_exit_2(capsys, argv, message):
    code, out, err = run_capture(capsys, argv)
    assert (code, out, err) == (2, "", message.format(", ".join(dg.catalog_names())))


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


# SHA-256 of the stdout of `weylcalc verify SUITE`, by suite, from the pin
# file that CI checks with `sha256sum -c`.
_PIN_FILE = Path(__file__).parent / "verify_stdout.sha256"
VERIFY_SHA256 = {Path(path).stem: digest
                 for digest, path in map(str.split, _PIN_FILE.read_text().splitlines())}


def test_verify_pin_file_covers_every_suite():
    assert sorted(VERIFY_SHA256) == sorted(cli._SUITES)


# uniqueness (about 6 s) is left to CI's digest step; criterion 10 checks its rows.
@pytest.mark.parametrize("suite", sorted(VERIFY_SHA256.keys() - {"uniqueness"}))
def test_verify_stdout_is_pinned(capsys, suite):
    code, out, _ = run_capture(capsys, ["verify", suite])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SHA256[suite]


def test_verify_table1_catches_a_drifted_charpoly(capsys, monkeypatch):
    """With E7(a2)'s stated charpoly replaced, the one table1 item that
    ends there fails at its first step; the other seven still pass."""
    real = dg.catalog
    actual = real("E7(a2)").charpoly
    wrong = real("E7").charpoly
    assert wrong != actual

    def catalog(name):
        entry = real(name)
        return dataclasses.replace(entry, charpoly=wrong) if name == "E7(a2)" else entry

    monkeypatch.setattr(dg, "catalog", catalog)
    code, out, _ = run_capture(capsys, ["verify", "table1"])
    lines = out.splitlines()
    assert code == 1
    assert lines[1] == ("FAIL table1/E7(b2): AssertionError: charpoly drifted at a step: "
                        + poly_str(actual, "t"))
    assert all(line.startswith("PASS table1/") for line in lines[:1] + lines[2:-1])
    assert lines[-1] == "table1: 7 passed, 1 failed, 0 skipped"


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
    assert cli._item("probe", "{}-{}".format, "a", "b") == ("probe", "PASS", "a-b")
    assert cli._item("probe", divmod, 1, 0)[:2] == ("probe", "FAIL")


@pytest.mark.parametrize("exc, prefix", [
    (rewrite.ScriptIntegrityError("probe", "broken"), "integrity failure: probe: broken"),
    (RuntimeError("boom"), "failure: RuntimeError: boom"),
])
def test_unexpected_failures_exit_1(capsys, monkeypatch, exc, prefix):
    """A failed integrity check or any other error in a verb is exit 1,
    reported on stderr only."""
    def fail(*args, **kwargs):
        raise exc
    monkeypatch.setattr(rewrite, "transform_long_cycle", fail)
    code, out, err = run_capture(capsys, ["transform", "d6b2"])
    assert (code, out) == (1, "")
    assert err.startswith(prefix)


def test_help_exits_zero(capsys):
    code, out, _ = run_capture(capsys, ["--help"])
    assert code == 0
    assert "root literals" in out
    code, _, _ = run_capture(capsys, [])
    assert code == 2


def test_main_raises_system_exit(capsys):
    with pytest.raises(SystemExit):
        cli.main()


README_WORD = "e1-e2,e3-e4,e2-e3,e2+e3"

#: A usage error, help, a dependent list, then the README quick start.
REUSE_SEQUENCE = (
    ["diagram", "--system", "X9", "--roots", "e1-e2"],
    ["--help"],
    ["diagram", "--system", "D4", "--roots", "e1-e2,e2-e3,e1-e3"],
    ["diagram", "--system", "D4", "--roots", README_WORD, "--pretty"],
    ["charpoly", "--system", "D4", "--word", README_WORD, "--pretty"],
)


def run_fresh(argv):
    """``(exit code, stdout, stderr)`` of the command in a new interpreter."""
    env = dict(os.environ, COLUMNS="80",
               PYTHONPATH=str(Path(weylcalc.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "weylcalc.cli", *argv],
                          capture_output=True, env=env, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", [["rootsys", "D", "16", "--list"], ["verify", "titsform"],
                                  ["--help"], ["diagram", "--help"]])
def test_closed_stdout_exits_1_quietly(argv, unbuffered):
    """A reader that closes stdout at once stops the command: status 1,
    nothing on stderr, whether stdout is block-buffered or not."""
    env = dict(os.environ, PYTHONPATH=str(Path(weylcalc.__file__).resolve().parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "weylcalc.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=300), err) == (1, b"")


class _ClosedFile:
    def write(self, text):
        raise BrokenPipeError


@pytest.mark.parametrize("argv", [["--help"], ["diagram", "--help"]])
def test_help_lets_a_write_error_through(argv, monkeypatch):
    """argparse drops an ``OSError`` from writing help; the weylcalc parser
    and its subparsers let it reach ``run``, which answers 1 for it (see
    ``test_closed_stdout_exits_1_quietly``)."""
    parser = cli._build_parser()
    with pytest.raises(BrokenPipeError):
        parser.print_help(_ClosedFile())
    monkeypatch.setattr(sys, "stdout", _ClosedFile())
    with pytest.raises(BrokenPipeError):
        parser.parse_args(argv)


def test_one_parser_serves_every_request(capsys, monkeypatch):
    """The parser is built once per process, and a request that errors or
    prints help leaves nothing behind that changes a later answer."""
    monkeypatch.setenv("COLUMNS", "80")
    cli._build_parser.cache_clear()
    for argv in REUSE_SEQUENCE:
        code, out, err = run_capture(capsys, argv)
        assert (code, out.encode(), err.encode()) == run_fresh(argv), argv
    assert cli._build_parser.cache_info().misses == 1


def test_readme_python_quick_start():
    """The README's Python block runs, and each expression statement's
    trailing ``# value`` comment is the repr of what it evaluates to."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace, got, want = {}, [], []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            comment = lines[node.end_lineno - 1][node.end_col_offset:].strip()
            assert comment.startswith("# "), comment
            want.append(comment[2:])
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            got.append(repr(value))
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
    assert len(want) == 3
    assert got == want


# --------------------------------------------------------------------------
# The JSON writer against json.dumps(value, indent=2).

JSON_TEXT = st.text() | st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7f aé€\U0001d11e')
JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                | st.integers(-(10 ** 40), 10 ** 40) | JSON_TEXT)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(JSON_TEXT, inner, max_size=4)),
    max_leaves=30)


@given(JSON_VALUES)
def test_the_json_writer_writes_what_json_dumps_writes(value):
    assert cli._json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    1.5, [0.0], {"a": {"b": float("nan")}}, {1, 2}, [frozenset()],
    {1: "one"}, {None: 0}, {True: 0}, {(1,): 0}, {"a": [{2.5: 0}]}, b"bytes",
], ids=repr)
def test_the_json_writer_refuses_floats_sets_and_keys_that_are_not_str(value):
    with pytest.raises(TypeError):
        cli._json(value)
