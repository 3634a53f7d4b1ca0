"""Command-line surface: output shapes, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weylcalc
from weylcalc import cli, rootsys
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


@pytest.mark.parametrize("system,literal", [
    ("D4", "e0-e1"), ("A8", "e1-e10"), ("D4", "2x1"), ("D4", "e1--e2"),
])
def test_bad_root_literal_exits_2(capsys, system, literal):
    code, out, err = run_capture(capsys, ["diagram", "--system", system,
                                          "--roots", literal])
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


# SHA-256 of the stdout of `weylcalc verify SUITE`, recorded before the
# graph walks of diagram, oracle and rewrite moved into the diagram layer.
VERIFY_SHA256 = {
    "orbits": "0e9763290731dd283aa13552b1cfdc1e323a7724ae39c5a32c1b51f31539cca5",
    "titsform": "477151b4614b3e31d756b53d6b6788ec6987581f22f7f39a7484c660233decee",
}


@pytest.mark.parametrize("suite", sorted(VERIFY_SHA256))
def test_verify_stdout_is_pinned(capsys, suite):
    code, out, _ = run_capture(capsys, ["verify", suite])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SHA256[suite]


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


def test_one_parser_serves_every_request(capsys, monkeypatch):
    """The parser is built once per process, and a request that errors or
    prints help leaves nothing behind that changes a later answer."""
    monkeypatch.setenv("COLUMNS", "80")
    cli._build_parser.cache_clear()
    for argv in REUSE_SEQUENCE:
        code, out, err = run_capture(capsys, argv)
        assert (code, out.encode(), err.encode()) == run_fresh(argv), argv
    assert cli._build_parser.cache_info().misses == 1
