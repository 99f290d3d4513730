"""CLI contract: subcommands, exit codes, pipes."""

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

CMD = [sys.executable, "-m", "boxpierce"]


def run(*args, stdin=None):
    return subprocess.run(CMD + list(args), input=stdin, capture_output=True, text=True)


def test_gen_gadget_parses():
    res = run("gen", "gadget")
    assert res.returncode == 0
    obj = json.loads(res.stdout)
    assert obj["dim"] == 2 and len(obj["boxes"]) == 5
    assert obj["lines"] == {"axis": 1, "c1": 0, "c2": 2}
    assert obj["meta"]["generator"].startswith("boxpierce.gadget")


def test_gen_random_explicit_lines():
    res = run("gen", "random", "--boxes", "6", "--two-line", "--lines", "7", "3")
    assert res.returncode == 0
    assert json.loads(res.stdout)["lines"] == {"axis": 1, "c1": 3, "c2": 7}
    res = run("gen", "random", "--boxes", "6", "--lines", "3", "7")
    assert res.returncode == 2 and not res.stdout
    assert "two_line" in res.stderr


def test_gen_random_refuses_a_range_past_64_bits():
    for lo, hi in (("0", str(2**63)), (str(-2**64), "0"), ("5", "1")):
        res = run("gen", "random", "--boxes", "3", "--range", lo, hi)
        assert res.returncode == 2 and not res.stdout
        assert "coordinate range" in res.stderr


def test_gen_deterministic_bytes():
    a = run("gen", "random", "--boxes", "6", "--seed", "9")
    b = run("gen", "random", "--boxes", "6", "--seed", "9")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_nu_and_tau_on_gadget():
    inst = run("gen", "gadget").stdout
    nu = run("nu", stdin=inst)
    tau = run("tau", stdin=inst)
    assert json.loads(nu.stdout)["nu"] == 2
    assert json.loads(tau.stdout)["tau"] == 3


def test_gen_extremal_tau_six():
    inst = run("gen", "extremal", "4").stdout
    res = run("tau", stdin=inst)
    assert res.returncode == 0
    assert json.loads(res.stdout)["tau"] == 6


def test_pierce_twoline_gadget():
    inst = run("gen", "gadget").stdout
    res = run("pierce", "--algo", "twoline", stdin=inst)
    assert res.returncode == 0
    obj = json.loads(res.stdout)
    assert obj["size"] == 3 and obj["guarantee"] == 3.0 and obj["nu_used"] == 2
    assert obj["instance"]["dim"] == 2
    assert obj["trace"]


def test_pierce_planar_on_3d_instance_exits_2():
    inst = run("gen", "random", "--boxes", "4", "--dim", "3").stdout
    res = run("pierce", "--algo", "planar", stdin=inst)
    assert res.returncode == 2
    assert "planar" in res.stderr


def test_pierce_twoline_without_certificate_exits_2():
    inst = run("gen", "random", "--boxes", "4").stdout
    res = run("pierce", "--algo", "twoline", stdin=inst)
    assert res.returncode == 2


def test_over_cap_exits_3():
    inst = run("gen", "random", "--boxes", "40", "--range", "0", "100").stdout
    res = run("pierce", "--algo", "planar", stdin=inst)
    assert res.returncode == 3
    res2 = run("nu", "--cap", "10", stdin=run("gen", "extremal", "6").stdout)
    assert res2.returncode == 3


def test_tau_at_a_large_cap_exits_0():
    # 1,100 pairwise-disjoint points: the search descends 1,100 levels
    doc = {"dim": 1, "boxes": [[[3 * i, 3 * i]] for i in range(1100)]}
    res = run("tau", "--cap", "1100", stdin=json.dumps(doc))
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["tau"] == 1100


def test_negative_cap_exits_2():
    res = run("nu", "--cap", "-1", stdin='{"dim": 2, "boxes": []}')
    assert res.returncode == 2
    assert "non-negative" in res.stderr


def test_negative_cap_exits_2_in_one_dimension():
    inst = run("gen", "random", "--boxes", "3", "--dim", "1").stdout
    res = run("pierce", "--algo", "ddim", "--cap", "-1", stdin=inst)
    assert res.returncode == 2
    assert "non-negative" in res.stderr


def test_bounds_csv_contract():
    res = run("bounds", "prop3", "15", "2")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "rule,n,d,value"
    assert "prop3,5,2,10" in lines
    again = run("bounds", "prop3", "15", "2")
    assert again.stdout == res.stdout


def test_bounds_bad_rule_rejected():
    res = run("bounds", "nosuchrule", "5", "2")
    assert res.returncode == 2
    res = run("bounds", "prop1", "5", "0")
    assert res.returncode == 2 and res.stdout == ""


def _leaf_parsers(parser, path=("boxpierce",)):
    """(command words, parser) of every subcommand that takes no further subcommand."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _leaf_parsers(sub, path + (name,))


def test_readme_synopsis_lists_every_option():
    from boxpierce import cli
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    synopsis = readme.split("## CLI", 1)[1].split("```")[1].splitlines()
    for path, parser in _leaf_parsers(cli._build_parser()):
        line = next(line for line in synopsis if line.split()[:len(path)] == list(path))
        words = line.replace("[", " ").replace("]", " ").split()
        for action in parser._actions:
            for option in set(action.option_strings) - {"-h", "--help"}:
                assert option in words, (" ".join(path), option)


# sha256 of `bounds RULE 20 D` stdout; every cell of every rule at d <= 4
_PINNED_BOUNDS = {
    ("prop1", "4"): "f4686e5d484ec0df7f4561093322124be6cf282d579dc234bab3ef689504872e",
    ("prop1", "2"): "8331f62918fa0b263022bc55282fafdc914f3445324d4f393c55ddcfe1c8ec7e",
    ("prop3", "4"): "f91ef804022e90a547481a0cf3691ccb7bb9eb113f6f53678898ce0d232a2038",
    ("prop3", "2"): "f91ef804022e90a547481a0cf3691ccb7bb9eb113f6f53678898ce0d232a2038",
    ("lemma1", "4"): "1e7a6e6c7924937f513e49b6cb0939b1fbb94ba218686d14a7a5060408c3d035",
    ("lemma1", "2"): "d98609ebd1bda8979b6ad605817baac9147512fea045da7ff951b43a98173209",
    ("hadwiger2", "4"): "f4db5ea2bb4f16417542ab48d8f7a56434a7ecd2b1b8f6f186377e885942bb2f",
    ("hadwiger2", "2"): "f4db5ea2bb4f16417542ab48d8f7a56434a7ecd2b1b8f6f186377e885942bb2f",
    ("h", "4"): "cd9a878d335774f76f095c66253888fa51c5bb15aa2fa63bcf550441ca9381f0",
    ("h", "2"): "cd9a878d335774f76f095c66253888fa51c5bb15aa2fa63bcf550441ca9381f0",
    ("bestknown", "4"): "0f9af31549eb2b51b69e5a8b5900f293de7fe3ac9ff13fb0e00db12c09a8093f",
    ("bestknown", "2"): "e2834e2c1451ce06e036d6fb92385a2482f1aeeeeb18362ccf86c6f9671844e3",
}


def test_bound_tables_are_pinned(capsys):
    from boxpierce import cli
    got = {}
    for rule, max_d in _PINNED_BOUNDS:
        assert cli.main(["bounds", rule, "20", max_d]) == 0
        got[rule, max_d] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == _PINNED_BOUNDS


def test_bounds_lemma1_past_a_double_exits_2():
    res = run("bounds", "lemma1", "5", "1500")
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.startswith("boxpierce:") and "(5, 842)" in res.stderr
    assert "Traceback" not in res.stderr
    # the rows below the refusal are unchanged
    assert hashlib.sha256(run("bounds", "lemma1", "5", "841").stdout.encode()).hexdigest() == (
        "36ad2e0f4661e5d5f01dec4b399b2bcd0ca67f99b881e4c82664a1d4f871c8ed")


def test_pierce_guarantee_past_a_double_exits_2(tmp_path):
    # 32 disjoint boxes in 445-d: bound_lemma1(32, 445) overflows, and JSON has no Infinity
    from boxpierce import Box, BoxFamily, instance_to_json
    path = tmp_path / "wide.json"
    path.write_text(instance_to_json(BoxFamily.of(
        [Box.from_bounds([(3 * i, 3 * i + 1)] + [(0, 1)] * 444) for i in range(32)], dim=445)))
    res = run("pierce", "--algo", "ddim", "--policy", "balanced", str(path))
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.startswith("boxpierce:") and "(32, 445)" in res.stderr


def test_pierce_in_500_dimensions_exits_0():
    inst = run("gen", "random", "--boxes", "6", "--dim", "500", "--range", "0", "10",
               "--seed", "1").stdout
    for policy in ("balanced", "dp"):
        report = run("pierce", "--algo", "ddim", "--policy", policy, "--cap", "6", stdin=inst)
        assert report.returncode == 0, report.stderr
        res = run("verify", stdin=report.stdout)
        assert res.returncode == 0 and json.loads(res.stdout)["hits_all"] is True


def test_verify_pipe_and_corruption():
    inst = run("gen", "gadget").stdout
    report = run("pierce", "--algo", "twoline", stdin=inst).stdout
    ok = run("verify", stdin=report)
    assert ok.returncode == 0
    obj = json.loads(ok.stdout)
    assert obj["hits_all"] is True and obj["size"] == 3

    broken = json.loads(report)
    broken["points"] = broken["points"][:1]
    bad = run("verify", stdin=json.dumps(broken))
    assert bad.returncode != 0
    assert json.loads(bad.stdout)["violations"]


def test_verify_with_instance_flag(tmp_path):
    inst_text = run("gen", "gadget").stdout
    inst_path = tmp_path / "g.json"
    inst_path.write_text(inst_text)
    points = json.dumps({"points": [[0, 0], [3, 2], [6, 0]]})
    res = run("verify", "--instance", str(inst_path), stdin=points)
    assert res.returncode == 0


def test_verify_runs_no_oracle():
    # nu and tau come from their own subcommands; verify takes no oracle flags
    report = run("pierce", "--algo", "twoline", stdin=run("gen", "gadget").stdout).stdout
    for flags in (("--oracles",), ("--cap", "5")):
        res = run("verify", *flags, stdin=report)
        assert res.returncode == 2 and res.stdout == ""


def test_verify_refuses_a_report_over_its_guarantee():
    report = json.loads(run("pierce", "--algo", "twoline", stdin=run("gen", "gadget").stdout).stdout)
    report["guarantee"] = 3
    assert run("verify", stdin=json.dumps(report)).returncode == 0
    report["guarantee"] = 1
    res = run("verify", stdin=json.dumps(report))
    assert res.returncode == 2
    assert json.loads(res.stdout) == {"hits_all": True, "size": 3, "guarantee": 1.0,
                                      "violations": []}
    assert res.stderr.startswith("boxpierce: ") and {"3", "1.0"} <= set(res.stderr.split())


def test_missing_file_exits_1():
    res = run("nu", "/nonexistent/path.json")
    assert res.returncode == 1


def test_malformed_json_exits_1():
    res = run("nu", stdin="{不")
    assert res.returncode == 1


def test_deeply_nested_json_exits_1_without_a_traceback(tmp_path, capsys):
    from boxpierce import cli
    path = tmp_path / "nested.json"
    path.write_text("[" * 100000)
    for args in (["nu", str(path)], ["verify", str(path)]):
        assert cli.main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("boxpierce: ") and "nested" in err and "Traceback" not in err


def test_pierce_writes_a_meta_nested_900_deep():
    # json.loads and json.dumps both handle this depth, so the canonical writer must too
    from boxpierce.instances import dumps_canonical
    meta = 1
    for _ in range(900):
        meta = {"a": meta}
    doc = {"dim": 1, "boxes": [[[0, 1]]], "meta": meta}
    assert dumps_canonical(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    res = run("pierce", "--algo", "ddim", stdin=json.dumps(doc))
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["instance"] == doc


_UNDECODABLE = b'{"dim": 1, "boxes": [[[0, 2]]], "meta": {"x": "\xff"}}'


def test_undecodable_file_exits_1(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(_UNDECODABLE)
    res = run("nu", str(path))
    assert res.returncode == 1
    assert "byte 47" in res.stderr


def test_undecodable_stdin_exits_1():
    res = subprocess.run(CMD + ["pierce", "--algo", "ddim"], input=_UNDECODABLE,
                         capture_output=True)
    assert res.returncode == 1 and res.stdout == b""
    assert b"byte 47" in res.stderr


# 1e400 decodes to inf, which no stage may echo: JSON has no Infinity
def test_guarantee_past_a_double_exits_1_naming_the_literal():
    report = run("pierce", "--algo", "twoline", stdin=run("gen", "gadget").stdout).stdout
    res = run("verify", stdin=report.replace('"guarantee": 3.0', '"guarantee": 1e400'))
    assert res.returncode == 1 and res.stdout == "" and "'1e400'" in res.stderr
    # an integer literal decodes exactly, so the field's own check names it
    res = run("verify", stdin=report.replace('"guarantee": 3.0', '"guarantee": 1' + "0" * 400))
    assert res.returncode == 1 and res.stdout == "" and "guarantee: " in res.stderr


def test_meta_number_past_a_double_exits_1_naming_the_literal():
    gadget = run("gen", "gadget").stdout.replace('"meta": {', '"meta": {"x": -1e400, ')
    res = run("pierce", "--algo", "twoline", stdin=gadget)
    assert res.returncode == 1 and res.stdout == "" and "'-1e400'" in res.stderr


def test_verify_refuses_stdin_for_both_points_and_instance():
    res = run("verify", "--instance", "-", stdin=run("gen", "gadget").stdout)
    assert res.returncode == 2 and res.stdout == ""
    assert "stdin" in res.stderr


def test_out_of_range_coordinate_exits_1_with_location():
    res = run("nu", stdin=json.dumps({"dim": 1, "boxes": [[[0, 2**63]]]}))
    assert res.returncode == 1
    assert "boxes[0][0]" in res.stderr


def test_verify_out_of_range_point_exits_1():
    report = json.loads(run("pierce", "--algo", "twoline", stdin=run("gen", "gadget").stdout).stdout)
    report["points"][0] = [2**63, 0]
    res = run("verify", stdin=json.dumps(report))
    assert res.returncode == 1
    assert "points[0]" in res.stderr


def test_verify_checks_point_dimension_against_instance_flag(tmp_path):
    inst_path = tmp_path / "g.json"
    inst_path.write_text(run("gen", "gadget").stdout)
    res = run("verify", "--instance", str(inst_path), stdin=json.dumps({"points": [[1]]}))
    assert res.returncode == 1
    assert "points[0]" in res.stderr


def test_cli_import_leaves_process_pool_unloaded():
    # no subcommand needs a process pool, so starting the CLI must not load one
    code = "import sys, boxpierce.cli; print('concurrent.futures.process' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


_LOADED = ("; import json, sys; print(json.dumps(sorted("
           "m for m in sys.modules if m.startswith('boxpierce') or m == 'dataclasses')))")


def _loaded_by(code: str, stdin=None) -> list[str]:
    res = subprocess.run([sys.executable, "-c", code + _LOADED], input=stdin,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


def test_each_subcommand_imports_only_what_it_runs():
    assert _loaded_by("import boxpierce") == ["boxpierce"]
    report = run("pierce", "--algo", "ddim",
                 stdin=run("gen", "random", "--boxes", "30", "--dim", "1").stdout).stdout
    run_cli = "from boxpierce.cli import main; main({!r})"
    verify = _loaded_by(run_cli.format(["verify"]), stdin=report)
    assert not {"boxpierce.piercing", "boxpierce.generators", "boxpierce.bounds"} & set(verify)
    gen = _loaded_by(run_cli.format(["gen", "gadget"]))
    assert "boxpierce.generators" in gen
    assert not {"boxpierce.piercing", "boxpierce.bounds"} & set(gen)
    # importing dataclasses (inspect, ast, dis, tokenize) costs ~20 ms per process
    gadget = run("gen", "gadget").stdout
    loaded = [verify, gen, _loaded_by(run_cli.format(["bounds", "prop3", "5"]))]
    loaded += [_loaded_by(run_cli.format(argv), stdin=gadget) for argv in (
        ["nu"], ["tau"], ["pierce", "--algo", "twoline"], ["pierce", "--algo", "planar"],
        ["pierce", "--algo", "planar", "--policy", "dp"], ["pierce", "--algo", "ddim"])]
    assert not [modules for modules in loaded if "dataclasses" in modules]


def test_lazy_package_resolves_every_export():
    code = ("import boxpierce; from boxpierce import *; "
            "missing = [n for n in boxpierce.__all__ if n not in globals()]; "
            "assert not missing, missing; "
            "assert boxpierce.piercing.pierce_planar is boxpierce.pierce_planar")
    assert _loaded_by(code) == ["boxpierce"] + [f"boxpierce.{m}" for m in (
        "bounds", "generators", "geometry", "instances", "oracles", "piercing")]


_GENS = {"gadget": ("gen", "gadget"), "extremal7": ("gen", "extremal", "7"),
         "random40": ("gen", "random", "--boxes", "40", "--dim", "3", "--seed", "5"),
         "random48": ("gen", "random", "--boxes", "48", "--range", "0", "1000", "--seed", "5"),
         "random80": ("gen", "random", "--boxes", "80", "--two-line", "--range", "0", "1000",
                      "--seed", "3"),
         # the default range (0, 20) has width 21, so 11 of every 32 getrandbits(5) draws redraw
         "random200": ("gen", "random", "--boxes", "200", "--dim", "1", "--seed", "5")}
_PIERCE = [("--algo", "twoline"), ("--algo", "planar"), ("--algo", "planar", "--policy", "dp"),
           ("--algo", "ddim"), ("--algo", "ddim", "--policy", "dp")]
# exit code and sha256 of stdout per invocation; "a | b" pipes a's stdout into b
_PINNED_STDOUT = {
    'gen gadget': (0, "a6233fe3d75aef723ba4e19a5ed45fa34830bef0353fda9d02833888ace5476f"),
    'gadget | nu': (0, "1403f9d8b8ee15136e5e6af30d0e00e2c303541a25a48a9911492160023c89a4"),
    'gadget | tau': (0, "188978b7340b36e012032f05c69dcf19a4c79b908aa897b807d50d2c4d4a19fe"),
    'gadget | pierce --algo twoline': (0, "3ad2b157e3cd15fc6c35f4037ed92e517ae217005dac2d03699678d0eda4413e"),
    'gadget | pierce --algo twoline | verify': (0, "d19b123ed37e087db30a490916678ccbf7320d52969a17770a80e790e48ea0d9"),
    'gadget | pierce --algo planar': (0, "b555cc6e82a22614dce746ae48bd2c4174f0aa0df2f00b70920318625f1fb1fc"),
    'gadget | pierce --algo planar | verify': (0, "24e6a5c7e61b18c8855376993bc776267d87e6686175adf46ba19ab153549271"),
    'gadget | pierce --algo planar --policy dp': (0, "5c5108e393a10a4acd6c5d0b0c7364579d758ff622e8f466d47f2a707a03f661"),
    'gadget | pierce --algo planar --policy dp | verify': (0, "d19b123ed37e087db30a490916678ccbf7320d52969a17770a80e790e48ea0d9"),
    'gadget | pierce --algo ddim': (0, "16dd2db5163e4f0d72c9182a95c6defc6829aea628479ab18bfd81f7bd7ba36f"),
    'gadget | pierce --algo ddim | verify': (0, "24e6a5c7e61b18c8855376993bc776267d87e6686175adf46ba19ab153549271"),
    'gadget | pierce --algo ddim --policy dp': (0, "c60c35341f49fc11acee885a62a692a4d30a4ae4f05c978ee8ded604566b55ee"),
    'gadget | pierce --algo ddim --policy dp | verify': (0, "d19b123ed37e087db30a490916678ccbf7320d52969a17770a80e790e48ea0d9"),
    'gen extremal 7': (0, "7d19bf280f57b0500065e4ea8c320319f71a3ef8284e33d0f17bc7091345880f"),
    'extremal7 | nu': (0, "abb6bb16a510ba4554b87c6ee1c0c755566a6944df39f1b14c65aaccbdff83cc"),
    'extremal7 | tau': (0, "217a238ed80c33906b2daba19b41fbbb39ed6e55642174e6ba3b4612960b49fc"),
    'extremal7 | pierce --algo twoline': (0, "5ae00e6725acc659d1a53e46e86133f7eb30f2d826861dad826c1ef5b7de0eb2"),
    'extremal7 | pierce --algo twoline | verify': (0, "87c4c96464306409d0ec99cc6b7091e2e9e27748645200cc189dd35bcc72ccf8"),
    'extremal7 | pierce --algo planar': (0, "51fbec923b743c29b1569438dc6a7681dcf3101cf830d0c0bad3809faa61db2b"),
    'extremal7 | pierce --algo planar | verify': (0, "4268834543784263d9c08c90a0e3db0a7dc37cacfd5a4749a38681cd0805f8c2"),
    'extremal7 | pierce --algo planar --policy dp': (0, "cdec4d650f5f92e9d16f006fa390acc16cda59dbf0ed79709490bff6037d4098"),
    'extremal7 | pierce --algo planar --policy dp | verify': (0, "5db33919a0ee76490ad5f9a463cfded835ec21843b93dc0a90e8d5fe3aaa144a"),
    'extremal7 | pierce --algo ddim': (0, "b080b84c525e705175afa4521f9d19c2f0085a43b3c1ccf4001e702af5ddce6e"),
    'extremal7 | pierce --algo ddim | verify': (0, "4268834543784263d9c08c90a0e3db0a7dc37cacfd5a4749a38681cd0805f8c2"),
    'extremal7 | pierce --algo ddim --policy dp': (0, "74343e8519e1ce1f87c80be105f330fe45b44f51680f9c245ee766fb57cd33e3"),
    'extremal7 | pierce --algo ddim --policy dp | verify': (0, "5db33919a0ee76490ad5f9a463cfded835ec21843b93dc0a90e8d5fe3aaa144a"),
    'gen random --boxes 40 --dim 3 --seed 5': (0, "f8e1cafbbe33d3c51f83bcd565a9260bc8bfa5a90c6803ad647f5fbebdbc0916"),
    'random40 | nu': (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    'random40 | tau': (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    'random40 | nu --cap 64': (0, "add7ccd5b93e0f949de35eef386ed490e15384669e1d1f659fb4f223cc3fae40"),
    'random40 | pierce --algo twoline': (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    'random40 | pierce --algo planar': (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    'random40 | pierce --algo planar --policy dp': (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    'random40 | pierce --algo ddim': (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    'random40 | pierce --algo ddim --policy dp': (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    'random40 | pierce --algo ddim --cap 64': (0, "86bc60417c83dc5c5cd66e5046e6bac5d8c794228206e08c622bb52b20c7caca"),
    'random40 | pierce --algo ddim --cap 64 | verify': (0, "23f97475c554fbfbc2a4451639edb5c8bbac30cb8b8ddc2c30176761c8bfd3cf"),
    'random40 | pierce --algo ddim --policy dp --cap 64': (0, "ff887051a23a7633d7154eb3948c8f17bcbd92a984732813137603ffd1021e2a"),
    'random40 | pierce --algo ddim --policy dp --cap 64 | verify': (0, "7cf05970046b5084a1fa0dd3dd1babb5fda0bdbde41e0b6a6271ab3b9247fb6a"),
    'gen random --boxes 48 --range 0 1000 --seed 5': (0, "ee282447705cd325737e216060e4d093daebb3f26279a2181d683bbe2797f466"),
    'random48 | pierce --algo planar --cap 64': (0, "5ac688b644fd4aed4b6f5435ea4e43cddeb194da960278f9af2f2315262c0b19"),
    'random48 | pierce --algo planar --cap 64 | verify': (0, "ce8d18b92c5f131c0d615919e529eca0c56400de1aec3ad357bc959870807f06"),
    'random48 | pierce --algo planar --policy dp --cap 64': (0, "58b0270ea8f02d10fd3344927322fb6d199e3bb81ed13272e1a5ddd9fdd5bfb8"),
    'random48 | pierce --algo planar --policy dp --cap 64 | verify': (0, "04b1ae247eef9c5e1af36695f77ab8250a3900cdb532c558b0c0166482cfd404"),
    'random48 | pierce --algo ddim --cap 64': (0, "b8e737e5514c2939bed88b47eb2b4e358bd79b6e2b5c50128a556827c31a4d58"),
    'random48 | pierce --algo ddim --cap 64 | verify': (0, "ce8d18b92c5f131c0d615919e529eca0c56400de1aec3ad357bc959870807f06"),
    'random48 | pierce --algo ddim --policy dp --cap 64': (0, "6d5dbc8e47794e7df96e7692c5bf8029b3d9f58247ce095b641a1f7d02f6b67a"),
    'random48 | pierce --algo ddim --policy dp --cap 64 | verify': (0, "04b1ae247eef9c5e1af36695f77ab8250a3900cdb532c558b0c0166482cfd404"),
    'gen random --boxes 80 --two-line --range 0 1000 --seed 3': (0, "8e0ea1cae50f0ea0fa6b53fb01eebf6f3ac2a9896d0123911e77ef5b15966a38"),
    'random80 | pierce --algo twoline --cap 80': (0, "e81522447ac349c9a4033c49cc18076835516035d54a741d24d85b250d67cdcd"),
    'random80 | pierce --algo twoline --cap 80 | verify': (0, "fcb2d5533e8a9dd1cbf84bc42acefd2ceab64fc78d3d5d44b3b3142af9eb40bc"),
    'random80 | pierce --algo planar --cap 80': (0, "832cde0578a294b57496c240d7eac6ddd8e4f845ed7d5af5ba0484fa3c253530"),
    'random80 | pierce --algo planar --cap 80 | verify': (0, "d6055bf7c609611c32d1128e4d589dcfcc37c7f9fd3823e3c785d9981df78227"),
    'gen random --boxes 200 --dim 1 --seed 5': (0, "9be2999b6d511f7fabbfd2e141462ca854bfdafece985f5de8dc2d680b7bc2e0"),
}


def test_stdout_bytes_are_pinned():
    def record(key, args, stdin=None):
        res = subprocess.run(CMD + list(args), input=stdin, capture_output=True)
        got[key] = (res.returncode, hashlib.sha256(res.stdout).hexdigest())
        return res

    got = {}
    for name, gen in _GENS.items():
        inst = record(" ".join(gen), gen).stdout
        cases = [("nu",), ("tau",)] + [("pierce",) + p for p in _PIERCE]
        if name == "random40":  # over the default cap of 32 boxes
            cases += [("nu", "--cap", "64"), ("pierce", "--algo", "ddim", "--cap", "64"),
                      ("pierce", "--algo", "ddim", "--policy", "dp", "--cap", "64")]
        elif name == "random48":  # planar, so its splits run threshold probes with k >= 2
            cases = [("pierce",) + p + ("--cap", "64") for p in _PIERCE[1:]]
        elif name == "random80":  # two-line, so both sweeps run many rounds
            cases = [("pierce",) + p + ("--cap", "80") for p in _PIERCE[:2]]
        elif name == "random200":  # the generator's bytes only
            cases = []
        for args in cases:
            key = f"{name} | {' '.join(args)}"
            res = record(key, args, inst)
            if args[0] == "pierce" and res.returncode == 0:
                record(f"{key} | verify", ("verify",), res.stdout)
    assert got == _PINNED_STDOUT
