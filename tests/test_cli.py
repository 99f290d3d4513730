"""CLI contract: subcommands, exit codes, pipes."""

import json
import subprocess
import sys

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


def test_verify_oracles_flag():
    inst = run("gen", "gadget").stdout
    report = run("pierce", "--algo", "twoline", stdin=inst).stdout
    res = run("verify", "--oracles", stdin=report)
    obj = json.loads(res.stdout)
    assert obj["nu"] == 2 and obj["tau"] == 3


def test_missing_file_exits_1():
    res = run("nu", "/nonexistent/path.json")
    assert res.returncode == 1


def test_malformed_json_exits_1():
    res = run("nu", stdin="{不")
    assert res.returncode == 1


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


_LOADED = ("; import json, sys; "
           "print(json.dumps(sorted(m for m in sys.modules if m.startswith('boxpierce'))))")


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


def test_lazy_package_resolves_every_export():
    code = ("import boxpierce; from boxpierce import *; "
            "missing = [n for n in boxpierce.__all__ if n not in globals()]; "
            "assert not missing, missing; "
            "assert boxpierce.piercing.pierce_planar is boxpierce.pierce_planar")
    assert _loaded_by(code) == ["boxpierce"] + [f"boxpierce.{m}" for m in (
        "bounds", "generators", "geometry", "instances", "oracles", "piercing")]
