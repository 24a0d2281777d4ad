"""Command-line front end: spec files, reports, exit codes, determinism."""

import json
import os

import pytest

from symflow.cli import SpecError, load_system_spec, main


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


LV_GOOD = """\
family=lotka_volterra
a=1
b=2
c=3
d=1
S1=2*y/3
S2=3*x/2
box=-1,8,-1,8
"""

LV_BAD = LV_GOOD.replace("d=1", "d=2")

LIENARD = """\
# damped oscillator with odd cubic damping
family=lienard
f=x^3
g=x
S1=-x
S2=y
box=-1,1,-2,2
"""

GENERIC = """\
dim=2
F1=y+x^2
F2=-x
S1=-x
S2=y
box=-2,2,-2,2
"""


class TestSpecFile:
    def test_generic_round_trip(self, tmp_path):
        spec = load_system_spec(write(tmp_path, "g.spec", GENERIC))
        assert spec.dimension == 2
        assert spec.family == "generic"
        assert spec.sigma is not None
        assert spec.box.intervals == ((-2.0, 2.0), (-2.0, 2.0))

    def test_family_field_derived(self, tmp_path):
        spec = load_system_spec(write(tmp_path, "lv.spec", LV_GOOD))
        from symflow.expr import to_string

        assert to_string(spec.field.components[0]) == "x*(1 - 2*y)"
        assert to_string(spec.field.components[1]) == "y*(3*x - 1)"

    def test_comments_and_blanks_ignored(self, tmp_path):
        spec = load_system_spec(write(tmp_path, "l.spec", LIENARD))
        assert spec.family == "lienard"

    def test_missing_family_parameter(self, tmp_path):
        with pytest.raises(SpecError):
            load_system_spec(write(tmp_path, "bad.spec", "family=lotka_volterra\na=1\nb=2\nc=3\n"))

    def test_partial_sigma_rejected(self, tmp_path):
        with pytest.raises(SpecError):
            load_system_spec(write(tmp_path, "bad.spec", "dim=2\nF1=x\nF2=y\nS1=-x\n"))

    def test_bad_box(self, tmp_path):
        with pytest.raises(SpecError):
            load_system_spec(write(tmp_path, "bad.spec", "dim=2\nF1=x\nF2=y\nbox=0,1\n"))

    def test_duplicate_key(self, tmp_path):
        with pytest.raises(SpecError):
            load_system_spec(write(tmp_path, "bad.spec", "dim=2\ndim=3\nF1=x\nF2=y\n"))


class TestCheckCommand:
    def test_holding_checks_exit_zero(self, tmp_path, capsys):
        spec = write(tmp_path, "lv.spec", LV_GOOD)
        code = main(["check", spec, "--kind", "reversibility"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        names = [c["name"] for c in report["checks"]]
        assert names == ["structural", "involution", "measure_preserving", "tower_transform"]
        assert all(c["verdict"]["status"] == "holds" for c in report["checks"])

    def test_flow_flag_adds_check(self, tmp_path, capsys):
        spec = write(tmp_path, "l.spec", LIENARD)
        code = main(["check", spec, "--kind", "reversibility", "--flow", "--samples", "20"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["checks"][-1]["name"] == "flow_relation"
        assert report["checks"][-1]["verdict"]["status"] == "holds"

    def test_failing_check_exit_one(self, tmp_path, capsys):
        spec = write(tmp_path, "bad.spec", LV_BAD)
        code = main(["check", spec, "--kind", "reversibility"])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        structural = report["checks"][0]["verdict"]
        assert structural["status"] == "fails"
        assert structural["witnesses"]

    def test_missing_sigma_is_usage_error(self, tmp_path, capsys):
        spec = write(tmp_path, "nosig.spec", "dim=2\nF1=x\nF2=y\n")
        assert main(["check", spec, "--kind", "symmetry"]) == 2

    def test_parse_error_exit_two(self, tmp_path):
        spec = write(tmp_path, "broken.spec", "dim=2\nF1=y +\nF2=-x\nS1=-x\nS2=y\n")
        assert main(["check", spec, "--kind", "symmetry"]) == 2

    def test_reports_byte_identical(self, tmp_path):
        spec = write(tmp_path, "lv.spec", LV_GOOD)
        out1 = str(tmp_path / "r1.json")
        out2 = str(tmp_path / "r2.json")
        assert main(["check", spec, "--kind", "reversibility", "--out", out1]) == 0
        assert main(["check", spec, "--kind", "reversibility", "--out", out2]) == 0
        assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()

    def test_env_seed_overrides_flag(self, tmp_path, capsys, monkeypatch):
        spec = write(tmp_path, "lv.spec", LV_GOOD)
        monkeypatch.setenv("SYMFLOW_SEED", "99")
        main(["check", spec, "--kind", "reversibility", "--seed", "5"])
        report = json.loads(capsys.readouterr().out)
        assert report["seed"] == "99"

    def test_numbers_serialized_as_strings(self, tmp_path, capsys):
        spec = write(tmp_path, "bad.spec", LV_BAD)
        main(["check", spec, "--kind", "reversibility"])
        report = json.loads(capsys.readouterr().out)
        residual = report["checks"][0]["verdict"]["residual_max"]
        assert isinstance(residual, str)
        float(residual)


class TestClassifyCommand:
    def test_exists_exit_zero(self, tmp_path, capsys):
        spec = write(tmp_path, "l.spec", LIENARD)
        assert main(["classify", spec]) == 0
        report = json.loads(capsys.readouterr().out)
        cl = report["checks"][0]["classification"]
        assert cl["overall"] == "exists"
        assert cl["reversibility"]["sigma"] == ["-x", "y"]

    def test_even_damping_symmetry(self, tmp_path, capsys):
        spec = write(tmp_path, "l2.spec", "family=lienard\nf=x^2\ng=x^3\nbox=-1,1,-2,2\n")
        assert main(["classify", spec]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["checks"][0]["classification"]["symmetry"]["sigma"] == ["-x", "-y"]

    def test_not_exists_exit_one(self, tmp_path):
        spec = write(tmp_path, "lv.spec", LV_BAD)
        assert main(["classify", spec]) == 1

    def test_hypotheses_violated_exit_three(self, tmp_path):
        spec = write(tmp_path, "degenerate.spec", "family=lotka_volterra\na=1\nb=0\nc=1\nd=1\n")
        assert main(["classify", spec]) == 3

    def test_generic_family_usage_error(self, tmp_path):
        spec = write(tmp_path, "g.spec", GENERIC)
        assert main(["classify", spec]) == 2


class TestCandidatesCommand:
    def test_candidate_recovered_and_verified(self, tmp_path, capsys):
        spec = write(tmp_path, "lv.spec", LV_GOOD.replace("box=-1,8,-1,8", "box=0.2,2,0.2,2"))
        csv_path = str(tmp_path / "table.csv")
        code = main(["candidates", spec, "--kind", "reversibility", "--grid", "8x8", "--csv", csv_path])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        fit = report["checks"][1]
        assert fit["sigma"] == ["2/3*y", "3/2*x"]
        assert fit["structural"]["status"] == "holds"
        assert os.path.exists(csv_path)

    def test_candidate_rejected_exit_one(self, tmp_path, capsys):
        spec = write(
            tmp_path,
            "quad.spec",
            "dim=2\nF1=y+x^2\nF2=-x-x^2\nbox=-2,2,-2,2\n",
        )
        code = main(["candidates", spec, "--kind", "reversibility", "--grid", "8x8",
                     "--csv", str(tmp_path / "t.csv")])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        fit = report["checks"][1]
        assert fit["sigma"] == ["-x", "y"]
        assert fit["structural"]["status"] == "fails"

    def test_trivial_only_symmetry(self, tmp_path, capsys):
        spec = write(
            tmp_path,
            "quad.spec",
            "dim=2\nF1=y+x^2\nF2=-x-x^2\nbox=-2,2,-2,2\n",
        )
        code = main(["candidates", spec, "--kind", "symmetry", "--grid", "6x6",
                     "--csv", str(tmp_path / "t.csv")])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["checks"][0]["table"]["status"] == "trivial_only"
        assert "identity" in report["checks"][1]["note"]

    def test_selection_flag(self, tmp_path, capsys):
        spec = write(tmp_path, "lv.spec", LV_GOOD.replace("box=-1,8,-1,8", "box=0.4,1.6,0.4,1.6"))
        code = main(["candidates", spec, "--kind", "reversibility", "--grid", "5x5",
                     "--selection", "0,1", "--csv", str(tmp_path / "t.csv")])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["checks"][0]["table"]["selection"] == [0, 1]


def test_usage_error_on_unknown_command():
    assert main(["frobnicate"]) == 2


class TestCleanExit:
    DIVISION = "dim=2\nF1=y\nF2=-x/(x-x)\nS1=-x\nS2=y\n"

    def test_division_by_zero_expression_is_usage_error(self, tmp_path, capsys):
        spec = write(tmp_path, "div.spec", self.DIVISION)
        assert main(["check", spec, "--kind", "reversibility"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("symflow: ") and err.count("\n") == 1

    def test_tower_over_budget_is_inconclusive(self, tmp_path, capsys, monkeypatch):
        import symflow.tower

        monkeypatch.setattr(symflow.tower, "NODE_BUDGET", 3)
        spec = write(tmp_path, "g.spec", GENERIC)
        assert main(["check", spec, "--kind", "reversibility"]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("symflow: ") and "budget" in err
