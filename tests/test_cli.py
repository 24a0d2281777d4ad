"""Command-line front end: spec files, reports, exit codes, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import symflow
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

    @pytest.mark.parametrize("flag, value", [("--horizon", "inf"), ("--horizon", "nan"),
                                             ("--step", "nan"), ("--step", "inf")])
    def test_non_finite_integrator_setting_is_usage_error(self, tmp_path, capsys, flag, value):
        spec = write(tmp_path, "l.spec", LIENARD)
        assert main(["check", spec, "--kind", "reversibility", "--flow", flag, value]) == 2
        assert capsys.readouterr().err == f"symflow: {flag[2:]} must be positive and finite\n"

    def test_negative_samples_is_usage_error(self, tmp_path, capsys):
        spec = write(tmp_path, "l.spec", LIENARD)
        assert main(["check", spec, "--kind", "reversibility", "--flow", "--samples", "-3"]) == 2
        assert capsys.readouterr().err == "symflow: samples must be positive\n"

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

    def test_reused_parser_gives_fresh_run_bytes(self, tmp_path):
        # main builds its parser once per process; an --orders given to one
        # call must not carry over to the next, which takes the default
        spec = write(tmp_path, "lv.spec", LV_GOOD)
        runs = [["check", spec, "--kind", "reversibility", "--orders", "2"],
                ["check", spec, "--kind", "reversibility"]]
        src = os.path.dirname(os.path.dirname(symflow.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        reports = []
        for k, argv in enumerate(runs):
            here, fresh = tmp_path / f"here{k}.json", tmp_path / f"fresh{k}.json"
            assert main(argv + ["--out", str(here)]) == 0
            subprocess.run([sys.executable, "-c", "import sys; from symflow.cli import main; sys.exit(main(sys.argv[1:]))",
                            *argv, "--out", str(fresh)], env=env, check=True)
            assert here.read_bytes() == fresh.read_bytes()
            reports.append(here.read_bytes())
        assert reports[0] != reports[1]

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


    @pytest.mark.parametrize("anchor", ["3", "1,2,3"])
    def test_anchor_of_wrong_length_is_usage_error(self, tmp_path, capsys, anchor):
        spec = write(tmp_path, "lv.spec", LV_GOOD)
        code = main(["candidates", spec, "--kind", "reversibility", "--grid", "4x4",
                     "--anchor", anchor, "--csv", str(tmp_path / "t.csv")])
        assert code == 2
        assert capsys.readouterr().err == "symflow: anchor needs 2 coordinates\n"

    def test_table_rejects_anchor_of_wrong_length(self):
        from symflow.candidates import candidate_map_table, lotka_volterra_field
        from symflow.geometry import DomainBox
        from symflow.tower import default_selection
        from symflow.verdict import CheckKind

        F = lotka_volterra_field(1, 2, 3, 1, DomainBox.cube(-1, 8, 2))
        with pytest.raises(ValueError, match="anchor needs 2 coordinates"):
            candidate_map_table(F, default_selection(2), CheckKind.REVERSIBILITY, grid=(3, 3), anchor=(1.0,))

    @pytest.mark.parametrize("extra, exit_code", [
        (["--grid", "0x0"], 3),
        (["--grid", "3x0"], 3),
        (["--multistart", "0"], 0),
    ])
    def test_empty_batches_keep_their_exits(self, tmp_path, capsys, extra, exit_code):
        spec = write(tmp_path, "lv.spec", LV_GOOD)
        code = main(["candidates", spec, "--kind", "reversibility", *extra, "--csv", str(tmp_path / "t.csv")])
        assert code == exit_code
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("extra, count", [
        (["--grid=-3x4"], -3),
        (["--grid", "4x-2"], -2),
        (["--multistart", "-1"], -1),
    ])
    def test_negative_counts_are_usage_errors(self, tmp_path, capsys, extra, count):
        spec = write(tmp_path, "lv.spec", LV_GOOD)
        code = main(["candidates", spec, "--kind", "reversibility", *extra, "--csv", str(tmp_path / "t.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"symflow: grid counts must be non-negative, got {count}\n"

    def test_grid_too_large_for_memory_is_inconclusive(self, tmp_path, capsys, monkeypatch):
        from symflow.geometry import DomainBox

        def refuse(self, per_axis):
            raise MemoryError("Unable to allocate 149. GiB for an array with shape (10000000000, 2)")

        monkeypatch.setattr(DomainBox, "grid", refuse)
        spec = write(tmp_path, "lv.spec", LV_GOOD)
        code = main(["candidates", spec, "--kind", "reversibility", "--grid", "100000x100000",
                     "--csv", str(tmp_path / "t.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("symflow: out of memory: Unable to allocate") and err.count("\n") == 1


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

    def test_law_orders_over_budget_are_inconclusive(self, tmp_path, capsys, monkeypatch):
        # orders 0 and 1 of this field fit in 15 nodes; the table also
        # builds orders 2 and 3 for the tower law, and order 2 has 23
        import symflow.tower

        monkeypatch.setattr(symflow.tower, "NODE_BUDGET", 15)
        spec = write(tmp_path, "lv.spec", LV_GOOD)
        code = main(["candidates", spec, "--kind", "reversibility", "--grid", "4x4",
                     "--csv", str(tmp_path / "t.csv")])
        assert code == 3
        assert capsys.readouterr().err == "symflow: tower entry at order 2 has 23 nodes (budget 15)\n"

    def test_emitted_map_failing_verification_is_inconclusive(self, tmp_path, capsys, monkeypatch):
        import symflow.candidates
        from symflow.verdict import Verdict

        monkeypatch.setattr(symflow.candidates, "check_structural",
                            lambda *a, **k: Verdict.inconclusive("patched"))
        spec = write(tmp_path, "lv.spec", LV_GOOD)
        assert main(["classify", spec]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") == 1
        assert err.startswith("symflow: internal error: emitted map failed verification (structural)")

    CUBIC4 = (
        "dim=4\nF1=z2*z3 - z1^3 + z4\nF2=z1*z4^2 - z2 + z3^2\nF3=z1^2*z2 - z3*z4\n"
        "F4=z3^3 - z1*z2 + z4^2\nS1=z1\nS2=z2\nS3=z3\nS4=z4\nbox=-1,1,-1,1,-1,1,-1,1\n"
    )

    def test_long_canonical_forms_exit_cleanly(self, tmp_path, capsys):
        # the order-7 tower entry is a sum of well over a thousand terms, a
        # left-deep chain deeper than Python's recursion limit
        spec = write(tmp_path, "cubic4.spec", self.CUBIC4)
        result = main(["check", spec, "--kind", "symmetry", "--orders", "7"])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert result in (0, 1, 3)
        if result == 3:
            assert captured.err.startswith("symflow: ") and captured.err.count("\n") == 1
        else:
            report = json.loads(captured.out)
            assert report["exit_code"] == result

    def test_long_atom_argument_exits_cleanly(self, tmp_path, capsys):
        # an atom's argument is a left-deep sum 1200 terms deep: hashing,
        # comparing and evaluating it must not recurse
        terms = " + ".join(f"{k}*x^{k}" for k in range(1, 1201))
        spec = write(tmp_path, "long.spec", f"dim=2\nF1=y\nF2=-x + sin({terms})\nS1=x\nS2=-y\nbox=-1,1,-1,1\n")
        result = main(["check", spec, "--kind", "reversibility", "--orders", "1"])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert result in (0, 1)
        assert json.loads(captured.out)["exit_code"] == result

    CHECK_FLOW = ["check", "--kind", "reversibility", "--flow"]
    CANDIDATES = ["candidates", "--kind", "reversibility", "--grid", "4x4"]
    WIDTH = ("-1e308,1e308", "interval [-1e+308, 1e+308] has a width that is not finite")
    GUARD = ("-1e308,0", "interval [-1e+308, 0.0] inflated 2 times has a width that is not finite")

    @pytest.mark.parametrize("command, box, message", [
        (CHECK_FLOW, *WIDTH), (CANDIDATES, *WIDTH), (CHECK_FLOW, *GUARD), (CANDIDATES, *GUARD),
    ], ids=["check-flow", "candidates", "check-flow-escape-guard", "candidates-escape-guard"])
    def test_box_wider_than_the_largest_float_is_usage_error(self, tmp_path, capsys, command, box, message):
        # each bound is finite, but hi - lo or the width of the flow's
        # escape guard (the box inflated 2 times) overflows: the flow check
        # once raised OverflowError from sampling or named the guard's
        # interval, and the table warned and exited 3
        spec = write(tmp_path, "wide.spec", f"dim=2\nF1=y\nF2=-x\nS1=-x\nS2=y\nbox={box},-2,2\n")
        assert main([command[0], spec, *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"symflow: {message}\n"

    @pytest.mark.parametrize("text, code", [
        (LV_GOOD.replace("a=1", "a=1/0"), 2),
        (GENERIC.replace("box=-2,2,-2,2", "box=-2,1e999,-2,2"), 2),
        ("family=lienard\nf=10^400\ng=2\nS1=x\nS2=x\nbox=0,2,0,2\n", None),
    ], ids=["rational-1/0", "box-overflow", "constant-overflow"])
    def test_fuzz_findings_exit_cleanly(self, tmp_path, capsys, text, code):
        # inputs the spec-file fuzz test once crashed on
        spec = write(tmp_path, "f.spec", text)
        result = main(["check", spec, "--kind", "symmetry", "--orders", "1", "--trials", "20"])
        assert result == code if code is not None else result in (0, 1, 2, 3)
        assert "Traceback" not in capsys.readouterr().err


# --- spec-file fuzzing: every input ends in an exit code, never a traceback --

# mostly valid pieces and a few bad ones, so that many files reach the checks
_ATOMS = ["x", "y", "z", "0", "1", "2", "3", "0.5", "10"] * 6 + ["z4", "a", "", "1.5.2", "10^400"]
_EXPONENTS = ["2", "3", "0", "5", "(1/2)", "(-1)", "(-2)", "(2/3)", "-1"] * 3 + ["x", "(1/0)"]
_SMALL = st.integers(-5, 5).map(str)
_NUMBERS = st.one_of(
    _SMALL,
    st.sampled_from(["1/2", "-3/2", "0", "1/0", "1e999", "2.5", "-0", "abc", "", "1e-300", "10^400"]),
)


def _expr_texts(n):
    atoms = [a for a in _ATOMS if a not in "xyz"[n:] or not a]  # x, y, z up to dimension n
    return st.recursive(
        st.sampled_from(atoms),
        lambda inner: st.one_of(
            st.builds("{}{}{}".format, inner, st.sampled_from(["+", "-", "*", "/"]), inner),
            st.builds("({})^{}".format, inner, st.sampled_from(_EXPONENTS)),
            st.builds("{}({})".format, st.sampled_from(["sin", "cos", "exp", "log", "sqrt", ""] * 3 + ["tan"]), inner),
            inner.map("-{}".format),
        ),
        max_leaves=6,
    )


def _box_texts(n):
    good = st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(
        lambda los: ",".join(f"{lo},{lo + 2}" for lo in los))
    return st.one_of(good, good, good, good, st.lists(_NUMBERS, max_size=2 * n + 1).map(",".join))


@st.composite
def spec_files(draw):
    """A system of a random family, with some lines broken, repeated,
    dropped or added."""
    family = draw(st.sampled_from(["generic", "lotka_volterra", "lienard"] * 3 + ["other"]))
    n = draw(st.integers(1, 3)) if family == "generic" else 2
    lines = [f"family={family}"] if family != "generic" or draw(st.booleans()) else []
    if family == "generic" or draw(st.booleans()):
        lines.append(f"dim={draw(st.sampled_from([str(n)] * 12 + ['0', 'x', '', '4']))}")
    if family == "lotka_volterra":
        lines += [f"{k}={draw(st.one_of(_SMALL, _SMALL, _SMALL, _NUMBERS))}" for k in "abcd"]
    elif family == "lienard":
        lines += [f"{k}={draw(_expr_texts(1))}" for k in "fg"]
    if family == "generic" or draw(st.booleans()):
        lines += [f"F{i}={draw(_expr_texts(n))}" for i in range(1, n + 1)]
    if draw(st.integers(0, 4)) < 4:
        lines += [f"S{i}={draw(_expr_texts(n))}" for i in range(1, n + 1)]
    if draw(st.integers(0, 2)) < 2:
        lines.append(f"box={draw(_box_texts(n))}")
    for _ in range(draw(st.sampled_from([0] * 6 + [1, 2]))):
        i = draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(["drop", "repeat", "junk", "text"]))
        if edit == "drop" and i < len(lines):
            del lines[i]
        elif edit == "repeat" and i < len(lines):
            lines.insert(i, lines[i])
        elif edit == "junk" and i < len(lines):
            lines[i] = lines[i].split("=")[0] + "=" + draw(_NUMBERS)
        elif edit == "text":
            lines.insert(i, draw(st.text(max_size=12)))
    return "\n".join(lines) + "\n"


_COMMANDS = st.sampled_from([
    ["check", "--kind", "symmetry", "--orders", "2", "--trials", "20"],
    ["check", "--kind", "reversibility", "--orders", "1", "--trials", "20",
     "--flow", "--samples", "3", "--horizon", "0.05", "--step", "0.01"],
    ["classify"],
    ["candidates", "--kind", "reversibility", "--grid", "3x3", "--multistart", "2"],
    ["candidates", "--kind", "symmetry", "--grid", "2", "--multistart", "1", "--selection", "0,1"],
])


@given(spec_files(), _COMMANDS)
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_spec_file_fuzz_exits_cleanly(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        spec = os.path.join(tmp, "fuzz.spec")
        with open(spec, "w", encoding="utf-8", errors="surrogatepass") as fh:
            fh.write(text)
        argv = [command[0], spec, *command[1:], "--out", os.path.join(tmp, "report.json")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
