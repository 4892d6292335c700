import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from gridspec import InputError, analyze, parse_document, pretty_print
from gridspec.analyzer import CellId
from gridspec.cli import main, load_inputs
from gridspec.evaluator import Boolean, Number
from gridspec.parser import MAX_EXPRESSION_DEPTH

from helpers import (
    DEPTH_SHAPES,
    FIXTURES,
    fixture_text,
    nested_spec,
    random_document,
    random_inputs,
)


@pytest.fixture
def loans_symtab():
    symtab, _, _ = analyze(parse_document(fixture_text("loans")))
    return symtab


def write_inputs(tmp_path, text):
    path = tmp_path / "inputs.csv"
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadInputs:
    def test_fixture_file(self, loans_symtab):
        bindings = load_inputs(FIXTURES / "loans_inputs.csv", loans_symtab)
        assert bindings[CellId("initial_cash", ())] == Number(100.0)
        assert bindings[CellId("has_ceiling", (1,))] == Boolean(True)
        assert bindings[CellId("ceiling", (2,))] == Number(37.0)
        # blank periods stay unbound rather than bound to zero
        assert CellId("want_to_borrow_during_period", (11,)) not in bindings

    def test_unknown_table(self, loans_symtab, tmp_path):
        path = write_inputs(tmp_path, "no_such_table,1,5\n")
        with pytest.raises(InputError) as info:
            load_inputs(path, loans_symtab)
        assert info.value.code == "UnknownTable"

    def test_binding_to_derived_table(self, loans_symtab, tmp_path):
        path = write_inputs(tmp_path, "total_cash_at_end_of_period,1,5\n")
        with pytest.raises(InputError) as info:
            load_inputs(path, loans_symtab)
        assert info.value.code == "BindingToDerivedTable"

    def test_bad_arity(self, loans_symtab, tmp_path):
        path = write_inputs(tmp_path, "initial_cash,1,100\n")
        with pytest.raises(InputError) as info:
            load_inputs(path, loans_symtab)
        assert info.value.code == "BadArity"

    def test_index_out_of_bounds(self, loans_symtab, tmp_path):
        path = write_inputs(tmp_path, "expenses_during_period,13,5\n")
        with pytest.raises(InputError) as info:
            load_inputs(path, loans_symtab)
        assert info.value.code == "BadValue"

    def test_type_mismatch(self, loans_symtab, tmp_path):
        path = write_inputs(tmp_path, "has_ceiling,1,42\n")
        with pytest.raises(InputError) as info:
            load_inputs(path, loans_symtab)
        assert info.value.code == "BadValue"

    def test_duplicate_binding(self, loans_symtab, tmp_path):
        path = write_inputs(tmp_path, "initial_cash,100\ninitial_cash,200\n")
        with pytest.raises(InputError) as info:
            load_inputs(path, loans_symtab)
        assert info.value.code == "DuplicateBinding"

    def test_blank_lines_skipped(self, loans_symtab, tmp_path):
        path = write_inputs(tmp_path, "\ninitial_cash,100\n\n")
        assert len(load_inputs(path, loans_symtab)) == 1


class TestCheckCommand:
    def test_clean_spec(self):
        assert main(["check", str(FIXTURES / "loans.gsx")]) == 0

    def test_spec_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.gsx"
        bad.write_text("bounds b: 1 to 3.\nfoo[t] = 1.\n", encoding="utf-8")
        assert main(["check", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "UnknownTable" in out

    def test_diagnostic_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.gsx"
        bad.write_text("bounds b: 1 to 3.\ntable x : b -> number.\n"
                       "x[t] = if( 1, 2, 3 ).\n", encoding="utf-8")
        assert main(["check", str(bad)]) == 1
        first = capsys.readouterr().out.splitlines()[0]
        severity, code, position = first.split()[:3]
        assert severity == "error"
        assert code == "BooleanExpected"
        assert ":" in position

    def test_missing_file(self):
        assert main(["check", "/no/such/file.gsx"]) == 2


class TestEvalCommand:
    def test_values_written(self, tmp_path):
        out = tmp_path / "values.csv"
        code = main(["eval", str(FIXTURES / "cashflow.gsx"),
                     "--inputs", str(FIXTURES / "cashflow_inputs.csv"),
                     "--out", str(out)])
        assert code == 0
        rows = out.read_text(encoding="utf-8").splitlines()
        assert rows[2].split(",")[4] == "95.00"   # first end-of-period value

    def test_out_dir_writes_every_sheet(self, tmp_path):
        out = tmp_path / "values"
        code = main(["eval", str(FIXTURES / "cashflow.gsx"),
                     "--inputs", str(FIXTURES / "cashflow_inputs.csv"),
                     "--out-dir", str(out)])
        assert code == 0
        assert (out / "Model.values.csv").is_file()
        assert (out / "Time.values.csv").is_file()

    def test_cycle_is_runtime_error(self, tmp_path):
        spec = tmp_path / "cycle.gsx"
        spec.write_text("bounds b: 1 to 1.\n"
                        "table a : b -> number.\ntable c : b -> number.\n"
                        "a[t] = c[t].\nc[t] = a[t].\n", encoding="utf-8")
        assert main(["eval", str(spec), "--out", str(tmp_path / "x.csv")]) == 3

    def test_missing_output_target(self):
        assert main(["eval", str(FIXTURES / "cashflow.gsx")]) == 2


class TestCompileAndVerify:
    @pytest.mark.parametrize("name", ["cashflow", "borrowing", "loans"])
    def test_round_trip(self, name, tmp_path, capsys):
        out = tmp_path / name
        assert main(["compile", str(FIXTURES / f"{name}.gsx"),
                     "--inputs", str(FIXTURES / f"{name}_inputs.csv"),
                     "--out-dir", str(out)]) == 0
        assert (out / "manifest.json").is_file()
        assert (out / "Model.formulas.csv").is_file()
        assert (out / "Model.values.csv").is_file()
        assert main(["verify", str(out)]) == 0
        assert "0 mismatch(es)" in capsys.readouterr().out

    def test_verify_detects_corruption(self, tmp_path, capsys):
        out = tmp_path / "grid"
        main(["compile", str(FIXTURES / "cashflow.gsx"),
              "--inputs", str(FIXTURES / "cashflow_inputs.csv"),
              "--out-dir", str(out)])
        values_path = out / "Model.values.csv"
        values_path.write_text(
            values_path.read_text(encoding="utf-8").replace("40.00", "41.00"),
            encoding="utf-8")
        assert main(["verify", str(out)]) == 1
        assert "mismatch" in capsys.readouterr().out

    def test_verify_missing_manifest(self, tmp_path):
        assert main(["verify", str(tmp_path)]) == 2

    def test_bad_inputs_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("initial_cash,not_a_number\n", encoding="utf-8")
        assert main(["compile", str(FIXTURES / "cashflow.gsx"),
                     "--inputs", str(bad), "--out-dir", str(tmp_path / "o")]) == 1


def run_cli(tmp_path, spec, inputs=None):
    """Compile a spec (and optional input records) into tmp_path/out;
    returns the compile exit code and the output directory."""
    spec_path = tmp_path / "spec.gsx"
    spec_path.write_text(spec, encoding="utf-8")
    argv = ["compile", str(spec_path), "--out-dir", str(tmp_path / "out")]
    if inputs is not None:
        argv += ["--inputs", str(write_inputs(tmp_path, inputs))]
    return main(argv), tmp_path / "out"


class TestValueTextReadsBack:
    def test_currency_division_verifies(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "table a : -> currency.\ntable b : -> currency.\n"
                                      "a[] = 10 / 3.\nb[] = a[] * 3.\n")
        assert code == 0
        assert main(["verify", str(out)]) == 0
        assert "0 mismatch(es)" in capsys.readouterr().out

    def test_small_literal_is_positional(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "table x : -> number.\ntable y : -> number.\n"
                                      "y[] = x[] * 0.00001.\n", "x,3\n")
        assert code == 0
        assert "=A2*0.00001" in (out / "Model.formulas.csv").read_text(encoding="utf-8")
        assert main(["verify", str(out)]) == 0
        assert "0 mismatch(es)" in capsys.readouterr().out

    def test_large_result_is_positional(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "table x : -> number.\ntable y : -> number.\n"
                                      "y[] = x[] * 1000000.\n", "x,1000000000000000\n")
        assert code == 0
        values = (out / "Model.values.csv").read_text(encoding="utf-8")
        assert "1000000000000000000000" in values and "e+" not in values
        assert main(["verify", str(out)]) == 0
        assert "0 mismatch(es)" in capsys.readouterr().out


class TestDateInputs:
    """Input dates are read only in the YYYY-MM-DD form that values are
    written in."""

    SPEC = ("bounds b: 1 to 1.\ntable amount : b -> currency.\n"
            "table day : b -> date.\ntable y : b -> currency.\ny[ i ] = amount[ i ] + 1.\n")

    def test_compact_digits_are_a_number(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, self.SPEC, "amount,1,20090101\n")
        assert code == 0, capsys.readouterr().err
        assert "20090101.00" in (out / "Model.values.csv").read_text(encoding="utf-8")

    @pytest.mark.parametrize("text", ["20090101", "2009-W01-1", "2009-1-1", "2009-02-30"])
    def test_other_forms_are_not_dates(self, tmp_path, capsys, text):
        code, _ = run_cli(tmp_path, self.SPEC, f"day,1,{text}\n")
        assert code == 1
        assert "BadValue" in capsys.readouterr().err

    def test_iso_date(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, self.SPEC, "day,1,2009-01-31\n")
        assert code == 0, capsys.readouterr().err
        assert "2009-01-31" in (out / "Model.values.csv").read_text(encoding="utf-8")


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("text", ["inf", "nan", "-Infinity", "1e400"])
    def test_non_finite_input_rejected(self, tmp_path, capsys, text):
        code, _ = run_cli(tmp_path, "table x : -> number.\ntable y : -> number.\n"
                                    "y[] = x[] + 1.\n", f"x,{text}\n")
        assert code == 1
        assert "BadValue" in capsys.readouterr().err

    def test_overflowing_product_is_runtime_fault(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "table x : -> number.\ntable y : -> number.\n"
                                    "y[] = x[] * 1000000 * 1000000.\n", "x,1e300\n")
        assert code == 3
        assert "not a finite number" in capsys.readouterr().err

    def test_overflowing_sum_is_runtime_fault(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "bounds b: 1 to 2.\ntable x : b -> number.\n"
                                    "table y : -> number.\ny[] = sum( x[ all ] ).\n",
                          "x,1,1e308\nx,2,1e308\n")
        assert code == 3
        assert "y[]" in capsys.readouterr().err


class TestVerifyFaults:
    def test_faulting_formula_is_a_mismatch(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "table x : -> number.\ntable y : -> number.\n"
                                      "table a : -> number.\na[] = x[] / y[].\n",
                            "x,1\ny,2\n")
        assert code == 0
        values_path = out / "Model.values.csv"
        rows = values_path.read_text(encoding="utf-8").splitlines()
        assert rows[1] == "1,2,0.5"
        values_path.write_text("\n".join([rows[0], "1,0,0.5"]) + "\n", encoding="utf-8")
        assert main(["verify", str(out)]) == 1
        report = capsys.readouterr().out
        assert "1 mismatch(es)" in report
        assert "Model!C2: formula faults (division by zero)" in report


class TestUncheckableFormulas:
    """A formula that cannot be checked is a mismatch at its address; every
    other formula is still checked."""

    @pytest.mark.parametrize("formula, reason", [
        ("=1+", "does not parse: ParseError 1:3 expected an expression, found end of input"),
        ("=B1", "references non-value cell Model!B1"),
        ("=FOO(1)", "unknown function foo"),
    ])
    def test_mismatch_names_the_reason(self, tmp_path, capsys, formula, reason):
        out = tmp_path / "grid"
        assert main(["compile", str(FIXTURES / "cashflow.gsx"),
                     "--inputs", str(FIXTURES / "cashflow_inputs.csv"),
                     "--out-dir", str(out)]) == 0
        formulas = out / "Model.formulas.csv"
        rows = formulas.read_text(encoding="utf-8").split("\n")
        assert rows[2].split(",")[3] == "=C2"  # the first formula, at D3
        rows[2] = rows[2].replace("=C2", formula)
        formulas.write_text("\n".join(rows), encoding="utf-8")
        assert main(["verify", str(out)]) == 1
        report = capsys.readouterr().out
        assert "checked 36 cells, 1 mismatch(es)" in report
        assert f"Model!D3: formula faults ({reason})" in report


class TestCompileVerifyProperty:
    def test_compile_success_implies_verify_success(self, tmp_path, capsys):
        rng = random.Random(1187)
        compiled = 0
        for trial in range(300):
            doc = random_document(rng)
            work = tmp_path / str(trial)
            work.mkdir()
            code, out = run_cli(work, pretty_print(doc), random_inputs(rng, doc))
            assert code in (0, 1, 2, 3)
            if code != 0:
                continue
            compiled += 1
            capsys.readouterr()
            assert main(["verify", str(out)]) == 0, capsys.readouterr().out
            assert "0 mismatch(es)" in capsys.readouterr().out
        assert compiled >= 40


class TestExpressionDepth:
    @pytest.mark.parametrize("shape", DEPTH_SHAPES)
    def test_limit_checks_compiles_and_verifies(self, tmp_path, capsys, shape):
        spec = nested_spec(shape, MAX_EXPRESSION_DEPTH)
        code, out = run_cli(tmp_path, spec)
        assert code == 0
        assert main(["check", str(tmp_path / "spec.gsx")]) == 0
        assert main(["verify", str(out)]) == 0
        assert "1 cells, 0 mismatch(es)" in capsys.readouterr().out

    @pytest.mark.parametrize("shape", DEPTH_SHAPES)
    def test_one_deeper_is_a_diagnostic(self, tmp_path, capsys, shape):
        code, out = run_cli(tmp_path, nested_spec(shape, MAX_EXPRESSION_DEPTH + 1))
        assert code == 1
        assert "ParseError 2:" in capsys.readouterr().out
        assert not out.exists()


class TestLayoutOverflow:
    SPEC = "bounds s: 1 to 20000. bounds u: 1 to 2.\ntable x : s u -> number.\nx[ i, j ] = 1.\n"

    @pytest.mark.parametrize("command", ["compile", "eval"])
    def test_overflow_is_a_diagnostic(self, tmp_path, capsys, command):
        spec = tmp_path / "spec.gsx"
        spec.write_text(self.SPEC, encoding="utf-8")
        assert main([command, str(spec), "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == "error: layout exceeds sheet extents at Model!A3:ACOF4\n"
        assert not (tmp_path / "out").exists()


def test_module_entry_point():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "gridspec", "check",
                           str(FIXTURES / "cashflow.gsx")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == ""
