import csv
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gridspec import InputError, analyze, parse_document, pretty_print
from gridspec.analyzer import MAX_CELLS, CellId, resolve
from gridspec.cli import main, load_inputs
from gridspec.parser import MAX_EXPRESSION_DEPTH, MAX_INTEGER

from helpers import (
    DEPTH_SHAPES,
    FIXTURES,
    covering_document,
    covering_inputs,
    fixture_text,
    nested_spec,
    random_document,
    random_inputs,
    same,
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
        assert same(bindings[CellId("initial_cash", ())], 100.0)
        assert same(bindings[CellId("has_ceiling", (1,))], True)
        assert same(bindings[CellId("ceiling", (2,))], 37.0)
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

    @pytest.mark.parametrize("text, period", [("11", 11), ("+2", 2), ("012", 12)])
    def test_index_signed_ascii_digits(self, loans_symtab, tmp_path, text, period):
        path = write_inputs(tmp_path, f"expenses_during_period,{text},7\n")
        assert list(load_inputs(path, loans_symtab)) == \
            [CellId("expenses_during_period", (period,))]

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

    @pytest.mark.parametrize("command, option, existing", [
        ("compile", "--out-dir", "file"), ("eval", "--out", "directory"),
        ("eval", "--out-dir", "file")])
    def test_unwritable_target_is_named(self, tmp_path, capsys, command, option, existing):
        """A target that cannot be written is an I/O error on one line that
        names it, from `eval` as from `compile`."""
        target = tmp_path / "target"
        if existing == "directory":
            target.mkdir()
        else:
            target.write_text("kept", encoding="utf-8")
        assert main([command, str(FIXTURES / "cashflow.gsx"), "--inputs",
                     str(FIXTURES / "cashflow_inputs.csv"), option, str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_out_and_out_dir_are_refused_together(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["eval", str(FIXTURES / "cashflow.gsx"), "--out", str(tmp_path / "a.csv"),
                  "--out-dir", str(tmp_path / "d")])
        assert info.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_spec_without_tables(self, tmp_path, capsys):
        """A spec with no table writes an empty values CSV, as compile
        writes a directory without sheets."""
        spec = tmp_path / "bare.gsx"
        spec.write_text("bounds t: 1 to 2.\n", encoding="utf-8")
        out = tmp_path / "values.csv"
        assert main(["eval", str(spec), "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == ""
        assert main(["compile", str(spec), "--out-dir", str(tmp_path / "out")]) == 0
        assert main(["verify", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""


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

    @pytest.mark.parametrize("text", ["1_1", "\u0662", "\uff12", "\u00b2", "2.0", "0x2", ""])
    def test_index_only_ascii_digits(self, tmp_path, capsys, text):
        """An index field is an optionally signed run of ASCII digits; other
        text that Python's int() reads, such as `1_1` or an Arabic-Indic
        two, is not an integer."""
        inputs = tmp_path / "in.csv"
        inputs.write_text(f"expenses_during_period,{text},7\n", encoding="utf-8")
        assert main(["compile", str(FIXTURES / "cashflow.gsx"), "--inputs", str(inputs),
                     "--out-dir", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.strip() == \
            f"error BadValue: line 1: index {text!r} is not an integer"

    def test_bad_inputs_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("initial_cash,not_a_number\n", encoding="utf-8")
        assert main(["compile", str(FIXTURES / "cashflow.gsx"),
                     "--inputs", str(bad), "--out-dir", str(tmp_path / "o")]) == 1


class TestTextEncoding:
    """Specs and inputs CSVs are read as UTF-8: other bytes are an I/O
    error naming the file, and a leading byte-order mark is skipped."""

    def test_spec_not_utf8(self, tmp_path, capsys):
        spec = tmp_path / "bad.gsx"
        spec.write_bytes(b"table x : -> number.\nx[] = 1. -- \xff\n")
        assert main(["check", str(spec)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {spec}: ")

    @pytest.mark.parametrize("command", ["compile", "eval"])
    def test_inputs_not_utf8(self, tmp_path, capsys, command):
        inputs = tmp_path / "bad.csv"
        inputs.write_bytes(b"initial_cash,100\xff\n")
        assert main([command, str(FIXTURES / "cashflow.gsx"), "--inputs", str(inputs),
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {inputs}: ")

    @pytest.mark.parametrize("command", ["compile", "eval"])
    def test_inputs_field_over_the_csv_limit(self, tmp_path, capsys, command):
        inputs = tmp_path / "long.csv"
        inputs.write_text("initial_cash," + "1" * 200_000 + "\n", encoding="utf-8")
        assert main([command, str(FIXTURES / "cashflow.gsx"), "--inputs", str(inputs),
                     "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {inputs}: ") and "field limit" in err

    def test_inputs_byte_order_mark(self, tmp_path, capsys):
        plain = FIXTURES / "cashflow_inputs.csv"
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for inputs, out in ((plain, "plain"), (marked, "marked")):
            assert main(["compile", str(FIXTURES / "cashflow.gsx"), "--inputs", str(inputs),
                         "--out-dir", str(tmp_path / out)]) == 0
        assert main(["verify", str(tmp_path / "marked")]) == 0
        for path in (tmp_path / "plain").iterdir():
            assert (tmp_path / "marked" / path.name).read_bytes() == path.read_bytes()


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

    def test_number_table_does_not_take_currency_from_what_it_reads(self, tmp_path, capsys):
        """Currency is a table's type: a number table that reads a currency cell writes 5.1."""
        code, out = run_cli(tmp_path, "bounds t: 1 to 1.\ntable price : t -> currency.\n"
                            "table copy : t -> number.\ntable twice : t -> number.\n"
                            "table pick : t -> number.\ncopy[ t ] = price[ t ].\n"
                            "twice[ t ] = price[ t ] * 1.\npick[ t ] = if( true, price[ t ], 0 ).\n",
                            "price,1,5.1\n")
        assert code == 0
        values = (out / "Model.values.csv").read_text(encoding="utf-8").splitlines()
        assert values[2] == "5.10,5.1,5.1,5.1"
        assert main(["verify", str(out)]) == 0
        assert "0 mismatch(es)" in capsys.readouterr().out

    def test_negative_zero_currency_is_zero(self, tmp_path, capsys):
        """A currency cell holding -0 is written 0.00, as a number cell is written 0."""
        code, out = run_cli(tmp_path, "bounds t: 1 to 1.\ntable price : t -> currency.\n"
                            "table zero : t -> currency.\ntable plain : t -> number.\n"
                            "zero[ t ] = price[ t ] * ( 0 - 1 ).\n"
                            "plain[ t ] = price[ t ] * ( 0 - 1 ).\n", "price,1,0\n")
        assert code == 0
        values = (out / "Model.values.csv").read_text(encoding="utf-8").splitlines()
        assert values[2] == "0.00,0.00,0"
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
        # the input changes in both documents, so only the formula disagrees
        formulas_path = out / "Model.formulas.csv"
        formulas_path.write_text(formulas_path.read_text(encoding="utf-8").replace(
            "1,2,=", "1,0,="), encoding="utf-8")
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

    def test_covering_documents(self, tmp_path, capsys):
        """Documents that cover every cell, `match` over ranges of blocks
        included: trial 21 searched a block's rows and columns, which
        compiled and then failed verify before such a range was refused."""
        rng = random.Random(2)
        compiled = 0
        for trial in range(100):
            doc = covering_document(rng)
            work = tmp_path / str(trial)
            work.mkdir()
            code, out = run_cli(work, pretty_print(doc), covering_inputs(rng, doc))
            assert code in (0, 1, 3)
            if code != 0:
                continue
            compiled += 1
            capsys.readouterr()
            assert main(["verify", str(out)]) == 0, capsys.readouterr().out
        assert compiled >= 90


class TestMatchRanges:
    """MATCH searches one row or one column.  A block runs its first
    dimension across columns, so on the sheet a range over several rows
    and columns lies in another order than the spec's row-major one, and
    is refused."""

    SPEC = "bounds b: 1 to 2.\ntable t : b b -> number.\ntable x : -> number.\n"
    INPUTS = "t,1,1,1\nt,1,2,2\nt,2,1,3\nt,2,2,4\n"
    CUBE = ("bounds a: 1 to 2. bounds b: 1 to 2. bounds c: 1 to 3. bounds r: 1 to 1.\n"
            "table z : a b c -> number.\ntable y : a b r -> number.\ntable x : -> number.\n"
            "y[ i, j, k ] = z[ i, j, 1 ].\n")
    CUBE_INPUTS = "".join(f"z,{i},{j},{k},{100 * i + 10 * j + k}\n"
                          for i in (1, 2) for j in (1, 2) for k in (1, 2, 3))

    @pytest.mark.parametrize("command", ["check", "compile", "eval"])
    def test_rows_and_columns_are_refused(self, tmp_path, capsys, command):
        spec = tmp_path / "spec.gsx"
        spec.write_text(self.SPEC + "x[] = match( 3, t[ all, all ], 0 ).\n", encoding="utf-8")
        inputs = write_inputs(tmp_path, self.INPUTS)
        options = [] if command == "check" else [
            "--inputs", str(inputs), "--out-dir", str(tmp_path / "out")]
        assert main([command, str(spec), *options]) == 1
        assert capsys.readouterr().err == (
            "error: match range t[ all, all ] spans several rows and columns: "
            "MATCH searches one row or one column\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("spec, inputs, position", [
        (SPEC + "x[] = match( 3, t[ all, 1 ], 0 ).\n", INPUTS, "2"),
        (CUBE + "x[] = match( 122, z[ 1, all, all ], 0 ) + match( 221, z[ 2, all, all ], 0 ).\n",
         CUBE_INPUTS, "9"),
        (CUBE + "x[] = match( 211, y[ all, 1, all ], 0 ).\n", CUBE_INPUTS, "2"),
    ], ids=["one row", "one column of three dimensions", "one row over a bound of one value"])
    def test_one_row_or_column_verifies(self, tmp_path, capsys, spec, inputs, position):
        code, out = run_cli(tmp_path, spec, inputs)
        assert code == 0, capsys.readouterr()
        assert main(["verify", str(out)]) == 0
        assert " 0 mismatch(es)" in capsys.readouterr().out
        with open(out / "Model.values.csv", encoding="utf-8", newline="") as values:
            assert list(csv.reader(values))[1][3] == position  # x, at D2


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


class TestLayoutBeforeElaboration:
    def test_overflow_is_found_without_enumerating_cells(self, tmp_path, capsys, monkeypatch):
        def elaborate(*args):
            raise AssertionError("elaborate was called")

        monkeypatch.setattr("gridspec.analyzer.elaborate", elaborate)
        spec = tmp_path / "spec.gsx"
        spec.write_text("bounds s: 1 to 20000. bounds u: 1 to 10.\ntable x : s u -> number.\n"
                        "x[ i, j ] = 1.\n", encoding="utf-8")
        assert main(["compile", str(spec), "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == \
            "error: layout exceeds sheet extents at Model!A3:ACOF12\n"


class TestCellLimit:
    """A model of more than MAX_CELLS cells is refused by name resolution,
    before anything is made per cell: 1.6e10 cells would take about
    128 GB for elaboration's list alone."""

    HUGE = ("bounds a: 1 to 16000. bounds b: 1 to 1000000.\n"
            "table x : a b -> number.\nx[ i, j ] = 1.\n")
    # the child may take 1.5 GB, so a per-cell list fails there, not here
    CHILD = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))\n"
             "from gridspec.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")

    @pytest.mark.parametrize("command", [["check"], ["compile", "--out-dir", "out"],
                                         ["eval", "--out", "out.csv"]], ids=lambda c: c[0])
    def test_huge_model_is_refused(self, tmp_path, command):
        (tmp_path / "spec.gsx").write_text(self.HUGE, encoding="utf-8")
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", self.CHILD, command[0], "spec.gsx",
                               *command[1:]], cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=60)
        assert (done.returncode, done.stderr) == (1, "")
        assert done.stdout == ("error TooManyCells 2:1 the tables hold 16,000,000,000 cells, "
                               "over the limit of 1,000,000\n")
        assert [path.name for path in tmp_path.iterdir()] == ["spec.gsx"]

    @pytest.mark.parametrize("tables, size, refused", [
        (1, 99_865, False), (1, 10_000_000, True),  # the 100k-cell loans model; 10 million
        (1, MAX_CELLS, False), (1, MAX_CELLS + 1, True),
        (2, MAX_CELLS // 2, False), (2, MAX_CELLS // 2 + 1, True)])
    def test_limit_counts_every_table(self, tables, size, refused):
        spec = f"bounds a: 1 to {size}.\n" + "".join(
            f"table x{k} : a -> number.\n" for k in range(tables))
        _, diagnostics = resolve(parse_document(spec))
        assert [d.code for d in diagnostics] == ["TooManyCells"] * refused


class TestRangeRectangles:
    """A range is written as one rectangle, so along the dimensions that
    run down rows its `all` indices must be the last ones."""

    SPEC = ("bounds a: 1 to 2. bounds b: 1 to 3. bounds c: 1 to 2.\n"
            "table x : a b c -> number.\ntable y : a b -> number.\ntable w : b c -> number.\n"
            "y[ i, j ] = sum( x[ i, j, all ] ).\nw[ j, k ] = sum( x[ all, j, k ] ) + "
            "sum( x[ all, all, all ] ).\n")
    INPUTS = "".join(f"x,{i},{j},{k},{100 * i + 10 * j + k}\n"
                     for i in (1, 2) for j in (1, 2, 3) for k in (1, 2))

    def test_ranges_that_fill_a_rectangle_verify(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, self.SPEC, self.INPUTS)
        assert code == 0, capsys.readouterr().err
        assert main(["verify", str(out)]) == 0
        assert " 0 mismatch(es)" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["compile", "eval"])
    def test_other_ranges_are_refused(self, tmp_path, capsys, command):
        spec = tmp_path / "spec.gsx"
        spec.write_text(self.SPEC + "table v : a c -> number.\n"
                                    "v[ i, k ] = sum( x[ i, all, k ] ).\n", encoding="utf-8")
        inputs = write_inputs(tmp_path, self.INPUTS)
        assert main([command, str(spec), "--inputs", str(inputs),
                     "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "error: range x[ i, all, k ] is not one rectangle: its 'all' indices "
            "must come last among the dimensions down rows\n")
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


@pytest.mark.parametrize("argv, code", [(["check", str(FIXTURES / "loans.gsx")], 0), ([], 2)],
                         ids=["check", "no arguments"])
def test_module_entry_point_exit_codes(argv, code):
    """`python -m gridspec` is the one module entry point: it runs the
    command line's `main` and exits with its code, 2 for a usage error."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "gridspec", *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == code, done.stderr


class TestFailureTexts:
    """What the command line prints for a formula, a spec or an input that
    fails at run time, by the one exception of each kind of failure."""

    SPEC = ("bounds t: 1 to 3.\ntable a : t -> number.\ntable b : t -> number.\n"
            "table y : t -> number.\ny[ t ] = a[ t ] + b[ t ].\n")

    @pytest.mark.parametrize("formula, reason", [
        ("=NOSUCH(A3)", "unknown function nosuch"),
        ("=MATCH(1,A3:A5,1)", "third argument of match must be 0"),
    ])
    def test_verify_names_the_fault(self, tmp_path, capsys, formula, reason):
        code, out = run_cli(tmp_path, self.SPEC, "a,1,1\n")
        assert code == 0
        path = out / "Model.formulas.csv"
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[2][2] == "=A3+B3"
        rows[2][2] = formula
        with open(path, "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle, lineterminator="\n").writerows(rows)
        assert main(["verify", str(out)]) == 1
        assert capsys.readouterr().out == (
            "checked 3 cells, 1 mismatch(es)\n"
            f"  Model!C3: formula faults ({reason}), document holds 1.0\n")

    def test_date_part_not_an_integer(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "bounds t: 1 to 2.\ntable x : t -> date.\n"
                                      "x[t] = date( 2020, 2, 1.5 ).\n")
        assert code == 3
        assert capsys.readouterr().err == "error: x[1]: date part 1.5 is not an integer\n"
        assert not out.exists()

    def test_match_over_dates(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "bounds t: 1 to 3.\ntable d : t -> date.\n"
                                      "table m : t -> general.\n"
                                      "m[ t ] = match( d[t], d[ all ], 0 ).\n",
                            "d,1,2020-01-01\nd,2,2020-02-01\nd,3,2020-01-01\n")
        assert code == 0, capsys.readouterr()
        assert main(["verify", str(out)]) == 0
        assert capsys.readouterr().out == "checked 3 cells, 0 mismatch(es)\n"
        values = (out / "Model.values.csv").read_text(encoding="utf-8").splitlines()
        assert [row.split(",")[1] for row in values[2:]] == ["1", "2", "1"]

    @pytest.mark.parametrize("record, message", [
        ("n,1,true", "boolean value for a number table"),
        ("n,1,2020-01-01", "date value for a number table"),
        ("n," + "9" * 5000 + ",1", f"index {'9' * 5000!r} is not an integer"),
    ], ids=["boolean", "date", "5000-digit index"])
    def test_bad_input_value(self, tmp_path, capsys, record, message):
        code, out = run_cli(tmp_path, "bounds t: 1 to 2.\ntable n : t -> number.\n"
                                      "table y : t -> number.\ny[ t ] = n[ t ].\n", record + "\n")
        assert code == 1
        assert capsys.readouterr().err == f"error BadValue: line 1: {message}\n"
        assert not out.exists()

    def test_values_field_over_the_csv_limit(self, compiled, tmp_path, capsys):
        work = mutated(compiled, [], tmp_path / "out")
        path = work / "Model.values.csv"
        with open(path, "a", encoding="utf-8", newline="") as handle:
            handle.write("x" * 131_073 + "\n")
        assert main(["verify", str(work)]) == 2
        assert capsys.readouterr().err == \
            f"error: {path}: field larger than field limit (131072)\n"


def compile_fixture(name, out, *options):
    return main(["compile", str(FIXTURES / f"{name}.gsx"),
                 "--inputs", str(FIXTURES / f"{name}_inputs.csv"), "--out-dir", str(out),
                 *options])


class TestCaptionSheets:
    """A caption sheet whose name is not an identifier is written quoted
    in formulas, so compile exit 0 still implies verify exit 0."""

    @pytest.mark.parametrize("name, caption", [
        ("cashflow", "expenses_during_period"),
        ("cashflow", "total_cash_at_end_of_period"),
        ("loans", "first_that_can_supply_wants"),
        ("loans", "has_ceiling"),
    ])
    def test_compile_then_verify(self, tmp_path, capsys, name, caption):
        assert compile_fixture(name, tmp_path / "out", "--caption-table", caption) == 0
        assert main(["verify", str(tmp_path / "out")]) == 0
        assert " 0 mismatch(es)" in capsys.readouterr().out

    def test_quoted_reference(self, tmp_path):
        compile_fixture("cashflow", tmp_path / "out", "--caption-table", "expenses_during_period")
        rows = (tmp_path / "out" / "Model.formulas.csv").read_text(encoding="utf-8").splitlines()
        assert rows[2] == "5.00,\"=DATE(2009,1,1)\",,=C2,=D3-'Expenses during period'!A3"


class TestCaptionTable:
    """The caption table has exactly one dimension."""

    @pytest.mark.parametrize("command", ["compile", "eval"])
    @pytest.mark.parametrize("name, caption", [
        ("cashflow", "initial_cash"), ("loans", "can_supply_wants"), ("cashflow", "no_such_table")])
    def test_other_tables_are_refused(self, tmp_path, capsys, command, name, caption):
        assert main([command, str(FIXTURES / f"{name}.gsx"),
                     "--inputs", str(FIXTURES / f"{name}_inputs.csv"),
                     "--out-dir", str(tmp_path / "out"), "--caption-table", caption]) == 1
        assert capsys.readouterr().err == \
            f"error: caption table '{caption}' is not a declared table of one dimension\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("dims, ref", [("", "time[]"), ("b b", "time[ i, 1 ]")])
    def test_time_of_another_arity_is_an_ordinary_table(self, tmp_path, capsys, dims, ref):
        code, out = run_cli(tmp_path, f"bounds b: 1 to 2.\ntable time : {dims} -> number.\n"
                                      f"table x : b -> number.\nx[ i ] = {ref} + i.\n")
        assert code == 0, capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["sheets"] == ["Model"] and "caption_column" not in manifest
        assert main(["verify", str(out)]) == 0


class TestCaptionSheetName:
    @pytest.mark.parametrize("command", ["compile", "eval"])
    @pytest.mark.parametrize("name", ["model", "MODEL"])
    def test_caption_named_like_the_main_sheet_is_refused(self, tmp_path, capsys, command,
                                                          name):
        spec = tmp_path / "spec.gsx"
        spec.write_text(f"bounds b: 1 to 3.\ntable {name} : b -> number.\n"
                        f"table x : b -> number.\nx[ i ] = {name}[ i ] + 1.\n",
                        encoding="utf-8")
        assert main([command, str(spec), "--out-dir", str(tmp_path / "out"),
                     "--caption-table", name]) == 1
        assert capsys.readouterr().err == \
            f"error: caption table '{name}' is named like the main sheet\n"
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("template", [
    "bounds b: 1 to {}.\n",
    "bounds b: 1 to 2.\ntable x : b -> number.\nx[ {} ] = 1.\n",
    "bounds b: 1 to 2.\ntable x : b -> number.\nx[ t < {} ] = 1.\n",
    "bounds b: 1 to 2.\ntable x : b -> number.\ntable y : b -> number.\ny[ t ] = x[ {} ].\n",
])
def test_integer_literal_too_large(tmp_path, capsys, template):
    digits = "9" * (400 if "x[ {} ]" in template else 5000)
    for literal, code in ((digits, 1), (str(MAX_INTEGER + 1), 1)):
        spec = tmp_path / "spec.gsx"
        spec.write_text(template.format(literal), encoding="utf-8")
        assert main(["check", str(spec)]) == code
        assert "integer literal too large" in capsys.readouterr().out


def test_date_out_of_range_is_runtime_fault(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "table d : -> date.\nd[] = date(100000000000000000000, 1, 1).\n")
    assert code == 3
    assert "invalid date(100000000000000000000, 1, 1)" in capsys.readouterr().err


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    out = tmp_path_factory.mktemp("compiled") / "cashflow"
    assert compile_fixture("cashflow", out) == 0
    return out


def mutated(compiled, edits, work):
    """Copy the compiled directory to `work` and apply `edits` to its files."""
    shutil.copytree(compiled, work)
    for name, edit, *args in edits:
        path = work / name
        data = path.read_bytes() if path.exists() else b""
        if edit == "remove":
            path.unlink(missing_ok=True)
            continue
        if edit == "json":
            data = json.dumps(args[0]).encode()
        elif edit == "garble":
            data = args[0]
        else:
            at = args[0] % (len(data) + 1)
            if edit == "replace":
                data = data[:at] + args[1] + data[at + len(args[1]):]
            elif edit == "insert":
                data = data[:at] + args[1] + data[at:]
            elif edit == "delete":
                data = data[:at] + data[at + args[1]:]
            else:  # truncate
                data = data[:at]
        path.write_bytes(data)
    return work


JSON = st.recursive(st.none() | st.booleans() | st.integers() | st.text(max_size=6),
                    lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
                    max_leaves=8)
SHEETS = st.lists(st.sampled_from(["Model", "Time", "Other", "", "..", "a/b", "a\\b", "a\0b"])
                  | st.text(max_size=6), max_size=3)
EDITS = st.lists(st.tuples(
    st.sampled_from(["manifest.json", "Model.formulas.csv", "Model.values.csv",
                     "Time.formulas.csv", "Time.values.csv"]),
    st.one_of(
        st.tuples(st.just("json"), JSON | st.fixed_dictionaries({"sheets": SHEETS})),
        st.tuples(st.sampled_from(["replace", "insert"]), st.integers(0, 10 ** 6),
                  st.binary(min_size=1, max_size=2)),
        st.tuples(st.just("delete"), st.integers(0, 10 ** 6), st.integers(1, 40)),
        st.tuples(st.just("truncate"), st.integers(0, 10 ** 6)),
        st.tuples(st.just("garble"), st.binary(max_size=40)),
        st.tuples(st.just("remove")),
    )).map(lambda pair: (pair[0], *pair[1])), min_size=1, max_size=3)


class TestVerifyReadsAnyDirectory:
    """Verify reports a directory it cannot read with exit code 2 and a
    message naming the file, and never ends in a traceback."""

    @pytest.mark.parametrize("text", ['{"sheets": 3}', "[1]", "{", '"Model"', "null",
                                      '{"sheets": ["../Model"]}', '{"sheets": [1]}',
                                      '{"sheets": ["Model\\\\x"]}', "[" * 100_000])
    def test_bad_manifest(self, compiled, tmp_path, capsys, text):
        work = mutated(compiled, [], tmp_path / "out")
        (work / "manifest.json").write_text(text, encoding="utf-8")
        assert main(["verify", str(work)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "manifest.json" in err

    def test_manifest_without_sheets_verifies_nothing(self, compiled, tmp_path, capsys):
        work = mutated(compiled, [("manifest.json", "json", {"sheets": []})], tmp_path / "out")
        assert main(["verify", str(work)]) == 0
        assert "checked 0 cells, 0 mismatch(es)" in capsys.readouterr().out

    def test_csv_that_is_not_utf8(self, compiled, tmp_path, capsys):
        work = mutated(compiled, [("Model.values.csv", "garble", b"1,\xff\n")], tmp_path / "out")
        assert main(["verify", str(work)]) == 2
        assert "Model.values.csv" in capsys.readouterr().err

    @given(EDITS)
    @settings(max_examples=200, deadline=None)
    def test_mutated_directory(self, compiled, edits):
        with tempfile.TemporaryDirectory() as tmp:
            assert main(["verify", str(mutated(compiled, edits, Path(tmp) / "out"))]) in (0, 1, 2, 3)


class TestVerifyNamesWhyItCannotRead:
    """A file verify cannot open is `error: cannot read <path>: <reason>`,
    the form of check and compile, with exit code 2."""

    def test_missing_manifest(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path)]) == 2
        assert capsys.readouterr().err == \
            f"error: cannot read {tmp_path / 'manifest.json'}: No such file or directory\n"

    def test_file_given_as_the_directory(self, tmp_path, capsys):
        path = tmp_path / "not_a_directory"
        path.write_text("", encoding="utf-8")
        assert main(["verify", str(path)]) == 2
        assert capsys.readouterr().err == \
            f"error: cannot read {path / 'manifest.json'}: Not a directory\n"

    def test_missing_formulas_document(self, compiled, tmp_path, capsys):
        work = mutated(compiled, [("Model.formulas.csv", "remove")], tmp_path / "out")
        assert main(["verify", str(work)]) == 2
        assert capsys.readouterr().err == \
            f"error: cannot read {work / 'Model.formulas.csv'}: No such file or directory\n"


class TestVerifyReadsBothDocuments:
    """A cell that is not a formula holds the same text in both documents,
    and a formula that reads a sheet the directory does not hold faults."""

    def test_constant_edited_in_the_formulas_document(self, compiled, tmp_path, capsys):
        work = mutated(compiled, [], tmp_path / "out")
        path = work / "Model.formulas.csv"
        path.write_text(path.read_text(encoding="utf-8").replace("100.00", "250.00"),
                        encoding="utf-8")
        assert main(["verify", str(work)]) == 1
        assert capsys.readouterr().out == (
            "checked 36 cells, 1 mismatch(es)\n"
            "  Model!C2: formulas document holds '250.00', values document holds '100.00'\n")

    def test_cell_only_in_the_values_document_is_not_checked(self, compiled, tmp_path, capsys):
        work = mutated(compiled, [], tmp_path / "out")
        with open(work / "Model.values.csv", "a", encoding="utf-8", newline="") as handle:
            handle.write(",,,,,extra\n")
        assert main(["verify", str(work)]) == 0
        assert capsys.readouterr().out == "checked 36 cells, 0 mismatch(es)\n"

    def test_sheet_the_directory_does_not_hold(self, tmp_path, capsys):
        (tmp_path / "manifest.json").write_text('{"sheets": ["Model"]}', encoding="utf-8")
        (tmp_path / "Model.formulas.csv").write_text(
            "=Nowhere!A1+1\n=SUM(Nowhere!A1:B9)\n", encoding="utf-8")
        (tmp_path / "Model.values.csv").write_text("1\n0\n", encoding="utf-8")
        assert main(["verify", str(tmp_path)]) == 1
        assert capsys.readouterr().out == (
            "checked 2 cells, 2 mismatch(es)\n"
            "  Model!A1: formula faults (references sheet 'Nowhere', which the directory "
            "does not hold), document holds 1.0\n"
            "  Model!A2: formula faults (references sheet 'Nowhere', which the directory "
            "does not hold), document holds 0.0\n")


class TestA1Limits:
    """A reference past XFD1048576 is a ParseError at that reference, so
    verify reports it at its cell and checks every other formula."""

    @pytest.mark.parametrize("reference", ["A" + "1" * 5000, "A1048577", "XFE1", "AAAA1"],
                             ids=["5000-digit row", "row", "column", "4 letters"])
    def test_mismatch_at_the_cell(self, compiled, tmp_path, capsys, reference):
        work = mutated(compiled, [], tmp_path / "out")
        formulas = work / "Model.formulas.csv"
        rows = formulas.read_text(encoding="utf-8").split("\n")
        rows[2] = rows[2].replace("=C2", f"={reference}")
        formulas.write_text("\n".join(rows), encoding="utf-8")
        assert main(["verify", str(work)]) == 1
        report = capsys.readouterr().out
        assert "checked 36 cells, 1 mismatch(es)" in report
        shown = reference if len(reference) < 10 else reference[:5]
        assert (f"Model!D3: formula faults (does not parse: ParseError 1:1 expected a cell "
                f"reference within A1:XFD1048576, found '{shown}") in report

    def test_last_cell_reads(self):
        from gridspec.a1 import Address, CellRef, parse_a1_formula
        assert parse_a1_formula("=XFD1048576") == CellRef(Address("Model", 16384, 1048576))

    def test_layout_shares_the_extents(self):
        from gridspec import a1, layout
        assert (layout.MAX_COLUMNS, layout.MAX_ROWS) == (a1.MAX_COLUMNS, a1.MAX_ROWS)


class TestCheckPlansTheLayout:
    """`check` reports the layout errors that `compile` and `eval` report."""

    @pytest.mark.parametrize("spec, error", [
        (TestLayoutOverflow.SPEC, "error: layout exceeds sheet extents at Model!A3:ACOF4\n"),
        (TestRangeRectangles.SPEC + "table v : a c -> number.\n"
                                    "v[ i, k ] = sum( x[ i, all, k ] ).\n",
         "error: range x[ i, all, k ] is not one rectangle: its 'all' indices "
         "must come last among the dimensions down rows\n"),
    ])
    def test_layout_error(self, tmp_path, capsys, spec, error):
        path = tmp_path / "spec.gsx"
        path.write_text(spec, encoding="utf-8")
        for command in (["check"], ["compile", "--out-dir", str(tmp_path / "out")]):
            assert main([command[0], str(path), *command[1:]]) == 1
            assert capsys.readouterr().err == error
