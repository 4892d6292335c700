"""The bytes `gridspec compile` writes for the fixtures, pinned by sha256.

The digests were generated at commit 31cd5f1, before emit rendered each
equation's formula once as a template, with `gridspec compile
tests/fixtures/NAME.gsx --inputs tests/fixtures/NAME_inputs.csv`.  They
pin the output independently of any helper code in the tests: a change
that alters a byte of any written file must update them on purpose."""

import hashlib

import pytest

from gridspec.cli import main

from helpers import FIXTURES

DIGESTS = {
    "cashflow": {
        "Model.formulas.csv": "3a727d10e885c662ed07d56b1fdc0035fb403ef907b9db071ce979e545240620",
        "Model.values.csv": "ace4ea3a93400a982a89875ecc2d3b6234b58c057e1bdf65512e493c3bcaf638",
        "Time.formulas.csv": "a4b68b0b144d7fd20903280586665dda90fd1ef7ef3203dd9b9c26a433a84fbf",
        "Time.values.csv": "daee6c69a07e48b5622cc6d06e37cfbf061be0062dc02ad9bb989a4fb43d3fcd",
        "manifest.json": "5c2ec89aa6f3c88381279712ad19abaea18da1eefc15784fbc7d1e598a965adb",
    },
    "borrowing": {
        "Model.formulas.csv": "31f6b0d5aba74801518862779af856109ddba7ad1a21c45dbb53dfbc8301dd2b",
        "Model.values.csv": "3d669c07a03dc1cb2f4ed72ca043f0e7d62c9a04340cf07fed68815eb0faa575",
        "Time.formulas.csv": "a4b68b0b144d7fd20903280586665dda90fd1ef7ef3203dd9b9c26a433a84fbf",
        "Time.values.csv": "daee6c69a07e48b5622cc6d06e37cfbf061be0062dc02ad9bb989a4fb43d3fcd",
        "manifest.json": "edf1b05a4baaffb49ba4ad303bfbfdce172c2f8d7b08909599c15a2e9f8664b6",
    },
    "loans": {
        "Model.formulas.csv": "7c56dd8ceb578bb0a75881340662e8c180621e922e6f5a47a03b969d8f880f5b",
        "Model.values.csv": "4503c989a93d8db8689374eba513ba05f7a3c59f07c4ad453758a2781d2c1708",
        "Time.formulas.csv": "a4b68b0b144d7fd20903280586665dda90fd1ef7ef3203dd9b9c26a433a84fbf",
        "Time.values.csv": "daee6c69a07e48b5622cc6d06e37cfbf061be0062dc02ad9bb989a4fb43d3fcd",
        "manifest.json": "9be8d59eeb0d299224adaa40c5fb5d5105fadad612e0c0313062e29552566948",
    },
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_compiled_fixture_bytes(tmp_path, name):
    out = tmp_path / "out"
    assert main(["compile", str(FIXTURES / f"{name}.gsx"),
                 "--inputs", str(FIXTURES / f"{name}_inputs.csv"), "--out-dir", str(out)]) == 0
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in out.iterdir()}
    assert written == DIGESTS[name]
