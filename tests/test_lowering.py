"""Each equation's element references are lowered once; the cells every
rule instance reads, and the IndexOutOfBounds diagnostics, must equal
those of the per-cell reference expansion in helpers, on the fixtures,
the random draws, documents that cover every cell and all of these with
their references shifted."""

import random

from gridspec import parse_document
from gridspec.analyzer import elaborate, resolve
from gridspec.ast import (
    AllIndex,
    Binary,
    Call,
    ElementRef,
    EquationDecl,
    NumberLit,
    SpecDocument,
    element_refs,
)
from gridspec.evaluator import resolve_references

from helpers import (
    covering_document,
    fixture_text,
    random_document,
    reference_expand_ref,
    reference_ref_bounds,
)


def shifted(expr, rng):
    """`expr` with each index expression of its element references moved
    by an offset of -3..3, so that some references leave their bounds."""
    if isinstance(expr, ElementRef):
        indices = []
        for index in expr.indices:
            offset = rng.randint(-3, 3)
            if not isinstance(index, AllIndex) and offset:
                index = Binary("+" if offset > 0 else "-", index, NumberLit(abs(offset)))
            indices.append(index)
        return ElementRef(expr.table, tuple(indices))
    if isinstance(expr, Binary):
        return Binary(expr.op, shifted(expr.left, rng), shifted(expr.right, rng))
    if isinstance(expr, Call):
        return Call(expr.func, tuple(shifted(arg, rng) for arg in expr.args))
    return expr


def shifted_document(doc, rng):
    return SpecDocument(tuple(
        EquationDecl(e.table, e.lhs_patterns, shifted(e.rhs, rng), e.pos)
        if isinstance(e, EquationDecl) else e for e in doc.elements), doc.comments)


def documents():
    rng = random.Random(20091187)
    docs = [parse_document(fixture_text(name)) for name in ("cashflow", "borrowing", "loans")]
    docs += [random_document(rng) for _ in range(300)]
    docs += [shifted_document(doc, rng) for doc in docs]
    rng = random.Random(611)
    covering = [covering_document(rng) for _ in range(200)]
    return docs + covering + [shifted_document(doc, rng) for doc in covering]


def test_lowering_matches_reference_expansion():
    faulty = read = 0
    for doc in documents():
        symtab, diagnostics = resolve(doc)
        assert diagnostics == []
        plan, diagnostics = elaborate(doc, symtab)
        expected = []
        for cell, rule in plan.rules.items():
            expected.extend(reference_ref_bounds(rule.equation, element_refs(rule.equation.rhs),
                                                 rule.substitution, cell, symtab))
        assert [d for d in diagnostics if d.code == "IndexOutOfBounds"] == expected
        if expected:
            faulty += 1
            continue
        references = resolve_references(plan)
        for cell, rule in plan.rules.items():
            want = []
            for ref in element_refs(rule.equation.rhs):
                cells = reference_expand_ref(ref, rule.substitution, symtab)
                ranged = any(isinstance(index, AllIndex) for index in ref.indices)
                want.append(tuple(cells) if ranged else cells[0])
            reads = references[cell]
            assert reads == tuple(want), cell
            assert [type(r) for r in reads] == [type(w) for w in want], cell
            read += 1
    assert faulty >= 100 and read >= 1000
