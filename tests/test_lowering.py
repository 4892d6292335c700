"""Each equation's element references are lowered once; the cells every
rule instance reads, and the IndexOutOfBounds diagnostics, must equal
those of the per-cell reference expansion in helpers, on the fixtures,
the random draws, documents that cover every cell and all of these with
their references shifted, and with indices that cancel or repeat a
variable.  A document that analyzes clean is covered an equation at a
time, never a cell at a time."""

import random

from gridspec import analyzer, parse_document
from gridspec.analyzer import analyze, elaborate, resolve
from gridspec.ast import (
    AllIndex,
    Binary,
    Call,
    ConstantPattern,
    ElementRef,
    EquationDecl,
    Hole,
    IndexVar,
    NumberLit,
    SpecDocument,
)
from gridspec.evaluator import resolve_references

from helpers import (
    covering_document,
    element_refs,
    fixture_text,
    random_document,
    reference_expand_ref,
    reference_ref_bounds,
    walk,
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


def recast(expr, names, rng):
    """`expr` with each index expression `e` of its element references
    written as `v - v + e` for a variable `v` of `names`, as `e + e - e`,
    or left as it is: the same values through terms that cancel."""
    if isinstance(expr, ElementRef):
        indices = []
        for index in expr.indices:
            form = rng.randrange(3)
            if isinstance(index, AllIndex) or not form or form == 1 and not names:
                indices.append(index)
            elif form == 1:
                var = IndexVar(rng.choice(names))
                indices.append(Binary("+", Binary("-", var, var), index))
            else:
                indices.append(Binary("-", Binary("+", index, index), index))
        return ElementRef(expr.table, tuple(indices))
    if isinstance(expr, Binary):
        return Binary(expr.op, recast(expr.left, names, rng), recast(expr.right, names, rng))
    if isinstance(expr, Call):
        return Call(expr.func, tuple(recast(arg, names, rng) for arg in expr.args))
    return expr


def recast_document(doc, rng):
    return SpecDocument(tuple(
        EquationDecl(e.table, e.lhs_patterns, recast(e.rhs, [
            p.name for p in e.lhs_patterns if not isinstance(p, ConstantPattern)], rng), e.pos)
        if isinstance(e, EquationDecl) else e for e in doc.elements), doc.comments)


CANCELLING = parse_document(
    "bounds t: 1 to 5.\ntable x : t -> number.\ntable y : t -> number.\n"
    "y[ t ] = x[ t - t + 1 ] + x[ t + t - t ].\n")


def documents():
    rng = random.Random(20091187)
    docs = [parse_document(fixture_text(name)) for name in ("cashflow", "borrowing", "loans")]
    docs += [random_document(rng) for _ in range(300)]
    docs += [shifted_document(doc, rng) for doc in docs]
    docs += [recast_document(doc, rng) for doc in docs]
    rng = random.Random(611)
    covering = [covering_document(rng) for _ in range(200)]
    covering += [shifted_document(doc, rng) for doc in covering]
    return [CANCELLING] + docs + covering + [recast_document(doc, rng) for doc in covering]


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


def test_clean_documents_match_no_cell(monkeypatch):
    """Bounds are checked exactly at the corners of each equation's boxes,
    so a document without diagnostics never falls back to matching
    patterns cell by cell."""
    calls = []
    match_patterns = analyzer.match_patterns
    monkeypatch.setattr(analyzer, "match_patterns",
                        lambda *args: calls.append(args) or match_patterns(*args))
    clean = 0
    for doc in documents():
        del calls[:]
        _, plan, diagnostics = analyze(doc)
        if not diagnostics:
            assert plan is not None and calls == [], doc
            clean += 1
    assert clean >= 600


def test_cancelling_indices_take_one_box():
    symtab, plan, diagnostics = analyze(CANCELLING)
    assert diagnostics == []
    stencil = next(iter(symtab.stencils.values()))
    assert [indices for _, indices, _, _ in stencil.refs] == [((1, ()),), ((0, ((0, 1),)),)]
    assert [len(boxes) for boxes in plan.boxes.values()] == [1]


def test_templates_match_the_stencils():
    """An equation's template holds a Hole in place of each reference: the
    slots are 0 to len(refs) - 1 in walk order, each ranged as its
    reference is, and refs holds the right-hand side's own references."""
    for doc in documents():
        symtab, _ = resolve(doc)
        for equation in doc.elements:
            if not isinstance(equation, EquationDecl):
                continue
            stencil = symtab.stencils[id(equation)]
            nodes = walk(stencil.template)
            holes = [node for node in nodes if type(node) is Hole]
            assert [hole.slot for hole in holes] == list(range(len(stencil.refs)))
            assert [hole.ranged for hole in holes] == [ranged for *_, ranged in stencil.refs]
            refs = element_refs(equation.rhs)
            assert len(refs) == len(stencil.refs)
            assert all(ref is node for ref, (node, *_) in zip(refs, stencil.refs))
            assert ElementRef not in map(type, nodes)
