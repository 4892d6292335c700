"""The box schedule: an evaluation order for a plan, proved once per box.

Every read is affine in its box's variables, so an order can be proved
once per box rather than found cell by cell: the scheduling of uniform
recurrences (Karp, Miller and Winograd, 1967; Lamport's hyperplane
method, 1974), here along one bound.  A plan that this cannot order is
evaluated in the per-cell order of evaluator.order_cells.
"""

from __future__ import annotations

from .analyzer import CellPlan, extremes


def schedule(plan: CellPlan) -> list | None:
    """The plan's boxes in an order that evaluates every cell after the
    cells it reads, or None where this finds none.  Each step is a Box,
    evaluated whole, or a sweep `(slices, members)`, evaluated a slice at
    a time: a member `(box, n, first, last)` runs the box's variable `n`
    over the slices `first` to `last` or, for None, is evaluated whole at
    slice `first`.

    Box A goes before box B when a read of B's stencil can land in A's
    cells (see _box_graph), and the strongly connected components of that
    graph, over every box of the plan, go in topological order.  A
    component with no internal edge is its box; any other needs a sweep
    (see _sweep)."""
    boxes = [box for table in plan.boxes.values() for box in table]
    sources = _box_graph(boxes)
    steps = []
    for members in _strong_components([[a for _, a in lands] for lands in sources]):
        if len(members) == 1 and all(a != members[0] for _, a in sources[members[0]]):
            steps.append(boxes[members[0]])
        elif (sweep := _sweep(plan, boxes, members, sources)) is not None:
            steps.append(sweep)
        else:
            return None
    return steps


def _box_graph(boxes: list) -> list[list[tuple[int, int]]]:
    """Per box, `(slot, a)` for each box `boxes[a]` that the read at `slot`
    of its stencil can land in: on every dimension, the read's extremes
    over the box (its bound's for `all`) meet those of `boxes[a]`'s cells."""
    covers = {}
    for a, box in enumerate(boxes):
        covers.setdefault(box.stencil.equation.table, []).append(
            (a, [extremes(form, box.spans) for form in box.stencil.home]))
    sources = []
    for box in boxes:
        lands = []
        for slot, (ref, indices, extent, _) in enumerate(box.stencil.refs):
            if ref.table not in covers:
                continue
            reach = [(low, high) if index is None else extremes(index, box.spans)
                     for index, (_, low, high) in zip(indices, extent.axes)]
            for a, cover in covers[ref.table]:
                for (least, greatest), (first, last) in zip(reach, cover):
                    if greatest < first or last < least:
                        break
                else:
                    lands.append((slot, a))
        sources.append(lands)
    return sources


def _strong_components(sources: list[list[int]]) -> list[list[int]]:
    """The strongly connected components of the graph in which `sources[b]`
    lists the nodes with an edge to b, each after those with an edge into
    it: Tarjan's algorithm, run along the edges backwards.  A node is in
    `low` from when it is reached until its component is complete."""
    found, low, stack, work, components = {}, {}, [], [], []

    def reach(node):
        found[node] = low[node] = len(found)
        stack.append(node)
        work.append((node, iter(sources[node])))

    for root in range(len(sources)):
        if root not in found:
            reach(root)
        while work:
            node, edges = work[-1]
            for other in edges:
                if other not in found:
                    reach(other)
                    break
                if other in low:
                    low[node] = min(low[node], found[other])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == found[node]:
                    component = [stack.pop()]
                    while component[-1] != node:
                        component.append(stack.pop())
                    for member in component:
                        del low[member]
                    components.append(sorted(component))
    return components


def _sweep(plan: CellPlan, boxes: list, members: list[int], sources: list):
    """`(slices, members)` for a component with internal edges: the values
    of a bound that every table of the component indexes exactly once, and
    the component's boxes in the order that each slice runs them (see
    _same_slice).  None where no bound is a sweep."""
    tables = plan.symtab.tables
    names = {boxes[m].stencil.equation.table for m in members}
    for bound in tables[boxes[members[0]].stencil.equation.table].dims:
        if any(tables[name].dims.count(bound) != 1 for name in names):
            continue
        position = {name: tables[name].dims.index(bound) for name in names}
        after = _same_slice(boxes, members, sources, position)
        if after is None:
            continue
        components = _strong_components(after)
        # a box that reads itself in its own slice is a cycle too
        if any(len(group) > 1 or group[0] in after[group[0]] for group in components):
            continue
        order = []
        for [k] in components:
            box = boxes[members[k]]
            # a left-hand form is one variable or a constant
            own = box.stencil.home[position[box.stencil.equation.table]]
            order.append((box, own[1][0][0] if own[1] else None, *extremes(own, box.spans)))
        low, high = plan.symtab.bounds[bound]
        return range(low, high + 1), order
    return None


def _same_slice(boxes: list, members: list[int], sources: list, position: dict):
    """Per box of a component, in the order of `members`, the positions in
    `members` of the boxes that it may read in its own slice of the bound
    at `position` (per table, its dimension), or None where some box may
    read a later slice.  A read's index on the bound less the reader's own
    is affine, so its greatest value over the reader's box is exact at the
    corners; `all` reads up to the bound's high end."""
    inside, after = {m: k for k, m in enumerate(members)}, []
    for m in members:
        stencil, spans = boxes[m].stencil, boxes[m].spans
        own = stencil.home[position[stencil.equation.table]]
        after.append([])
        for slot, a in sources[m]:
            if a not in inside:
                continue
            ref, indices, extent, _ = stencil.refs[slot]
            d = position[ref.table]
            index = indices[d] or (extent.axes[d][2], ())
            coefficients = dict(index[1])
            for n, coefficient in own[1]:
                coefficients[n] = coefficients.get(n, 0) - coefficient
            gap = extremes((index[0] - own[0], tuple(coefficients.items())), spans)[1]
            if gap > 0:
                return None
            if gap == 0:
                after[-1].append(inside[a])
    return after
