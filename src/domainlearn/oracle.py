"""Independent brute-force reference implementations used to validate the
production algorithms and the learners.

The references read the same graph store as production code (a digraph is
stored once, as per-right bitmasks) and compare whole rows of it rather
than single edges; their independence lies in the algorithms: an
all-members pairwise partition with transitivity assertions, which tests
each newcomer against a whole class in one call, with the literal
definition as its pair test (agreement outside the pair, then the four
edges within it) on each vertex's 2k masks packed into one int and its
field masks built once, a strong-homomorphism check of every source's
row against every image class, reading each image row once per right,
a decision-tree replay that splits the mask of all revealed vertices once
per node, and a backtracking isomorphism search, which equal graphs skip.
Nothing here is on any measured path: these functions may read teacher
ground truth and are wired only into tests and verify mode.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .digraph import LabeledDigraph

ORACLE_VERTEX_LIMIT = 256
ISOMORPHISM_VERTEX_LIMIT = 12


class OracleLimitError(ValueError):
    """Raised when an input exceeds the oracle's desk-scale limit."""


class _Rows(NamedTuple):
    """Every vertex's 2k masks packed into one int, ``row[v]``, in fields
    of W bits, W the largest vertex id + 1: field 2a holds ``out_mask(a,
    v)`` and field 2a+1 ``in_mask(a, v)``, field j from bit j*W.  With
    ``every`` bit 0 of each field and ``outs`` bit 0 of each out field,
    ``field[v]`` is ``every << v`` (bit v of every field) and ``four[v]``
    is ``outs << v`` (bit v of every out field), built once per vertex, so
    ``field[u] | field[v]`` selects a pair's bits in every field with no
    multiplication."""

    row: dict[int, int]
    field: dict[int, int]
    four: dict[int, int]
    outs: int


def _rows(g: LabeledDigraph) -> _Rows:
    """Read each vertex's 2k masks once and pack them into its row; build
    each vertex's two field masks."""
    vertices = g.vertices
    width = vertices[-1] + 1 if vertices else 0
    out_mask, in_mask = g.out_mask, g.in_mask
    row = dict.fromkeys(vertices, 0)
    every = outs = 0
    for a in range(g.k):
        out_at, in_at = 2 * a * width, (2 * a + 1) * width
        for v in vertices:
            row[v] |= out_mask(a, v) << out_at | in_mask(a, v) << in_at
        every |= 1 << out_at | 1 << in_at
        outs |= 1 << out_at
    field = {v: every << v for v in vertices}
    four = {v: outs << v for v in vertices}
    return _Rows(row, field, four, outs)


def _agreeing(rows: _Rows, members: list[int], v: int) -> int:
    """How many of ``members`` pass the literal pair test with v, on whole
    rows (see :class:`_Rows`): u and v have the same out- and
    in-neighbours outside {u, v} under every right (the xor of the two
    rows lies within the pair's bits of every field), and under every
    right the four edges among {u, v} are all present or all absent.  The
    four are bits u and v of an out field in both rows: they are all equal
    when the xor has none of them (u's bits equal v's) and, in each out
    field of u's row, bit u equals bit v.  Every member is tested, each in
    O(1) big-int operations on 2k*W-bit rows."""
    row, field, four, outs = rows
    rv, fv, qv = row[v], field[v], four[v]
    count = 0
    for u in members:
        ru = row[u]
        diff = ru ^ rv
        if diff & (field[u] | fv) != diff:
            continue
        quad = four[u] | qv
        su = ru & quad
        if not diff & quad and (su >> u) & outs == (su >> v) & outs:
            count += 1
    return count


def oracle_partition(g: LabeledDigraph) -> list[list[int]]:
    """Indistinguishability classes by exhaustive pairwise comparison.

    Deliberately distinct from the production partition in its algorithm:
    every candidate is compared against *all* current members of a class
    (not just its representative), and a partial match, or a match with more
    than one class, aborts loudly as a transitivity failure instead of being
    merged.  Refuses graphs above the desk-scale
    :data:`ORACLE_VERTEX_LIMIT`, read at call time.

    Each vertex's 2k masks are read once per call, into its row, and its
    two field masks are built once per call.  Each newcomer is tested
    against each class in one call, which compares it with every member,
    so a call on n vertices makes n(n-1)/2 pair tests, each O(1) big-int
    operations on 2k*W-bit rows, W the largest vertex id + 1, with no
    multiplication.
    """
    vertices = g.vertices
    if len(vertices) > ORACLE_VERTEX_LIMIT:
        raise OracleLimitError(
            f"oracle_partition limited to {ORACLE_VERTEX_LIMIT} vertices, got {len(vertices)}"
        )
    rows = _rows(g)

    classes: list[list[int]] = []
    for v in vertices:
        hits, partial = [], []
        for cls in classes:
            agreeing = _agreeing(rows, cls, v)
            if agreeing == len(cls):
                hits.append(cls)
            elif agreeing:
                partial.append(cls)
        if partial:
            raise AssertionError(
                f"indistinguishability is not transitive at vertex {v}: {partial}"
            )
        if len(hits) > 1:
            raise AssertionError(
                f"vertex {v} matches multiple classes {hits}: relation not transitive"
            )
        if hits:
            hits[0].append(v)
        else:
            classes.append([v])
    return classes


def is_strong_homomorphism(
    g: LabeledDigraph, h: LabeledDigraph, assignment: Mapping[int, int]
) -> bool:
    """True iff ``assignment`` preserves and reflects labelled edges:
    (u, a, v) in E(G) exactly when (assignment[u], a, assignment[v]) in E(H).

    The definition evaluated per row: for every vertex u mapped to x, right
    a and image y, u's out mask ANDed with the member mask of y must be that
    whole member mask when (x, a, y) is an edge of H and 0 otherwise, so no
    edge is enumerated.  H's row ``out_mask(a, x)`` is read once per image
    class x and right a, and bit y of it says whether (x, a, y) is an edge.
    """
    vertices = g.vertices
    for v in vertices:
        if v not in assignment:
            raise ValueError(f"assignment is not total: vertex {v} unmapped")
    classes: dict[int, list[int]] = {}
    for v in vertices:
        image = assignment[v]
        if not h.has_vertex(image):
            raise ValueError(f"assignment maps {v} to unknown vertex {image}")
        classes.setdefault(image, []).append(v)
    members = {y: sum(1 << v for v in cls) for y, cls in classes.items()}
    for x, sources in classes.items():
        for a in range(g.k):
            image_row = h.out_mask(a, x)
            # (targets, the part of them every source of x must reach)
            expected = [
                (targets, targets if image_row >> y & 1 else 0)
                for y, targets in members.items()
            ]
            for u in sources:
                out = g.out_mask(a, u)
                for targets, reached in expected:
                    if out & targets != reached:
                        return False
    return True


def _assignment_partition(assignment: Mapping[int, int]) -> list[list[int]]:
    by_domain: dict[int, list[int]] = {}
    for v in sorted(assignment):
        by_domain.setdefault(assignment[v], []).append(v)
    return sorted(by_domain.values(), key=lambda cls: cls[0])


# No vertex has this id (ids are non-negative): a test asked about it names
# the cell it asks with the candidate's place marked.
_CANDIDATE = -1


def replay_tree(tree, g: LabeledDigraph, candidates: int) -> list[tuple[int, int]]:
    """Send every vertex of the bitmask ``candidates`` down a decision tree
    at once, answering its tests from g's masks (no queries).  Returns each
    reached leaf's label with the mask of the candidates that reach it, yes
    branches before no branches.

    At each node the mask of candidates that reach it is split by the
    node's test.  Which cell the test asks is read from ``request_for`` of
    a placeholder id: (candidate, a, t) holds for the bits of ``in_mask(a,
    t)``, (w, a, candidate) for the bits of ``out_mask(a, w)``, and
    (candidate, a, candidate) for the vertices with a loop under a.  So a
    replay costs one mask operation per node, not one edge probe per
    vertex and level."""
    loops: dict[int, int] = {}
    reached: list[tuple[int, int]] = []
    pending = [(tree, candidates)]
    while pending:
        node, mask = pending.pop()
        if not mask:
            continue
        if node.is_leaf:
            reached.append((node.label, mask))
            continue
        source, a, target = node.test.request_for(_CANDIDATE)
        if source != _CANDIDATE:
            yes = g.out_mask(a, source)
        elif target != _CANDIDATE:
            yes = g.in_mask(a, target)
        else:
            if a not in loops:
                loops[a] = sum(g.out_mask(a, v) & 1 << v for v in g.vertices)
            yes = loops[a]
        pending.append((node.no, mask & ~yes))
        pending.append((node.yes, mask & yes))
    return reached


def check_round_invariants(
    ground_truth: LabeledDigraph,
    summary: LabeledDigraph,
    assignment: Mapping[int, int],
    tree,
) -> dict[str, str]:
    """Validate a learner's working state against the revealed ground truth.

    Checks, in order: the summary is a subgraph of the revealed graph; the
    assignment is a strong homomorphism onto it; the assignment is
    surjective; the summary is irreducible (its oracle partition has one
    class per vertex); the assignment partition matches the brute-force
    oracle partition; and, unless ``tree`` is None (a learner that keeps
    no decision tree), replaying the tree classifies every revealed vertex
    to its assigned domain, with exactly one leaf per domain.  The tree is
    replayed once, for all assigned vertices together, by
    :func:`replay_tree`.

    Returns the failed checks, name -> detail, in that order; empty when
    every check passes.
    """
    failed: dict[str, str] = {}

    missing_vertices = [v for v in summary.vertices if not ground_truth.has_vertex(v)]
    foreign = any(
        summary.out_mask(a, x) & ~ground_truth.out_mask(a, x)
        for x in summary.vertices
        for a in range(summary.k)
    )
    if missing_vertices or foreign:
        missing_edges = [e for e in summary.edges() if not ground_truth.has_edge(*e)]
        failed["summary-subgraph"] = (
            f"foreign vertices {missing_vertices}, foreign edges {missing_edges}"
        )

    try:
        if not is_strong_homomorphism(ground_truth, summary, assignment):
            failed["strong-homomorphism"] = "some request decided differently by policy"
    except ValueError as exc:
        failed["strong-homomorphism"] = str(exc)

    if set(assignment.values()) != set(summary.vertices):
        failed["assignment-surjective"] = (
            f"range {sorted(set(assignment.values()))} vs "
            f"summary vertices {list(summary.vertices)}"
        )

    if len(oracle_partition(summary)) != summary.vertex_count:
        failed["summary-irreducible"] = "two summary vertices are indistinguishable"

    expected = oracle_partition(ground_truth)
    actual = _assignment_partition(assignment)
    if actual != expected:
        failed["partition-matches-oracle"] = f"assignment {actual} vs oracle {expected}"

    if tree is not None:
        members: dict[int, int] = {}
        for v, domain in assignment.items():
            members[domain] = members.get(domain, 0) | 1 << v
        wrong = 0
        for label, reached in replay_tree(tree, ground_truth, sum(members.values())):
            wrong |= reached & ~members.get(label, 0)
        if wrong:
            mismatches = [v for v in sorted(assignment) if wrong >> v & 1]
            failed["classify-agreement"] = f"misclassified vertices {mismatches}"
        leaf_count = tree.leaf_count
        domain_count = len(set(assignment.values()))
        if leaf_count != domain_count:
            failed["leaf-count"] = f"{leaf_count} leaves vs {domain_count} domains"

    return failed


def _vertex_signature(g: LabeledDigraph, v: int) -> tuple[tuple[int, int, int], ...]:
    # Per-right (out-degree, in-degree, has-loop): preserved by isomorphism.
    sig = []
    for a in range(g.k):
        out = g.out_mask(a, v)
        sig.append((out.bit_count(), g.in_mask(a, v).bit_count(), (out >> v) & 1))
    return tuple(sig)


def isomorphic_small(g1: LabeledDigraph, g2: LabeledDigraph) -> bool:
    """Decide whether an edge-label-preserving bijection exists between two
    small digraphs.

    Backtracking search over vertices ordered by candidate-pool size, pruned
    by per-vertex degree signatures.  Graphs that differ in k, vertex count
    or edge count are not isomorphic whatever their size; only a search
    above :data:`ISOMORPHISM_VERTEX_LIMIT` vertices, read at call time, is
    refused.  Below that limit, equal graphs are isomorphic by the identity
    map and skip the search.
    """
    if g1.k != g2.k:
        return False
    if g1.vertex_count != g2.vertex_count or g1.edge_count != g2.edge_count:
        return False
    if g1.vertex_count > ISOMORPHISM_VERTEX_LIMIT:
        raise OracleLimitError(
            f"isomorphic_small limited to {ISOMORPHISM_VERTEX_LIMIT} vertices, "
            f"got {g1.vertex_count}"
        )
    if g1 == g2:
        return True  # the identity map is an isomorphism

    sig1 = {v: _vertex_signature(g1, v) for v in g1.vertices}
    sig2 = {v: _vertex_signature(g2, v) for v in g2.vertices}
    pool: dict[tuple, list[int]] = {}
    for v in g2.vertices:
        pool.setdefault(sig2[v], []).append(v)
    if sorted(sig1.values()) != sorted(sig2.values()):
        return False

    order = sorted(g1.vertices, key=lambda v: (len(pool[sig1[v]]), v))
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def consistent(u: int, image: int) -> bool:
        for w, w_image in mapping.items():
            for a in range(g1.k):
                if g1.has_edge(u, a, w) != g2.has_edge(image, a, w_image):
                    return False
                if g1.has_edge(w, a, u) != g2.has_edge(w_image, a, image):
                    return False
        for a in range(g1.k):
            if g1.has_edge(u, a, u) != g2.has_edge(image, a, image):
                return False
        return True

    def extend(index: int) -> bool:
        if index == len(order):
            return True
        u = order[index]
        for image in pool[sig1[u]]:
            if image in used or not consistent(u, image):
                continue
            mapping[u] = image
            used.add(image)
            if extend(index + 1):
                return True
            del mapping[u]
            used.discard(image)
        return False

    return extend(0)
