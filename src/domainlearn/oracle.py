"""Independent brute-force reference implementations used to validate the
production algorithms and the learners.

The references read the same graph store as production code (a digraph is
stored once, as per-right bitmasks) and compare whole rows of it rather
than single edges; their independence lies in the algorithms: an
all-members pairwise partition with transitivity assertions, whose pair
test is the literal definition (agreement outside the pair, then the four
edges within it) on each vertex's 2k masks packed into one int, a
strong-homomorphism check of every source's row against every image
class, and a backtracking isomorphism search.  Nothing here is on
any measured path: these functions may read teacher ground truth and are
wired only into tests and verify mode.
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
    v)`` and field 2a+1 ``in_mask(a, v)``, field j from bit j*W.  ``every``
    has bit 0 of each field set and ``outs`` bit 0 of each out field, so
    ``pair * every`` selects a pair's bits in every field."""

    row: dict[int, int]
    every: int
    outs: int


def _rows(g: LabeledDigraph) -> _Rows:
    """Read each vertex's 2k masks once and pack them into its row."""
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
    return _Rows(row, every, outs)


def _same(rows: _Rows, u: int, v: int) -> bool:
    """The literal pair test on whole rows (see :class:`_Rows`): u and v
    have the same out- and in-neighbours outside {u, v} under every right
    (the xor of the two rows lies within the pair's bits of every field),
    and under every right the four edges among {u, v} are all present or
    all absent.  The four are bits u and v of an out field in both rows:
    they are all equal when the xor has none of them (u's bits equal v's)
    and, in each out field of u's row, bit u equals bit v.  O(1) big-int
    operations on 2k*W-bit rows."""
    row, every, outs = rows
    ru = row[u]
    diff = ru ^ row[v]
    pair = (1 << u) | (1 << v)
    if diff & pair * every != diff:
        return False
    four = pair * outs
    su = ru & four
    return not diff & four and (su >> u) & outs == (su >> v) & outs


def oracle_partition(
    g: LabeledDigraph, limit: int = ORACLE_VERTEX_LIMIT
) -> list[list[int]]:
    """Indistinguishability classes by exhaustive pairwise comparison.

    Deliberately distinct from the production partition in its algorithm:
    every candidate is compared against *all* current members of a class
    (not just its representative), and a partial match, or a match with more
    than one class, aborts loudly as a transitivity failure instead of being
    merged.  Refuses graphs above the desk-scale ``limit``.

    Each vertex's 2k masks are read once per call, into its row.  Each
    newcomer is compared once with every member of every class, so a call
    on n vertices makes n(n-1)/2 pair tests, each O(1) big-int operations
    on 2k*W-bit rows, W the largest vertex id + 1.
    """
    vertices = g.vertices
    if len(vertices) > limit:
        raise OracleLimitError(
            f"oracle_partition limited to {limit} vertices, got {len(vertices)}"
        )
    rows = _rows(g)

    classes: list[list[int]] = []
    for v in vertices:
        hits, partial = [], []
        for cls in classes:
            matches = [_same(rows, member, v) for member in cls]
            if all(matches):
                hits.append(cls)
            elif any(matches):
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
    edge is enumerated.
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
            # (targets, the part of them every source of x must reach)
            expected = [
                (targets, targets if h.has_edge(x, a, y) else 0)
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


def replay_classification(tree, vertex: int, g: LabeledDigraph) -> int:
    """Walk a decision tree answering its tests from graph edges directly
    (no queries); returns the leaf label the tree would classify to."""
    node = tree
    while not node.is_leaf:
        test = node.test
        answer = g.has_edge(*test.request_for(vertex))
        node = node.yes if answer else node.no
    return node.label


def check_round_invariants(
    ground_truth: LabeledDigraph,
    summary: LabeledDigraph,
    assignment: Mapping[int, int],
    tree=None,
) -> dict[str, str]:
    """Validate a learner's working state against the revealed ground truth.

    Checks, in order: the summary is a subgraph of the revealed graph; the
    assignment is a strong homomorphism onto it; the assignment is
    surjective; the summary is irreducible (its oracle partition has one
    class per vertex); the assignment partition matches the brute-force
    oracle partition; and (when a decision tree is given)
    replaying the tree classifies every revealed vertex to its assigned
    domain, with exactly one leaf per domain.

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
        mismatches = [
            v
            for v in sorted(assignment)
            if replay_classification(tree, v, ground_truth) != assignment[v]
        ]
        if mismatches:
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


def isomorphic_small(
    g1: LabeledDigraph, g2: LabeledDigraph, limit: int = ISOMORPHISM_VERTEX_LIMIT
) -> bool:
    """Decide whether an edge-label-preserving bijection exists between two
    small digraphs.

    Backtracking search over vertices ordered by candidate-pool size, pruned
    by per-vertex degree signatures.  Graphs that differ in k, vertex count
    or edge count are not isomorphic whatever their size; only a search
    above ``limit`` vertices is refused.
    """
    if g1.k != g2.k:
        return False
    if g1.vertex_count != g2.vertex_count or g1.edge_count != g2.edge_count:
        return False
    if g1.vertex_count > limit:
        raise OracleLimitError(
            f"isomorphic_small limited to {limit} vertices, got {g1.vertex_count}"
        )

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
