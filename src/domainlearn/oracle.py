"""Independent brute-force reference implementations used to validate the
production algorithms and the learners.

The references read the same graph store as production code (a digraph is
stored once, as per-right bitmasks); their independence lies in the
algorithms: the literal definition of indistinguishability, an all-members
pairwise partition with transitivity assertions, and a backtracking
isomorphism search.  Nothing here is on any measured path: these functions
may read teacher ground truth and are wired only into tests and verify mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .digraph import LabeledDigraph, is_irreducible, is_strong_homomorphism

ORACLE_VERTEX_LIMIT = 256
ISOMORPHISM_VERTEX_LIMIT = 12


class OracleLimitError(ValueError):
    """Raised when an input exceeds the oracle's desk-scale limit."""


def indistinguishable(g: LabeledDigraph, u: int, v: int) -> bool:
    """True iff u and v have identical labelled adjacency toward every vertex,
    with the pair itself treated interchangeably.

    This is the literal definitional check, linear in |V| * k: for every
    right the four pair edges (u,a,u), (u,a,v), (v,a,u), (v,a,v) must be all
    present or all absent, and every third vertex x must see u and v
    identically in both directions.
    """
    for x in (u, v):
        if not g.has_vertex(x):
            raise ValueError(f"vertex {x} not in graph")
    if u == v:
        return True
    for a in range(g.k):
        four = (
            g.has_edge(u, a, u),
            g.has_edge(u, a, v),
            g.has_edge(v, a, u),
            g.has_edge(v, a, v),
        )
        if any(four) and not all(four):
            return False
    for x in g.vertices:
        if x == u or x == v:
            continue
        for a in range(g.k):
            if g.has_edge(u, a, x) != g.has_edge(v, a, x):
                return False
            if g.has_edge(x, a, u) != g.has_edge(x, a, v):
                return False
    return True


def oracle_partition(
    g: LabeledDigraph, limit: int = ORACLE_VERTEX_LIMIT
) -> list[list[int]]:
    """Indistinguishability classes by exhaustive pairwise comparison.

    Deliberately distinct from the production partition in its algorithm:
    every candidate is compared against *all* current members of a class
    (not just its representative), and a partial match, or a match with more
    than one class, aborts loudly as a transitivity failure instead of being
    merged.  Refuses graphs above the desk-scale ``limit``.
    """
    vertices = g.vertices
    if len(vertices) > limit:
        raise OracleLimitError(
            f"oracle_partition limited to {limit} vertices, got {len(vertices)}"
        )
    out_mask, in_mask = g.out_mask, g.in_mask
    k = g.k

    def same(u: int, v: int) -> bool:
        pair = (1 << u) | (1 << v)
        for a in range(k):
            ou = out_mask(a, u)
            ov = out_mask(a, v)
            four = (
                ((ou >> u) & 1) + ((ou >> v) & 1) + ((ov >> u) & 1) + ((ov >> v) & 1)
            )
            if four != 0 and four != 4:
                return False
            if (ou ^ ov) & ~pair:
                return False
            if (in_mask(a, u) ^ in_mask(a, v)) & ~pair:
                return False
        return True

    classes: list[list[int]] = []
    for v in vertices:
        hits = [cls for cls in classes if all(same(member, v) for member in cls)]
        partial = [
            cls
            for cls in classes
            if cls not in hits and any(same(member, v) for member in cls)
        ]
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


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class InvariantReport:
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


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
    *,
    limit: int = ORACLE_VERTEX_LIMIT,
) -> InvariantReport:
    """Validate a learner's working state against the revealed ground truth.

    Checks, in order: the summary is a subgraph of the revealed graph; the
    assignment is a strong homomorphism onto it; the assignment is
    surjective; the summary is irreducible; the assignment partition matches
    the brute-force oracle partition; and (when a decision tree is given)
    replaying the tree classifies every revealed vertex to its assigned
    domain, with exactly one leaf per domain.
    """
    checks: list[CheckResult] = []

    missing_vertices = [v for v in summary.vertices if not ground_truth.has_vertex(v)]
    missing_edges = [e for e in summary.edges() if not ground_truth.has_edge(*e)]
    checks.append(
        CheckResult(
            "summary-subgraph",
            not missing_vertices and not missing_edges,
            f"foreign vertices {missing_vertices}, foreign edges {missing_edges}"
            if missing_vertices or missing_edges
            else "",
        )
    )

    try:
        hom = is_strong_homomorphism(ground_truth, summary, assignment)
        detail = "" if hom else "some request decided differently by policy"
    except ValueError as exc:
        hom = False
        detail = str(exc)
    checks.append(CheckResult("strong-homomorphism", hom, detail))

    surjective = set(assignment.values()) == set(summary.vertices)
    checks.append(
        CheckResult(
            "assignment-surjective",
            surjective,
            ""
            if surjective
            else f"range {sorted(set(assignment.values()))} vs "
            f"summary vertices {list(summary.vertices)}",
        )
    )

    irreducible = is_irreducible(summary)
    checks.append(
        CheckResult(
            "summary-irreducible",
            irreducible,
            "" if irreducible else "two summary vertices are indistinguishable",
        )
    )

    expected = oracle_partition(ground_truth, limit=limit)
    actual = _assignment_partition(assignment)
    checks.append(
        CheckResult(
            "partition-matches-oracle",
            actual == expected,
            "" if actual == expected else f"assignment {actual} vs oracle {expected}",
        )
    )

    if tree is not None:
        mismatches = [
            v
            for v in sorted(assignment)
            if replay_classification(tree, v, ground_truth) != assignment[v]
        ]
        checks.append(
            CheckResult(
                "classify-agreement",
                not mismatches,
                "" if not mismatches else f"misclassified vertices {mismatches}",
            )
        )
        leaf_count = tree.leaf_count
        domain_count = len(set(assignment.values()))
        checks.append(
            CheckResult(
                "leaf-count",
                leaf_count == domain_count,
                ""
                if leaf_count == domain_count
                else f"{leaf_count} leaves vs {domain_count} domains",
            )
        )

    return InvariantReport(tuple(checks))


def _vertex_signature(g: LabeledDigraph, v: int) -> tuple[tuple[int, int, int], ...]:
    # Per-right (out-degree, in-degree, has-loop): preserved by isomorphism.
    sig = []
    for a in range(g.k):
        out = g.out_mask(a, v)
        sig.append((bin(out).count("1"), bin(g.in_mask(a, v)).count("1"), (out >> v) & 1))
    return tuple(sig)


def isomorphic_small(
    g1: LabeledDigraph, g2: LabeledDigraph, limit: int = ISOMORPHISM_VERTEX_LIMIT
) -> bool:
    """Decide whether an edge-label-preserving bijection exists between two
    small digraphs.

    Backtracking search over vertices ordered by candidate-pool size, pruned
    by per-vertex degree signatures.  Refuses graphs above ``limit``.
    """
    if g1.vertex_count > limit or g2.vertex_count > limit:
        raise OracleLimitError(
            f"isomorphic_small limited to {limit} vertices, got "
            f"{g1.vertex_count} and {g2.vertex_count}"
        )
    if g1.k != g2.k:
        return False
    if g1.vertex_count != g2.vertex_count or g1.edge_count != g2.edge_count:
        return False

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
