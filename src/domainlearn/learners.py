"""The two policy-administration strategies.

The *tireless* learner deliberates exhaustively: every cell of the growing
access-control matrix is resolved by a connection query, after which the
matrix is re-summarized.  Cost is exactly k*n^2 connection queries after n
rounds, and no hypothesis test ever returns an error.

The *conservative* learner bets that each new entity is indistinguishable
from one already seen.  A decision tree classifies the newcomer into a known
protection domain using at most (leaves - 1) connection queries; a
hypothesis test then either confirms the bet or returns the error set, from
which tree, assignment and summary are repaired without issuing a single
further connection query.  Cost drops to at most k + (n-1)(m-1) connection
queries at the price of at most k(2n+1)(m-1) errors.

Both learners interact with the world only through a monitored
:class:`~domainlearn.protocol.Session`; they hold no channel to ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

from .digraph import Edge, LabeledDigraph, granted
from .protocol import Session
from .summarize import summarize


class LearnerInternalError(RuntimeError):
    """A learner observed a state its algorithm guarantees impossible with a
    truthful teacher (e.g. an error set from a hypothesis it just repaired)."""


# -- decision trees ----------------------------------------------------------


@dataclass(frozen=True)
class Loop:
    """Test: does the candidate have a self-loop labelled ``right``?"""

    right: int

    def request_for(self, candidate: int) -> Edge:
        return (candidate, self.right, candidate)

    def describe(self) -> str:
        return f"loop(r{self.right})"


@dataclass(frozen=True)
class To:
    """Test: does the candidate have an edge labelled ``right`` to ``target``?"""

    right: int
    target: int

    def request_for(self, candidate: int) -> Edge:
        return (candidate, self.right, self.target)

    def describe(self) -> str:
        return f"to(r{self.right}, {self.target})"


@dataclass(frozen=True)
class From:
    """Test: does ``source`` have an edge labelled ``right`` to the candidate?"""

    source: int
    right: int

    def request_for(self, candidate: int) -> Edge:
        return (self.source, self.right, candidate)

    def describe(self) -> str:
        return f"from({self.source}, r{self.right})"


DecisionTest = Loop | To | From


class TreeNode:
    """Binary decision tree node; a leaf iff ``test`` is None.

    Leaves carry the representative vertex of one protection domain.
    Internal nodes carry a test whose yes/no branches are themselves trees.
    Revision mutates leaves into internal nodes in place.
    """

    __slots__ = ("label", "test", "yes", "no")

    def __init__(
        self,
        label: int | None = None,
        test: DecisionTest | None = None,
        yes: "TreeNode | None" = None,
        no: "TreeNode | None" = None,
    ):
        self.label = label
        self.test = test
        self.yes = yes
        self.no = no

    @classmethod
    def leaf(cls, label: int) -> "TreeNode":
        return cls(label=label)

    @property
    def is_leaf(self) -> bool:
        return self.test is None

    def split(self, test: DecisionTest, yes_label: int, no_label: int) -> tuple["TreeNode", "TreeNode"]:
        """Turn this leaf into a decision node with two fresh leaves."""
        if not self.is_leaf:
            raise ValueError("only leaves can be split")
        self.label = None
        self.test = test
        self.yes = TreeNode.leaf(yes_label)
        self.no = TreeNode.leaf(no_label)
        return self.yes, self.no

    def leaves(self) -> Iterator["TreeNode"]:
        """Leaves in left-to-right (yes before no) order."""
        if self.is_leaf:
            yield self
        else:
            yield from self.yes.leaves()
            yield from self.no.leaves()

    @property
    def leaf_count(self) -> int:
        return sum(1 for _ in self.leaves())

    def __repr__(self) -> str:
        if self.is_leaf:
            return f"TreeNode.leaf({self.label})"
        return f"TreeNode(test={self.test!r}, ...)"


def classify(tree: TreeNode, candidate: int, query: Callable[[int, int, int], bool]) -> int:
    """Classify ``candidate`` to a leaf label by walking the tree.

    ``query(u, a, v)`` answers edge-existence questions; each internal node
    on the path costs exactly one query, so the total is at most
    (leaf count - 1).
    """
    node = tree
    while not node.is_leaf:
        answer = query(*node.test.request_for(candidate))
        node = node.yes if answer else node.no
    return node.label


def tree_to_text(tree: TreeNode) -> str:
    """Indented preorder dump of a decision tree."""
    lines: list[str] = []

    def walk(node: TreeNode, depth: int) -> None:
        pad = "  " * depth
        if node.is_leaf:
            lines.append(f"{pad}leaf {node.label}")
        else:
            lines.append(f"{pad}node {node.test.describe()}")
            walk(node.yes, depth + 1)
            walk(node.no, depth + 1)

    walk(tree, 0)
    return "\n".join(lines) + "\n"


def tree_to_dot(tree: TreeNode) -> str:
    """DOT rendering: decision nodes annotated with their tests, yes/no arcs."""
    lines = ["digraph decision_tree {"]
    counter = 0

    def walk(node: TreeNode) -> str:
        nonlocal counter
        node_id = f"n{counter}"
        counter += 1
        if node.is_leaf:
            lines.append(f'  {node_id} [shape=box, label="leaf: {node.label}"];')
        else:
            lines.append(f'  {node_id} [label="{node.test.describe()}"];')
            yes_id = walk(node.yes)
            no_id = walk(node.no)
            lines.append(f'  {node_id} -> {yes_id} [label="yes"];')
            lines.append(f'  {node_id} -> {no_id} [label="no"];')
        return node_id

    walk(tree)
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- error-set reasoning -----------------------------------------------------


def revise(
    tree: TreeNode,
    summary: LabeledDigraph,
    frozen: Mapping[int, int],
    new_vertex: int,
    errors: frozenset[Edge],
) -> dict[int, int]:
    """Repair tree and assignment after a failed indistinguishability bet.

    Input contract: (summary, assignment, tree) satisfied the learner's
    invariants before ``new_vertex`` arrived, the tree classified it to the
    domain ``frozen[new_vertex]``, ``frozen`` is that assignment extended by
    the newcomer, and the hypothesis test of (summary, frozen) returned the
    non-empty set ``errors`` of wrongly decided requests.  ``frozen`` and
    ``errors`` drive all edge deductions; no connection query is issued.
    The tree is split in place; ``frozen`` is left as it is, and the
    repaired assignment is returned as a new dict.

    Every error involves the newcomer x: the previous round closed on a
    clean test of the same summary, and the frozen assignment keeps the
    earlier vertices' domains.  So on a leaf of two or more members only
    x's own loop can be wrong.  Leaves start as frozen classes and only
    split, so the members of a leaf share one frozen domain and, for any
    test, the policy bit ``summary.has_edge(frozen[u], a, frozen[v])`` of
    their requests (u, a, v) is one constant.  A test therefore separates
    a leaf exactly when its error column
    ``[test.request_for(v) in errors for v in members]`` is mixed, and a
    member's request is an edge (the yes side) exactly when its error bit
    differs from that policy bit.  A mixed column leaves neither side
    empty.

    Each leaf travels with its sorted members; one member is final.  For
    more, the candidate tests are tried in one fixed order, rights
    ascending within each group: ``To(a, x)``, ``From(x, a)``, ``Loop(a)``,
    then for every revealed witness w other than x (ascending id)
    ``To(a, w)`` before ``From(w, a)``; at w = x they would repeat the first
    two groups.  The witnesses catch a newcomer that agrees with its guessed
    class on every pairwise edge yet differs from it through a third party.
    The first test with a mixed column splits the leaf into two, each
    labelled by its minimum member and taken in turn.  Each side's column
    is constant on that test and on every test before it, so its search
    resumes after the split test.  A split reads only its own members and
    the frozen inputs and writes only their entries and its own subtree, so
    the order in which leaves are taken is free.  Each split adds one leaf.
    """
    updated = dict(frozen)
    classes: dict[int, list[int]] = {}
    for v in sorted(frozen):
        classes.setdefault(frozen[v], []).append(v)
    pending = [(leaf, classes[leaf.label], 0) for leaf in tree.leaves()]
    rights = range(summary.k)
    candidates: list[DecisionTest] = [
        *(To(a, new_vertex) for a in rights),
        *(From(new_vertex, a) for a in rights),
        *(Loop(a) for a in rights),
        *(
            test
            for w in sorted(frozen)
            if w != new_vertex
            for a in rights
            for test in (To(a, w), From(w, a))
        ),
    ]

    while pending:
        leaf, members, start = pending.pop()
        if len(members) < 2:
            continue
        for index in range(start, len(candidates)):
            split_test = candidates[index]
            column = [split_test.request_for(v) in errors for v in members]
            if any(column) and not all(column):
                break
        else:
            continue

        source, right, target = split_test.request_for(members[0])
        allowed = summary.has_edge(frozen[source], right, frozen[target])
        yes_side = [v for v, error in zip(members, column) if error != allowed]
        no_side = [v for v, error in zip(members, column) if error == allowed]
        yes_leaf, no_leaf = leaf.split(split_test, yes_side[0], no_side[0])
        for side in (yes_side, no_side):
            for v in side:
                updated[v] = side[0]
        pending += [(yes_leaf, yes_side, index + 1), (no_leaf, no_side, index + 1)]

    return updated


# -- the learners ------------------------------------------------------------


class Learner:
    """State every strategy exposes after a completed round: the released
    ``summary`` and ``assignment``, the decision ``tree`` (None before the
    first round and for a learner that keeps none) and the
    ``reconstruction`` of the revealed matrix (None for a learner that does
    not rebuild it).

    Each strategy defines its own ``run_round``, which plays one round
    through the session.
    """

    def __init__(self, session: Session):
        self._session = session
        self.summary: LabeledDigraph | None = None
        self.assignment: dict[int, int] = {}
        self.tree: TreeNode | None = None
        self.reconstruction: LabeledDigraph | None = None


class TirelessLearner(Learner):
    """Exhaustive strategy: resolve every matrix cell, then re-summarize.
    Its ``reconstruction`` equals the revealed matrix after every round."""

    def __init__(self, session: Session):
        super().__init__(session)
        self.reconstruction = LabeledDigraph(session.k)

    def run_round(self) -> None:
        session = self._session
        graph = self.reconstruction
        u = session.next_vertex()
        graph.add_vertex(u)
        vertices = graph.vertices
        connection = session.connection
        for a in range(session.k):
            targets = sources = 0
            for v in vertices:
                if connection(u, a, v):
                    targets |= 1 << v
            for v in vertices:
                if v != u and connection(v, a, u):
                    sources |= 1 << v
            graph.connect(u, a, targets, sources)
        summary, assignment = summarize(graph)
        errors = session.hypothesis_test(summary, assignment)
        if errors:
            raise LearnerInternalError(
                f"tireless hypothesis of an exactly-known matrix returned "
                f"{len(errors)} errors"
            )
        self.summary, self.assignment = summary, assignment


class ConservativeLearner(Learner):
    """Occam's-razor strategy: presume newcomers are not novel; repair on
    proof to the contrary."""

    def run_round(self) -> None:
        if self.tree is None:
            self._first_round()
        else:
            self._later_round()

    def _first_round(self) -> None:
        session = self._session
        u = session.next_vertex()
        summary = LabeledDigraph(session.k, [u])
        for a in range(session.k):
            if session.connection(u, a, u):
                summary.add_edge(u, a, u)
        self.summary = summary
        self.assignment = {u: u}
        self.tree = TreeNode.leaf(u)
        errors = session.hypothesis_test(self.summary, self.assignment)
        if errors:
            raise LearnerInternalError(
                "initial single-vertex hypothesis returned errors"
            )

    def _later_round(self) -> None:
        session = self._session
        u = session.next_vertex()
        # The bet extends the released assignment in place.
        frozen = self.assignment
        frozen[u] = classify(self.tree, u, session.connection)
        errors = session.hypothesis_test(self.summary, frozen)
        if not errors:
            return
        # The newcomer is novel: repair tree/assignment from the error set,
        # then rebuild the summary over the new representatives.  All edge
        # knowledge comes from the frozen (summary, assignment, errors)
        # snapshot; no connection query is issued past this point.
        self.assignment = revise(self.tree, self.summary, frozen, u, errors)
        representatives = sorted(leaf.label for leaf in self.tree.leaves())
        members: dict[int, int] = {}  # the representatives by frozen domain
        for x in representatives:
            members[frozen[x]] = members.get(frozen[x], 0) | (1 << x)
        grants = granted(self.summary, members)
        wrong: dict[tuple[int, int], int] = {}
        for x, a, y in errors:
            wrong[(x, a)] = wrong.get((x, a), 0) | (1 << y)
        kept = sum(members.values())
        rebuilt = LabeledDigraph(session.k, representatives)
        for x in representatives:
            for a in range(session.k):
                # (x, a, y) is an edge iff the frozen policy grants it xor it
                # was an error: a wrong grant is no edge, a wrong denial is one
                targets = grants.get((frozen[x], a), 0) ^ wrong.get((x, a), 0)
                rebuilt.connect(x, a, targets & kept, 0)
        self.summary = rebuilt
        confirm = session.hypothesis_test(self.summary, self.assignment)
        if confirm:
            raise LearnerInternalError(
                f"hypothesis test after revision returned {len(confirm)} errors"
            )


_LEARNERS = {"tireless": TirelessLearner, "conservative": ConservativeLearner}
LEARNER_KINDS = tuple(_LEARNERS)
# the kinds whose learner keeps a decision tree
TREE_LEARNER_KINDS = ("conservative",)


def make_learner(kind: str, session: Session) -> Learner:
    if kind not in _LEARNERS:
        raise ValueError(f"unknown learner kind {kind!r}; expected one of {LEARNER_KINDS}")
    return _LEARNERS[kind](session)
