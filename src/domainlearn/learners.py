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

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

from .digraph import DomainPolicy, Edge, ErrorSet, LabeledDigraph
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

    def describe(self, names) -> str:
        return f"loop({names[self.right].name})"


@dataclass(frozen=True)
class To:
    """Test: does the candidate have an edge labelled ``right`` to ``target``?"""

    right: int
    target: int

    def request_for(self, candidate: int) -> Edge:
        return (candidate, self.right, self.target)

    def describe(self, names) -> str:
        return f"to({names[self.right].name}, {self.target})"


@dataclass(frozen=True)
class From:
    """Test: does ``source`` have an edge labelled ``right`` to the candidate?"""

    source: int
    right: int

    def request_for(self, candidate: int) -> Edge:
        return (self.source, self.right, candidate)

    def describe(self, names) -> str:
        return f"from({self.source}, {names[self.right].name})"


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


def tree_to_text(tree: TreeNode, alphabet) -> str:
    """Indented preorder dump of a decision tree."""
    lines: list[str] = []

    def walk(node: TreeNode, depth: int) -> None:
        pad = "  " * depth
        if node.is_leaf:
            lines.append(f"{pad}leaf {node.label}")
        else:
            lines.append(f"{pad}node {node.test.describe(alphabet)}")
            walk(node.yes, depth + 1)
            walk(node.no, depth + 1)

    walk(tree, 0)
    return "\n".join(lines) + "\n"


def tree_to_dot(tree: TreeNode, alphabet) -> str:
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
            lines.append(f'  {node_id} [label="{node.test.describe(alphabet)}"];')
            yes_id = walk(node.yes)
            no_id = walk(node.no)
            lines.append(f'  {node_id} -> {yes_id} [label="yes"];')
            lines.append(f'  {node_id} -> {no_id} [label="no"];')
        return node_id

    walk(tree)
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- error-set reasoning -----------------------------------------------------


def edg(
    u: int,
    a: int,
    v: int,
    summary: LabeledDigraph,
    assignment: Mapping[int, int],
    errors: ErrorSet,
) -> bool:
    """Whether (u, a, v) is an edge of the revealed subgraph, deduced from a
    tested hypothesis instead of a connection query.

    ``errors`` must be the hypothesis-test response for exactly
    (summary, assignment).  The request is an edge iff the policy decision
    and the error verdict disagree in the xor sense: either the policy
    allows it and it is not an error, or the policy denies it and it is.
    """
    allowed = summary.has_edge(assignment[u], a, assignment[v])
    return allowed != ((u, a, v) in errors)


ReviseObserver = Callable[[TreeNode, dict[int, int], tuple[TreeNode, ...]], None]


def revise(
    tree: TreeNode,
    summary: LabeledDigraph,
    assignment: Mapping[int, int],
    new_vertex: int,
    guess: int,
    errors: ErrorSet,
    *,
    observer: ReviseObserver | None = None,
) -> tuple[TreeNode, dict[int, int]]:
    """Repair tree and assignment after a failed indistinguishability bet.

    Input contract: (summary, assignment, tree) satisfied the learner's
    invariants before ``new_vertex`` arrived, the tree classified it to
    ``guess``, and the hypothesis test of (summary, assignment[new->guess])
    returned the non-empty ``errors``.  The frozen extended assignment and
    ``errors`` drive all edge deductions; no connection query is issued.

    Every leaf enters a FIFO worklist.  For each leaf's partition the three
    error-discrepancy patterns are probed in fixed order (edges into the new
    vertex, edges out of it, self-loops), scanning rights in ascending
    order.  Those three patterns miss one real case: the newcomer can agree
    with its guessed class on every pairwise edge yet differ from it through
    a third-party witness, in which case all the resulting errors sit
    uniformly on the witness's class and none of the patterns fire.  A
    fallback sweep therefore probes every revealed witness (ascending id,
    rights ascending, incoming test before outgoing) for a mixed deduced
    edge column over the partition.  Error membership alone decides whether
    a column is mixed: leaves start as frozen classes and only split, so all
    members of a leaf share one frozen domain, the policy term of
    :func:`edg` is constant over them, and a column is mixed exactly when
    its error membership is.  The first hit of either stage splits
    the partition around the deduced edge truth, relabels both sides by
    their minimum member, and re-enqueues the two new leaves.  Runs within
    2m worklist iterations for m final partitions.

    ``observer`` (instrumented builds only) is called at the top of every
    worklist iteration with the tree, the evolving assignment, and the
    pending leaves.
    """
    frozen = dict(assignment)
    frozen[new_vertex] = guess
    updated = dict(frozen)
    worklist: deque[TreeNode] = deque(tree.leaves())
    k = summary.k
    # 2m iterations suffice in theory; |updated| bounds m, the rest is slack.
    budget = 4 * len(updated) + 8

    def deduced(u: int, a: int, v: int) -> bool:
        return edg(u, a, v, summary, frozen, errors)

    while worklist:
        if observer is not None:
            observer(tree, updated, tuple(worklist))
        budget -= 1
        if budget < 0:
            raise LearnerInternalError(
                "revision worklist exceeded its iteration budget; "
                "input contract violated"
            )
        leaf = worklist.popleft()
        members = sorted(v for v, rep in updated.items() if rep == leaf.label)

        split_test: DecisionTest | None = None
        probe: Callable[[int], Edge] | None = None
        for a in range(k):
            flags = [(v, a, new_vertex) in errors for v in members]
            if any(flags) and not all(flags):
                split_test = To(a, new_vertex)
                probe = lambda v, a=a: (v, a, new_vertex)
                break
        if split_test is None:
            for a in range(k):
                flags = [(new_vertex, a, v) in errors for v in members]
                if any(flags) and not all(flags):
                    split_test = From(new_vertex, a)
                    probe = lambda v, a=a: (new_vertex, a, v)
                    break
        if split_test is None and new_vertex in members:
            for a in range(k):
                if (new_vertex, a, new_vertex) in errors and any(
                    (v, a, v) not in errors for v in members
                ):
                    split_test = Loop(a)
                    probe = lambda v, a=a: (v, a, v)
                    break
        if split_test is None and len(members) > 1:
            # fallback witness sweep for third-party-witness distinctions
            for witness in sorted(updated):
                for a in range(k):
                    flags = [(v, a, witness) in errors for v in members]
                    if any(flags) and not all(flags):
                        split_test = To(a, witness)
                        probe = lambda v, a=a, w=witness: (v, a, w)
                        break
                    flags = [(witness, a, v) in errors for v in members]
                    if any(flags) and not all(flags):
                        split_test = From(witness, a)
                        probe = lambda v, a=a, w=witness: (w, a, v)
                        break
                if split_test is not None:
                    break

        if split_test is None:
            continue

        yes_side = [v for v in members if deduced(*probe(v))]
        no_side = [v for v in members if v not in yes_side]
        if not yes_side or not no_side:
            raise LearnerInternalError(
                f"split on {split_test!r} produced an empty side; "
                "input contract violated"
            )
        yes_leaf, no_leaf = leaf.split(split_test, yes_side[0], no_side[0])
        for v in yes_side:
            updated[v] = yes_side[0]
        for v in no_side:
            updated[v] = no_side[0]
        worklist.append(yes_leaf)
        worklist.append(no_leaf)

    return tree, updated


# -- the learners ------------------------------------------------------------


class Learner:
    """State every strategy exposes after a completed round: the released
    ``summary`` and ``assignment``, the decision ``tree`` (None for a learner
    that keeps none) and the ``reconstruction`` of the revealed matrix (None
    for a learner that does not rebuild it).

    Each strategy defines its own ``run_round``, which plays one round
    through the session.
    """

    def __init__(self, session: Session):
        self._session = session
        self.summary: LabeledDigraph | None = None
        self.assignment: dict[int, int] = {}
        self.tree: TreeNode | None = None
        self.reconstruction: LabeledDigraph | None = None
        self.rounds_completed = 0

    @property
    def hypothesis(self) -> DomainPolicy:
        if self.summary is None:
            raise ValueError("no round completed yet")
        # the summary is replaced, never mutated, after a round completes
        return DomainPolicy(summary=self.summary, assignment=dict(self.assignment))


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
        for a in range(session.k):
            for v in vertices:
                if session.connection(u, a, v):
                    graph.add_edge(u, a, v)
            for v in vertices:
                if v != u and session.connection(v, a, u):
                    graph.add_edge(v, a, u)
        policy = summarize(graph)
        errors = session.hypothesis_test(policy.summary, policy.assignment)
        if errors:
            raise LearnerInternalError(
                f"tireless hypothesis of an exactly-known matrix returned "
                f"{len(errors)} errors"
            )
        self.summary, self.assignment = policy.summary, policy.assignment
        self.rounds_completed += 1


class ConservativeLearner(Learner):
    """Occam's-razor strategy: presume newcomers are not novel; repair on
    proof to the contrary."""

    def __init__(self, session: Session, *, revise_observer: ReviseObserver | None = None):
        super().__init__(session)
        self._revise_observer = revise_observer

    def run_round(self) -> None:
        if self.rounds_completed == 0:
            self._first_round()
        else:
            self._later_round()
        self.rounds_completed += 1

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
        guess = classify(self.tree, u, session.connection)
        extended = dict(self.assignment)
        extended[u] = guess
        errors = session.hypothesis_test(self.summary, extended)
        if not errors:
            self.assignment = extended
            return
        # The newcomer is novel: repair tree/assignment from the error set,
        # then rebuild the summary over the new representatives.  All edge
        # knowledge comes from the frozen (summary, extended, errors)
        # snapshot; no connection query is issued past this point.
        self.tree, self.assignment = revise(
            self.tree,
            self.summary,
            self.assignment,
            u,
            guess,
            errors,
            observer=self._revise_observer,
        )
        representatives = sorted(set(self.assignment.values()))
        rebuilt = LabeledDigraph(session.k, representatives)
        for x in representatives:
            for a in range(session.k):
                for y in representatives:
                    if edg(x, a, y, self.summary, extended, errors):
                        rebuilt.add_edge(x, a, y)
        self.summary = rebuilt
        confirm = session.hypothesis_test(self.summary, self.assignment)
        if confirm:
            raise LearnerInternalError(
                f"hypothesis test after revision returned {len(confirm)} errors"
            )


_LEARNERS = {"tireless": TirelessLearner, "conservative": ConservativeLearner}
LEARNER_KINDS = tuple(_LEARNERS)


def make_learner(kind: str, session: Session) -> Learner:
    if kind not in _LEARNERS:
        raise ValueError(f"unknown learner kind {kind!r}; expected one of {LEARNER_KINDS}")
    return _LEARNERS[kind](session)
