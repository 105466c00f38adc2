"""Ground-truth facts about a synthetic teacher's revealed world, read only
through ``domain_of`` and ``peek_ground_truth``."""

from __future__ import annotations

from domainlearn.digraph import induced_subgraph
from domainlearn.oracle import oracle_partition
from domainlearn.teacher import SyntheticTeacher, WorldTemplate


def revealed_domains(teacher: SyntheticTeacher) -> tuple[int, ...]:
    """Template domains of the revealed vertices, in revelation order."""
    n = teacher.peek_ground_truth().vertex_count
    return tuple(teacher.domain_of(v) for v in range(n))


def revealed_class_count(template: WorldTemplate, teacher: SyntheticTeacher) -> int:
    """Number of indistinguishability classes of the revealed subgraph.

    Computed by the oracle on the template induced on the revealed domains,
    which has at most m vertices: by the instance edge rule it has the same
    class structure as the revealed subgraph (instances of one domain are
    always mutually indistinguishable).
    """
    domains = set(revealed_domains(teacher))
    return len(oracle_partition(induced_subgraph(template.graph, domains)))
