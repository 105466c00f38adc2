"""Ground-truth facts about a template world's revealed instances, read
only through their ``row_of``, the template domain of each."""

from __future__ import annotations

from domainlearn.digraph import induced_subgraph
from domainlearn.oracle import oracle_partition
from domainlearn.teacher import TemplateInstances, WorldTemplate


def revealed_domains(instances: TemplateInstances) -> tuple[int, ...]:
    """Template domains of the revealed vertices, in revelation order."""
    return tuple(instances.row_of)


def revealed_class_count(template: WorldTemplate, instances: TemplateInstances) -> int:
    """Number of indistinguishability classes of the revealed subgraph.

    Computed by the oracle on the template induced on the revealed domains,
    which has at most m vertices: by the instance edge rule it has the same
    class structure as the revealed subgraph (instances of one domain are
    always mutually indistinguishable).
    """
    domains = set(revealed_domains(instances))
    return len(oracle_partition(induced_subgraph(template.graph, domains)))
