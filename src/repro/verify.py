"""Serializability verification utilities.

Tools to check that a committed execution history is conflict
serializable, in the sense of Bernstein et al. [14] that the paper's
Theorem 4.2 builds on:

* :func:`build_serialization_graph` — nodes are committed transactions,
  with an edge ``a -> b`` whenever ``a`` and ``b`` performed conflicting
  accesses (not both reads) on some actor and ``a``'s came first.
* :func:`find_cycle` — a cycle, if any (the history is conflict
  serializable iff none exists).
* :func:`serialization_order` — a topological witness order.
* :class:`AccessRecorder` — collects per-actor ordered access logs; the
  test suite wires it into workload actors to audit real executions.

These helpers power the test suite's end-to-end serializability audits
and are part of the public API so downstream users can audit their own
workloads.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.core.context import AccessMode

#: one access: (tid, mode) with mode in {"Read", "ReadWrite"}
Access = Tuple[int, str]


class AccessRecorder:
    """Collects the per-actor ordered access logs of an execution.

    Actors call :meth:`record` at every state access; the recorder keeps
    one append-ordered log per actor.  ``committed`` restricts the audit
    to transactions that actually committed (aborted ones were rolled
    back, so their accesses must not constrain the order).
    """

    def __init__(self):
        self.logs: Dict[Hashable, List[Access]] = {}

    def record(self, actor: Hashable, tid: int, mode: str) -> None:
        if mode not in (AccessMode.READ, AccessMode.READ_WRITE):
            raise ValueError(f"bad access mode {mode!r}")
        self.logs.setdefault(actor, []).append((tid, mode))

    def committed_logs(
        self, committed: Set[int]
    ) -> Dict[Hashable, List[Access]]:
        return {
            actor: [(tid, mode) for tid, mode in log if tid in committed]
            for actor, log in self.logs.items()
        }


def _conflicts(mode_a: str, mode_b: str) -> bool:
    return mode_a == AccessMode.READ_WRITE or mode_b == AccessMode.READ_WRITE


class ConflictGraph:
    """A directed graph over tids, as an insertion-ordered adjacency dict."""

    def __init__(self) -> None:
        #: tid -> successors (a dict used as an ordered set).
        self.succ: Dict[int, Dict[int, None]] = {}

    def add_node(self, node: int) -> None:
        self.succ.setdefault(node, {})

    def add_edge(self, source: int, target: int) -> None:
        self.add_node(target)
        self.succ.setdefault(source, {})[target] = None

    @property
    def nodes(self) -> List[int]:
        return list(self.succ)

    @property
    def edges(self) -> List[Tuple[int, int]]:
        return [(a, b) for a, targets in self.succ.items() for b in targets]

    def number_of_edges(self) -> int:
        return sum(len(targets) for targets in self.succ.values())


def build_serialization_graph(
    logs: Dict[Hashable, Sequence[Access]]
) -> ConflictGraph:
    """Build the conflict (serialization) graph of an execution.

    ``logs`` maps each actor to its accesses in execution order.  For
    each actor, every conflicting pair contributes an edge from the
    earlier transaction to the later one.
    """
    graph = ConflictGraph()
    for log in logs.values():
        for tid, _mode in log:
            graph.add_node(tid)
    for actor, log in logs.items():
        last_write: Optional[int] = None
        reads_since_write: List[int] = []
        for tid, mode in log:
            if mode == AccessMode.READ_WRITE:
                if last_write is not None and last_write != tid:
                    graph.add_edge(last_write, tid)
                for reader in reads_since_write:
                    if reader != tid:
                        graph.add_edge(reader, tid)
                last_write = tid
                reads_since_write = []
            else:
                if last_write is not None and last_write != tid:
                    graph.add_edge(last_write, tid)
                reads_since_write.append(tid)
    return graph


def find_cycle(graph: ConflictGraph) -> Optional[List[int]]:
    """Return one cycle as a list of tids, or None if acyclic.

    An iterative depth-first search: a successor still on the current
    path closes a cycle, which is that path's suffix from the successor.
    """
    done: Set[int] = set()
    for root in graph.succ:
        if root in done:
            continue
        path = [root]
        on_path = {root}
        pending = [iter(graph.succ[root])]
        while pending:
            for node in pending[-1]:
                if node in on_path:
                    return path[path.index(node):]
                if node not in done:
                    path.append(node)
                    on_path.add(node)
                    pending.append(iter(graph.succ[node]))
                    break
            else:
                pending.pop()
                finished = path.pop()
                on_path.discard(finished)
                done.add(finished)
    return None


def is_serializable(logs: Dict[Hashable, Sequence[Access]]) -> bool:
    """True iff the execution described by ``logs`` is conflict
    serializable."""
    return find_cycle(build_serialization_graph(logs)) is None


def serialization_order(
    logs: Dict[Hashable, Sequence[Access]]
) -> List[int]:
    """A witness serial order (Kahn's topological sort of the conflict
    graph).

    Raises ``ValueError`` when the history is not serializable.
    """
    graph = build_serialization_graph(logs)
    indegree = dict.fromkeys(graph.succ, 0)
    for targets in graph.succ.values():
        for target in targets:
            indegree[target] += 1
    ready = deque(node for node, degree in indegree.items() if degree == 0)
    order: List[int] = []
    while ready:
        node = ready.popleft()
        order.append(node)
        for target in graph.succ[node]:
            indegree[target] -= 1
            if indegree[target] == 0:
                ready.append(target)
    if len(order) != len(indegree):
        raise ValueError("history is not serializable: its conflict graph "
                         "has a cycle")
    return order


def assert_serializable(
    logs: Dict[Hashable, Sequence[Access]], label: str = "history"
) -> None:
    """Raise ``AssertionError`` with the offending cycle if not
    serializable (test-suite convenience)."""
    cycle = find_cycle(build_serialization_graph(logs))
    if cycle is not None:
        raise AssertionError(f"{label} is not serializable: cycle {cycle}")
