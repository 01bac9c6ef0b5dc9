"""Task schedulers: which admitted operation runs next.

"A simple version of the Task Scheduler can admit an operation when a
given package is available and implement fair scheduling among the
running operations.  A more complex task scheduler could differentiate
task priorities" (Section V).  BABOL does not mandate a policy; these
are the reference policies, and the base class is the extension point
an SSD Architect subclasses.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from operator import attrgetter
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.softenv.base import Task


class TaskScheduler(ABC):
    """Policy choosing the next ready task to resume."""

    name = "task-scheduler"

    @abstractmethod
    def select(self, ready: Sequence["Task"]) -> "Task":
        """Pick one task from a non-empty ready list."""


class FifoTaskScheduler(TaskScheduler):
    """Resume tasks in the order they became ready."""

    name = "fifo"

    def select(self, ready: Sequence["Task"]) -> "Task":
        return ready[0]


class RoundRobinTaskScheduler(TaskScheduler):
    """Fair rotation across tasks (by last-resumed time, oldest first)."""

    name = "round-robin"
    _key = attrgetter("last_resumed_at", "id")

    def select(self, ready: Sequence["Task"]) -> "Task":
        return min(ready, key=self._key)


class PriorityTaskScheduler(TaskScheduler):
    """Strict priority (lower value = more urgent), FIFO within a level.

    The paper's example: prioritize latency-sensitive workloads such as
    database logging by giving those tasks more scheduler attention.
    """

    name = "priority"
    _key = attrgetter("priority", "ready_since", "id")

    def select(self, ready: Sequence["Task"]) -> "Task":
        return min(ready, key=self._key)
