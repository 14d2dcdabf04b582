"""Scheduler interface and factory."""

from __future__ import annotations

import typing


class Scheduler:
    """Chooses the next disk request to service.

    Implementations keep their own queue structure. ``pop`` receives the
    head's current cylinder and direction of travel (+1 toward higher
    cylinders, -1 toward lower) and must return one queued request.
    """

    def push(self, request) -> None:
        """Enqueue a request (its ``cylinder`` attribute must be set)."""
        raise NotImplementedError

    def pop(self, head_cylinder: int, direction: int):
        """Dequeue and return the request to service next."""
        raise NotImplementedError

    def __len__(self) -> int:
        """Queued requests; ``bool(scheduler)`` falls back to this."""
        raise NotImplementedError


def make_scheduler(policy: str, cylinders: int) -> Scheduler:
    """Build a scheduler by policy name.

    Parameters
    ----------
    policy:
        One of ``"fifo"``, ``"sstf"``, ``"sptf"``, ``"look"``,
        ``"cvscan"``. SPTF prices every queued candidate's full
        physical service time
        (:func:`repro.disk.drive.queue_service_times`) and needs a
        drive bound via
        ``bind_disk`` — :class:`~repro.disk.drive.Disk` does this
        automatically for any scheduler exposing the hook.
    cylinders:
        Disk size, used by CVSCAN to scale its directional bias.

    Suffixing a policy with ``+priority`` (e.g. ``"cvscan+priority"``)
    wraps it in the two-class user-priority discipline: user requests
    are always served before reconstruction requests.
    """
    from repro.disk.scheduling.cvscan import CvscanScheduler
    from repro.disk.scheduling.fifo import FifoScheduler
    from repro.disk.scheduling.priority import UserPriorityScheduler
    from repro.disk.scheduling.scan import LookScheduler
    from repro.disk.scheduling.sptf import SptfScheduler
    from repro.disk.scheduling.sstf import SstfScheduler

    policies: typing.Dict[str, typing.Callable[[], Scheduler]] = {
        "fifo": FifoScheduler,
        "sstf": SstfScheduler,
        "sptf": SptfScheduler,
        "look": LookScheduler,
        "cvscan": lambda: CvscanScheduler(cylinders=cylinders),
    }
    base_policy, _plus, modifier = policy.partition("+")
    if base_policy not in policies or modifier not in ("", "priority"):
        raise ValueError(
            f"unknown scheduling policy {policy!r}; choose from "
            f"{sorted(policies)} optionally suffixed with '+priority'"
        )
    if modifier == "priority":
        return UserPriorityScheduler(policies[base_policy](), policies[base_policy]())
    return policies[base_policy]()
