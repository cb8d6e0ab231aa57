"""Resource usage of a process tree, read from Linux ``/proc``.

A process's ``stat`` line carries its own user/system time and minor faults
plus the totals of every child it has already reaped (``cutime``,
``cstime``, ``cminflt``).  Summing both over the live members of a tree
therefore counts every process that ever belonged to it exactly once, as
long as each parent reaps its children (the pools used here do).
"""

from __future__ import annotations

import os
import resource
from typing import Dict, List

_TICK = float(os.sysconf("SC_CLK_TCK"))


def _stat_fields(pid: int) -> List[str]:
    with open(f"/proc/{pid}/stat", "rb") as handle:
        text = handle.read().decode()
    # The command name is parenthesised and may contain spaces.
    return text[text.rindex(")") + 2:].split()


def children(pid: int) -> List[int]:
    """Direct children of ``pid`` (across all of its threads)."""
    found: List[int] = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            try:
                with open(f"/proc/{pid}/task/{tid}/children") as handle:
                    found.extend(int(c) for c in handle.read().split())
            except OSError:
                continue
    except OSError:
        pass
    return found


def tree(pid: int) -> List[int]:
    """``pid`` and all of its live descendants."""
    members, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        members.append(current)
        frontier.extend(children(current))
    return members


def tree_usage(pid: int) -> Dict[str, float]:
    """User and system seconds and minor faults of the tree rooted at ``pid``.

    The calling process reads its own share through ``getrusage``, which
    has microsecond resolution instead of clock ticks.
    """
    user = system = minflt = 0.0
    for member in tree(pid):
        if member == os.getpid():
            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
                usage = resource.getrusage(who)
                user += usage.ru_utime
                system += usage.ru_stime
                minflt += usage.ru_minflt
            continue
        try:
            fields = _stat_fields(member)
        except OSError:
            continue  # exited between listing and reading
        # Fields after the command: state=0 ... minflt=7 cminflt=8
        # utime=11 stime=12 cutime=13 cstime=14 (0-based from the state).
        minflt += int(fields[7]) + int(fields[8])
        user += (int(fields[11]) + int(fields[13])) / _TICK
        system += (int(fields[12]) + int(fields[14])) / _TICK
    return {"user_s": user, "sys_s": system, "minor_faults": minflt}


__all__ = ["children", "tree", "tree_usage"]
