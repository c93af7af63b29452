"""A fixed pure-Python task that gauges how fast the machine runs Python
at the moment, so that op times can be put on a steady scale.

On a shared virtual machine the same work takes up to 1.7 times as
long from one minute to the next (the benchmark's own set-up time went
from 0.55 s to 0.97 s within five runs), and every op of the program
slows with it.  The workloads run :func:`run` between ops, off the
clock, and ``session.py`` scales their op times by
``(GAUGE_S / median(gauge times)) ** GAUGE_EXPONENT``.  The task is
the benchmark's own code, so no change to the program can make it
faster or slower; it resembles the program's work (regular
expressions over smali-like lines, small objects in dictionaries, a
graph walk, sorting, JSON) so that the machine's drift moves both
the same way.
"""

from __future__ import annotations

import gc
import json
import re
import time

#: The median time of :func:`run` between market-study passes on the
#: 2-CPU virtual machine the benchmark was written on.  A reference
#: second (unit ``ref_s``) is a second of a machine on which
#: :func:`run` takes this long.
GAUGE_S = 0.008
#: The program's time moves less than the gauge's: part of it waits on
#: memory, which the machine's drift barely changes.  Over 18 windows
#: of 20 s of market-study passes, while the gauge's median moved from
#: 4.7 to 8.9 ms, the log of the pass time against the log of the gauge
#: time had a slope of 0.67; dividing by the gauge's time to this power
#: cut the windows' spread (interquartile range over median) from 25%
#: to 6%, against 11% for the plain ratio.
GAUGE_EXPONENT = 0.7

_LINE = re.compile(r"L([\w/$]+);->(\w+)\(([^)]*)\)(\S+)")
_LINES = [f"Lcom/example/p{i % 17}/Cls{i * 7 % 29}$Inner;->"
          f"m{i}(ILjava/lang/String;Z)V" for i in range(300)]
_WANT = 12563


class _Node:
    __slots__ = ("name", "kids", "attrs")

    def __init__(self, name: str) -> None:
        self.name = name
        self.kids = []
        self.attrs = {}


def _work() -> int:
    nodes = {}
    for line in _LINES:
        owner, method, args, ret = _LINE.match(line).groups()
        node = nodes.get(owner)
        if node is None:
            node = nodes[owner] = _Node(owner)
        node.kids.append(_Node(method))
        node.attrs[method] = (args.split(";"), ret)
    text = json.dumps({name: sorted(kid.name for kid in node.kids)
                       for name, node in nodes.items()}, sort_keys=True)
    order = sorted(_LINES, key=lambda line: line[::-1])
    seen = set()
    stack = list(nodes)
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        stack.extend(kid.name for kid in nodes[name].kids
                     if kid.name in nodes)
    return len(json.loads(text)) + len(order[0]) + len(seen) + len(text)


def run() -> float:
    """Run the task four times with the cyclic collector off (so the
    size of the program's heap cannot reach it); return the seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        got = [_work() for _ in range(4)]
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if got != [_WANT] * 4:
        raise RuntimeError(f"gauge task gave {got}, not {_WANT}")
    return elapsed
