"""The result metric catalog, src/stats/result_metrics.def, for the
Python tools. The C++ build generates the result struct fields and the
JSON writer's keys from the same file (see its header for the columns).
"""

import collections
import os
import re

DEF_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "src", "stats", "result_metrics.def")
BLOCKS = ("metrics", "overload", "conn", "fleet")

Metric = collections.namedtuple(
    "Metric", ("block", "field", "key", "type", "better", "gate"))

_LINE = re.compile(r'RESULT_METRIC\((metrics|overload|conn|fleet), (\w+), '
                   r'"(\w+)", (std::uint64_t|Tick|int|double|bool|'
                   r'std::string), (higher|lower|none), "(\w*)"\)$')


def _load():
    metrics = []
    with open(DEF_PATH) as f:
        for n, raw in enumerate(f, 1):
            line = raw.split("//", 1)[0].strip()
            if line.startswith("RESULT_METRIC("):
                match = _LINE.match(line)
                if not match:
                    raise ValueError(f"{DEF_PATH}:{n}: malformed line")
                metrics.append(Metric(*match.groups()))
    return tuple(metrics)


CATALOG = _load()
_BY_KEY = {(m.block, m.key): m for m in CATALOG}
if len(_BY_KEY) != len(CATALOG):
    raise ValueError(f"{DEF_PATH}: a key appears twice in one block")


def block(name):
    """The block's metrics, in document order."""
    return tuple(m for m in CATALOG if m.block == name)


def gates(m):
    """Keys that must all read nonzero for @p m to mean anything,
    nearest first."""
    chain = []
    g = m.gate
    while g:
        if g in chain or (m.block, g) not in _BY_KEY:
            raise ValueError(f"{DEF_PATH}: bad gate chain at "
                             f"{m.block}.{m.key}")
        chain.append(g)
        g = _BY_KEY[(m.block, g)].gate
    return chain
