"""Golden `repro run` outcome lines: simplifications must not move a result.

Every line of the run summary except ``Backend:`` and ``Shard rebalance:``
(which describe the deployment, not the outcome) is pinned byte for byte
for all registered scenarios, at the CLI defaults, in a sharded,
auto-rebalanced layout, in a static sharded layout, with every peer on
the decay backend over an auto-rebalanced store, and on a lossy async
evidence plane under gossip and under retransmit repair.  The golden file was
generated before the backend layout knobs were narrowed to the shared
complaint store, when the sharded layouts were routed by ``range``,
``ring``, and ``ring`` respectively, so it also pins that the narrowing
and the single range router left every outcome unchanged.

The ``async-gossip`` and ``async-retransmit`` layouts (async evidence at
20% loss, two witnesses, gossip or retransmit repair) were generated
before witness traffic got its own sequence numbering apart from the
journaled evidence, so they pin that the renumbering, the delta-only
digest comparison and the batched repair ingest left every outcome
unchanged.

Regenerate (only for an announced behaviour change) with::

    PYTHONPATH=src python tests/integration/test_summary_golden.py --write
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.workloads.registry import scenario_names

GOLDEN = Path(__file__).with_name("summary_golden.json")

#: Layout name -> extra ``repro run`` arguments.
LAYOUTS = {
    "defaults": [],
    "sharded": ["--shards", "4", "--rebalance", "auto"],
    "static": ["--shards", "4"],
    "decay-rebalanced": ["--backend", "decay", "--shards", "3", "--rebalance", "auto"],
    "async-gossip": [
        "--evidence-mode", "async", "--evidence-loss", "0.2",
        "--evidence-repair", "gossip", "--witnesses", "2",
    ],
    "async-retransmit": [
        "--evidence-mode", "async", "--evidence-loss", "0.2",
        "--evidence-repair", "retransmit", "--witnesses", "2",
    ],
}

#: Summary lines that describe the deployment rather than the outcome.
EXCLUDED_PREFIXES = ("Backend:", "Shard rebalance:")


def outcome_lines(scenario, layout):
    """The run summary of ``scenario`` under ``layout``, minus layout lines."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(["run", "--scenario", scenario, *LAYOUTS[layout]])
    assert code == 0
    return [
        line
        for line in buffer.getvalue().splitlines()
        if not line.startswith(EXCLUDED_PREFIXES)
    ]


def _golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_registered_scenario():
    golden = _golden()
    assert set(golden) == set(LAYOUTS)
    for layout in LAYOUTS:
        assert sorted(golden[layout]) == sorted(scenario_names())


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("scenario", scenario_names())
def test_outcome_lines_match_golden(scenario, layout):
    assert outcome_lines(scenario, layout) == _golden()[layout][scenario]


def _write() -> None:
    golden = {
        layout: {name: outcome_lines(name, layout) for name in scenario_names()}
        for layout in LAYOUTS
    }
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_summary_golden.py --write")
    _write()
