"""Pinned hypertree-width searches: det-k-decomp and opt-k-decomp.

The two searches walk the same ``(component, connector)`` subproblems,
so the order in which a subproblem's components come back decides which
subproblems a failing rung visits and how the witness's nodes are
numbered.  That order must not depend on string hashing: deterministic
portfolio runs are a pure function of their seeds.

The pins below fix what both searches return on named and random
instances, under a state budget and under external bound hooks, so a
change to either search's recursion shows up as a different witness,
subproblem count or bound stream, not only as a different width.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.hypergraph import Hypergraph
from repro.instances import get_instance
from repro.search import det_k_decomp, hypertree_width, opt_k_decomp
from repro.search.common import BoundHooks
from tests.conftest import make_covered_hypergraph

ROOT = Path(__file__).resolve().parent.parent


def layout(decomposition):
    """Bags, covers and tree edges of a decomposition, as plain data."""
    return {
        "nodes": [
            [repr(node), sorted(map(repr, decomposition.bag(node))),
             sorted(map(repr, decomposition.cover(node)))]
            for node in sorted(decomposition.nodes, key=repr)
        ],
        "edges": sorted(
            sorted(map(repr, edge)) for edge in decomposition.tree_edges()
        ),
    }


_HASH_PROBE = """
import json
from repro.search import det_k_decomp, opt_k_decomp
from tests.conftest import make_covered_hypergraph
from tests.test_hw_pinned import layout

rows = []
for seed in (29, 39, 40):
    h = make_covered_hypergraph(7, 9, seed=seed)
    result = opt_k_decomp(h)
    rows.append([
        result.subproblems, result.rungs, layout(result.decomposition),
        [layout(det_k_decomp(h, k)) for k in range(result.upper, 4)],
    ])
print(json.dumps(rows))
"""


def _probe(hash_seed: str) -> list:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    out = subprocess.run(
        [sys.executable, "-c", _HASH_PROBE], env=env, cwd=ROOT,
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    return json.loads(out)


def test_searches_do_not_depend_on_the_hash_seed():
    """String edge names hash differently under each ``PYTHONHASHSEED``;
    opt-k's subproblem count and both searches' witnesses must not."""
    assert _probe("0") == _probe("1")



# ----------------------------------------------------------------------
# Pinned runs
# ----------------------------------------------------------------------
#
# Each row fixes, for one instance, the witness of ``det_k_decomp`` at
# every k from 1 to hw + 1 (``None`` below hw), the ``hypertree_width``
# witness, and opt-k-decomp's ``(upper, lower, exact, subproblems,
# rungs)`` with its witness.  A witness is pinned as a digest of its
# ``layout`` (bags, covers and tree edges, node ids included), so a
# different separator order or component order shows up here even when
# the width does not change.

RANDOM = [(6, 8, seed) for seed in range(6)] + [
    (7, 9, 29), (7, 9, 31), (7, 9, 39), (7, 9, 40),
] + [(8, 10, seed) for seed in range(6)] + [
    (9, 12, 36), (10, 14, 12), (6, 8, 41), (8, 11, 5),
]


def _instance(name):
    if name.startswith("covered"):
        n, m, seed = map(int, name.split("_")[1:])
        return make_covered_hypergraph(n, m, seed=seed)
    structure = get_instance(name).build()
    if isinstance(structure, Hypergraph):
        return structure
    return Hypergraph.from_graph(structure)


def digest(decomposition):
    if decomposition is None:
        return None
    data = json.dumps(layout(decomposition), sort_keys=True)
    return hashlib.sha256(data.encode()).hexdigest()[:16]


def _optk_row(result):
    return (result.upper, result.lower, result.exact, result.subproblems,
            result.rungs, digest(result.decomposition))


def pinned_row(name):
    h = _instance(name)
    hw, witness = hypertree_width(h)
    detk = [digest(det_k_decomp(h, k)) for k in range(1, hw + 2)]
    return hw, detk, digest(witness), _optk_row(opt_k_decomp(h))


# (instance, hw, det-k witnesses for k = 1..hw+1, hypertree_width
#  witness, opt-k (upper, lower, exact, subproblems, rungs, witness))
PINNED = [
    ("fano", 3, [None, None, "43992bcf54896de2", "43992bcf54896de2"],
     "43992bcf54896de2", (3, 3, True, 0, 0, "e2b5123c7936e232")),
    ("clique_5", 3, [None, None, "c7eec37065e2c6d2", "c7eec37065e2c6d2"],
     "c7eec37065e2c6d2", (3, 3, True, 0, 0, "c43c8c18c5fc00c3")),
    ("clique_6", 3, [None, None, "d876e8cba5fa3b43", "d876e8cba5fa3b43"],
     "d876e8cba5fa3b43", (3, 3, True, 0, 0, "36d05f654722ee57")),
    ("grid2d_4", 2, [None, "8975e07cc9116582", "8975e07cc9116582"],
     "8975e07cc9116582", (2, 2, True, 0, 0, "c229429ebb829055")),
    ("adder_5", 2, [None, "ec5712d519610b1c", "ec5712d519610b1c"],
     "ec5712d519610b1c", (2, 2, True, 0, 0, "a2fdfe1c5f2aab88")),
    ("grid2d_6", 3, [None, None, "84404f02f34c5837", "84404f02f34c5837"],
     "84404f02f34c5837", (3, 3, True, 179, 2, "84404f02f34c5837")),
    ("myciel3", 3, [None, None, "6a38acd845d26470", "6a38acd845d26470"],
     "6a38acd845d26470", (3, 3, True, 8, 1, "6a38acd845d26470")),
    ("grid3", 2, [None, "f89a6c1ef04c4d50", "f89a6c1ef04c4d50"],
     "f89a6c1ef04c4d50", (2, 2, True, 7, 1, "f89a6c1ef04c4d50")),
    ("covered_6_8_0", 2, [None, "dc7812c097020304", "dc7812c097020304"],
     "dc7812c097020304", (2, 2, True, 0, 0, "593f53df7c1b34a0")),
    ("covered_6_8_1", 1, ["e8365e24193fb1cf", "e8365e24193fb1cf"],
     "e8365e24193fb1cf", (1, 1, True, 0, 0, "813df76818341752")),
    ("covered_6_8_2", 2, [None, "82d2f87ae34f80f5", "82d2f87ae34f80f5"],
     "82d2f87ae34f80f5", (2, 2, True, 4, 1, "82d2f87ae34f80f5")),
    ("covered_6_8_3", 2, [None, "9b8d32c7cfcb2c7e", "9b8d32c7cfcb2c7e"],
     "9b8d32c7cfcb2c7e", (2, 2, True, 0, 0, "fa8b55816f5d607d")),
    ("covered_6_8_4", 1, ["4fc2b85c92f6bb3f", "4fc2b85c92f6bb3f"],
     "4fc2b85c92f6bb3f", (1, 1, True, 0, 0, "145a6fc63ea44bde")),
    ("covered_6_8_5", 2, [None, "79c5cdd67384189a", "79c5cdd67384189a"],
     "79c5cdd67384189a", (2, 2, True, 0, 0, "cd96188b44a5ff23")),
    ("covered_7_9_29", 2, [None, "639f3ef4b07ed0b1", "639f3ef4b07ed0b1"],
     "639f3ef4b07ed0b1", (2, 2, True, 8, 1, "85a01d9aaa0cd811")),
    ("covered_7_9_31", 1, ["fef269ae3df938ee", "fef269ae3df938ee"],
     "fef269ae3df938ee", (1, 1, True, 0, 0, "8c54ce416bd4e887")),
    ("covered_7_9_39", 2, [None, "1c601eff377cd8aa", "1c601eff377cd8aa"],
     "1c601eff377cd8aa", (2, 2, True, 7, 1, "38e9f1e26ade6bb4")),
    ("covered_7_9_40", 2, [None, "067be2e4a7b304b0", "067be2e4a7b304b0"],
     "067be2e4a7b304b0", (2, 2, True, 10, 1, "ea8f4bd3e9c36761")),
    ("covered_8_10_0", 2, [None, "6941ead80cf73aef", "6941ead80cf73aef"],
     "6941ead80cf73aef", (2, 2, True, 0, 0, "d24f47b74c343417")),
    ("covered_8_10_1", 2, [None, "98f7aa17e08d97c3", "98f7aa17e08d97c3"],
     "98f7aa17e08d97c3", (2, 2, True, 6, 1, "98f7aa17e08d97c3")),
    ("covered_8_10_2", 1, ["bd28e5eccde60c15", "bd28e5eccde60c15"],
     "bd28e5eccde60c15", (1, 1, True, 0, 0, "6bc0aed01f5a5605")),
    ("covered_8_10_3", 2, [None, "0e33b0cddf322002", "0e33b0cddf322002"],
     "0e33b0cddf322002", (2, 2, True, 0, 0, "ede5c297222f517f")),
    ("covered_8_10_4", 1, ["8b5a0d8ffc57d194", "8b5a0d8ffc57d194"],
     "8b5a0d8ffc57d194", (1, 1, True, 0, 0, "b37a54ac0152163e")),
    ("covered_8_10_5", 2, [None, "f1ecc29e05674b0c", "f1ecc29e05674b0c"],
     "f1ecc29e05674b0c", (2, 2, True, 10, 1, "afe071a11c88eeef")),
    ("covered_9_12_36", 3,
     [None, None, "b7655374555ce2f4", "b7655374555ce2f4"],
     "b7655374555ce2f4", (3, 3, True, 69, 1, "1e204380b747ccb4")),
    ("covered_10_14_12", 3,
     [None, None, "06b39f96a9537c74", "06b39f96a9537c74"],
     "06b39f96a9537c74", (3, 3, True, 71, 1, "5bf3763417026f9c")),
    ("covered_6_8_41", 1, ["232274727a5a03d0", "232274727a5a03d0"],
     "232274727a5a03d0", (1, 1, True, 0, 0, "9f721bcde39aae71")),
    ("covered_8_11_5", 2, [None, "f1ecc29e05674b0c", "f1ecc29e05674b0c"],
     "f1ecc29e05674b0c", (2, 2, True, 11, 1, "afe071a11c88eeef")),
]


@pytest.mark.parametrize("row", PINNED, ids=[row[0] for row in PINNED])
def test_hw_searches_pinned(row):
    name, *expected = row
    assert pinned_row(name) == tuple(expected)


# (instance, k, the fewest max_states that finish, witness or None)
DETK_STATES = [
    ("grid2d_6", 2, 171, None),
    ("grid2d_6", 3, 8, "84404f02f34c5837"),
    ("covered_10_14_12", 2, 71, None),
    ("covered_10_14_12", 3, 5, "06b39f96a9537c74"),
    ("myciel3", 2, 201, None),
    ("covered_7_9_40", 1, 10, None),
]


@pytest.mark.parametrize("name, k, states, witness", DETK_STATES)
def test_det_k_state_count_pinned(name, k, states, witness):
    """det-k-decomp opens exactly ``states`` subproblems: that budget
    finishes the run, one less cuts it."""
    h = _instance(name)
    assert digest(det_k_decomp(h, k, max_states=states)) == witness
    with pytest.raises(RuntimeError):
        det_k_decomp(h, k, max_states=states - 1)


# (instance, max_states, opt-k row)
OPTK_CUT = [
    ("grid2d_6", 100, (3, 2, False, 101, 2, "84404f02f34c5837")),
    ("grid2d_6", 150, (3, 2, False, 151, 2, "84404f02f34c5837")),
    ("covered_10_14_12", 30, (3, 2, False, 31, 1, "5bf3763417026f9c")),
]


@pytest.mark.parametrize("name, max_states, expected", OPTK_CUT)
def test_opt_k_cut_by_state_budget_pinned(name, max_states, expected):
    result = opt_k_decomp(_instance(name), max_states=max_states)
    assert _optk_row(result) == expected


def _scripted_hooks(uppers, lowers):
    """Hooks whose polls answer from the two scripts (then ``None``)
    and which record every published bound."""
    stream = []
    uppers, lowers = iter(uppers), iter(lowers)
    hooks = BoundHooks(
        poll_upper=lambda: next(uppers, None),
        poll_lower=lambda: next(lowers, None),
        publish_upper=lambda value: stream.append(("ub", value)),
        publish_lower=lambda value: stream.append(("lb", value)),
    )
    return hooks, stream


# (instance, polled uppers, polled lowers, opt-k row, published stream)
OPTK_HOOKED = [
    ("grid2d_6", [None], [None, 3], (3, 3, True, 8, 1, "84404f02f34c5837"),
     [("ub", 6), ("lb", 2), ("ub", 3)]),
    ("grid2d_6", [4], [], (3, 3, True, 179, 2, "84404f02f34c5837"),
     [("ub", 6), ("lb", 2), ("ub", 3), ("lb", 3)]),
    ("covered_10_14_12", [], [3], (3, 3, True, 0, 0, "5bf3763417026f9c"),
     [("ub", 3), ("lb", 2)]),
]


@pytest.mark.parametrize(
    "name, uppers, lowers, expected, published", OPTK_HOOKED
)
def test_opt_k_under_hooks_pinned(name, uppers, lowers, expected, published):
    hooks, stream = _scripted_hooks(uppers, lowers)
    result = opt_k_decomp(_instance(name), hooks=hooks)
    assert _optk_row(result) == expected
    assert stream == published
