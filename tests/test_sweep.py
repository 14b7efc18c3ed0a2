"""A pinned sweep of the exact search over small classes and node-capped rows.

Small instances at n <= 6 run to their optimum, and a few even rows run
under a node cap, which stops them at the same budget poll on every run.
One SHA-256 digest covers each instance's (spec, value, witness masks,
optimal), a second the evaluation counts (nodes_explored).  A change that
moves an optimum's value or witness is a bug.  A change that moves only
evaluations updates the second digest and says why; the capped rows'
incumbents may move with their counts.
"""

from __future__ import annotations

import hashlib
from math import comb

from oddtown.search import SearchSpec, minimize

NODE_CAP = 100_000

ANSWERS = "cccb9aaa7f9f4f67ce43fdfa53ab9b09cecba596fca3920b162026b3f72ff35f"
EVALUATIONS = "1a60ed3b7bff7f73507583377e475ed65afb6bec63f13c1ea8b95d98410254b0"


def sweep_specs():
    """The instances, in a fixed order.

    Even and odd classes at n <= 6 (even n=6 up to m=24, odd n=6 up to
    m=14), uniform k <= n <= 6 up to m=12 and c_kt up to m=9, all to their
    optimum; then even n=6 m=25..32 and n=8 m=30, 40, 60, 100 under
    NODE_CAP evaluations.
    """
    for n in range(1, 7):
        half = 1 << (n - 1)  # the size of the even and the odd class
        for m in range(1, (24 if n == 6 else half) + 1):
            yield SearchSpec(n, m, "even")
        for m in range(1, (14 if n == 6 else half) + 1):
            yield SearchSpec(n, m, "odd")
        for k in range(1, n + 1):
            for m in range(1, min(comb(n, k), 12) + 1):
                yield SearchSpec(n, m, "uniform", k)
            for t in range(k):
                for m in range(1, min(comb(n, k), 9) + 1):
                    yield SearchSpec(n, m, "uniform", k, "ckt", t)
    for n, sizes in ((6, range(25, 33)), (8, (30, 40, 60, 100))):
        for m in sizes:
            yield SearchSpec(n, m, "even", budget_nodes=NODE_CAP)


def test_sweep_matches_its_digests():
    answers, evaluations = hashlib.sha256(), hashlib.sha256()
    for spec in sweep_specs():  # 465 instances
        result = minimize(spec)
        masks = None if result.witness is None else result.witness.masks
        answers.update(f"{spec!r} {result.best_value} {masks} {result.optimal}\n".encode())
        evaluations.update(f"{result.nodes_explored}\n".encode())
    assert answers.hexdigest() == ANSWERS
    assert evaluations.hexdigest() == EVALUATIONS
