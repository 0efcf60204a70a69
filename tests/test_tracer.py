"""The benchmark's child module, imported from ``perfbench/`` as a run does.

``perfbench/child.py`` replaces each traced function under the name its
calling module bound it to.  A change to the package that unbinds one of
those names fails here, not only in a traced benchmark run.  Its ``slice``
check only bounds each limit to [0, 1], so the full digests of six seeds
are pinned here: a wrong exact law or limit changes them.
"""

import os
import sys

import pytest

from edgestat import constructions, dist, gm, poly, verify

from helpers import value_weight_counts_label_order

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def child(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # write nothing under perfbench/
    monkeypatch.syspath_prepend(PERFBENCH)
    try:
        import child

        yield child
    finally:
        for name in ("child", "tracer"):
            sys.modules.pop(name, None)


def test_tracer_wraps_and_restores_every_traced_name(child, tmp_path):
    tracer = child.Tracer(str(tmp_path))
    try:
        child.install_tracer(tracer, gm, verify, dist, constructions)
    finally:
        not_restored = tracer.unwrap()
    assert not_restored == []


#: ``check_slice`` digests of the ``slice`` workload, by seed.
SLICE_DIGESTS = {
    1: "e8106752afea86765a89c2adac2fce4f170978a05e772efc0fb3a516c71e099c",
    2: "ceb987450172694f384ae45c160fdcbb472a14fc87199e7f7db72eecd741c4f7",
    3: "be1e381ff289b5347616d66721240953a5b6fc6ea02d912b3d72ba516491bbb2",
    4: "0288140c0221623c0a13a5607dc0d2e9f33a915aac47fb7e6f7d68d24d99ad23",
    5: "28f5802ce493c09cf267ffc5a378bc6f9e50622c1639f26dfd635ba4af3aa99f",
    6: "1655183aa7b941a091d51d51199ec811d500f4a056068c386608424ff048ef38",
}


@pytest.mark.parametrize("seed", list(SLICE_DIGESTS))
def test_slice_workload_digest(child, seed):
    outcome = child.run_slice(constructions, dist, child.make_slice_inputs(constructions, poly, seed))
    assert child.check_slice(constructions, outcome) == (len(outcome), [], SLICE_DIGESTS[seed])


def test_slice_law_tables_equal_label_order_oracle(child):
    """The host and signed statistics of seeds 1-3 have 40 and 44 slots, out
    of brute force's reach; their tables must equal the label-order oracle's,
    whatever order the kernel picks.  The windows are the weights 0..k and
    the one ``slice_value_dist`` reads when the statistic reads all n slots,
    {k}, where the floor drops every state that can no longer reach k."""
    k = child.SLICE_K
    for seed in (1, 2, 3):
        for family, n, signed in child.make_slice_inputs(constructions, poly, seed)["laws"]:
            host = constructions.edge_polynomial(constructions.build_host(family, n))
            for f in (host, signed):
                assert f.num_vars == n
                for window in (range(k + 1), range(k, k + 1)):
                    assert poly.value_weight_counts(f, window) == value_weight_counts_label_order(f, window)
