"""Experiment harness: report shape, passing conditions, determinism."""

import json
from fractions import Fraction

import pytest

from enumorder import experiments
from enumorder.coorder import prefix_coorder, search_shift_witnesses
from enumorder.experiments import (
    run_examples,
    run_lemma5,
    run_theorem5,
    run_theorem9,
    search_pair,
    witness_growth,
)
from enumorder.listings import (
    ListingExhausted,
    SetSpec,
    build_A,
    build_T,
    builtin_harmonic,
    builtin_thirds,
    interleave,
)
from enumorder.rational import format_rational

from helpers import spec_factories, witness_json


def F(*args):
    return Fraction(*args)


def test_theorem9_minimal_run():
    report = run_theorem9(2, m_max=3, n_max=3, prefix=150)
    assert report["passed"]
    assert len(report["pairs"]) == 1
    pair = report["pairs"][0]
    assert (pair["left"], pair["right"]) == ("A:1", "A:2")
    assert pair["descriptor_verdict"] == "refuted"
    assert pair["reason"] == "signature [ASC] != [ASC,DESC]"
    assert len(pair["cells"]) == 16
    assert all(cell["witness"] is not None for cell in pair["cells"])


def test_theorem9_rejects_degenerate_request():
    with pytest.raises(ValueError):
        run_theorem9(1)


def test_theorem9_covers_every_pair_once():
    report = run_theorem9(4, m_max=2, n_max=2, prefix=100)
    labels = [(p["left"], p["right"]) for p in report["pairs"]]
    expected = [
        (f"A:{i}", f"A:{j}") for i in range(1, 5) for j in range(i + 1, 5)
    ]
    assert labels == expected
    assert report["params"] == {"i_max": 4, "m_max": 2, "n_max": 2, "prefix": 100}


def test_theorem5_chain_steps():
    report = run_theorem5(3, m_max=2, n_max=2, prefix=150)
    assert [p["left"] for p in report["pairs"]] == [
        "interleave(A:1,T:2)",
        "interleave(A:2,T:3)",
    ]
    assert all(p["right"] == "A:1" for p in report["pairs"])
    assert report["passed"]


def test_theorem5_first_step_matches_union_family_pointwise():
    left = interleave([build_A(1), build_T(2)])
    assert left.listing().prefix(100) == build_A(2).listing().prefix(100)


def test_theorem5_later_steps_enumerate_the_same_set():
    # interleave(A:2, T:3) lists the same set as A:3, in a different order.
    left = interleave([build_A(2), build_T(3)])
    left_values = set(left.listing().prefix(200))
    a3_values = set(build_A(3).listing().prefix(600))
    assert left_values <= a3_values
    assert set(build_A(3).listing().prefix(200)) <= set(left.listing().prefix(700))


def test_theorem5_zero_shift_bound_reduces_to_single_cell():
    report = run_theorem5(2, m_max=0, n_max=0, prefix=60)
    assert len(report["pairs"][0]["cells"]) == 1
    assert report["pairs"][0]["cells"][0]["witness"] is not None


def test_examples_fixture_suite():
    report = run_examples()
    assert report["passed"]
    assert report["fixtures"] == {
        "finite_equal_cardinality_coorder": True,
        "recursive_pair_refuted": True,
        "interval_first_values_contain_half": True,
    }
    pair = report["pairs"][0]
    assert (pair["left"], pair["right"]) == ("harmonic", "thirds")
    assert pair["descriptor_verdict"] == "refuted"
    witness = pair["cells"][0]["witness"]
    assert (witness["i"], witness["j"]) == (0, 1)


def test_growth_counts_match_witness_sets():
    outcome = witness_growth(
        builtin_harmonic(), builtin_thirds(), [(0, 0)], [3, 10, 20, 40]
    )
    counts = outcome["growth"][0]["counts"]
    assert counts[0] == {"prefix": 3, "first_indices": 2, "second_indices": 2}
    sizes = [(c["first_indices"], c["second_indices"]) for c in counts]
    assert all(a < b for a, b in zip(sizes, sizes[1:]))
    assert outcome["growth"][0]["strictly_increasing"]


def test_growth_requires_refuted_pair():
    with pytest.raises(ValueError):
        witness_growth(builtin_harmonic(), builtin_harmonic(), [(0, 0)], [10, 20])


def test_growth_empty_shift_list():
    outcome = witness_growth(builtin_harmonic(), builtin_thirds(), [], [10, 20])
    assert outcome["growth"] == []


def test_lemma5_run_passes():
    report = run_lemma5(schedule=(20, 40, 80))
    assert report["passed"]
    assert [(p["left"], p["right"]) for p in report["pairs"]] == [
        ("harmonic", "thirds"),
        ("A:1", "A:2"),
    ]


@pytest.mark.parametrize("schedule", [(), (5,), (10, 5), (20, 20, 40)])
def test_lemma5_refuses_a_schedule_that_cannot_show_growth(schedule):
    with pytest.raises(ValueError, match="two or more increasing prefixes"):
        run_lemma5(schedule=schedule)


def test_cross_route_agreement():
    # Wherever the symbolic route refutes, the empirical route finds
    # witnesses in every cell.
    report = run_theorem9(3, m_max=4, n_max=4, prefix=120)
    for pair in report["pairs"]:
        assert pair["descriptor_verdict"] == "refuted"
        assert all(cell["witness"] is not None for cell in pair["cells"])


def test_reports_are_deterministic():
    first = run_theorem9(2, m_max=2, n_max=2, prefix=80)
    second = run_theorem9(2, m_max=2, n_max=2, prefix=80)
    first.pop("timing")
    second.pop("timing")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_report_json_schema_fields():
    report = run_theorem9(2, m_max=1, n_max=1, prefix=60)
    assert set(report) >= {"experiment", "params", "pairs"}
    pair = report["pairs"][0]
    assert set(pair) >= {"left", "right", "descriptor_verdict", "cells"}
    assert pair["descriptor_verdict"] in ("refuted", "unknown")
    cell = pair["cells"][0]
    assert set(cell) == {"m", "n", "witness"}
    witness = cell["witness"]
    assert set(witness) == {"i", "j", "h_i", "h_j", "g_i", "g_j"}
    assert isinstance(witness["h_i"], str)


# --- witness cells against the per-cell oracle ---------------------------------


class DrawnFirst(SetSpec):
    """The spec, with every listing drawn to 300 values before it is used."""

    def listing(self):
        listing = super().listing()
        listing.try_prefix(300)
        return listing


def oracle_cells(spec_a, spec_b, m_max, n_max, length):
    """The cells of a search on fresh listings, each witness formatted by
    the oracle; the ``ListingExhausted`` message in their place."""
    h, g = spec_a.listing(), spec_b.listing()
    try:
        report = search_shift_witnesses(h, g, m_max, n_max, length)
    except ListingExhausted as exc:
        return str(exc)
    return [
        {"m": c.m, "n": c.n, "witness": witness_json(h, g, c.m, c.n, c.witness)}
        for c in report.cells
    ]


def searched_cells(spec_a, spec_b, m_max, n_max, length):
    try:
        return search_pair(spec_a, spec_b, m_max, n_max, length)["cells"]
    except ListingExhausted as exc:
        return str(exc)


def test_pair_formats_each_witness_position_once(monkeypatch):
    # The 121 witnessed cells of A:2 against A:5 compare 484 values, at only
    # 26 distinct listing positions.
    calls = []

    def counting(x):
        calls.append(x)
        return format_rational(x)

    monkeypatch.setattr(experiments, "format_rational", counting)
    cells = search_pair(build_A(2), build_A(5), 10, 10, 500)["cells"]
    assert sum(cell["witness"] is not None for cell in cells) == 121
    assert len(calls) == 26


def test_cells_format_the_witness_values_the_search_compared():
    factories = spec_factories()
    witnessed = 0
    for make_a in factories:
        for make_b in factories:
            expected = oracle_cells(make_a(), make_b(), 2, 2, 8)
            assert searched_cells(make_a(), make_b(), 2, 2, 8) == expected
            witnessed += isinstance(expected, list) and any(c["witness"] for c in expected)
    assert witnessed > len(factories) ** 2 // 2


def test_cells_read_listings_drawn_further_than_the_search():
    a, b = build_A(1), build_A(2)
    drawn = [DrawnFirst(s.name, s.make_stream, s.descriptor, s.gap_oracle) for s in (a, b)]
    assert len(drawn[0].listing().keys) == 300
    cells = searched_cells(*drawn, 3, 3, 60)
    assert cells == oracle_cells(a, b, 3, 3, 60)
    assert all(c["witness"] is not None for c in cells)


def test_examples_cell_is_the_check_witness_in_i_before_j_order():
    h, g = builtin_harmonic(), builtin_thirds()
    i, j = search_shift_witnesses(h.listing(), g.listing(), 0, 0, 10).cells[0].witness
    assert i > j
    hl, gl = h.listing(), g.listing()
    witness = witness_json(hl, gl, 0, 0, prefix_coorder(hl, gl, 10))
    assert run_examples()["pairs"][0]["cells"] == [{"m": 0, "n": 0, "witness": witness}]
