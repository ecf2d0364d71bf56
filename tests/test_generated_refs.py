"""Generated family references through the benchmark's checkers.

A small grammar draws references: ``harmonic``, ``thirds``, ``T:i``,
``A:i``, ``finite:``, ``interval:`` and ``seq:`` files of Möbius maps, each
followed by up to two of ``+shift``, ``+drop`` and ``+add``. Beside each
reference the test builds its closed-form model from ``bench/families.py``,
and ``families.mobius_text`` writes each ``.seq`` file. ``check`` and ``type2
--format json`` run through ``cli.main``, and ``bench/checks.py`` judges
each output against the models. The checkers are imported from ``bench/``
by path, so one copy of them serves the benchmark and this test.
"""

import contextlib
import io
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enumorder.cli import main
from enumorder.listings import EDIT_SCAN_PREFIX

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import families as fam  # noqa: E402

# Values for finite sets, interval bounds and edits: small heights, so an
# added value that lies in the set at all lies among its first
# EDIT_SCAN_PREFIX values, except for 0 inside a wide interval.
values = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 5, 7]))

# Coefficients of (a*n + b) / (c*n + d), in the benchmark's ranges.
mobius_coefficients = st.tuples(
    st.integers(1, 9), st.integers(-9, 9), st.integers(1, 9), st.integers(1, 9)
).filter(lambda k: k[0] * k[3] != k[1] * k[2])

# A .seq base names its file under "{dir}", the directory the test writes it to.
MOBIUS_FILE = re.compile(r"\{dir\}/(mobius_(-?\d+)_(-?\d+)_(-?\d+)_(-?\d+)\.seq)")


@st.composite
def references(draw):
    """A family reference and its model. The model is None when an added
    value is among the first ``EDIT_SCAN_PREFIX`` values of the set it
    edits: the program refuses that reference."""
    kind = draw(st.sampled_from(["harmonic", "thirds", "T", "A", "finite", "interval", "seq"]))
    if kind == "harmonic":
        ref, model = kind, fam.harmonic()
    elif kind == "thirds":
        ref, model = kind, fam.thirds()
    elif kind in ("T", "A"):
        i = draw(st.integers(1, 4))
        ref, model = f"{kind}:{i}", (fam.block if kind == "T" else fam.union)(i)
    elif kind == "finite":
        vals = draw(st.lists(values, max_size=6, unique=True))
        ref = "finite:" + ",".join(map(str, vals))
        # families.finite takes its values' extremes, which no empty set has.
        model = fam.finite(vals) if vals else fam.Family(ref, lambda: iter(()), lambda v: False)
    elif kind == "interval":
        a, b = sorted(draw(st.lists(values, min_size=2, max_size=2)))
        ref = f"interval:{a},{b}"
        # interval:a,a is the set {a}; families.interval models a < b only,
        # as its block walk goes on for ever after the one value.
        model = fam.interval(a, b) if a < b else fam.finite([a])
    else:
        k = draw(mobius_coefficients)
        ref, model = "seq:{dir}/mobius_%d_%d_%d_%d.seq" % k, fam.mobius(*k)
    for edit in draw(st.lists(st.sampled_from(["shift", "drop", "add"]), max_size=2)):
        if edit == "shift":
            m = draw(st.integers(1, 6))
            ref += f"+shift={m}"
            if model is not None:
                # families.shifted skips m values that must be there; a set
                # shifted past its end is empty, as one shifted by its size.
                model = fam.shifted(model, len(model.prefix(m)))
        elif edit == "drop":
            # Any values, or values among the first 12 listed.
            listed = [] if model is None else model.prefix(12)
            pool = st.one_of(values, st.sampled_from(listed)) if listed else values
            gone = draw(st.lists(pool, min_size=1, max_size=2))
            ref += "+drop=" + ";".join(map(str, gone))
            if model is not None:
                model = fam.dropped(model, gone)
        else:
            extra = draw(st.lists(values, min_size=1, max_size=2, unique=True))
            ref += "+add=" + ";".join(map(str, extra))
            if model is not None and not set(extra) & set(model.prefix(EDIT_SCAN_PREFIX)):
                model = fam.added(model, extra)
            else:
                model = None
    return ref, model


@pytest.fixture(scope="session")
def seq_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mobius")


def with_seq_file(ref, directory):
    """``ref`` with its ``.seq`` file, if it names one, written once under ``directory``."""
    for name, *k in MOBIUS_FILE.findall(ref):
        path = directory / name
        if not path.exists():
            path.write_text(fam.mobius_text(*map(int, k)), encoding="utf-8")
    return ref.replace("{dir}", str(directory))


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    references(),
    references(),
    st.integers(0, 30),
    st.integers(0, 2),
    st.integers(0, 2),
    st.integers(0, 20),
)
def test_check_and_type2_pass_the_bench_checkers(
    seq_dir, left, right, prefix, m_max, n_max, length
):
    (h_ref, h), (g_ref, g) = left, right
    h_ref, g_ref = with_seq_file(h_ref, seq_dir), with_seq_file(g_ref, seq_dir)
    if h is None or g is None:
        for argv in (
            ("check", h_ref, g_ref, "--prefix", str(prefix)),
            ("type2", h_ref, g_ref, "--prefix", str(length), "--format", "json"),
        ):
            code, out, err = run(*argv)
            assert (code, out) == (1, ""), argv
            assert err.startswith("error: segment ") and "already present in the set" in err
        return
    # Prefixes within what both listings hold, as the checkers compare
    # whole prefixes.
    prefix = min(prefix, len(h.prefix(prefix)), len(g.prefix(prefix)))
    code, out, err = run("check", h_ref, g_ref, "--prefix", str(prefix))
    checks.check_check(h, g, prefix)(code, out)
    assert err == ""

    h_held, g_held = len(h.prefix(length + m_max)), len(g.prefix(length + n_max))
    m_max, n_max = min(m_max, h_held), min(n_max, g_held)
    length = min(length, h_held - m_max, g_held - n_max)
    code, out, err = run(
        "type2", h_ref, g_ref, "--mmax", str(m_max), "--nmax", str(n_max),
        "--prefix", str(length), "--format", "json",
    )
    checks.check_type2_json(h, g, m_max, n_max, length)(code, out)
    assert err == ""
