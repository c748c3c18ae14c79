"""The summary of ``tools/pairs.py`` on canned benchmark results, and
the line count of ``tools/loc.py`` on a synthetic module and its deltas
between two synthetic trees."""

import importlib.util
from pathlib import Path

import pytest


def _tool(name):
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parent.parent / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pairs, loc = _tool("pairs"), _tool("loc")

END_TO_END = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
              {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.05}]


def _runs(wall, rate):
    return [{"correct": True, "metrics": {"wall_s": {"value": w, "unit": "s"},
                                          "rate": {"value": r, "unit": "1/s"}}}
            for w, r in zip(wall, rate)]


def test_claim_needs_nine_tenths_of_the_pairs_and_a_gain_beyond_the_spread():
    parent = [0.120, 0.121, 0.122, 0.119, 0.124, 0.120, 0.123, 0.121, 0.122, 0.120]
    change = [0.035] * 9 + [0.130]  # one pair lost: 9 of 10 won
    wall, rate = pairs.summarize(_runs(parent, parent), _runs(change, parent), END_TO_END)
    assert (wall.won, wall.pairs) == (9, 10)
    assert wall.parent == pairs.quartiles(parent)
    assert wall.parent[1] == pytest.approx(0.1210)
    assert wall.gain == pytest.approx(0.1210 - 0.035)
    assert wall.claim_holds and wall.within_bound
    # equal runs are ties: no pair won, no claim, no regression
    assert (rate.won, rate.gain, rate.claim_holds, rate.within_bound) == (0, 0.0, False, True)

    # two pairs lost: 8 of 10 is short of nine tenths, however large the gain
    change = [0.035] * 8 + [0.130] * 2
    wall, _ = pairs.summarize(_runs(parent, parent), _runs(change, parent), END_TO_END)
    assert wall.won == 8 and not wall.claim_holds


def test_claim_needs_the_median_gain_above_the_parents_interquartile_range():
    parent = [0.10, 0.11, 0.12, 0.13, 0.14, 0.10, 0.11, 0.12, 0.13, 0.14]
    change = [x - 0.005 for x in parent]  # every pair won by less than the IQR
    wall, _ = pairs.summarize(_runs(parent, parent), _runs(change, parent), END_TO_END)
    assert wall.won == 10
    assert wall.spread == pytest.approx(0.02)
    assert not wall.claim_holds


def test_higher_is_better_and_the_bound():
    base = [1.0] * 5
    _, rate = pairs.summarize(_runs(base, [10.0] * 5), _runs(base, [12.0] * 5), END_TO_END)
    assert rate.won == 5 and rate.gain == pytest.approx(2.0) and rate.claim_holds
    _, rate = pairs.summarize(_runs(base, [10.0] * 5), _runs(base, [9.4] * 5), END_TO_END)
    assert rate.won == 0 and not rate.within_bound  # 6% worse, bound 5%
    _, rate = pairs.summarize(_runs(base, [10.0] * 5), _runs(base, [9.6] * 5), END_TO_END)
    assert rate.within_bound
    lines = pairs.report([rate])
    assert lines[0].startswith("rate (1/s, higher is better): parent 10 [10, 10]")
    assert "won 0/5" in lines[0] and "within bound 5%" in lines[0]
    assert lines[0].endswith("claim not met")


def test_runs_alternate_with_the_parent_first_in_odd_pairs():
    assert pairs.order(3) == [(1, "parent"), (1, "change"), (2, "change"), (2, "parent"),
                              (3, "parent"), (3, "change")]


def test_summary_needs_matched_pairs():
    with pytest.raises(ValueError, match="one run of each side"):
        pairs.summarize(_runs([1.0], [1.0]), [], END_TO_END)
    assert pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)


_MODULE = '''"""A module docstring
over two lines."""

import os  # a trailing comment keeps its line

# a comment-only line
X = """a string, not a docstring,

over three lines"""


class A:
    """One-line class docstring."""

    def f(self):
        \'\'\'A method docstring,

        with a blank line inside.
        \'\'\'
        return os.sep


async def g():
    r"""Raw."""
    return 1


def h():
    return """not a docstring"""
'''


def test_loc_counts_code_lines_only(tmp_path, capsys):
    # 29 lines: 10 blank (one inside a string), 1 comment-only, 8 in
    # docstrings (a blank one among them) and 10 of code
    assert loc.count(_MODULE) == (29, 10)
    pkg = tmp_path / "src" / "helmlayer"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text(_MODULE)
    (pkg / "b.py").write_text("x = 1\n\n")
    loc.main([str(tmp_path)])
    assert capsys.readouterr().out.splitlines() == [
        "    29     10  a.py", "     2      1  b.py", "    31     11  total"]


def test_loc_against_another_tree_prints_each_modules_deltas(tmp_path, capsys):
    # a module changed, one only in the tree counted and one only in the
    # other: each line is the tree's counts, then its counts less the other's
    for tree, modules in (("new", {"a.py": _MODULE, "b.py": "x = 1\n\n"}),
                          ("old", {"a.py": "y = 2\n# gone\nz = 3\n", "c.py": '"""Doc."""\n'})):
        pkg = tmp_path / tree / "src" / "helmlayer"
        pkg.mkdir(parents=True)
        for name, text in modules.items():
            (pkg / name).write_text(text)
    loc.main([str(tmp_path / "new"), "--against", str(tmp_path / "old")])
    assert capsys.readouterr().out.splitlines() == [
        "    29     10    +26     +8  a.py",
        "     2      1     +2     +1  b.py",
        "     0      0     -1     +0  c.py",
        "    31     11    +27     +9  total"]
