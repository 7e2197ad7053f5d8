"""Mutants that the tests must kill; a CI step, outside the Tier-1 suite.

Each entry of MUTANTS names one edit: a file, an exact text that must
occur in it once, the text that replaces it, and one pytest id.  For each
entry the script copies the checkout, makes the edit in the copy, and
runs the test there; the run's last line must begin "1 failed".  It exits
1 if any old text is missing or any mutant survives.  From the root of a
checkout:

    python .github/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

MATCHCOUNT = "src/crossdimer/matchcount.py"
FAMILIES = "src/crossdimer/families.py"
FORMULAS = "src/crossdimer/formulas.py"
HARNESS = "src/crossdimer/harness.py"
FACE_TEST = \
    "tests/test_matchcount.py::test_plan_signs_make_each_face_clockwise_odd"
BATCH_TEST = \
    "tests/test_matchcount.py::test_det_residues_batch_matches_fraction_det"

# (what the mutant does, file, old text, new text, test id)
MUTANTS = [
    # the vertical sign rule reads the rank alone; every unit square is
    # then clockwise-even
    ("_flips drops its x term", MATCHCOUNT,
     "flips[1] = np.cumsum(occ, 0) - occ + np.arange(x0, x0 + w)[:, None]\n",
     "flips[1] = np.cumsum(occ, 0) - occ\n", FACE_TEST),
    # the back-substitution never updates the running inverse, so every
    # lane of a group of three or more but the last is wrong
    ("the batched inverse skips a step", MATCHCOUNT,
     "                    t = t * x % p\n", "", BATCH_TEST),
    # each lane of a pair takes the other's inverse
    ("the pair branch swaps its inverses", MATCHCOUNT,
     "t * y % p, t * x % p", "t * x % p, t * y % p", BATCH_TEST),
    # a lane whose first row is zero in the pivot column pivots on it
    # whenever another lane's is nonzero
    ("the in-place step runs when any lane leads with a nonzero entry",
     MATCHCOUNT, "if col[:, 0].all():", "if col[:, 0].any():", BATCH_TEST),
    # the window at step s ends at E_s - 1 (but not before s), one column
    # short of the last column of its rows
    ("the window drops its last column", MATCHCOUNT,
     "np.maximum.accumulate(right)[rows], steps)\n",
     "np.maximum.accumulate(right)[rows] - 1, steps)\n", BATCH_TEST),
    # the stripped-side points start at each side's first corner (t = 0,
    # halved down) in place of its first odd step t = 1
    ("the strips start at the corners", FAMILIES,
     "start = np.concatenate([(corners[k, j] + sign) // 2,\n",
     "start = np.concatenate([corners[k, j] // 2,\n",
     "tests/test_graph_pin.py"),
    # the TA and TB cuts clear every fourth point from 1 column in from
    # their rows' ends, in place of 3
    ("the end-anchored trims start 1 column in", FAMILIES,
     "[hi + 1, left - 1]", "[hi - 1, left + 1]",
     "tests/test_graph_pin.py::test_family_graphs_pinned"),
    # the adj that a built Graph decodes from its arrays leaves out the
    # north edges
    ("a built Graph's decoded adj drops its north edges", MATCHCOUNT,
     "_edge_keys(self, np.flatnonzero(self.links))",
     "_edge_keys(self, np.flatnonzero(self.links[0]))",
     "tests/test_graph_pin.py::test_family_graphs_pinned"),
    # an isolated vertex no longer marks its graph unmatchable; only a
    # vertex that two leaves claim does
    ("_peel lets an isolated vertex pass", MATCHCOUNT,
     "bad |= gone & (hit != 1)", "bad |= gone & (hit > 1)",
     "tests/test_matchcount.py::test_count_many_stacks_graphs_apart"),
    # the oracle matches a vertex to a later one that an earlier vertex
    # already took
    ("the oracle matches into a vertex already matched", MATCHCOUNT,
     "if not s & b:", "if True:",
     "tests/test_matchcount.py::test_brute_examples"),
    # an entry whose two ends lie in different pieces of a cut is kept
    ("the entries across a cut are kept", MATCHCOUNT,
     " & (piece[mate] == pa[:, None])", "",
     "tests/test_matchcount.py::test_fkt_matches_brute_across_a_diagonal"),
    # a level cuts its grid where the vertices up to it have more odd
    # than even ones, as well as where they balance
    ("the cuts accept an unbalanced part below", MATCHCOUNT,
     "cut = (below == 0) & (tally > 0)", "cut = (below <= 0) & (tally > 0)",
     "tests/test_matchcount.py::test_tr_1_2_pieces_match_brute"),
    # the CRT primes cover the bound once, not the 2 * bound + 1 values
    # from -bound to bound, so a large negative determinant reads positive
    ("the CRT primes cover only one sign", MATCHCOUNT,
     "_crt_primes(2 * bound + 1)", "_crt_primes(bound)",
     "tests/test_matchcount.py::"
     "test_det_exact_covers_both_signs_of_its_bound"),
    # a piece's columns are numbered from the grid's first column, not
    # from the piece's own
    ("a piece's columns are numbered from the grid's first column",
     MATCHCOUNT, "cols[e] - r0,", "cols[e],",
     "tests/test_matchcount.py::"
     "test_tr_counts_as_pieces_between_its_two_cuts"),
    # the corner quadruple's filter takes w and v from one class, so the
    # first candidate has all four ends in one class
    ("the corner quad ignores the classes", HARNESS,
     "cls(w) != cls(v)", "cls(w) == cls(v)",
     "tests/test_harness.py::test_corner_quad_found"),
    # a TA or TB spec that breaks theorem 1.3's floor-sum rule is built
    ("the trimmed rectangles skip the floor-sum rule", FAMILIES,
     "        check_trim_constraint(*nums)\n", "",
     "tests/test_families.py::test_trim_rect_params_constraint"),
    # a Graph walks its edges for a non-unit step only when the tally of
    # unit edges says there is none, so it keeps a non-unit edge unchecked
    # and its links drop that edge
    ("Graph accepts an edge that is not a unit step", MATCHCOUNT,
     "!= sum(map(len, adj.values())):", "== sum(map(len, adj.values())):",
     "tests/test_matchcount.py::test_faces_reject_non_unit_edge"),
    # a subgraph's mask keeps the north edge from a kept vertex into a
    # dropped one
    ("the mask keeps north edges into a dropped vertex", MATCHCOUNT,
     "        links[1, :, :-1] &= occ[:, 1:]\n", "",
     "tests/test_matchcount.py::"
     "test_masked_subgraphs_are_the_constructors_graphs"),
    # a subgraph's mask reads a point off Z^2 as the vertex it truncates to
    ("the mask truncates a point off Z^2 to a vertex", MATCHCOUNT,
     " & (at % 1 == 0)", "",
     "tests/test_matchcount.py::"
     "test_masked_subgraphs_are_the_constructors_graphs"),
    # split_check takes the class of a crossing edge's lower-left end,
    # whichever of its ends lies in H
    ("split_check reads the class of each crossing edge's lower-left end",
     MATCHCOUNT, "(cls == in_h)[cross]", "cls[cross]",
     "tests/test_matchcount.py::"
     "test_split_check_gives_the_edge_walks_verdicts"),
    # the engine keys a graph by its vertices alone, so of two graphs on
    # one point set the second takes the first one's count
    ("the engine keys graphs without their edges or lattice kind", HARNESS,
     "    digest.update(g.links[:, at[:, 0], at[:, 1]].tobytes())\n", "",
     "tests/test_harness.py::"
     "test_settle_counts_two_graphs_on_one_point_set_apart"),
    # the last term of g takes a quarter of (a - c)^2 in place of a third
    ("g_fn divides (a - c)^2 by 4", FORMULAS,
     "(a - c) ** 2 // 3", "(a - c) ** 2 // 4",
     "tests/test_formulas.py::test_g_q_examples"),
]


def run(root, scratch, path, old, new, test):
    """The last line of test's run on a copy of root with the edit made,
    or why the edit could not be made."""
    shutil.copytree(root, scratch, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
    target = scratch / path
    text = target.read_text()
    if text.count(old) != 1:
        return f"the old text occurs {text.count(old)} times in {path}"
    target.write_text(text.replace(old, new))
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         test], cwd=scratch, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": "src"}).stdout.strip()
    return out.splitlines()[-1] if out else "no output"


def main():
    root = Path(__file__).resolve().parent.parent
    survived = 0
    with tempfile.TemporaryDirectory() as tmp:
        for j, (name, *edit) in enumerate(MUTANTS):
            last = run(root, Path(tmp) / str(j), *edit)
            killed = last.startswith("1 failed")
            survived += not killed
            print(f"{'killed' if killed else 'NOT KILLED'}: {name}: {last}")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
