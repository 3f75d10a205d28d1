"""Mutant catalogue: small deliberate faults that named tests must catch.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutants.py            # every entry
    python tests/mutants.py NAME ...   # only the named entries

Each entry names a file, an exact old text, the text that replaces it and
the test ids that must fail. The runner refuses an entry whose old text does
not occur exactly once in its file, so code that moves must take its entry
along. For each entry it copies the tree to a temporary directory, applies
the one replacement there and runs pytest on the entry's test ids. The
mutant is killed only if one of those tests fails; a collection error, a
fixture error or a timeout does not count, so a mutant that breaks the
syntax survives. Exit status: 0 if every selected mutant is killed, 1 if
one survives, 2 if an entry is refused or unknown.

The file name does not match pytest's `test_*.py` pattern, so pytest never
collects it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600
COPY_IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_work", ".bench_build",
    "*.egg-info", "build")


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = [
    Mutant(
        "hoeffding-strict", "src/poql/learn.py",
        "            if abs(r_edge[0] / n1 - f2 / n2) >= bound:\n",
        "            if abs(r_edge[0] / n1 - f2 / n2) > bound:\n",
        ("tests/test_learn.py::test_node_compatible_rejects_a_difference_equal_to_its_bound",),
    ),
    Mutant(
        "blue-scan-one-round", "src/poql/learn.py",
        "            idle += 1\n            i = (i + 1) % len(red)\n",
        "            idle += 1\n            i += 1\n            if i == len(red):\n"
        "                break\n",
        ("tests/test_learn.py::test_learner_matches_golden_models",),
    ),
    Mutant(
        "tail-no-other-key-scan", "src/poql/learn.py",
        "                if (n - f0) / n >= bound:\n",
        "                if False:\n",
        ("tests/test_learn.py::test_compatible_keeps_the_float_rounding_of_the_per_key_test",),
    ),
    Mutant(
        "greedy-first-maximum", "src/poql/agent.py",
        "    if row.count(best) == 1:\n",
        "    if row.count(best) >= 1:\n",
        ("tests/test_agent.py::test_get_action_matches_the_tie_list_rule",),
    ),
    Mutant(
        "step-to-keeps-flag", "src/poql/models.py",
        "        return ExtendedState(obs, key.state, False)\n",
        "        return ExtendedState(obs, key.state, key.defined)\n",
        ("tests/test_models.py::test_step_to_mismatch_sets_flag",),
    ),
    Mutant(
        "two-draws-per-step", "src/poql/envs.py",
        "        r = self._rng.random()\n",
        "        self._rng.random()\n        r = self._rng.random()\n",
        ("tests/test_envs.py::test_step_matches_the_pomdp_read_directly",),
    ),
    Mutant(
        "bootstrap-clamped-at-zero", "src/poql/agent.py",
        "    max_next = max(next_row) if next_row is not None else 0.0\n",
        "    max_next = max(0.0, *next_row) if next_row is not None else 0.0\n",
        ("tests/test_acceptance.py::test_criterion_3_update_matches_closed_form",),
    ),
    Mutant(
        "expected-steps-reversed-sweep", "src/poql/beliefs.py",
        "        for k, state_rows in sweep:\n",
        "        for k, state_rows in reversed(sweep):\n",
        ("tests/test_beliefs.py::test_optimal_expected_steps_equals_the_reference_on_each_environment",
         "tests/test_beliefs.py::test_optimal_expected_steps_equals_the_reference_on_each_belief_mdp",
         "tests/test_beliefs.py::test_optimal_expected_steps_equals_the_reference_on_random_mdps"),
    ),
    Mutant(
        "expected-steps-no-prob1e-guard", "src/poql/beliefs.py",
        "    live = _reach_goal_almost_surely(rows, exits)\n",
        "    live = set(rows)\n",
        ("tests/test_beliefs.py::test_optimal_expected_steps_is_inf_behind_a_trap",
         "tests/test_beliefs.py::test_optimal_expected_steps_is_inf_when_the_only_other_action_loops"),
    ),
    Mutant(
        "compatible-expands-b", "src/poql/learn.py",
        "        r, b = pairs.pop()\n",
        "        r, b = pairs.pop()\n        b.expand()\n",
        ("tests/test_learn.py::test_compatible_mutates_neither_tree",),
    ),
    Mutant(
        "freq-returns-children", "src/poql/learn.py",
        "        return MappingProxyType({key: edge[0] for key, edge in self.edges.items()})\n",
        "        return MappingProxyType({key: edge[1] for key, edge in self.edges.items()})\n",
        ("tests/test_learn.py::test_iofpta_edge_mass_counts_every_step",),
    ),
    Mutant(
        "greedy-memo-stores-a-drawn-tie", "src/poql/agent.py",
        "            choice = greedy[state] = greedy_choice(q.get(state), len(actions))\n",
        "            choice = greedy_choice(q.get(state), len(actions))\n"
        "            if type(choice) is not int:\n"
        "                choice = choice[randbelow(len(choice), rng)]\n"
        "            greedy[state] = choice\n",
        ("tests/test_agent.py::test_get_action_matches_the_tie_list_rule",),
    ),
    Mutant(
        "fold-drops-a-count", "src/poql/learn.py",
        "                    t_edge[0] += s_edge[0]\n",
        "                    t_edge[0] += s_edge[0] - (s_edge[0] > 1)\n",
        ("tests/test_agent.py::test_train_matches_the_reference_trainer",),
    ),
    Mutant(
        "prune-red-child-as-tree", "src/poql/learn.py",
        "            r_term = (0.0 if r_edge[1].red_index is not None else\n",
        "            r_term = (0.0 if False else\n",
        ("tests/test_learn.py::test_compatible_follows_a_red_edge_whatever_its_count",
         "tests/test_learn.py::test_compatible_matches_the_per_key_test_on_partly_merged_trees"),
    ),
    Mutant(
        "prune-at-bound-one", "src/poql/learn.py",
        "            if bound_scale * (r_term + b_term) > 1.0:\n",
        "            if bound_scale * (r_term + b_term) >= 1.0:\n",
        ("tests/test_learn.py::"
         "test_compatible_visits_a_child_pair_whose_pruning_bound_is_exactly_one",),
    ),
    Mutant(
        "tail-prune-red-other-as-tree", "src/poql/learn.py",
        "        if other.red_index is None and bound_scale * ",
        "        if bound_scale * ",
        ("tests/test_learn.py::test_compatible_follows_a_red_edge_whatever_its_count",
         "tests/test_learn.py::test_compatible_matches_the_per_key_test_on_partly_merged_trees"),
    ),
    Mutant(
        "tail-prune-at-bound-one", "src/poql/learn.py",
        " * (1.0 / sqrt(edge[0]) + 1.0) > 1.0:\n",
        " * (1.0 / sqrt(edge[0]) + 1.0) >= 1.0:\n",
        ("tests/test_learn.py::"
         "test_compatible_walks_a_tail_past_a_tree_edge_whose_bound_is_exactly_one",),
    ),
    Mutant(
        "fold-keeps-stale-totals", "src/poql/learn.py",
        "            target.expand()\n            target._totals = None\n",
        "            target.expand()\n",
        ("tests/test_learn.py::test_edge_tables_stay_consistent_through_the_merges",),
    ),
    Mutant(
        "add-path-keeps-stale-totals", "src/poql/learn.py",
        "        edge[0] += 1\n        node._totals = None\n",
        "        edge[0] += 1\n",
        ("tests/test_learn.py::test_edge_tables_stay_consistent_through_the_merges",),
    ),
    Mutant(
        "label-clash-accepted", "src/poql/models.py",
        "                    if other is not nxt:\n",
        "                    if False:\n",
        ("tests/test_models.py::test_dlmdp_rejects_label_nondeterminism",
         "tests/test_cli.py::test_eval_refuses_model_values_that_no_model_has[shared-label]"),
    ),
    Mutant(
        "bump-leaves-flag-clear", "src/poql/envs.py",
        "            return [((cell, bump), Fraction(1))]\n",
        "            return [((cell, False), Fraction(1))]\n",
        ("tests/test_envs.py::test_thinmaze_wall_bump_keeps_position",),
    ),
    Mutant(
        "gravity-pulls-up", "src/poql/envs.py",
        '        pull = spec.move(cell, "down") or cell\n',
        '        pull = spec.move(cell, "up") or cell\n',
        ("tests/test_envs.py::test_gravity_pulls_down_half_the_time_before_toggle",
         "tests/test_envs.py::test_gravity_oracle_is_twenty_six"),
    ),
    Mutant(
        "grid-edges-stored-as-given", "src/poql/envs.py",
        '        object.__setattr__(self, "blocked", frozenset(map(self._edge, self.blocked)))\n',
        "        frozenset(map(self._edge, self.blocked))\n",
        ("tests/test_envs.py::test_grid_spec_wall_blocks_whichever_cell_comes_first",),
    ),
    Mutant(
        "belief-budget-off-by-one", "src/poql/beliefs.py",
        "        room = max_states - len(beliefs)\n",
        "        room = max_states - len(beliefs) - 1\n",
        ("tests/test_beliefs.py::test_belief_mdp_matches_the_branch_by_branch_build",),
    ),
    Mutant(
        "belief-early-stop-off-by-one", "src/poql/beliefs.py",
        "            if len(fresh) > room:\n",
        "            if len(fresh) >= room:\n",
        ("tests/test_beliefs.py::test_belief_mdp_matches_the_branch_by_branch_build",),
    ),
    Mutant(
        "belief-known-key-counted-fresh", "src/poql/beliefs.py",
        "                    if k not in index:\n",
        "                    if True:\n",
        ("tests/test_beliefs.py::test_belief_mdp_matches_the_branch_by_branch_build",),
    ),
    Mutant(
        "belief-support-unsorted", "src/poql/beliefs.py",
        "    return Belief({s: w / norm for s, w in sorted(new.items())}), norm\n",
        "    return Belief({s: w / norm for s, w in new.items()}), norm\n",
        ("tests/test_beliefs.py::test_belief_mdp_matches_the_branch_by_branch_build",),
    ),
]


def check_entry(mutant: Mutant) -> str | None:
    """Why the entry cannot be applied, or None if its old text occurs once."""
    path = ROOT / mutant.path
    if not path.is_file():
        return f"{mutant.path} does not exist"
    count = path.read_text().count(mutant.old)
    if count != 1:
        return f"its old text occurs {count} times in {mutant.path}, not once"
    return None


def failed_ids(pytest_output: str) -> list[str]:
    """Node ids of the FAILED lines of pytest's short summary (-rf)."""
    return [line.split()[1] for line in pytest_output.splitlines()
            if line.startswith("FAILED ")]


def names_test(test_id: str, node_id: str) -> bool:
    """Whether node_id is test_id, or one of its parametrized cases."""
    return node_id == test_id or node_id.startswith(test_id + "[")


def run_mutant(mutant: Mutant) -> tuple[bool, str]:
    """Apply the mutant in a copy of the tree; (killed, what happened)."""
    with tempfile.TemporaryDirectory(prefix="poql-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=COPY_IGNORE)
        path = tree / mutant.path
        path.write_text(path.read_text().replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-rf", "-p", "no:cacheprovider",
               *mutant.tests]
        try:
            proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return False, f"timed out after {TIMEOUT_S} s"
    killers = [node for node in failed_ids(proc.stdout)
               if any(names_test(t, node) for t in mutant.tests)]
    if killers:
        return True, f"killed by {killers[0]}"
    last = (proc.stdout.strip() or proc.stderr.strip()).splitlines()[-1:] or ["no output"]
    return False, f"survived (pytest exit {proc.returncode}: {last[0]})"


def main(argv: list[str]) -> int:
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}; known: {', '.join(by_name)}")
        return 2
    selected = [by_name[name] for name in argv] or MUTANTS
    refused = [(m, why) for m in selected if (why := check_entry(m)) is not None]
    for mutant, why in refused:
        print(f"refused {mutant.name}: {why}")
    if refused:
        return 2
    start = time.perf_counter()
    survivors = 0
    for mutant in selected:
        t0 = time.perf_counter()
        killed, what = run_mutant(mutant)
        survivors += not killed
        print(f"{mutant.name}: {what} ({time.perf_counter() - t0:.1f} s)", flush=True)
    print(f"{len(selected) - survivors}/{len(selected)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
