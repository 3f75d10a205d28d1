"""Passive learning of deterministic labeled MDPs from observation traces.

The learner builds a frequency prefix tree over the traces and then merges
statistically compatible nodes in the red-blue framework. Compatibility uses
a per-observation Hoeffding test whose significance is controlled by eps_al:
smaller eps_al widens the acceptance bound, so smaller values merge more
aggressively and yield smaller models.

Most of a prefix tree is unique trace tails: the part of a trace after it
leaves every other trace of the sample. Each such tail is stored as one
compressed node, a reference (steps, pos) into that trace's step tuple, and
is expanded one level at a time only when a second trace passes through it,
when a merge adds counts into it, or when it is promoted to a state. A
tail's edges all have frequency 1, so on a tail every Hoeffding bound is at
least sqrt(ln(2 / eps_al) / 2) * (1 + 1/sqrt(n)) for the other side's n.
When that scale is at least 1, i.e. eps_al <= 2/e^2 ~= 0.27, no test can
fire and a tail is compatible with anything. Above 2/e^2 the exact test runs
at each step of the tail against the other side, so the learned model is
the same as with a fully expanded tree at every eps_al.

Edges are keyed by the traces' own (action, observation) pairs. The loaders
(`observation_traces`) give equal pairs one shared tuple, which only makes
the key lookups faster: results depend on key equality alone.

A learning run mutates its own tree, so each invocation is single-threaded;
the returned models are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import log, sqrt
from types import MappingProxyType
from typing import Iterable, Sequence

from .models import (
    DeterministicLabeledMdp,
    ObsTrace,
    RewardObservationTrace,
    check_symbol,
    read_trace_file,
)


class InconsistentSample(ValueError):
    """Raised when the traces of one sample do not share an initial observation."""


_EMPTY = MappingProxyType({})


class IofptaNode:
    """Prefix tree node: an observation label plus frequency-annotated edges.

    children and freq are keyed by (action, observation); an edge exists iff
    its frequency is positive. totals caches the per-action frequency sums.

    A node that only one trace reaches is a compressed tail: steps is that
    trace's step tuple and pos the index of the node's outgoing step, so the
    node stands for the chain of frequency-1 edges steps[pos:]. Until it is
    expanded, its children, freq and totals are empty read-only mappings.
    Expanded nodes have steps None.
    """

    __slots__ = ("label", "children", "freq", "totals", "red_index", "steps", "pos")

    def __init__(
        self, label: str, steps: Sequence[tuple[str, str]] | None = None, pos: int = 0
    ):
        self.label = label
        self.red_index: int | None = None
        self.steps = steps
        self.pos = pos
        if steps is None:
            self.children: dict[tuple[str, str], IofptaNode] = {}
            self.freq: dict[tuple[str, str], int] = {}
            self.totals: dict[str, int] = {}
        else:
            self.children = self.freq = self.totals = _EMPTY

    def expand(self) -> None:
        """Turn a tail into an ordinary node whose one child is the rest of
        the tail; a no-op on an expanded node."""
        steps = self.steps
        if steps is None:
            return
        self.steps = None
        self.children, self.freq, self.totals = {}, {}, {}
        if self.pos < len(steps):
            key = steps[self.pos]
            self.children[key] = IofptaNode(key[1], steps, self.pos + 1)
            self.freq[key] = 1
            self.totals[key[0]] = 1


def _add_path(node: IofptaNode, steps: Sequence[tuple[str, str]], pos: int) -> None:
    """Add one count along steps[pos:] from node, expanding tails on the way
    and ending in a new tail where the tree has no matching child."""
    for pos in range(pos, len(steps)):
        if node.steps is not None:
            node.expand()
        key = steps[pos]
        node.freq[key] = node.freq.get(key, 0) + 1
        node.totals[key[0]] = node.totals.get(key[0], 0) + 1
        child = node.children.get(key)
        if child is None:
            node.children[key] = IofptaNode(key[1], steps, pos + 1)
            return
        node = child


@dataclass(frozen=True)
class Iofpta:
    """Frequency prefix tree acceptor over a multiset of observation traces."""

    root: IofptaNode
    num_traces: int


@dataclass(frozen=True)
class LearnerConfig:
    eps_al: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 < self.eps_al <= 1.0:
            raise ValueError(f"eps_al must be in (0, 1], got {self.eps_al}")


def build_iofpta(traces: Iterable[ObsTrace]) -> Iofpta:
    """Merge the common prefixes of the traces into a frequency tree."""
    traces = list(traces)
    if not traces:
        raise InconsistentSample("empty sample")
    initial = traces[0][0]
    root = IofptaNode(check_symbol(initial))
    for init_obs, steps in traces:
        if init_obs != initial:
            raise InconsistentSample(
                f"initial observations differ: {initial!r} vs {init_obs!r}"
            )
        _add_path(root, steps, 0)
    return Iofpta(root, len(traces))


def _bound_scale(eps_al: float) -> float:
    """sqrt(ln(2 / eps_al) / 2), the factor of every Hoeffding bound."""
    if not 0.0 < eps_al <= 1.0:
        raise ValueError(f"eps_al must be in (0, 1], got {eps_al}")
    return sqrt(0.5 * log(2.0 / eps_al))


def compatible(r: IofptaNode, b: IofptaNode, eps_al: float) -> bool:
    """Statistical compatibility of two nodes and of their common successors.

    Labels must match; for every action taken n1 times at one node and n2
    times at the other, each successor observation's empirical frequencies
    must differ by less than sqrt(ln(2 / eps_al) / 2) * (1/sqrt(n1) +
    1/sqrt(n2)); and the check descends into successors present on both
    sides. An action seen on one side only passes, and a tail counts n = 1
    at each of its steps. A test runs only where its bound is at most 1,
    because frequencies never differ by more. The second node always lies in
    an unmerged part of the tree, which bounds the descent.
    """
    bound_scale = _bound_scale(eps_al)
    if r.label != b.label:
        return False
    return _compatible(r, b, bound_scale)


def _compatible(r: IofptaNode, b: IofptaNode, bound_scale: float) -> bool:
    # Depth-first over the pairs of nodes reached by the same path from
    # (r, b), with an explicit stack of child iterators instead of recursion.
    stack = []
    while True:
        if r.steps is not None or b.steps is not None:
            # Every tail bound exceeds bound_scale, so from 1 up none can fire.
            if bound_scale < 1.0 and not _tail_compatible(r, b, bound_scale):
                return False
        else:
            if not _node_compatible(r, b, bound_scale):
                return False
            stack.append((r.children, iter(b.children.items())))
        while stack:
            r_children, b_items = stack[-1]
            for key, b_child in b_items:
                r_child = r_children.get(key)
                if r_child is not None and r_child is not b_child:
                    if r_child.label != b_child.label:
                        return False
                    r, b = r_child, b_child
                    break
            else:
                stack.pop()
                continue
            break
        else:
            return True


def _node_compatible(r: IofptaNode, b: IofptaNode, bound_scale: float) -> bool:
    """The Hoeffding test of every action of two expanded nodes.

    One pass over each side's edges tests every action whose bound is at most
    1; a key only b has differs by its frequency on b's side.
    """
    tested = {}
    for action, n2 in b.totals.items():
        n1 = r.totals.get(action, 0)
        if n1:
            bound = bound_scale * (1.0 / sqrt(n1) + 1.0 / sqrt(n2))
            if bound <= 1.0:  # frequency differences never exceed 1
                tested[action] = (n1, n2, bound)
    if not tested:
        return True
    r_freq, b_freq = r.freq, b.freq
    for key, f1 in r_freq.items():
        test = tested.get(key[0])
        if test is not None:
            n1, n2, bound = test
            if abs(f1 / n1 - b_freq.get(key, 0) / n2) >= bound:
                return False
    for key, f2 in b_freq.items():
        test = tested.get(key[0])
        if test is not None and key not in r_freq and f2 / test[1] >= test[2]:
            return False
    return True


def _tail_compatible(r: IofptaNode, b: IofptaNode, bound_scale: float) -> bool:
    """Compatibility of a pair in which at least one node is a tail.

    Walks the tail along the other side. At each step the tail side has n=1,
    and the test is symmetric, so which side is the tail does not matter.
    The step's bound against the other side's n is
    bound_scale * (1/sqrt(n) + 1), and a frequency difference can reach it
    only if it is at most 1. There the tail's own key differs by 1 - f0/n, and
    every other key of the action by f/n <= (n - f0)/n, so those are scanned
    only if (n - f0)/n can fail.
    """
    if b.steps is not None:
        tail, other = b, r
    else:
        tail, other = r, b
    steps = tail.steps
    for pos in range(tail.pos, len(steps)):
        if other.steps is not None:
            return True  # two tails: every bound exceeds 1
        key = steps[pos]
        n = other.totals.get(key[0], 0)
        if n:
            bound = bound_scale * (1.0 / sqrt(n) + 1.0)
            if bound <= 1.0:
                f0 = other.freq.get(key)
                if f0 is None or 1.0 - f0 / n >= bound:
                    return False
                if (n - f0) / n >= bound:
                    action = key[0]
                    for k, f in other.freq.items():
                        if k[0] == action and k != key and f / n >= bound:
                            return False
        other = other.children.get(key)
        if other is None:
            return True
    return True


def _fold(target: IofptaNode, source: IofptaNode) -> None:
    """Add source's subtree frequencies into target's region of the automaton.

    Matching edges add up and descend; unmatched subtrees are grafted whole.
    The walk descends the unmerged source tree, so it terminates even though
    the target region may contain cycles.
    """
    stack = []
    while True:
        if source.steps is not None:
            _add_path(target, source.steps, source.pos)
        elif source.freq:
            target.expand()
            stack.append((target, source.children, iter(source.freq.items())))
        while stack:
            node, s_children, s_items = stack[-1]
            for key, count in s_items:
                node.freq[key] = node.freq.get(key, 0) + count
                node.totals[key[0]] = node.totals.get(key[0], 0) + count
                t_child = node.children.get(key)
                if t_child is None:
                    node.children[key] = s_children[key]
                else:
                    target, source = t_child, s_children[key]
                    break
            else:
                stack.pop()
                continue
            break
        else:
            return


def run_ioalergia(
    traces: Iterable[ObsTrace], config: LearnerConfig = LearnerConfig()
) -> DeterministicLabeledMdp:
    """Learn a deterministic labeled MDP from a multiset of observation traces.

    The tree root becomes the initial state. Blue nodes (non-promoted children
    of promoted states) are processed in passes over the promoted states in
    promotion order: each state's blue children go in (action, observation)
    order, including those that a fold grafts onto it meanwhile, and the
    passes repeat until no blue node is left. Each blue node is merged into
    the first compatible promoted state, or promoted itself. The same sample
    in the same order yields the identical model.
    """
    tree = build_iofpta(traces)
    root = tree.root
    root.red_index = 0
    red: list[IofptaNode] = [root]

    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(red):
            node = red[i]
            key = _first_blue_key(node)
            if key is None:
                i += 1
                continue
            changed = True
            blue = node.children[key]
            merged = False
            for candidate in red:
                if candidate.label == blue.label and compatible(
                    candidate, blue, config.eps_al
                ):
                    node.children[key] = candidate
                    _fold(candidate, blue)
                    merged = True
                    break
            if not merged:
                blue.expand()
                blue.red_index = len(red)
                red.append(blue)
            # Folding can graft new blue nodes onto earlier promoted states,
            # so rescan this state and let the outer loop settle globally.

    states = tuple(range(len(red)))
    label = {node.red_index: node.label for node in red}
    counts: dict[tuple[int, str], dict[int, int]] = {}
    for node in red:
        for key, count in node.freq.items():
            action = key[0]
            succ = node.children[key].red_index
            entry = counts.setdefault((node.red_index, action), {})
            entry[succ] = entry.get(succ, 0) + count
    trans = {
        key: {succ: Fraction(c, sum(entry.values())) for succ, c in entry.items()}
        for key, entry in counts.items()
    }
    return DeterministicLabeledMdp(
        states=states,
        initial=0,
        actions=tuple(sorted({action for (_, action) in counts})),
        label=label,
        trans=trans,
        counts=counts,
    )


def _first_blue_key(node: IofptaNode) -> tuple[str, str] | None:
    best = None
    for key, child in node.children.items():
        if child.red_index is None and (best is None or key < best):
            best = key
    return best


class _PairMemo(dict):
    """Maps (action, reward, obs) steps to (action, obs) pairs, one tuple per
    distinct pair; it lives for one call."""

    __slots__ = ("_shared",)

    def __init__(self) -> None:
        self._shared: dict[tuple[str, str], tuple[str, str]] = {}

    def __missing__(self, step: tuple[str, float, str]) -> tuple[str, str]:
        pair = (step[0], step[2])
        pair = self[step] = self._shared.setdefault(pair, pair)
        return pair


def observation_traces(episodes: Iterable[RewardObservationTrace]) -> list[ObsTrace]:
    """The `observation_part` of each episode, with one shared tuple for all
    equal (action, observation) pairs, which speeds up the learner's key
    lookups. Each step costs one dict lookup; only a step unequal to all
    before it builds a pair."""
    pairs = _PairMemo().__getitem__
    return [(t.initial_obs, tuple(map(pairs, t.steps))) for t in episodes]


def observation_traces_from_file(path) -> list[ObsTrace]:
    """Load a trace file, discarding the rewards (see `observation_traces`)."""
    return observation_traces(read_trace_file(path))
