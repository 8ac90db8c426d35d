''' Bounded derivation search, dead-word detection, greedy Dehn runs, and
the translation of Dehn transformations into {0,1,2} derivations.
'''

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

from .core import free_reduce
from .rewrite import (Step, Derivation, StepError, applicable_steps, apply_step,
	dehn_steps, apply_dehn, unwind)


@dataclass(frozen=True)
class SearchLimits:
	max_steps: int = 20
	max_word_length: int = 24
	max_insertions: int = 4
	max_visited: int = 100000

	def __post_init__(self):
		for f in ('max_steps', 'max_word_length', 'max_insertions', 'max_visited'):
			if getattr(self, f) < 0:
				raise ValueError('%s must be nonnegative' % f)


@dataclass
class SearchOutcome:
	result: str  # 'found', 'exhausted', 'dead'
	derivation: Derivation = None
	visited: int = 0
	frontier_emptied: bool = False

	@property
	def conclusive(self):
		# full exploration of the bounded space is a conclusive negative
		return self.result == 'found' or (self.result == 'dead') or \
			(self.result == 'exhausted' and self.frontier_emptied)


def bounded_derivation_search(p, w, target, kinds, limits):
	'''Breadth-first search over the rewriting graph with exact-word
	deduplication.  Insertions are restricted to presentation letters,
	positions in the current word, at most max_insertions along a path,
	and the word length cap.'''
	w, target = tuple(w), tuple(target)
	plain_kinds = set(kinds) - {'inf'}
	use_inf = 'inf' in kinds
	if w == target:
		return SearchOutcome('found', Derivation(w, []), visited=1,
			frontier_emptied=True)
	if not use_inf and not applicable_steps(p, w, plain_kinds):
		return SearchOutcome('dead', visited=1, frontier_emptied=True)
	# best (fewest) insertion count seen per word; re-expansion allowed
	# when a cheaper path appears so the insertion budget stays exact
	best = {w: 0}
	parent = {w: None}
	queue = deque([(w, 0, 0)])
	visited = 0
	emptied = True
	while queue:
		cur, depth, ins = queue.popleft()
		if depth >= limits.max_steps:
			emptied = False
			continue
		visited += 1
		if visited > limits.max_visited:
			emptied = False
			break
		succs = [(s, apply_step(p, cur, s), 0)
			for s in applicable_steps(p, cur, plain_kinds)]
		if use_inf and ins < limits.max_insertions and len(cur) + 2 <= limits.max_word_length:
			# inline the insertion successors; the Step object is only
			# materialized for words that are actually new
			for pos in range(len(cur) + 1):
				head, tail = cur[:pos], cur[pos:]
				for g in p.generators:
					for e in (1, -1):
						succs.append(((pos, g, e),
							head + ((g, e), (g, -e)) + tail, 1))
		for s, nxt, is_ins in succs:
			if len(nxt) > limits.max_word_length:
				emptied = False
				continue
			nins = ins + is_ins
			if nxt in best and best[nxt] <= nins:
				continue
			if is_ins:
				s = Step('inf', s[0], letter=s[1], sign=s[2])
			best[nxt] = nins
			parent[nxt] = (cur, s)
			if nxt == target:
				return SearchOutcome('found', unwind(parent, w, nxt),
					visited=visited)
			queue.append((nxt, depth + 1, nins))
	return SearchOutcome('exhausted', visited=visited, frontier_emptied=emptied)


def is_dead(p, w, kinds):
	'''True iff w is nonempty and eligible for no step of the given kinds
	(insertions excluded by definition).'''
	if 'inf' in kinds:
		raise StepError('dead-word detection excludes insertions')
	return bool(w) and not applicable_steps(p, w, set(kinds))


def dehn_run(p, w):
	'''Greedy loop: free-reduce, then apply the first available Dehn step;
	terminates because Dehn steps strictly decrease length.'''
	cur = tuple(w)
	trace = []
	while True:
		red = free_reduce(cur)
		if red != cur:
			trace.append(('free_reduce', red))
			cur = red
		steps = dehn_steps(p, cur)
		if not steps:
			return cur, trace
		cur = apply_dehn(cur, steps[0])
		trace.append(('dehn', steps[0]))


def dehn_to_special(p, w, ds, fallback_depth=3):
	'''A {0,1,2} derivation from w realizing one Dehn transformation,
	available when every relation satisfies ||v| - |v'|| <= 2.  Uses the
	direct cases (whole relation side -> one type 1; otherwise a depth-
	bounded search on the factor); failure of the bounded search on an
	eligible presentation is a hard error.'''
	if any(abs(len(l) - len(r)) > 2 for l, r in p.relations):
		raise StepError('presentation violates the length-2 hypothesis')
	u, up = ds.factor, ds.replacement
	# whole relation side, positive or inverse orientation: one type 1
	for fac, new, fields in p.rows_1:
		if u == fac and up == new:
			return Derivation(tuple(w), [Step('1', ds.pos, **fields)])
	limits = SearchLimits(max_steps=fallback_depth,
		max_word_length=len(u) + 2, max_visited=100000)
	out = bounded_derivation_search(p, u, up, {'0', '1', '2r', '2l'}, limits)
	if out.result != 'found':
		raise StepError('Dehn step admits no short {0,1,2} realization; '
			'this contradicts the connection result for this presentation')
	steps = [replace(s, pos=s.pos + ds.pos) for s in out.derivation.steps]
	return Derivation(tuple(w), steps)
