''' Bounded derivation search, dead-word detection, greedy Dehn runs, and
the translation of Dehn transformations into {0,1,2} derivations.
'''

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice

from .core import free_reduce
from .rewrite import (Step, Derivation, StepError, KindError, _successors, dehn_steps,
	apply_dehn, embed, unwind)


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
	deduplication; insertions use presentation letters, positions in the
	word, at most max_insertions along a path, and the length cap.

	Successors come in applicable_steps order, then insertions by
	position, letter and sign.  Dedupe drops a word already reached with
	no more insertions; one reached with fewer is expanded anew, so the
	insertion budget stays exact.  The pair inserted at q whose second
	letter is the letter before q is skipped: the opposite pair at q - 1
	made its word just before.  Words are strings, w and target encoded
	together (Presentation._encode).

	Once max_visited + 1 entries with depth < max_steps have been queued
	(the start counts as one), the search is certain to stop at the node
	cap, and nothing queued after that is ever expanded.  The cap is tested
	after each expanded node, so the node that makes it certain is finished
	in full and a target met there is the full search's answer.  Then one
	pass reads the first max_visited - visited queued entries, those the
	full search would expand next, and only compares their successors with
	the target: an entry whose length is not one step from the target's is
	passed over, and an insertion is a lookup among the words one insertion
	below the target.  A word stored there could still change the path to
	the target (reached again with fewer insertions, it takes the new
	parent), so a target met in that pass is searched for again in full.
	The answer, node count and derivation are those of the full search.'''
	w, target = tuple(w), tuple(target)
	use_inf = 'inf' in kinds
	if w == target:
		return SearchOutcome('found', Derivation(w, []), visited=1,
			frontier_emptied=True)
	code = p._encode(w + target)
	start, goal = code[:len(w)], code[len(w):]
	if not use_inf and next(_successors(p, start, kinds), None) is None:
		return SearchOutcome('dead', visited=1, frontier_emptied=True)
	pairs = [(p._encode(((g, e), (g, -e))), (None, None, None, None, g, e))
		for g in p.generators for e in (1, -1)]
	# letter before the position -> the pairs whose second letter differs
	after = {a[1]: [(b, f) for b, f in pairs if b[1] != a[1]] for a, _ in pairs}
	# the words from which one insertion makes the target
	below = {goal[:i] + goal[i + 2:] for a, _ in pairs for i in range(len(goal) - 1)
		if goal.startswith(a, i)} if use_inf else ()

	max_len, max_steps, max_ins, max_visited = (limits.max_word_length,
		limits.max_steps, limits.max_insertions, limits.max_visited)
	# a step changes the length by -2 (type 0), |l| - |r| (type 1), |l| +
	# |r| - 2(|v| + |v'|) (type 2), at most gain, or 2 (an insertion)
	gains, goal_len = {-2}, len(goal)
	for l, r in p.relations:
		if '1' in kinds:
			gains |= {len(l) - len(r), len(r) - len(l)}
		if '2r' in kinds or '2l' in kinds:
			gains.update(range(len(l) + len(r) - 4, -len(l) - len(r) - 1, -2))
	gain, reach = max(gains), gains | {2} if goal_len <= max_len else ()

	def bfs(prune):
		'''The search: one loop takes a node's steps of types 0-2, one
		builds its insertions; with prune, the cap pass above follows the
		node that makes the cap certain.  An entry c made from P by a step s
		at i skips what the other side of a commuting square built: if s is
		of type 0, 1 or 2 and c is no shorter than P or len(P) + gain <=
		max_len, c's steps of types 0-2 whose factor ends by i (_successors'
		since); if s inserts, c's insertions before i.  Exact: for such a t,
		t(c) = s(t(P)), and t(P) precedes c among P's successors, so it was
		queued first, or reached with no more insertions (and expanded
		before c, building t(c)), or it passed max_len, clearing emptied,
		and so does t(c).  Nothing is skipped in the cap pass, nor across
		kinds: a rewrite of an inserted c may pass max_len where the length
		test refused the insertion on t(P) without clearing emptied.  A new
		meaning of emptied (ROADMAP item 1) must keep that exclusion.'''
		# word -> (fewest insertions, previous word, kind, pos, step fields);
		# the start word holds its count only
		seen = {start: (0,)}
		queue = deque([(start, 0, 0, 0, 0)])  # word, depth, insertions, since, first
		visited = 0
		emptied = True
		while queue:
			cur, depth, ins, since, first = queue.popleft()
			if depth >= max_steps:
				emptied = False
				continue
			visited += 1
			if visited > max_visited:
				emptied = False
				break
			size, depth = len(cur), depth + 1
			far = size + gain <= max_len
			for kind, pos, fields, nxt in _successors(p, cur, kinds, since):
				if len(nxt) > max_len:
					emptied = False
					continue
				old = seen.get(nxt)
				if old is not None and old[0] <= ins:
					continue
				seen[nxt] = (ins, cur, kind, pos, fields)
				if nxt == goal:
					return SearchOutcome('found', unwind(seen, w, nxt), visited=visited)
				queue.append((nxt, depth, ins, pos if far or len(nxt) >= size else 0, 0))
			if use_inf and ins < max_ins and size + 2 <= max_len:
				ins += 1
				for pos in range(first, size + 1):
					head, tail = cur[:pos], cur[pos:]
					for pair, fields in after.get(cur[pos - 1:pos], pairs):
						nxt = head + pair + tail
						old = seen.get(nxt)
						if old is not None and old[0] <= ins:
							continue
						seen[nxt] = (ins, cur, 'inf', pos, fields)
						if nxt == goal:
							return SearchOutcome('found', unwind(seen, w, nxt), visited=visited)
						queue.append((nxt, depth, ins, 0, pos))
			if prune and depth < max_steps and visited + len(queue) > max_visited:
				# below max_steps every queued entry counts toward the cap
				for cur, _, ins, _, _ in islice(queue, max_visited - visited):
					if goal_len - len(cur) in reach and (any(nxt == goal
							for _, _, _, nxt in _successors(p, cur, kinds))
							or ins < max_ins and cur in below):
						return bfs(False)
				return SearchOutcome('exhausted', visited=max_visited + 1)
		return SearchOutcome('exhausted', visited=visited, frontier_emptied=emptied)

	return bfs(True)


def is_dead(p, w, kinds):
	'''True iff w is nonempty and eligible for no step of the given kinds
	(insertions excluded by definition).'''
	if 'inf' in kinds:
		raise KindError('dead-word detection excludes insertions')
	return bool(w) and next(_successors(p, p._encode(w), kinds), None) is None


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


def dehn_to_special(p, w, ds):
	'''A {0,1,2} derivation from w realizing one Dehn transformation,
	available when every relation satisfies ||v| - |v'|| <= 2.  Uses the
	direct cases (whole relation side -> one type 1; otherwise a search of
	depth 3 on the factor) at ds.pos; a failed search on an eligible
	presentation, or a factor not at ds.pos in w, is a hard error.'''
	if any(abs(len(l) - len(r)) > 2 for l, r in p.relations):
		raise StepError('presentation violates the length-2 hypothesis')
	u, up = ds.factor, ds.replacement
	# whole relation side, positive or inverse orientation: one type 1
	# step at 0 whose factor ends past |u| - 1
	u_code, up_code = p._encode(u), p._encode(up)
	for _, pos, fields, nxt in _successors(p, u_code, {'1'}, len(u_code) - 1):
		if pos == 0 and nxt == up_code:
			return Derivation(tuple(w), embed(w, ds.pos, Derivation(u, [Step('1', 0, *fields)])))
	limits = SearchLimits(max_steps=3, max_word_length=len(u) + 2)
	out = bounded_derivation_search(p, u, up, {'0', '1', '2r', '2l'}, limits)
	if out.result != 'found':
		raise StepError('Dehn step admits no short {0,1,2} realization; '
			'this contradicts the connection result for this presentation')
	return Derivation(tuple(w), embed(w, ds.pos, out.derivation))
