''' Bounded derivation search, dead-word detection, greedy Dehn runs, and
the translation of Dehn transformations into {0,1,2} derivations.
'''

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

from .core import free_reduce
from .rewrite import (Step, Derivation, StepError, KindError, _successors, dehn_steps,
	apply_dehn, unwind)


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
	cap, and nothing queued after that is ever expanded.  From then on a
	successor within the length cap is only compared with the target, not
	stored or queued; a node whose length is not one step from the
	target's builds no successors, and insertions only when they make the
	target's length.  A word stored there could still change the path to
	the target (reached again with fewer insertions, it takes the new
	parent), so a target met in that phase is searched for again in full.
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

	def insertions(cur, first):
		for pos in range(first, len(cur) + 1):
			head, tail = cur[:pos], cur[pos:]
			for pair, fields in after.get(cur[pos - 1:pos], pairs):
				yield 'inf', pos, fields, head + pair + tail

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
	gain, reach = max(gains), gains | {2}

	def bfs(prune):
		'''The search; with prune, past the node cap it only looks for the
		target.  An entry c made from P by a step s at i skips what the other
		side of a commuting square built: if s is of type 0, 1 or 2 and c is
		no shorter than P or len(P) + gain <= max_len, c's steps of types 0-2
		whose factor ends by i (_successors' since); if s inserts, c's
		insertions before i.  Exact: for such a t, t(c) = s(t(P)), and t(P)
		precedes c among P's successors, so it was queued first, or reached
		with no more insertions (and expanded uncapped before c, building
		t(c)), or it passed max_len, clearing emptied, and so does t(c).
		Nothing is skipped while capped, nor across kinds: a rewrite of an
		inserted c may pass max_len where the grow test refused the insertion
		on t(P) without clearing emptied.  A new meaning of emptied (ROADMAP
		item 1) must keep that exclusion.'''
		# word -> (fewest insertions, previous word, kind, pos, step fields);
		# the start word holds its count only
		seen = {start: (0,)}
		queue = deque([(start, 0, 0, 0, 0)])  # word, depth, insertions, since, first
		visited = 0
		emptied = True
		live = 1  # queued entries with depth < max_steps, the start included
		capped = prune and live > max_visited
		while queue:
			cur, depth, ins, since, first = queue.popleft()
			if depth >= max_steps:
				emptied = False
				continue
			visited += 1
			if visited > max_visited:
				emptied = False
				break
			if capped and goal_len - len(cur) not in reach:
				continue
			size = len(cur)
			grow = use_inf and ins < max_ins and size + 2 <= max_len \
				and (not capped or size + 2 == goal_len)
			for succs, nins in ((_successors(p, cur, kinds, 0 if capped else since), ins),
					(insertions(cur, 0 if capped else first) if grow else (), ins + 1)):
				for kind, pos, fields, nxt in succs:
					if len(nxt) > max_len:
						emptied = False
						continue
					if capped and nxt != goal:
						continue
					old = seen.get(nxt)
					if old is not None and old[0] <= nins:
						continue
					seen[nxt] = (nins, cur, kind, pos, fields)
					if nxt == goal:
						# past the cap, the unpruned search may have given a
						# word on this path a parent with fewer insertions
						return bfs(False) if capped else SearchOutcome('found',
							unwind(seen, w, nxt), visited=visited)
					if kind == 'inf':
						queue.append((nxt, depth + 1, nins, 0, pos))
					else:
						queue.append((nxt, depth + 1, nins,
							pos if size + gain <= max_len or len(nxt) >= size else 0, 0))
					live += depth + 1 < max_steps
					capped = prune and live > max_visited
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
	depth 3 on the factor); failure of the bounded search on an eligible
	presentation is a hard error.'''
	if any(abs(len(l) - len(r)) > 2 for l, r in p.relations):
		raise StepError('presentation violates the length-2 hypothesis')
	u, up = ds.factor, ds.replacement
	# whole relation side, positive or inverse orientation: one type 1
	u_code, up_code = p._encode(u), p._encode(up)
	for fac, new, fields in p._type1.get(u_code[:1], ()):
		if u_code == fac and up_code == new:
			return Derivation(tuple(w), [Step('1', ds.pos, *fields)])
	limits = SearchLimits(max_steps=3, max_word_length=len(u) + 2)
	out = bounded_derivation_search(p, u, up, {'0', '1', '2r', '2l'}, limits)
	if out.result != 'found':
		raise StepError('Dehn step admits no short {0,1,2} realization; '
			'this contradicts the connection result for this presentation')
	steps = [replace(s, pos=s.pos + ds.pos) for s in out.derivation.steps]
	return Derivation(tuple(w), steps)
