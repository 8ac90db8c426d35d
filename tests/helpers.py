''' Shared fixtures for the test suite: the desk presentations, random word
generators, and independent oracles (permutation-group homomorphisms,
abelianization vectors, brute-force reachability) used to cross-check the
library without reusing its own machinery.
'''

import dataclasses
import functools
import itertools
import random

from collections import deque

from artincalc import (parse_presentation_text, parse_word, parse_positive,
	render_word, invert, free_reduce, Step, Derivation, applicable_steps,
	apply_step, check_derivation)
from artincalc.core import positive_to_word
from artincalc.rewrite import StepError, DehnStep
from artincalc.raag import (AugError, AugStep, AugDerivation, phi, pi_h, to_aug,
	max_index, apply_aug_step, aug_derivation_words)


def make(text, spherical=False):
	p = parse_presentation_text(text)
	if spherical:
		p = dataclasses.replace(p, declared_spherical=True)
	return p


A2 = make('gens: a b\nrel: aba = bab', spherical=True)
I24 = make('gens: a b\nrel: abab = baba', spherical=True)
RA2 = make('gens: a b\nrel: ab = ba', spherical=True)
RA3 = make('gens: a b c\nrel: ab = ba\nrel: bc = cb\nrel: ac = ca')
A3 = make('gens: a b c\nrel: aba = bab\nrel: bcb = cbc\nrel: ac = ca', spherical=True)
F2XF2 = make('gens: a b c d\nrel: ac = ca\nrel: bc = cb\nrel: ad = da\nrel: bd = db')
FIG2 = make('gens: a b c d e f\nrel: ac = cae\nrel: bc = cbe\n'
	'rel: ad = daf\nrel: bd = dbf')
FREE2 = make('gens: a b')
SIDE1 = make('gens: a b\nrel: a = bb')  # a relation side of length 1
MULTI = make('gens: x1 x2\nrel: x1 x2 x1 = x2 x1 x2')


def random_word(p, rng, n):
	return tuple((rng.choice(p.generators), rng.choice((1, -1)))
		for _ in range(n))


def random_positive(p, rng, n):
	return tuple(rng.choice(p.generators) for _ in range(n))


# ---------------------------------------------------------------------------
# permutation-homomorphism oracle: a family of maps into symmetric groups
# respecting the relations.  Agreement on all maps is necessary for two
# words to represent the same group element, so any step that changes an
# image is provably unsound.

def _compose(f, g):
	return tuple(f[g[i]] for i in range(len(f)))


def _pinv(f):
	out = [0] * len(f)
	for i, v in enumerate(f):
		out[v] = i
	return tuple(out)


def _eval(assign, w, deg):
	cur = tuple(range(deg))
	for g, e in w:
		cur = _compose(cur, assign[g] if e == 1 else _pinv(assign[g]))
	return cur


def find_homs(p, count=4, deg=6, seed=0, tries=200000):
	'''Random permutation assignments satisfying every relation of p.'''
	rng = random.Random(seed)
	homs = []
	for _ in range(tries):
		if len(homs) >= count:
			break
		assign = {g: tuple(rng.sample(range(deg), deg)) for g in p.generators}
		ok = all(
			_eval(assign, positive_to_word(l), deg) ==
			_eval(assign, positive_to_word(r), deg)
			for l, r in p.relations)
		if ok and assign not in homs:
			homs.append(assign)
	return homs


class HomOracle:
	def __init__(self, p, **kw):
		self.p = p
		self.deg = kw.pop('deg', 6)
		self.homs = find_homs(p, deg=self.deg, **kw)
		assert self.homs, 'no homomorphisms found for %r' % (p.generators,)

	def images(self, w):
		return tuple(_eval(a, w, self.deg) for a in self.homs)

	def maybe_equal(self, u, v):
		'''False means provably different group elements.'''
		return self.images(u) == self.images(v)


def abelianized(w, gens):
	'''Exponent-sum vector: an exact invariant for all-commuting
	presentations and a sound one everywhere.'''
	out = {g: 0 for g in gens}
	for g, e in w:
		out[g] += e
	return tuple(out[g] for g in gens)


# ---------------------------------------------------------------------------
# brute-force positive-word equivalence: fixed point of single relation
# substitutions over literal strings, written independently of the library
# (joined strings, no Step machinery).

def brute_class(p, u, cap=200000):
	'''Every positive word that the relations of p rewrite u to, by
	breadth-first search over strings that spell each generator with one
	private character, mapped back to generator tuples at the end.'''
	char = {g: chr(i) for i, g in enumerate(p.generators)}
	spell = lambda v: ''.join(char[g] for g in v)
	rels = [(spell(l), spell(r)) for l, r in p.relations]
	rels += [(r, l) for l, r in rels]
	seen = {spell(u)}
	frontier = list(seen)
	while frontier:
		nxt = []
		for w in frontier:
			for src, dst in rels:
				start = 0
				while True:
					i = w.find(src, start)
					if i < 0:
						break
					cand = w[:i] + dst + w[i + len(src):]
					if cand not in seen:
						seen.add(cand)
						nxt.append(cand)
					start = i + 1
		frontier = nxt
		if len(seen) > cap:
			raise RuntimeError('brute class blew the cap')
	return {tuple(p.generators[ord(c)] for c in w) for w in seen}


def brute_pos_equal(p, u, v):
	return tuple(v) in brute_class(p, u)


def all_positive_words(p, n):
	return itertools.product(p.generators, repeat=n)


def brute_right_lcm(p, u, v):
	'''The least common right-multiple of the positive words u and v, by
	enumerating positive words by length and closing each with brute_class,
	as its least class member in the generator order; None if none has
	length <= 12.  u left-divides w exactly when some member of w's class
	has a prefix of length |u| in u's class: if w = u' x with u' ~ u, then
	u x is a member.'''
	order = {g: i for i, g in enumerate(p.generators)}
	cu, cv = brute_class(p, u), brute_class(p, v)
	for n in range(13):
		for w in all_positive_words(p, n):
			cls = brute_class(p, w)
			if any(m[:len(u)] in cu for m in cls) and any(m[:len(v)] in cv for m in cls):
				return min(cls, key=lambda m: [order[g] for g in m])
	return None


def reference_rewrite_path(p, u, v):
	'''rewrite_path by breadth-first search on generator tuples, each
	word's successors relation-major: by relation, 'fwd' before 'bwd',
	then position.  None when v is not reached.'''
	u, v = tuple(u), tuple(v)
	parent = {u: None}
	queue = deque([u])
	while queue and v not in parent:
		cur = queue.popleft()
		for ri, (l, r) in enumerate(p.relations):
			for orient, a, b in (('fwd', l, r), ('bwd', r, l)):
				for i in range(len(cur) - len(a) + 1):
					if cur[i:i + len(a)] != a:
						continue
					nxt = cur[:i] + b + cur[i + len(a):]
					if nxt not in parent:
						parent[nxt] = (cur, Step('1', i, rel=ri, orient=orient, sign=1))
						queue.append(nxt)
	if v not in parent:
		return None
	steps = []
	while parent[v] is not None:
		v, s = parent[v]
		steps.append(s)
	return steps[::-1]


# ---------------------------------------------------------------------------
# reference Dehn steps: a table of every cyclic shift and every long prefix
# of each oriented relator, scanned at every position of the word, then
# deduplicated in table order and sorted.  Rows longer than the word, which
# cannot match, are not built.

def _reference_dehn_rows(p, n):
	for ri, (l, r) in enumerate(p.relations):
		for orient, a, b in (('fwd', l, r), ('bwd', r, l)):
			z = invert(positive_to_word(a)) + positive_to_word(b)
			for shift in range(len(z)):
				c = z[shift:] + z[:shift]
				for k in range(len(c) // 2 + 1, min(len(c), n) + 1):
					yield invert(c[:k]), c[k:], ri, orient, shift


def reference_dehn_steps(p, w):
	w = tuple(w)
	out, seen = [], set()
	for u, up, ri, orient, shift in _reference_dehn_rows(p, len(w)):
		for pos in range(len(w) - len(u) + 1):
			if w[pos:pos + len(u)] == u and (pos, u, up) not in seen:
				seen.add((pos, u, up))
				out.append(DehnStep(pos, u, up, ri, orient, shift))
	out.sort(key=lambda d: (d.pos, -len(d.factor), d.rel, d.orient, d.shift))
	return out


# ---------------------------------------------------------------------------
# reference bounded search: the plain breadth-first search, every successor
# built as a Step and applied, every insertion made, and separate maps for
# the insertion count and the parent.  Returns (result, derivation, visited,
# frontier emptied, names of the limits that cut the search).

def reference_search(p, w, target, kinds, limits):
	w, target = tuple(w), tuple(target)
	plain = set(kinds) - {'inf'}
	use_inf = 'inf' in kinds
	if w == target:
		return 'found', Derivation(w, []), 1, True, set()
	if not use_inf and not applicable_steps(p, w, plain):
		return 'dead', None, 1, True, set()
	best, parent = {w: 0}, {w: None}
	queue = deque([(w, 0, 0)])
	visited, emptied, cuts = 0, True, set()
	while queue:
		cur, depth, ins = queue.popleft()
		if depth >= limits.max_steps:
			emptied = False
			cuts.add('max_steps')
			continue
		visited += 1
		if visited > limits.max_visited:
			cuts.add('max_visited')
			return 'exhausted', None, visited, False, cuts
		succs = [(s, 0) for s in applicable_steps(p, cur, plain)]
		if use_inf and len(cur) + 2 <= limits.max_word_length:
			if ins < limits.max_insertions:
				succs += [(Step('inf', pos, letter=g, sign=e), 1)
					for pos in range(len(cur) + 1)
					for g in p.generators for e in (1, -1)]
			else:
				cuts.add('max_insertions')
		for s, cost in succs:
			nxt = apply_step(p, cur, s)
			if len(nxt) > limits.max_word_length:
				emptied = False
				cuts.add('max_word_length')
				continue
			if nxt in best and best[nxt] <= ins + cost:
				continue
			best[nxt] = ins + cost
			parent[nxt] = (cur, s)
			if nxt == target:
				steps = []
				while parent[nxt] is not None:
					nxt, s = parent[nxt]
					steps.append(s)
				return 'found', Derivation(w, steps[::-1]), visited, False, cuts
			queue.append((nxt, depth + 1, ins + cost))
	return 'exhausted', None, visited, emptied, cuts


# ---------------------------------------------------------------------------
# reference elimination: the lift, the projection and the elimination as
# first written.  The lift replays the plain word beside the augmented one;
# every stage replays its derivation with aug_derivation_words, reads h off
# every word, and projects each step with reference_project_step, which
# checks regularity, recomputes the next word and projects both words itself.

def reference_is_regular(p, w):
	by_index = {}
	for pos, (g, i, e) in enumerate(w):
		if i >= 1:
			by_index.setdefault(i, []).append(pos)
	for h, positions in sorted(by_index.items()):
		if len(positions) != 2:
			return False, 'index %d occurs %d times' % (h, len(positions))
		a, b = positions
		(g1, _, e1), (g2, _, e2) = w[a], w[b]
		if g1 != g2:
			return False, 'index %d letters have different generators' % h
		if e1 != -e2:
			return False, 'index %d letters do not have opposite signs' % h
		for g, i, e in w[a + 1:b]:
			if i <= h and g != g1 and not p.commutes(g1, g):
				return False, 'index %d pair encloses non-commuting %s' % (h, g)
			if i <= h and g == g1:
				return False, 'index %d pair encloses its own generator' % h
	return True, 'regular'


def reference_apply_aug_step(p, w, s):
	'''apply_aug_step on words of triples, as first written, with the
	position check and the insertion sign check that rewrite.apply_step
	makes, and the insertion index checked by type as the sign is.'''
	n = len(w)
	if type(s.pos) is not int or s.pos < 0:
		raise AugError('position %r out of range' % (s.pos,))
	if s.kind == '0':
		if s.pos + 2 > n:
			raise AugError('aug type 0 out of range')
		(g1, i1, e1), (g2, i2, e2) = w[s.pos], w[s.pos + 1]
		if g1 != g2 or e1 != -e2:
			raise AugError('no trivial pair at %d' % s.pos)
		lo = min(i1, i2)
		rest = w[:s.pos] + w[s.pos + 2:]
		return tuple((g, lo, e) if g == g1 and i in (i1, i2) else (g, i, e)
			for g, i, e in rest)
	if s.kind in ('1', '2'):
		if s.pos + 2 > n:
			raise AugError('aug swap out of range')
		(g1, i1, e1), (g2, i2, e2) = w[s.pos], w[s.pos + 1]
		if not p.commutes(g1, g2):
			raise AugError('%s and %s do not commute' % (g1, g2))
		if s.kind == '1' and e1 != e2:
			raise AugError('aug type 1 needs equal signs')
		if s.kind == '2' and e1 != -e2:
			raise AugError('aug type 2 needs opposite signs')
		return w[:s.pos] + (w[s.pos + 1], w[s.pos]) + w[s.pos + 2:]
	if s.kind == 'inf':
		if not 0 <= s.pos <= n:
			raise AugError('insertion position out of range')
		if type(s.index) is not int:
			raise AugError('insertion index must be an integer, got %r' % (s.index,))
		if s.index <= max((i for _, i, _ in w), default=-1):
			raise AugError('insertion index %d not fresh' % s.index)
		if type(s.sign) is not int or s.sign not in (1, -1):
			raise AugError('insertion sign must be 1 or -1, got %r' % (s.sign,))
		pair = ((s.letter, s.index, s.sign), (s.letter, s.index, -s.sign))
		return w[:s.pos] + pair + w[s.pos:]
	raise AugError('unknown augmented step kind %r' % s.kind)


def reference_lift(p, d):
	if not p.right_angled:
		raise AugError('lifting requires a right-angled presentation')
	aw = to_aug(tuple(d.start))
	aug_steps = []
	w = tuple(d.start)
	for step in d.steps:
		if step.kind == '0':
			a = AugStep('0', step.pos)
		elif step.kind == '1':
			if len(p.relations[step.rel][0]) != 2:
				raise AugError('lifting requires a right-angled presentation')
			a = AugStep('1', step.pos)
		elif step.kind in ('2r', '2l'):
			a = AugStep('2', step.pos)
		elif step.kind == 'inf':
			a = AugStep('inf', step.pos, letter=step.letter,
				index=max(max_index(aw), 0) + 1, sign=step.sign)
		else:
			raise AugError('unknown plain step kind %r' % step.kind)
		new_aw = apply_aug_step(p, aw, a)
		w = apply_step(p, w, step)
		if phi(new_aw) != w:
			raise AugError('lift does not project back to the plain word')
		aw = new_aw
		aug_steps.append(a)
	return AugDerivation(to_aug(tuple(d.start)), aug_steps)


def _reference_swap_block(p, pw, target):
	if pw == target:
		return []
	if len(pw) != len(target):
		raise AugError('projection diff is not a single move')
	a = 0
	while pw[a] == target[a]:
		a += 1
	b = len(pw)
	while b > a and pw[b - 1] == target[b - 1]:
		b -= 1
	mid_w, mid_t = pw[a:b], target[a:b]
	if len(mid_w) != len(mid_t) or sorted(mid_w) != sorted(mid_t):
		raise AugError('projection diff is not a single move')
	if mid_w[-1] == mid_t[0] and mid_w[:-1] == mid_t[1:]:
		x = mid_w[-1]
		crossings = zip(range(b - 2, a - 1, -1), reversed(mid_w[:-1]))
	elif mid_w[0] == mid_t[-1] and mid_w[1:] == mid_t[:-1]:
		x = mid_w[0]
		crossings = zip(range(a, b - 1), mid_w[1:])
	else:
		raise AugError('projection diff is not a single move')
	steps = []
	for cur, let in crossings:
		if let[0] == x[0] or not p.commutes(let[0], x[0]):
			raise AugError('projection needs %s and %s to commute' % (let[0], x[0]))
		steps.append(AugStep('1' if let[2] == x[2] else '2', cur))
	return steps


def reference_project_step(p, w, s, h):
	ok, diag = reference_is_regular(p, w)
	if not ok:
		raise AugError('projection needs a regular word: ' + diag)
	w2 = apply_aug_step(p, w, s)
	pw, pw2 = pi_h(w, h), pi_h(w2, h)
	if s.kind == 'inf':
		if s.index < h:
			return [AugStep('inf', sum(1 for let in w[:s.pos] if let[1] < h),
				letter=s.letter, index=s.index, sign=s.sign)]
	else:
		i1, i2 = w[s.pos][1], w[s.pos + 1][1]
		if i1 < h and i2 < h:
			return [AugStep(s.kind, sum(1 for let in w[:s.pos] if let[1] < h))]
	if s.kind != '0' or (i1 >= h and i2 >= h):
		if pw != pw2:
			raise AugError('step on letters of index >= %d changed the projection' % h)
		return []
	steps = _reference_swap_block(p, pw, pw2)
	cur = pw
	for st in steps:
		cur = apply_aug_step(p, cur, st)
	if cur != pw2:
		raise AugError('projected block does not replay')
	return steps


@functools.cache
def _reference_pairs(p):
	'''(first, last): (s, t) -> (rel, orient) of the first oriented
	relation, in step order, whose sides start (first) or end (last) with
	s and t.'''
	maps = ({}, {})
	for ri, (l, r) in enumerate(p.relations):
		for orient, a, b in (('fwd', l, r), ('bwd', r, l)):
			maps[0].setdefault((a[0], b[0]), (ri, orient))
			maps[1].setdefault((a[-1], b[-1]), (ri, orient))
	return maps


def _reference_plain_step(p, w, s):
	if s.kind == '0':
		return Step('0', s.pos, sign=w[s.pos][2])
	(g1, _, e1), (g2, _, e2) = w[s.pos], w[s.pos + 1]
	first, last = _reference_pairs(p)
	if s.kind == '1':
		pair = (g1, g2) if e1 == 1 else (g2, g1)
		if pair in first:
			ri, orient = first[pair]
			return Step('1', s.pos, rel=ri, orient=orient, sign=e1)
	elif s.kind == '2':
		kind, pairs = ('2r', first) if e1 == -1 else ('2l', last)
		if (g1, g2) in pairs:
			ri, orient = pairs[g1, g2]
			return Step(kind, s.pos, rel=ri, orient=orient, lv=1, lvp=1)
	raise AugError('no relation realizes the swap %s %s' % (g1, g2))


def reference_eliminate(p, d, validate=True):
	if not p.right_angled:
		raise AugError('elimination requires a right-angled presentation')
	for st in d.steps:
		if st.kind in ('2r', '2l'):
			raise AugError('input derivation contains a type 2 step')
	if check_derivation(p, d) != ():
		raise AugError('input derivation does not end at the empty word')
	nd = reference_lift(p, d)
	stage = 'lifted'
	while True:
		words = aug_derivation_words(p, nd)
		for w in words:
			ok, diag = reference_is_regular(p, w)
			if not ok:
				raise AugError('%s word not regular: %s' % (stage, diag))
		steps = nd.steps
		h = max(max_index(w) for w in words)
		if h < 1:
			break
		nd = AugDerivation(pi_h(words[0], h), [])
		for w, s in zip(words, steps):
			nd.steps.extend(reference_project_step(p, w, s, h))
		stage = 'projected'
	out = Derivation(tuple(d.start),
		[_reference_plain_step(p, w, s) for w, s in zip(words, steps)])
	if validate:
		if any(st.kind == 'inf' for st in out.steps):
			raise AugError('elimination left an insertion step')
		if check_derivation(p, out) != ():
			raise AugError('eliminated derivation does not replay to empty')
	return out


# ---------------------------------------------------------------------------
# reference step core: apply_step and derivation replay on words of
# (generator, sign) tuples, as they were before words were encoded, and the
# shuffle word problem and its {0,1,inf} factory on top of them.

def _reference_factor(kind, a, b, sign, lv, lvp):
	'''(factor, replacement) of a type 1, 2r or 2l step on the oriented
	relation a = b; lv and lvp are |v| and |v'| for type 2.'''
	if kind == '1':
		src, dst = positive_to_word(a), positive_to_word(b)
		return (src, dst) if sign != -1 else (invert(src), invert(dst))
	if kind == '2r':
		return (invert(positive_to_word(a[:lv])) + positive_to_word(b[:lvp]),
			positive_to_word(a[lv:]) + invert(positive_to_word(b[lvp:])))
	return (positive_to_word(a[-lv:]) + invert(positive_to_word(b[-lvp:])),
		invert(positive_to_word(a[:-lv])) + positive_to_word(b[:-lvp]))


def reference_apply_step(p, w, s):
	n = len(w)
	if type(s.pos) is not int or s.pos < 0:
		raise StepError('position %r out of range' % (s.pos,))
	if s.kind == '0':
		if s.pos + 2 > n:
			raise StepError('type 0 out of range')
		(g1, e1), (g2, e2) = w[s.pos], w[s.pos + 1]
		if g1 != g2 or e1 != -e2 or e1 != s.sign:
			raise StepError('no trivial pair at %d' % s.pos)
		return w[:s.pos] + w[s.pos + 2:]
	if s.kind == 'inf':
		if not 0 <= s.pos <= n:
			raise StepError('insertion position out of range')
		if s.letter not in p.generators:
			raise StepError('unknown letter %r' % s.letter)
		if type(s.sign) is not int or s.sign not in (1, -1):
			raise StepError('insertion sign must be 1 or -1, got %r' % (s.sign,))
		pair = ((s.letter, s.sign), (s.letter, -s.sign))
		return w[:s.pos] + pair + w[s.pos:]
	if s.kind in ('1', '2r', '2l'):
		if type(s.rel) is not int or not 0 <= s.rel < len(p.relations):
			raise StepError('relation index %r out of range' % (s.rel,))
		if s.orient not in ('fwd', 'bwd'):
			raise StepError('unknown orientation %r' % (s.orient,))
		l, r = p.relations[s.rel]
		a, b = (l, r) if s.orient == 'fwd' else (r, l)
		if s.kind == '1' and (type(s.sign) is not int or s.sign not in (1, -1)):
			raise StepError('type 1 sign must be 1 or -1, got %r' % (s.sign,))
		if s.kind != '1' and not (type(s.lv) is int and type(s.lvp) is int
				and 1 <= s.lv <= len(a) and 1 <= s.lvp <= len(b)):
			raise StepError('bad type %s split' % s.kind)
		factor, new = _reference_factor(s.kind, a, b, s.sign, s.lv, s.lvp)
		if w[s.pos:s.pos + len(factor)] != factor:
			raise StepError('type %s factor mismatch at %d' % (s.kind, s.pos))
		return w[:s.pos] + new + w[s.pos + len(factor):]
	raise StepError('unknown step kind %r' % s.kind)


def reference_derivation_words(p, d):
	words = [tuple(d.start)]
	for i, s in enumerate(d.steps):
		try:
			words.append(reference_apply_step(p, words[-1], s))
		except StepError as e:
			raise StepError('step %d inapplicable: %s' % (i, e)) from None
	return words


def reference_simulate_type2(p, w, s):
	if s.kind not in ('2r', '2l'):
		raise StepError('simulate_type2 needs a type 2 step')
	want = reference_apply_step(p, w, s)
	l, r = p.relations[s.rel] if s.orient == 'fwd' else p.relations[s.rel][::-1]
	steps = []
	if s.kind == '2r':
		up = r[s.lvp:]
		end = s.pos + s.lv + s.lvp
		for i, g in enumerate(up):
			steps.append(Step('inf', end + i, letter=g, sign=1))
		steps.append(Step('1', s.pos + s.lv, rel=s.rel,
			orient='bwd' if s.orient == 'fwd' else 'fwd', sign=1))
		for i in range(s.lv):
			steps.append(Step('0', s.pos + s.lv - 1 - i, sign=-1))
	else:
		u = l[:len(l) - s.lv]
		for i in range(len(u)):
			steps.append(Step('inf', s.pos + i, letter=u[len(u) - 1 - i], sign=-1))
		steps.append(Step('1', s.pos + len(u), rel=s.rel, orient=s.orient, sign=1))
		off = s.pos + len(u) + len(r)
		for i in range(s.lvp):
			steps.append(Step('0', off - 1 - i, sign=1))
	d = Derivation(w, steps)
	if reference_derivation_words(p, d)[-1] != want:
		raise StepError('type 2 simulation mismatch')
	return d


def _reference_cancellable_pair(p, w):
	for i in range(len(w)):
		g, e = w[i]
		for j in range(i + 1, len(w)):
			g2, e2 = w[j]
			if g2 == g:
				if e2 == -e and all(x != g and p.commutes(g, x) for x, _ in w[i + 1:j]):
					return i, j
				break  # nearer same-generator letter blocks the pair
			if not p.commutes(g, g2):
				break
	return None


def reference_raag_word_problem(p, w):
	if not p.right_angled:
		raise AugError('shuffle algorithm requires a right-angled presentation')
	steps = []
	cur = tuple(w)
	while cur:
		pair = _reference_cancellable_pair(p, cur)
		if pair is None:
			return None
		i, j = pair
		for k in range(j - 1, i, -1):
			(g1, e1), (g2, e2) = cur[k], cur[k + 1]
			steps.append(_reference_plain_step(p, to_aug(cur),
				AugStep('1' if e1 == e2 else '2', k)))
			cur = reference_apply_step(p, cur, steps[-1])
		steps.append(Step('0', i, sign=cur[i][1]))
		cur = reference_apply_step(p, cur, steps[-1])
	return Derivation(tuple(w), steps)


def reference_generate_01inf(p, w):
	d = reference_raag_word_problem(p, w)
	if d is None:
		raise AugError('word does not represent 1')
	steps = []
	cur = tuple(d.start)
	for s in d.steps:
		if s.kind in ('2r', '2l'):
			steps.extend(reference_simulate_type2(p, cur, s).steps)
		else:
			steps.append(s)
		cur = reference_apply_step(p, cur, s)
	out = Derivation(tuple(d.start), steps)
	if reference_derivation_words(p, out)[-1] != ():
		raise AugError('simulated derivation does not replay to empty')
	return out
