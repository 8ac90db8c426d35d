''' Shared fixtures for the test suite: the desk presentations, random word
generators, and independent oracles (permutation-group homomorphisms,
abelianization vectors, brute-force reachability) used to cross-check the
library without reusing its own machinery.
'''

import dataclasses
import itertools
import random

from collections import deque

from artincalc import (parse_presentation_text, parse_word, parse_positive,
	render_word, invert, free_reduce, Step, Derivation, applicable_steps,
	apply_step)
from artincalc.core import positive_to_word


def make(text, spherical=False):
	p = parse_presentation_text(text)
	if spherical:
		p = dataclasses.replace(p, declared_spherical=True)
	return p


A2 = make('gens: a b\nrel: aba = bab', spherical=True)
I24 = make('gens: a b\nrel: abab = baba', spherical=True)
RA2 = make('gens: a b\nrel: ab = ba', spherical=True)
RA3 = make('gens: a b c\nrel: ab = ba\nrel: bc = cb\nrel: ac = ca')
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
	rels = [(''.join(l), ''.join(r)) for l, r in p.relations]
	rels += [(r, l) for l, r in rels]
	seen = {''.join(u)}
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
	return {tuple(w) for w in seen}


def brute_pos_equal(p, u, v):
	return tuple(v) in brute_class(p, u)


def all_positive_words(p, n):
	return itertools.product(p.generators, repeat=n)


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
