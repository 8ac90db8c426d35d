''' Positive-word monoid arithmetic: equality, divisibility, canonical
forms, right lcms, S0-minimality and the spherical coset-head construction.

Where reversing is complete (Presentation._complete), u left-divides w
exactly when u^-1 w right-reverses to a positive word, the quotient, and
right-divides w exactly when w u^-1 left-reverses to the inverse of one.
Elsewhere, and where a reversing reaches its budget, a decision closes the
class of its word (equiv_class): a breadth-first search over the type 1
steps of rewrite._successors on the word encoded once.  Closure also lists
members where they are asked for, as in left_divisors and the S0 strip.
'''

from __future__ import annotations

from collections import deque

from .core import WordError, invert, positive_to_word
from .rewrite import Derivation, embed, unwind, _successors
from .reversing import (right_reverse, left_fraction, split_pos_neg, split_neg_pos,
	ReversingError, _converged, _reverse)

DEFAULT_CAP = 100000


class CapExceeded(RuntimeError):
	pass


def equiv_class(p, w, cap=DEFAULT_CAP):
	'''BFS closure of a positive word under relation rewrites.  Complete
	for length-preserving presentations; the cap, on members and on cap *
	max(1, |w|) letters in all, guards the general case.'''
	w = tuple(w)
	start = p._encode(positive_to_word(w))
	seen = {start}
	queue = deque([start])
	letters, most = len(w), cap * max(1, len(w))
	while queue:
		# a positive word has sign +1 type 1 steps only
		for _, _, _, nxt in _successors(p, queue.popleft(), {'1'}):
			if nxt not in seen:
				letters += len(nxt)
				if len(seen) >= cap or letters > most:
					raise CapExceeded('equivalence class exceeds cap %d' % cap)
				seen.add(nxt)
				queue.append(nxt)
	names = [g for g, _ in p._codes]
	# a frozenset copied from a set gets a table sized to it, not grown
	return frozenset({tuple([names[ord(c)] for c in m]) for m in seen})


class _Undecided(Exception):
	'''Reversing is not complete on the side asked, or reached its budget.'''


def _quotient(p, u, w, side):
	'''x with w = u x (side 'right') or w = x u ('left'), None where u does
	not divide w so, and _Undecided where reversing cannot tell.'''
	if side not in p._complete:
		raise _Undecided
	u, w = tuple(u), tuple(w)
	# u^-1 u x and x u u^-1 reverse to x by cancelling alone
	if side == 'right' and w[:len(u)] == u:
		return w[len(u):]
	if side == 'left' and w[len(w) - len(u):] == u:
		return w[:len(w) - len(u)]
	u, w = positive_to_word(u), positive_to_word(w)
	res = _reverse(p, invert(u) + w if side == 'right' else w + invert(u), 10000, side)
	if res.blocked:  # no common multiple
		return None
	if not res.converged:
		raise _Undecided
	x, y = split_pos_neg(res.word) if side == 'right' else split_neg_pos(res.word)[::-1]
	return None if y else x


def _least(p, words):
	'''The least positive word in the generator order, or WordError.'''
	order = {g: i for i, g in enumerate(p.generators)}
	try:
		return min(words, key=lambda m: [order[g] for g in m])
	except KeyError as e:
		raise WordError('generator %r is not in the presentation' % e.args) from None


def canonical(p, w):
	'''Lexicographically least class member under the generator order: the
	least generator s that left-divides w, then canonical(s^-1 w).'''
	x = _least(p, (tuple(w),))  # w, or WordError for a letter outside the presentation
	out = []
	try:
		while x:  # x[0] divides x, so some s does
			s, x = next((s, q) for s in p.generators
				if (q := _quotient(p, (s,), x, 'right')) is not None)
			out.append(s)
		return tuple(out)
	except _Undecided:
		return _least(p, equiv_class(p, w))


def pos_equal(p, u, v):
	try:
		return _quotient(p, u, v, 'right') == ()
	except _Undecided:
		return tuple(v) in equiv_class(p, u)


def rewrite_path(p, u, v):
	'''A list of type-1 Steps transforming the positive word u into the
	positive word v (exact words, not classes), within the class cap.'''
	u, v = tuple(u), tuple(v)
	if not pos_equal(p, u, v):
		raise ValueError('words are not equivalent')
	code = p._encode(positive_to_word(u + v))
	start, goal = code[:len(u)], code[len(u):]
	parent = {start: ()}
	queue = deque([start])
	while queue and goal not in parent:
		cur = queue.popleft()
		# relation-major: by relation, 'fwd' before 'bwd', then position
		for _, i, fields, nxt in sorted(_successors(p, cur, {'1'}),
				key=lambda s: (s[2][0], s[2][1] != 'fwd', s[1])):
			if nxt not in parent:
				if len(parent) >= DEFAULT_CAP:
					raise CapExceeded('equivalence class exceeds cap %d' % DEFAULT_CAP)
				parent[nxt] = (cur, '1', i, fields)
				queue.append(nxt)
	return unwind(parent, u, goal).steps


def left_divisors(p, g):
	'''Canonical forms of all prefixes of all class members of g.'''
	return frozenset(_divisor_forms(p, tuple(g)).values())


def _divisor_forms(p, g):
	'''Each word that left-divides g, mapped to its canonical form.  These
	words, the prefixes of the class members of g, are closed under
	equivalence, so closing each class among them once finds them all.'''
	cls = equiv_class(p, g)
	forms = dict.fromkeys(cls, _least(p, cls))
	for m in cls:
		for k in range(len(m)):
			if m[:k] not in forms:
				c = equiv_class(p, m[:k])
				forms.update(dict.fromkeys(c, _least(p, c)))
	return forms


def right_divides(p, d, g):
	'''True iff d right-divides g.'''
	return _divides(p, d, g, 'left')


def right_is_multiple(p, w, u):
	'''True iff u left-divides w.'''
	return _divides(p, u, w, 'right')


def _divides(p, u, w, side):
	'''Whether u divides w on the left (side 'right') or on the right
	('left').  By closure: some class member of w has a prefix (suffix) of
	length |u| equivalent to u (if w = u' x with u' ~ u, u x is a member).'''
	try:
		return _quotient(p, u, w, side) is not None
	except _Undecided:
		parts = [m[:len(u)] if side == 'right' else m[len(m) - len(u):]
			for m in equiv_class(p, w) if len(m) >= len(u)]
		return bool(parts) and not equiv_class(p, u).isdisjoint(parts)


def right_lcm(p, u, v, budget=10000):
	'''Least common right-multiple via reversing: u^-1 v reverses to
	a b^-1 and the lcm is u a (equivalently v b).  Returns the canonical
	word of the lcm.'''
	u, v = tuple(u), tuple(v)
	res = _converged(right_reverse(p, invert(positive_to_word(u)) + positive_to_word(v),
		budget), 'lcm')
	a, b = split_pos_neg(res.word)
	lcm = canonical(p, u + a)
	if not pos_equal(p, lcm, v + b):
		raise ReversingError('reversing produced unequal multiples')
	return lcm


# ---------------------------------------------------------------------------
# S0-minimality and coset heads

def is_S0_minimal(p, g, s0):
	'''No generator of S0 right-divides g.  Letterwise suffices: every
	nontrivial element of the S0-submonoid ends in an S0 generator.'''
	s0 = set(s0)
	try:
		return all(_quotient(p, (s,), g, 'left') is None for s in s0)
	except _Undecided:
		return not any(m and m[-1] in s0 for m in equiv_class(p, g))


def strip_S0(p, g, s0):
	'''Greedily strip S0 letters from the right: head * tail ~ g with the
	head S0-minimal and the tail a positive word over S0.'''
	head, tail, _ = _strip_with_path(p, tuple(g), set(s0))
	return canonical(p, head), tail


def _strip_with_path(p, g, s0):
	'''As strip_S0, but also returns type-1 steps from g to the literal
	word head + tail.'''
	cur = tuple(g)
	tail = ()
	steps = []
	while True:
		cands = [m for m in equiv_class(p, cur) if m and m[-1] in s0]
		if not cands:
			break
		m = _least(p, cands)
		steps.extend(rewrite_path(p, cur, m))
		tail = (m[-1],) + tail
		cur = m[:-1]
	return cur, tail, steps


def coset_head_spherical(p, w, s0, validate_len=4):
	'''Split w as v u with u a word over S0 and v an S0-minimal coset
	representative, with a {0,1,2} trace from w to v u.

	Construction: compute the left fraction g1^-1 g2 of w, strip the S0
	tail off the numerator g2, and validate minimality by bounded
	enumeration over signed S0 words h of length <= validate_len: no h may
	lower (|left denominator|, |left numerator|) lexicographically.
	'''
	if not p.declared_spherical:
		raise ReversingError('presentation not declared spherical')
	s0 = set(s0)
	frac = left_fraction(p, w)
	head, tail, strip_steps = _strip_with_path(p, frac.numerator, s0)
	# positions of the strip rewrites are offsets inside g2, which starts
	# after the |g1| negative letters of the reversed word g1^-1 g2
	k = len(frac.denominator)
	steps = frac.trace.steps + embed(frac.end, k, Derivation(frac.end[k:], strip_steps))
	v = frac.end[:k] + positive_to_word(head)
	u = positive_to_word(tail)
	trace = Derivation(tuple(w), steps)
	_validate_minimality(p, v, s0, validate_len)
	return v, u, trace


def _fraction_profile(p, w):
	f = left_fraction(p, w)
	return (len(f.denominator), len(f.numerator))


def _validate_minimality(p, v, s0, validate_len):
	'''Bounded check that no S0 element lowers the fraction profile of v.'''
	base = _fraction_profile(p, v)
	letters = [(g, e) for g in sorted(s0) for e in (1, -1)]
	frontier = [()]
	for _ in range(validate_len):
		frontier = [h + (x,) for h in frontier for x in letters]
		for h in frontier:
			prof = _fraction_profile(p, v + h)
			if prof < base:
				raise ReversingError(
					'minimality validation failed: %r lowers the profile' % (h,))
