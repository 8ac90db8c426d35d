''' Oracles written apart from artincalc, used to check every answer the
benchmark gets from the program.  Nothing here imports artincalc.

- Reduced Burau matrices over exact Laurent polynomials.  Burau is faithful
  on B3 = A(A2) (a -> s1, b -> s2), and A(I2(4)) embeds in B3 by
  a -> s1^2, b -> s2, so equal images mean equal group elements.
- A step replayer for the five special transformation kinds, reading the
  step fields (kind, pos, rel, orient, lv, lvp, letter, sign) by the
  documented semantics, and a decoder for the derivation JSON schema.
- A string-rewriting class closure for length-preserving presentations,
  plus a linear-extension count for right-angled words, which must agree
  with the closure size (multinomial when all letters commute).
- Brute-force right lcm, left-divisor fragments and divisor tests on top
  of that closure.

Words are tuples of (generator, sign) pairs; positive words are strings of
single-letter generators.  A presentation is (generators, relations) with
relations as pairs of strings.
'''

from __future__ import annotations

import itertools
import math


class OracleError(AssertionError):
	pass


# ---------------------------------------------------------------------------
# Laurent polynomials as {exponent: coefficient} dicts, 2x2 matrices as
# 4-tuples (m00, m01, m10, m11)

def _padd(*ps):
	out = {}
	for p in ps:
		for e, c in p.items():
			out[e] = out.get(e, 0) + c
	return {e: c for e, c in out.items() if c}


def _pmul(p, q):
	out = {}
	for e1, c1 in p.items():
		for e2, c2 in q.items():
			out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
	return {e: c for e, c in out.items() if c}


def _mmul(a, b):
	return (
		_padd(_pmul(a[0], b[0]), _pmul(a[1], b[2])),
		_padd(_pmul(a[0], b[1]), _pmul(a[1], b[3])),
		_padd(_pmul(a[2], b[0]), _pmul(a[3], b[2])),
		_padd(_pmul(a[2], b[1]), _pmul(a[3], b[3])),
	)


ONE = {0: 1}
IDENTITY = (ONE, {}, {}, ONE)
_S1 = ({1: -1}, ONE, {}, ONE)
_S1_INV = ({-1: -1}, {-1: 1}, {}, ONE)
_S2 = (ONE, {}, {1: 1}, {1: -1})
_S2_INV = (ONE, {}, ONE, {-1: -1})

# generator images in B3 for the two spherical rank-2 types
BURAU_IMAGES = {
	'A2': {('a', 1): (_S1,), ('a', -1): (_S1_INV,),
		('b', 1): (_S2,), ('b', -1): (_S2_INV,)},
	'I24': {('a', 1): (_S1, _S1), ('a', -1): (_S1_INV, _S1_INV),
		('b', 1): (_S2,), ('b', -1): (_S2_INV,)},
}


def burau(kind, w):
	'''Reduced Burau image of a signed word over A2 or I24.'''
	images = BURAU_IMAGES[kind]
	m = IDENTITY
	for let in w:
		for g in images[let]:
			m = _mmul(m, g)
	return m


def burau_trivial(kind, w):
	return burau(kind, w) == IDENTITY


def same_element(kind, u, v):
	return burau(kind, u) == burau(kind, v)


# ---------------------------------------------------------------------------
# words

def inverse(w):
	return tuple((g, -e) for g, e in reversed(w))


def pos(u):
	return tuple((g, 1) for g in u)


def neg(u):
	'''The inverse of the positive word u.'''
	return inverse(pos(u))


def render(w):
	return ''.join(g if e == 1 else g.upper() for g, e in w)


def parse(text):
	if text in ('', 'e'):
		return ()
	return tuple((ch.lower(), 1 if ch.islower() else -1) for ch in text)


# ---------------------------------------------------------------------------
# step replay

def _side_pair(rels, rel, orient):
	l, r = rels[rel]
	return (l, r) if orient == 'fwd' else (r, l)


def _splice(w, at, old, new, what):
	if at < 0 or tuple(w[at:at + len(old)]) != tuple(old):
		raise OracleError('%s: factor %s not at %d of %s'
			% (what, render(old), at, render(w)))
	return w[:at] + tuple(new) + w[at + len(old):]


def replay_step(gens, rels, w, kind, at, rel=None, orient=None, lv=None,
		lvp=None, letter=None, sign=None):
	'''One special transformation on the signed word w.'''
	if kind == '0':
		if not 0 <= at <= len(w) - 2 or w[at][1] != sign:
			raise OracleError('type 0: no %+d pair at %d' % (sign, at))
		g = w[at][0]
		return _splice(w, at, ((g, sign), (g, -sign)), (), 'type 0')
	if kind == 'inf':
		if letter not in gens or not 0 <= at <= len(w):
			raise OracleError('insertion of %r at %d' % (letter, at))
		return w[:at] + ((letter, sign), (letter, -sign)) + w[at:]
	src, dst = _side_pair(rels, rel, orient)
	if kind == '1':
		if sign == -1:
			return _splice(w, at, neg(src), neg(dst), 'type 1')
		return _splice(w, at, pos(src), pos(dst), 'type 1')
	if not (1 <= lv <= len(src) and 1 <= lvp <= len(dst)):
		raise OracleError('type %s split (%d, %d)' % (kind, lv, lvp))
	if kind == '2r':
		# v^-1 v' -> u u'^-1 for the relation v u = v' u'
		return _splice(w, at, neg(src[:lv]) + pos(dst[:lvp]),
			pos(src[lv:]) + neg(dst[lvp:]), 'type 2r')
	if kind == '2l':
		# v v'^-1 -> u^-1 u' for the relation u v = u' v'
		return _splice(w, at, pos(src[len(src) - lv:]) + neg(dst[len(dst) - lvp:]),
			neg(src[:len(src) - lv]) + pos(dst[:len(dst) - lvp]), 'type 2l')
	raise OracleError('unknown step kind %r' % kind)


def step_fields(s):
	'''The fields of a program Step object as a plain dict.'''
	return dict(kind=s.kind, at=s.pos, rel=s.rel, orient=s.orient, lv=s.lv,
		lvp=s.lvp, letter=s.letter, sign=s.sign)


def json_step_fields(d):
	'''The fields of one step of the derivation JSON schema (version 1):
	type 0 as 0r/0l, type 2 splits packed as (lv-1)*64 + (lvp-1).'''
	kind = d['kind']
	if kind in ('0r', '0l'):
		return dict(kind='0', at=d['pos'], sign=1 if kind == '0r' else -1)
	if kind == 'inf':
		return dict(kind='inf', at=d['pos'], letter=d['letter'], sign=d['sign'])
	if kind == '1':
		return dict(kind='1', at=d['pos'], rel=d['rel'], orient=d['orient'],
			sign=d.get('sign', 1))
	return dict(kind=kind, at=d['pos'], rel=d['rel'], orient=d['orient'],
		lv=d['split'] // 64 + 1, lvp=d['split'] % 64 + 1)


def replay(gens, rels, start, steps, kinds):
	'''Replay field dicts from start, allowing only the given kinds;
	returns the end word.'''
	w = tuple(start)
	for i, f in enumerate(steps):
		if f['kind'] not in kinds:
			raise OracleError('step %d has kind %s outside %s'
				% (i, f['kind'], sorted(kinds)))
		w = replay_step(gens, rels, w, **f)
	return w


def has_step(gens, rels, w, kinds):
	'''Whether some step of the given (finite) kinds applies to w.'''
	n = len(w)
	if '0' in kinds and any(w[i][0] == w[i + 1][0] and w[i][1] == -w[i + 1][1]
			for i in range(n - 1)):
		return True
	text = render(w)
	for l, r in rels:
		for a, b in ((l, r), (r, l)):
			if '1' in kinds and (a in text or a[::-1].upper() in text):
				return True
			for lv in range(1, len(a) + 1):
				for lvp in range(1, len(b) + 1):
					if '2r' in kinds and render(neg(a[:lv]) + pos(b[:lvp])) in text:
						return True
					if '2l' in kinds and render(pos(a[len(a) - lv:])
							+ neg(b[len(b) - lvp:])) in text:
						return True
	return False


# ---------------------------------------------------------------------------
# class closure by string rewriting

def closure(rels, u):
	'''All positive words reachable from u by replacing relation sides.'''
	sides = [(l, r) for l, r in rels] + [(r, l) for l, r in rels]
	seen = {u}
	todo = [u]
	while todo:
		cur = todo.pop()
		for a, b in sides:
			i = cur.find(a)
			while i >= 0:
				nxt = cur[:i] + b + cur[i + len(a):]
				if nxt not in seen:
					seen.add(nxt)
					todo.append(nxt)
				i = cur.find(a, i + 1)
	return seen


class Closures:
	'''Memoized closures for one presentation.'''

	def __init__(self, rels):
		self.rels = rels
		self._cls = {}

	def cls(self, u):
		c = self._cls.get(u)
		if c is None:
			c = frozenset(closure(self.rels, u))
			for m in c:
				self._cls[m] = c
		return c

	def canon(self, u):
		return min(self.cls(u))

	def left_divides(self, d, g):
		dc = self.cls(d)
		return any(m[:len(d)] in dc for m in self.cls(g))

	def right_divides(self, d, g):
		if len(d) > len(g):
			return False
		dc = self.cls(d)
		return any(m[len(m) - len(d):] in dc for m in self.cls(g))

	def divisors(self, g):
		'''Canonical forms of the left divisors of g.'''
		return {self.canon(m[:k]) for m in self.cls(g) for k in range(len(g) + 1)}

	def lcm(self, gens, u, v, max_extra=12):
		'''Least common right multiple of u and v, by length.'''
		for n in range(max(len(u), len(v)), max(len(u), len(v)) + max_extra + 1):
			found = set()
			for x in itertools.product(gens, repeat=n - len(u)):
				m = self.canon(u + ''.join(x))
				if m not in found and self.left_divides(v, m):
					found.add(m)
			if found:
				if len(found) != 1:
					raise OracleError('several least common multiples')
				return found.pop()
		raise OracleError('no common multiple of length <= %d' % n)


def linear_extensions(commute, u):
	'''Number of words equivalent to u in the trace monoid where letters x
	and y commute iff commute(x, y): the linear extensions of the
	dependence order, counted over its downsets.'''
	n = len(u)
	below = []
	for j in range(n):
		mask = 0
		for i in range(j):
			if u[i] == u[j] or not commute(u[i], u[j]):
				mask |= 1 << i
		below.append(mask)
	ways = {0: 1}
	for _ in range(n):
		nxt = {}
		for done, c in ways.items():
			for j in range(n):
				if not done >> j & 1 and below[j] & done == below[j]:
					k = done | 1 << j
					nxt[k] = nxt.get(k, 0) + c
		ways = nxt
	return ways.get((1 << n) - 1, 1)


def lex_normal_form(commute, u):
	'''Lexicographically least word of the trace class of u.'''
	rest = list(u)
	out = []
	while rest:
		best = None
		for j, x in enumerate(rest):
			if all(y != x and commute(x, y) for y in rest[:j]):
				if best is None or x < rest[best]:
					best = j
		out.append(rest.pop(best))
	return ''.join(out)


# ---------------------------------------------------------------------------
# self-check

A2_RELS = (('aba', 'bab'),)
I24_RELS = (('abab', 'baba'),)


def self_check():
	'''Fast consistency checks of the oracles against known facts; raises
	OracleError on the first failure.'''
	def need(ok, what):
		if not ok:
			raise OracleError('oracle self-check failed: ' + what)

	for kind, rels in (('A2', A2_RELS), ('I24', I24_RELS)):
		for l, r in rels:
			need(same_element(kind, pos(l), pos(r)), kind + ' relation image')
		need(not burau_trivial(kind, pos('ab')), kind + ' ab nontrivial')
		need(not burau_trivial(kind, pos('ab') + neg('ba')), kind + ' commutator')
		need(burau_trivial(kind, pos('ab') + neg('ab')), kind + ' u u^-1')
	# Delta^2 is central in B3: (s1 s2)^3 commutes with s1
	d2 = pos('ababab')
	need(same_element('A2', d2 + pos('a'), pos('a') + d2), 'A2 centre')
	# replay of a type 2r step taken from the relation aba = bab:
	# a^-1 b -> b a^-1 with v = a, v' = b, u = ba, u' = ab
	w = replay_step('ab', A2_RELS, neg('a') + pos('b'), '2r', 0, rel=0,
		orient='fwd', lv=1, lvp=1)
	need(w == pos('ba') + neg('ab'), 'type 2r replay')
	need(same_element('A2', w, neg('a') + pos('b')), 'type 2r preserves image')
	# closure sizes against counts: multinomial when all letters commute,
	# binomial for the product of two free monoids
	ra3 = (('ab', 'ba'), ('bc', 'cb'), ('ac', 'ca'))
	for u in ('aabbc', 'abcabc', 'aaabbbcc'):
		size = math.factorial(len(u))
		for g in 'abc':
			size //= math.factorial(u.count(g))
		need(len(closure(ra3, u)) == size, 'multinomial size of ' + u)
		need(linear_extensions(lambda x, y: x != y, u) == size,
			'linear extensions of ' + u)
	f2xf2 = (('ac', 'ca'), ('bc', 'cb'), ('ad', 'da'), ('bd', 'db'))
	comm = lambda x, y: {x, y} in ({'a', 'c'}, {'b', 'c'}, {'a', 'd'}, {'b', 'd'})
	for u in ('abcdab', 'cabdba'):
		k = sum(1 for g in u if g in 'ab')
		need(len(closure(f2xf2, u)) == math.comb(len(u), k), 'binomial ' + u)
		need(linear_extensions(comm, u) == math.comb(len(u), k), 'extensions ' + u)
		need(lex_normal_form(comm, u) == min(closure(f2xf2, u)), 'normal form ' + u)
	# Garside element of A2 is the lcm of the generators
	need(Closures(A2_RELS).lcm('ab', 'a', 'b') in ('aba', 'bab'), 'A2 lcm')
	need(Closures(I24_RELS).lcm('ab', 'a', 'b') == 'abab', 'I24 lcm')
