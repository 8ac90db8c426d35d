''' Desk-scale positive-word monoid arithmetic by exhaustive closure under
length-preserving relation rewrites: equivalence classes, divisibility,
right lcm via reversing, S0-minimality, and the spherical coset-head
construction.

The closure runs on the word encoded once (Presentation._encode), over
the type 1 steps of rewrite._successors, and decodes the class once to
generator tuples.  Classes are memoized per presentation in-process, the
newest ones up to CACHED_MEMBERS members together; setting ARTIN_CACHE_DIR
adds a JSON file cache keyed by a presentation fingerprint.  Results are
identical with or without either cache.
'''

from __future__ import annotations

import os
from collections import deque

from .core import WordError, invert, positive_to_word
from .rewrite import Derivation, embed, unwind, _successors
from .reversing import right_reverse, left_fraction, split_pos_neg, ReversingError, _converged

DEFAULT_CAP = 100000
# A round of the spherical-arith benchmark touches about 420 classes of
# 23,000 members together, so this keeps all of them; one class at the cap
# fills it alone.
CACHED_MEMBERS = DEFAULT_CAP


class _Classes(dict):
	'''(fingerprint, word) -> class.  Once the classes hold more than
	CACHED_MEMBERS members together, the oldest are evicted; the newest
	is always kept.'''

	def __init__(self):
		super().__init__()
		self.order = deque()
		self.members = 0

	def add(self, fingerprint, cls, words):
		'''Cache cls under each of words, all of them members of cls.'''
		self.update(((fingerprint, m), cls) for m in words)
		self.order.append((fingerprint, cls, words))
		self.members += len(cls)
		while self.members > CACHED_MEMBERS and len(self.order) > 1:
			fingerprint, old, words = self.order.popleft()
			self.members -= len(old)
			for m in words:
				if self.get((fingerprint, m)) is old:  # not taken over since
					del self[fingerprint, m]

	def clear(self):
		super().clear()
		self.order.clear()
		self.members = 0


_class_cache = _Classes()


class CapExceeded(RuntimeError):
	pass


def _disk_path(p, w):
	root = os.environ.get('ARTIN_CACHE_DIR')
	if not root:
		return None
	import hashlib  # the disk cache alone loads it, and with it OpenSSL
	key = hashlib.sha256((p.fingerprint + '|' + ' '.join(w)).encode()).hexdigest()
	return os.path.join(root, key + '.json')


def _read_class(path, w):
	'''The class stored at path, or None when there is none or it is not
	a class of w: a damaged file, or one written for another word.'''
	import json
	try:
		with open(path) as f:
			cls = frozenset(tuple(m) for m in json.load(f))
	except (FileNotFoundError, ValueError, TypeError):
		return None
	return cls if w in cls else None


def equiv_class(p, w, cap=DEFAULT_CAP):
	'''BFS closure of a positive word under relation rewrites.  Complete
	for length-preserving presentations; the cap, on members and on cap *
	max(1, |w|) letters in all, guards the general case.'''
	w = tuple(w)
	key = (p.fingerprint, w)
	hit = _class_cache.get(key)
	if hit is not None:
		return hit
	path = _disk_path(p, w)
	cls = path and _read_class(path, w)
	if cls:
		# only w: the file is trusted for w's class alone
		_class_cache.add(p.fingerprint, cls, (w,))
		return cls
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
	cls = frozenset({tuple([names[ord(c)] for c in m]) for m in seen})
	_class_cache.add(p.fingerprint, cls, cls)
	if path:
		import json
		import tempfile
		# through a temp file, so a reader never sees a partial class
		os.makedirs(os.path.dirname(path), exist_ok=True)
		fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix='.tmp')
		try:
			with os.fdopen(fd, 'w') as f:
				json.dump(sorted(list(m) for m in cls), f)
			os.replace(tmp, path)
		except BaseException:
			os.unlink(tmp)
			raise
	return cls


def _least(p, words):
	'''The least positive word in the generator order, or WordError.'''
	order = {g: i for i, g in enumerate(p.generators)}
	try:
		return min(words, key=lambda m: [order[g] for g in m])
	except KeyError as e:
		raise WordError('generator %r is not in the presentation' % e.args) from None


def canonical(p, w):
	'''Lexicographically least class member under the generator order.'''
	return _least(p, equiv_class(p, w))


def pos_equal(p, u, v):
	return tuple(v) in equiv_class(p, u)


def rewrite_path(p, u, v):
	'''A list of type-1 Steps transforming the positive word u into the
	positive word v (exact words, not classes).'''
	u, v = tuple(u), tuple(v)
	if v not in equiv_class(p, u):
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
				parent[nxt] = (cur, '1', i, fields)
				queue.append(nxt)
	return unwind(parent, u, goal).steps


def left_divisors(p, g):
	'''Canonical forms of all prefixes of all class members of g.'''
	divs = set()
	for m in equiv_class(p, g):
		for k in range(len(m) + 1):
			divs.add(canonical(p, m[:k]))
	return frozenset(divs)


def right_divides(p, d, g):
	'''True iff some class member of g has a suffix equivalent to d.  The
	suffixes of length |d| are enough (if g = x d' with d' ~ d, then x d is
	a member), and d's class is closed only once there is one.'''
	d = tuple(d)
	ends = [m[len(m) - len(d):] for m in equiv_class(p, g) if len(m) >= len(d)]
	return bool(ends) and not equiv_class(p, d).isdisjoint(ends)


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


def brute_right_lcm(p, u, v):
	'''Independent oracle: smallest-length common right-multiple found by
	enumerating positive words by length.  None if none has length <= 12.'''
	u, v = tuple(u), tuple(v)
	frontier = [()]
	for _ in range(13):
		for w in frontier:
			if right_is_multiple(p, w, u) and right_is_multiple(p, w, v):
				return canonical(p, w)
		frontier = [w + (g,) for w in frontier for g in p.generators]
	return None


def right_is_multiple(p, w, u):
	'''True iff u left-divides w: right_divides, with prefixes.'''
	u = tuple(u)
	heads = [m[:len(u)] for m in equiv_class(p, w) if len(m) >= len(u)]
	return bool(heads) and not equiv_class(p, u).isdisjoint(heads)


# ---------------------------------------------------------------------------
# S0-minimality and coset heads

def is_S0_minimal(p, g, s0):
	'''No generator of S0 right-divides g.  Letterwise suffices: every
	nontrivial element of the S0-submonoid ends in an S0 generator.'''
	s0 = set(s0)
	if not s0:
		return True
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
