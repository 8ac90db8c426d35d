''' Augmented words and the constructive elimination of insertion steps
for right-angled presentations.

An augmented letter is a triple (gen, index, sign); index 0 letters are
identified with the original alphabet.  phi erases indices; pi_h deletes
letters of index >= h.  Augmented transformations:

	type 0:   remove s[i]^e s[j]^-e and relabel every remaining occurrence
	          of index i or j on generator s to min(i, j)
	type 1:   swap s[i]^e t[j]^e when st = ts is a relation
	type 2:   swap s[i]^e t[j]^-e when st = ts is a relation
	type inf: insert s[i]^e s[i]^-e with i strictly larger than every
	          index present

Lifting a {0,1,inf} derivation gives an augmented derivation whose
intermediate words are all regular; projecting by descending top index
yields a {0,1,2} derivation on plain words.

The public functions take and return words of triples.  Inside, a word is
split into a pair (letters, indices): letters is the plain word, a tuple
of (gen, sign), and indices the tuple of indices, so phi is the first half
of the pair.  Each operation has one private core on pairs (_apply,
_regular, _drop, _aug_words, _project); the public functions split, call
it and join.  eliminate_infinity never builds a triple.
'''

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import accumulate, compress
from operator import itemgetter

from .core import Presentation
from .rewrite import (Step, Derivation, apply_step, check_derivation,
	derivation_words, oriented_relation, simulate_type2)


class AugError(ValueError):
	pass


def phi(w):
	'''Erase indices.'''
	return tuple((g, e) for g, i, e in w)


def _split(w):
	'''The pair (letters, indices) of a word of triples.'''
	return phi(w), tuple(map(itemgetter(1), w))


def _join(letters, indices):
	return tuple((g, i, e) for (g, e), i in zip(letters, indices))


def pi_h(w, h):
	'''Delete letters of index >= h.'''
	return _join(*_drop(*_split(w), h))


def _drop(letters, indices, h):
	'''pi_h on a pair.'''
	if max(indices, default=h - 1) < h:
		return letters, indices
	keep = [i < h for i in indices]
	return tuple(compress(letters, keep)), tuple(compress(indices, keep))


def _below(indices, pos, h):
	'''len(pi_h(w[:pos], h)), counted on the indices.'''
	head = indices[:pos]
	return len(head) - sum(map(h.__le__, head))


def _fresh(indices):
	'''The index an insertion into the word receives: max + 1, at least 1.'''
	return max(max(indices, default=0), 0) + 1


def to_aug(w):
	'''A plain word as an all-index-0 augmented word.'''
	return tuple((g, 0, e) for g, e in w)


def max_index(w):
	return max(map(itemgetter(1), w), default=-1)


@dataclass(frozen=True)
class AugStep:
	kind: str       # '0', '1', '2', 'inf'
	pos: int
	letter: str = None  # inf only
	index: int = None   # inf only
	sign: int = None    # inf only

	def to_json(self):
		d = {'kind': self.kind, 'pos': self.pos}
		if self.kind == 'inf':
			d.update(letter=self.letter, index=self.index, sign=self.sign)
		return d

	@classmethod
	def from_json(cls, d):
		return cls(d['kind'], d['pos'], d.get('letter'), d.get('index'), d.get('sign'))


@dataclass
class AugDerivation:
	start: tuple
	steps: list


def apply_aug_step(p, w, s):
	return _join(*_apply(p, *_split(w), s))


def _apply(p, letters, indices, s):
	'''apply_aug_step on a pair.'''
	n, k = len(letters), s.pos
	if s.kind == '0':
		if k + 2 > n:
			raise AugError('aug type 0 out of range')
		(g1, e1), (g2, e2) = letters[k], letters[k + 1]
		if g1 != g2 or e1 != -e2:
			raise AugError('no trivial pair at %d' % k)
		i1, i2 = indices[k], indices[k + 1]
		letters, rest = letters[:k] + letters[k + 2:], indices[:k] + indices[k + 2:]
		if i1 == i2:  # the relabelling keeps every index
			return letters, rest
		# only the letters on g1 that carry the larger index change
		lo, hi = min(i1, i2), max(i1, i2)
		out, j = list(rest), 0
		for _ in range(rest.count(hi)):
			j = rest.index(hi, j)
			if letters[j][0] == g1:
				out[j] = lo
			j += 1
		return letters, tuple(out)
	if s.kind in ('1', '2'):
		if k + 2 > n:
			raise AugError('aug swap out of range')
		(g1, e1), (g2, e2) = letters[k], letters[k + 1]
		if not p.commutes(g1, g2):
			raise AugError('%s and %s do not commute' % (g1, g2))
		if s.kind == '1' and e1 != e2:
			raise AugError('aug type 1 needs equal signs')
		if s.kind == '2' and e1 != -e2:
			raise AugError('aug type 2 needs opposite signs')
		return (letters[:k] + (letters[k + 1], letters[k]) + letters[k + 2:],
			indices[:k] + (indices[k + 1], indices[k]) + indices[k + 2:])
	if s.kind == 'inf':
		if not 0 <= k <= n:
			raise AugError('insertion position out of range')
		if s.index <= max(indices, default=-1):
			raise AugError('insertion index %d not fresh' % s.index)
		return (letters[:k] + ((s.letter, s.sign), (s.letter, -s.sign)) + letters[k:],
			indices[:k] + (s.index, s.index) + indices[k:])
	raise AugError('unknown augmented step kind %r' % s.kind)


def check_aug_derivation(p, d):
	return aug_derivation_words(p, d)[-1]


def aug_derivation_words(p, d):
	'''All intermediate words; a failure names the first bad step.'''
	return [_join(*w) for w in _aug_words(p, _split(tuple(d.start)), d.steps)]


def _aug_words(p, w, steps):
	'''aug_derivation_words from the pair w.'''
	words = [w]
	for i, s in enumerate(steps):
		try:
			words.append(_apply(p, *words[-1], s))
		except AugError as e:
			raise AugError('augmented step %d inapplicable: %s' % (i, e)) from None
	return words


def applicable_aug_steps(p, w):
	'''All applicable {0,1,2} augmented steps, plus the canonical fresh
	insertions at every position (one index, every generator and sign).'''
	out = []
	fresh = _fresh(map(itemgetter(1), w))
	for pos in range(len(w) - 1):
		(g1, i1, e1), (g2, i2, e2) = w[pos], w[pos + 1]
		if g1 == g2 and e1 == -e2:
			out.append(AugStep('0', pos))
		if g1 != g2 and p.commutes(g1, g2):
			out.append(AugStep('1' if e1 == e2 else '2', pos))
	for pos in range(len(w) + 1):
		for g in p.generators:
			for e in (1, -1):
				out.append(AugStep('inf', pos, letter=g, index=fresh, sign=e))
	return out


# ---------------------------------------------------------------------------
# lifting

def _plain_step_to_aug(p, indices, step):
	'''Translate one plain {0,1,2r,2l,inf} step on a word with these
	indices into an augmented step at the same position.'''
	if step.kind == '0':
		return AugStep('0', step.pos)
	if step.kind == '1':
		l, r = oriented_relation(p, step)
		if len(l) != 2:
			raise AugError('lifting requires a right-angled presentation')
		return AugStep('1', step.pos)
	if step.kind in ('2r', '2l'):
		return AugStep('2', step.pos)
	if step.kind == 'inf':
		return AugStep('inf', step.pos, letter=step.letter,
			index=_fresh(indices), sign=step.sign)
	raise AugError('unknown plain step kind %r' % step.kind)


def lift_derivation(p, d):
	'''Step-for-step lift of a plain derivation over a right-angled
	presentation; insertion steps receive the fresh index max + 1.'''
	if not p.right_angled:
		raise AugError('lifting requires a right-angled presentation')
	plain = accumulate(d.steps, partial(apply_step, p), initial=tuple(d.start))
	steps, words = _lift(p, d, plain)
	return AugDerivation(_join(*words[0]), steps)


def _lift(p, d, plain):
	'''The lifted steps of d and their words as pairs; plain iterates over
	the words of d, start included, and is read one word per step lifted.
	The lift projects back exactly when its letters are the plain word.'''
	letters = tuple((g, e) for g, e in next(plain))
	words, steps = [(letters, (0,) * len(letters))], []
	for step in d.steps:
		steps.append(_plain_step_to_aug(p, words[-1][1], step))
		words.append(_apply(p, *words[-1], steps[-1]))
		if words[-1][0] != next(plain):
			raise AugError('lift does not project back to the plain word')
	return steps, words


# ---------------------------------------------------------------------------
# regularity

def is_regular(p, w):
	'''Each positive index occurs 0 or 2 times, as a pair r[h]^e ... r[h]^-e
	whose strictly enclosed letters of index <= h all commute with r.
	Returns (bool, diagnosis).'''
	return _regular(p, *_split(w))


def _regular(p, letters, indices):
	'''is_regular on a pair.'''
	if max(indices, default=0) < 1:  # no positive index
		return True, 'regular'
	for h in sorted(set(indices)):
		if h < 1:
			continue
		times = indices.count(h)
		if times != 2:
			return False, 'index %d occurs %d times' % (h, times)
		a = indices.index(h)
		b = indices.index(h, a + 1)
		(g1, e1), (g2, e2) = letters[a], letters[b]
		if g1 != g2:
			return False, 'index %d letters have different generators' % h
		if e1 != -e2:
			return False, 'index %d letters do not have opposite signs' % h
		for (g, e), i in zip(letters[a + 1:b], indices[a + 1:b]):
			if i <= h and g != g1 and not p.commutes(g1, g):
				return False, 'index %d pair encloses non-commuting %s' % (h, g)
			if i <= h and g == g1:
				return False, 'index %d pair encloses its own generator' % h
	return True, 'regular'


# ---------------------------------------------------------------------------
# projection (one step, top index h)

def _swap_block(p, pw, target):
	'''Steps moving one letter across a commuting block, turning the pair pw
	into the pair target; both words must agree except for that one move.'''
	if pw == target:
		return []
	(lw, iw), (lt, it) = pw, target
	if len(lw) != len(lt):
		raise AugError('projection diff is not a single move')
	a = 0
	while lw[a] == lt[a] and iw[a] == it[a]:
		a += 1
	b = len(lw)
	while b > a and lw[b - 1] == lt[b - 1] and iw[b - 1] == it[b - 1]:
		b -= 1
	mid_w, mid_t = _join(lw[a:b], iw[a:b]), _join(lt[a:b], it[a:b])
	if sorted(mid_w) != sorted(mid_t):
		raise AugError('projection diff is not a single move')
	# pw and target differ, so mid_w is not empty
	if mid_w[-1] == mid_t[0] and mid_w[:-1] == mid_t[1:]:
		# the last letter moves left, crossing the block from its right end
		x = mid_w[-1]
		crossings = zip(range(b - 2, a - 1, -1), reversed(mid_w[:-1]))
	elif mid_w[0] == mid_t[-1] and mid_w[1:] == mid_t[:-1]:
		# the first letter moves right, crossing the block from its left end
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


def project_step(p, w, s, h):
	'''Augmented steps transforming pi_h(w) into pi_h(apply(w, s)), by case
	analysis on how the step interacts with the index-h pair.  w must be
	regular, and this checks it itself.'''
	w = _split(w)
	ok, diag = _regular(p, *w)
	if not ok:
		raise AugError('projection needs a regular word: ' + diag)
	return _project(p, w[1], s, h, _drop(*w, h), _drop(*_apply(p, *w, s), h))


def _project(p, indices, s, h, pw, pw2):
	'''project_step on a regular word with these indices, given the pairs
	pw = pi_h(w) and pw2 = pi_h(apply(w, s)).'''
	if s.kind == 'inf':
		if s.index < h:
			return [AugStep('inf', _below(indices, s.pos, h),
				letter=s.letter, index=s.index, sign=s.sign)]
	else:
		i1, i2 = indices[s.pos], indices[s.pos + 1]
		if i1 < h and i2 < h:
			return [AugStep(s.kind, _below(indices, s.pos, h))]
	if s.kind != '0' or (i1 >= h and i2 >= h):
		# the step moves or cancels only letters that pi_h deletes
		if pw != pw2:
			raise AugError('step on letters of index >= %d changed the projection' % h)
		return []
	# type 0 with one cancelled letter of index h: the surviving pair partner
	# is relabelled below h and must cross the pair contents by commutations
	steps = _swap_block(p, pw, pw2)
	if _aug_words(p, pw, steps)[-1] != pw2:
		raise AugError('projected block does not replay')
	return steps


# ---------------------------------------------------------------------------
# elimination

def _aug_to_plain_step(p, w, s):
	'''A zero-index augmented step as a plain Step on the letters w.'''
	if s.kind == '0':
		return Step('0', s.pos, sign=w[s.pos][-1])
	(g1, *_, e1), (g2, *_, e2) = w[s.pos], w[s.pos + 1]
	# a right-angled side s t is the one that starts with s while the other
	# side starts with t, so the pair maps name every relation needed here
	if s.kind == '1':
		# g1 g2 -> g2 g1, or (g2 g1)^-1 -> (g1 g2)^-1 on negative letters
		pair = (g1, g2) if e1 == 1 else (g2, g1)
		if pair in p.first_pairs:
			ri, orient = p.first_pairs[pair]
			return Step('1', s.pos, rel=ri, orient=orient, sign=e1)
	elif s.kind == '2':
		# g1^-1 g2 -> g2 g1^-1 is type 2r, g1 g2^-1 -> g2^-1 g1 is type 2l,
		# both with v = g1, v' = g2: the reversing step of that pattern
		kind, pairs = ('2r', p.first_pairs) if e1 == -1 else ('2l', p.last_pairs)
		if (g1, g2) in pairs:
			ri, orient = pairs[g1, g2]
			return Step(kind, s.pos, rel=ri, orient=orient, lv=1, lvp=1)
	raise AugError('no relation realizes the swap %s %s' % (g1, g2))


def eliminate_infinity(p, d, validate=True):
	'''Turn a valid {0,1,inf} derivation from w to the empty word into a
	{0,1,2} derivation from w to the empty word (right-angled only).  Each
	stage replays once on pairs, checks each of its words for regularity
	once, and projects each word once.'''
	if not p.right_angled:
		raise AugError('elimination requires a right-angled presentation')
	for st in d.steps:
		if st.kind in ('2r', '2l'):
			raise AugError('input derivation contains a type 2 step')
	plain = derivation_words(p, d)
	if plain[-1] != ():
		raise AugError('input derivation does not end at the empty word')
	steps, words = _lift(p, d, iter(plain))
	stage = 'lifted'
	while True:
		for w in words:
			ok, diag = _regular(p, *w)
			if not ok:
				raise AugError('%s word not regular: %s' % (stage, diag))
		# type 0 relabels to an index already present and swaps permute, so
		# the indices of every word are those of the start and the insertions
		h = max([max(words[0][1], default=-1)] + [s.index for s in steps if s.kind == 'inf'])
		if h < 1:
			break
		# word k is the successor of step k - 1 and the source of step k:
		# each word of the stage is projected once
		projected, start = [], _drop(*words[0], h)
		pw = start
		for w, w2, s in zip(words, words[1:], steps):
			pw2 = _drop(*w2, h)
			projected += _project(p, w[1], s, h, pw, pw2)
			pw = pw2
		words = _aug_words(p, start, projected)
		steps, stage = projected, 'projected'
	out = Derivation(tuple(d.start),
		[_aug_to_plain_step(p, w[0], s) for w, s in zip(words, steps)])
	if validate:
		if any(st.kind == 'inf' for st in out.steps):
			raise AugError('elimination left an insertion step')
		if check_derivation(p, out) != ():
			raise AugError('eliminated derivation does not replay to empty')
	return out


# ---------------------------------------------------------------------------
# shuffle word problem and derivation factories

def raag_word_problem(p, w):
	'''A {0,1,2} derivation from w to the empty word when w represents 1
	in the right-angled group, else None.  Repeatedly finds a letter pair
	s^e ... s^-e whose enclosed letters all commute with s, commutes the
	partner leftward, and cancels.'''
	if not p.right_angled:
		raise AugError('shuffle algorithm requires a right-angled presentation')
	steps = []
	cur = tuple(w)
	while cur:
		pair = _find_cancellable_pair(p, cur)
		if pair is None:
			return None
		i, j = pair
		for k in range(j - 1, i, -1):
			steps.append(_swap_plain(p, cur, k))
			cur = apply_step(p, cur, steps[-1])
		steps.append(Step('0', i, sign=cur[i][1]))
		cur = apply_step(p, cur, steps[-1])
	return Derivation(tuple(w), steps)


def _find_cancellable_pair(p, w):
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


def _swap_plain(p, w, pos):
	'''Plain step swapping w[pos] and w[pos + 1] (commuting generators).'''
	(g1, e1), (g2, e2) = w[pos], w[pos + 1]
	return _aug_to_plain_step(p, w, AugStep('1' if e1 == e2 else '2', pos))


def generate_01inf_derivation(p, w):
	'''A {0,1,inf} derivation from w to the empty word, built from the
	shuffle derivation by simulating every type 2 step.'''
	d = raag_word_problem(p, w)
	if d is None:
		raise AugError('word does not represent 1')
	steps = []
	cur = tuple(d.start)
	for s in d.steps:
		if s.kind in ('2r', '2l'):
			steps.extend(simulate_type2(p, cur, s).steps)
		else:
			steps.append(s)
		cur = apply_step(p, cur, s)
	out = Derivation(tuple(d.start), steps)
	if check_derivation(p, out) != ():
		raise AugError('simulated derivation does not replay to empty')
	return out


# ---------------------------------------------------------------------------
# random data for fuzzing

def random_right_angled(rng, n_gens):
	'''A random right-angled presentation on at most n_gens generators.'''
	gens = tuple('abcdefgh'[:n_gens])
	rels = []
	for i in range(n_gens):
		for j in range(i + 1, n_gens):
			if rng.random() < 0.5:
				rels.append(((gens[i], gens[j]), (gens[j], gens[i])))
	return Presentation(gens, tuple(rels))


def random_trivial_word(p, rng, max_len):
	'''A word representing 1, built by random insertions and commutations.'''
	w = ()
	for _ in range(rng.randrange(1, max_len)):
		if len(w) + 2 > max_len:
			break
		g = rng.choice(p.generators)
		e = rng.choice((1, -1))
		pos = rng.randrange(len(w) + 1)
		w = w[:pos] + ((g, e), (g, -e)) + w[pos:]
	# scramble with random commutations so cancellation is not adjacent
	for _ in range(4 * len(w)):
		if len(w) < 2:
			break
		i = rng.randrange(len(w) - 1)
		if w[i][0] != w[i + 1][0] and p.commutes(w[i][0], w[i + 1][0]):
			w = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
	return w
