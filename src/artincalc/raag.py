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
split into a pair (letters, marks): letters is the plain word encoded as
a string (Presentation._encode: one character per signed letter, a letter
and its inverse differing in the lowest bit), so phi is the first half of
the pair, and marks the tuple of (position, index) pairs of the letters
whose index is not 0, ascending by position.  An insertion is cancelled
long before the word ends, so a word carries few marks, and most none:
every core costs what its marks cost, besides one string operation, and
a word with one marked pair costs a few list operations on its two marks.
Each operation has one private core on pairs (_apply, _regular, _drop,
_aug_words, _project); the public functions split, call it and join.
A projected type 0 step that moves a letter finds the moved block from
the marks and the step's position (_below), so _swap_block compares the
outside as two slices and the block as a rotation by one letter.
The plain Step of each swap and cancellation is made once per
presentation, kind, letter pair and position (_plain_step, into
Presentation._steps), so the shuffle, generation and the last stage of
elimination on one presentation share it.
Plain steps are applied and replayed on the same strings by
rewrite._apply, so eliminate_infinity, raag_word_problem and
generate_01inf_derivation encode their input once and build no triple.
The shuffle decides on the string before it derives: it finds every
cancellation pair first, so a word that is not trivial makes no step.
Each step made is applied once where that checks it: the shuffle applies
its steps, and generation replays only its type 2 simulations; the lift
applies augmented steps only to insertions and to words with marks; the
last projection stage, which has no marks, is replayed only as plain steps.
'''

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, fields
from functools import partial
from itertools import accumulate, compress
from operator import itemgetter

from .core import Presentation
from .rewrite import (Step, Derivation, StepError, oriented_relation,
	_apply as _apply_plain, _replay, _simulation)


class AugError(ValueError):
	pass


def phi(w):
	'''Erase indices.'''
	return tuple((g, e) for g, i, e in w)


def _split(p, w):
	'''The pair (letters, marks) of a word of triples.'''
	return p._encode(phi(w)), _marks(map(itemgetter(1), w))


def _join(p, letters, marks):
	return tuple((g, i, e) for (g, e), i in zip(p._decode(letters), _dense(len(letters), marks)))


def _marks(indices):
	'''The marks of these indices.'''
	return tuple((k, i) for k, i in enumerate(indices) if i)


def _dense(n, marks):
	'''The indices of a word of n letters with these marks.'''
	out = [0] * n
	for k, i in marks:
		out[k] = i
	return out


def _name(p, c):
	'''The generator of the code c.'''
	return p._decode(c)[0][0]


def pi_h(w, h):
	'''Delete letters of index >= h.'''
	return tuple(x for x in w if x[1] < h)


def _drop(letters, marks, h):
	'''pi_h on a pair.'''
	if h < 1:  # the unmarked letters go too; only project_step passes such an h
		indices = _dense(len(letters), marks)
		keep = [i < h for i in indices]
		return ''.join(compress(letters, keep)), _marks(compress(indices, keep))
	gone = [k for k, i in marks if i >= h]
	if not gone:
		return letters, marks
	pieces, a = [], 0
	for k in gone:
		pieces.append(letters[a:k])
		a = k + 1
	pieces.append(letters[a:])
	# a mark kept moves left past the letters gone before it
	return ''.join(pieces), tuple([(k - bisect_left(gone, k), i) for k, i in marks if i < h])


def _below(marks, pos, h):
	'''len(pi_h(w[:pos], h)), counted on the marks: the unmarked letters
	before pos count when 0 < h.'''
	head = [i < h for k, i in marks if k < pos]
	return (pos - len(head) if h > 0 else 0) + sum(head)


def _fresh(indices):
	'''The index an insertion into the word receives: max + 1, at least 1.'''
	return max(max(indices, default=0), 0) + 1


def to_aug(w):
	'''A plain word as an all-index-0 augmented word.'''
	return tuple((g, 0, e) for g, e in w)


def max_index(w):
	return max(map(itemgetter(1), w), default=-1)


@dataclass(frozen=True, slots=True, init=False)
class AugStep:
	kind: str       # '0', '1', '2', 'inf'
	pos: int
	letter: str = None  # inf only
	index: int = None   # inf only
	sign: int = None    # inf only

	def __init__(self, kind, pos, letter=None, index=None, sign=None):
		# as rewrite.Step: each slot's setter (_AUG_SLOTS)
		set_kind, set_pos, set_letter, set_index, set_sign = _AUG_SLOTS
		set_kind(self, kind)
		set_pos(self, pos)
		set_letter(self, letter)
		set_index(self, index)
		set_sign(self, sign)

	def to_json(self):
		d = {'kind': self.kind, 'pos': self.pos}
		if self.kind == 'inf':
			d.update(letter=self.letter, index=self.index, sign=self.sign)
		return d

	@classmethod
	def from_json(cls, d):
		return cls(d['kind'], d['pos'], d.get('letter'), d.get('index'), d.get('sign'))


_AUG_SLOTS = tuple(AugStep.__dict__[f.name].__set__ for f in fields(AugStep))


@dataclass
class AugDerivation:
	start: tuple
	steps: list


def apply_aug_step(p, w, s):
	return _join(p, *_apply(p, *_split(p, w), s))


def _apply(p, letters, marks, s):
	'''apply_aug_step on a pair.'''
	kind, k, n = s.kind, s.pos, len(letters)
	if type(k) is not int or k < 0:
		raise AugError('position %r out of range' % (k,))
	if kind == '0':
		if k + 2 > n:
			raise AugError('aug type 0 out of range')
		c1, c2 = letters[k], letters[k + 1]
		if ord(c1) ^ ord(c2) != 1:
			raise AugError('no trivial pair at %d' % k)
		letters = letters[:k] + letters[k + 2:]
		if not marks:
			return letters, marks
		at = dict(marks)
		lo, hi = sorted((at.get(k, 0), at.get(k + 1, 0)))
		rest = tuple([(m - 2 if m > k else m, i) for m, i in marks if m != k and m != k + 1])
		if lo == hi:  # the relabelling keeps every index
			return letters, rest
		# only the letters on the cancelled generator that carry the larger
		# index change
		if hi == 0:  # unmarked letters take the negative lo: only a public caller's word
			return letters, _marks(lo if i == 0 and c in (c1, c2) else i
				for c, i in zip(letters, _dense(len(letters), rest)))
		return letters, tuple([(m, lo if i == hi and letters[m] in (c1, c2) else i)
			for m, i in rest if lo or i != hi or letters[m] not in (c1, c2)])
	if kind == '1' or kind == '2':
		if k + 2 > n:
			raise AugError('aug swap out of range')
		c1, c2 = letters[k], letters[k + 1]
		if c2 not in p._commuting.get(c1, ''):
			raise AugError('%s and %s do not commute'
				% (_name(p, c1), _name(p, c2)))
		if kind == '1' and (ord(c1) ^ ord(c2)) & 1:
			raise AugError('aug type 1 needs equal signs')
		if kind == '2' and not (ord(c1) ^ ord(c2)) & 1:
			raise AugError('aug type 2 needs opposite signs')
		if marks:  # a mark on k or k + 1 moves with its letter
			marks = tuple(sorted([(2 * k + 1 - m if k <= m <= k + 1 else m, i) for m, i in marks]))
		return letters[:k] + c2 + c1 + letters[k + 2:], marks
	if kind == 'inf':
		if k > n:
			raise AugError('insertion position out of range')
		index, sign = s.index, s.sign
		if type(index) is not int:
			raise AugError('insertion index must be an integer, got %r' % (index,))
		# the unmarked letters have index 0
		if index <= max([i for _, i in marks] + [0] * (len(marks) < n), default=-1):
			raise AugError('insertion index %d not fresh' % index)
		if type(sign) is not int or sign not in (1, -1):
			raise AugError('insertion sign must be 1 or -1, got %r' % (sign,))
		codes = p._codes
		letters = letters[:k] + codes[s.letter, sign] + codes[s.letter, -sign] + letters[k:]
		new = ((k, index), (k + 1, index)) if index else ()
		return letters, (tuple([x for x in marks if x[0] < k]) + new
			+ tuple([(m + 2, i) for m, i in marks if m >= k]))
	raise AugError('unknown augmented step kind %r' % kind)


def check_aug_derivation(p, d):
	return aug_derivation_words(p, d)[-1]


def aug_derivation_words(p, d):
	'''All intermediate words; a failure names the first bad step.'''
	words = _aug_words(p, _split(p, tuple(d.start)), d.steps)
	return [_join(p, *w) for w in words]


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

def _plain_step_to_aug(p, marks, step):
	'''Translate one plain {0,1,2r,2l,inf} step on a word with these
	marks into an augmented step at the same position.  The callers
	require a right-angled presentation, so a type 1 step's relation is
	looked up only for its checks, which come first.'''
	kind, pos = step.kind, step.pos
	if kind == '0':
		return AugStep('0', pos)
	if kind == '1':
		oriented_relation(p, step)
		return AugStep('1', pos)
	if kind == '2r' or kind == '2l':
		return AugStep('2', pos)
	if kind == 'inf':
		return AugStep('inf', pos, step.letter, _fresh([i for _, i in marks]), step.sign)
	raise AugError('unknown plain step kind %r' % kind)


def lift_derivation(p, d):
	'''Step-for-step lift of a plain derivation over a right-angled
	presentation; insertion steps receive the fresh index max + 1.'''
	if not p.right_angled:
		raise AugError('lifting requires a right-angled presentation')
	plain = accumulate(d.steps, partial(_apply_plain, p), initial=p._encode(d.start))
	steps, words = _lift(p, d, plain)
	return AugDerivation(_join(p, *words[0]),
		[AugStep(s.kind, s.pos) if isinstance(s, Step) else s for s in steps])


def _lift(p, d, plain):
	'''The lifted steps of d and their words as pairs; plain iterates over
	the encoded words of d, start included, and is read one word per step
	lifted.  The start has no marks, and only the insertions make them.
	A step of kind 0 or 1 on a word with no marks lifts to itself (the
	plain Step, read by its kind and position as the AugStep of that
	kind), with the plain successor as its word: the plain step checks
	it, and a right-angled type 1 factor is two commuting letters of one
	sign (if the plain step fails, the augmented one runs first, for its
	error).  Any other lift projects back exactly when its letters are
	the plain word.'''
	words, steps = [(next(plain), ())], []
	for step in d.steps:
		marks = words[-1][1]
		if step.kind in ('0', '1') and not marks:
			try:
				words.append((next(plain), ()))
			except StepError:
				_apply(p, *words[-1], _plain_step_to_aug(p, marks, step))
				raise
			steps.append(step)
		else:
			steps.append(_plain_step_to_aug(p, marks, step))
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
	return _regular(p, *_split(p, w))


def _regular(p, letters, marks):
	'''is_regular on a pair, read off the marks, sorted by index: each
	index must be on two marks in a row.  The letters a pair encloses,
	less those of a larger index, are checked by stripping the commuting
	codes, and the first letter left is the diagnosis.'''
	marked = sorted([(i, k) for k, i in marks if i > 0])
	n = len(marked)
	for j in range(0, n, 2):
		h, a = marked[j]
		if j + 1 == n or marked[j + 1][0] != h or (j + 2 < n and marked[j + 2][0] == h):
			return False, 'index %d occurs %d times' % (h, [i for i, _ in marked].count(h))
		b = marked[j + 1][1]
		c1, c2 = letters[a], letters[b]
		if ord(c1) >> 1 != ord(c2) >> 1:
			return False, 'index %d letters have different generators' % h
		if c1 == c2:
			return False, 'index %d letters do not have opposite signs' % h
		enclosed = letters[a + 1:b]
		if n > 2:  # the letters of a larger index are left out
			ends = [a, *[k for k, i in marks if a < k < b and i > h], b]
			enclosed = ''.join([letters[x + 1:y] for x, y in zip(ends, ends[1:])])
		# a letter on the pair's own generator fails even where a relation
		# aa = aa says it commutes
		c = enclosed.lstrip(p._commuting.get(c1, '').replace(c1, '').replace(c2, ''))[:1]
		if c in (c1, c2):
			return False, 'index %d pair encloses its own generator' % h
		if c:
			return False, 'index %d pair encloses non-commuting %s' % (h, _name(p, c))
	return True, 'regular'


# ---------------------------------------------------------------------------
# projection (one step, top index h)

def _swap_block(p, pw, target, a, b):
	'''Steps moving one letter across a commuting block, turning the pair pw
	into the pair target; both words must agree except for that one move,
	which lies in pw[a:b].  The outside is checked as two slices and the
	marks there; the block, as its letters where neither word has marks
	and as (letter, index) pairs otherwise, is narrowed to its first and
	last difference and must be a rotation by one letter.'''
	if pw == target:
		return []
	(lw, mw), (lt, mt) = pw, target
	if len(lw) != len(lt) or lw[:a] != lt[:a] or lw[b:] != lt[b:]:
		raise AugError('projection diff is not a single move')
	bw, bt = lw[a:b], lt[a:b]
	if mw or mt:
		if [x for x in mw if not a <= x[0] < b] != [x for x in mt if not a <= x[0] < b]:
			raise AugError('projection diff is not a single move')
		bw = list(zip(bw, _dense(b - a, [(k - a, i) for k, i in mw if a <= k < b])))
		bt = list(zip(bt, _dense(b - a, [(k - a, i) for k, i in mt if a <= k < b])))
	# pw and target differ, and only inside the block
	while bw[0] == bt[0]:
		bw, bt, a = bw[1:], bt[1:], a + 1
	while bw[-1] == bt[-1]:
		bw, bt, b = bw[:-1], bt[:-1], b - 1
	if bw[-1] == bt[0] and bw[:-1] == bt[1:]:
		# the last letter moves left, crossing the block from its right end
		x = lw[b - 1]
		crossings = zip(range(b - 2, a - 1, -1), reversed(lw[a:b - 1]))
	elif bw[0] == bt[-1] and bw[1:] == bt[:-1]:
		# the first letter moves right, crossing the block from its left end
		x = lw[a]
		crossings = zip(range(a, b - 1), lw[a + 1:b])
	else:
		raise AugError('projection diff is not a single move')
	steps, commuting = [], p._commuting.get(x, '')
	for cur, c in crossings:
		if ord(c) >> 1 == ord(x) >> 1 or c not in commuting:
			raise AugError('projection needs %s and %s to commute'
				% (_name(p, c), _name(p, x)))
		steps.append(AugStep('2' if (ord(c) ^ ord(x)) & 1 else '1', cur))
	return steps


def project_step(p, w, s, h):
	'''Augmented steps transforming pi_h(w) into pi_h(apply(w, s)), by case
	analysis on how the step interacts with the index-h pair.  w must be
	regular, and this checks it itself.'''
	w = _split(p, w)
	ok, diag = _regular(p, *w)
	if not ok:
		raise AugError('projection needs a regular word: ' + diag)
	return _project(p, w[1], s, h, _drop(*w, h), _drop(*_apply(p, *w, s), h))


def _project(p, marks, s, h, pw, pw2):
	'''project_step on a regular word with these marks, given the pairs
	pw = pi_h(w) and pw2 = pi_h(apply(w, s)).'''
	if s.kind == 'inf':
		if s.index < h:
			return [AugStep('inf', _below(marks, s.pos, h),
				letter=s.letter, index=s.index, sign=s.sign)]
	else:
		at = dict(marks)
		i1, i2 = at.get(s.pos, 0), at.get(s.pos + 1, 0)
		if i1 < h and i2 < h:
			return [AugStep(s.kind, _below(marks, s.pos, h))]
	if s.kind != '0' or (i1 >= h and i2 >= h):
		# the step moves or cancels only letters that pi_h deletes
		if pw != pw2:
			raise AugError('step on letters of index >= %d changed the projection' % h)
		return []
	# type 0 with one cancelled letter r of index below h: the other letters
	# of the larger index on its generator are relabelled below h.  When one
	# letter q carries that index (the pair partner, where the index is
	# positive), the relabelled q replaces r, and pi_h(w) changes only
	# between them: q crosses the letters between by commutations.
	# Otherwise the move is looked for in the whole of pw.
	hi = max(i1, i2)
	q = [k for k, i in marks if i == hi and k - s.pos not in (0, 1)]
	if len(q) == 1:
		x, y = sorted((q[0], s.pos + (i1 >= h)))
		a, b = _below(marks, x, h), _below(marks, y + 1, h)
	else:
		a, b = 0, len(pw[0])
	steps = _swap_block(p, pw, pw2, a, b)
	if _aug_words(p, pw, steps)[-1] != pw2:
		raise AugError('projected block does not replay')
	return steps


# ---------------------------------------------------------------------------
# elimination

def _plain_step(p, letters, kind, pos):
	'''The plain Step of a zero-index augmented step of this kind ('0',
	'1' or '2') at pos on the encoded letters: the one Step of the
	presentation's table (Presentation._steps) for the kind, the pair at
	pos and pos, made on the first call.'''
	key = kind, letters[pos:pos + 2], pos
	step = p._steps.get(key)
	if step is not None:
		return step
	if kind == '0':
		step = Step('0', pos, sign=-1 if ord(letters[pos]) & 1 else 1)
	else:
		# over a right-angled presentation Presentation._swap names every
		# step needed: type 1 for equal signs, 2r or 2l (the reversing
		# step) otherwise
		row = p._swap(key[1])
		if row is None or row[0][0] != kind:
			g1, g2 = (_name(p, c) for c in key[1])
			raise AugError('no relation realizes the swap %s %s' % (g1, g2))
		step = Step(row[0], pos, *row[1])
	p._steps[key] = step
	return step


def eliminate_infinity(p, d):
	'''Turn a valid {0,1,inf} derivation from w to the empty word into a
	{0,1,2} derivation from w to the empty word (right-angled only).  The
	input replays once on encoded words, which the lift checks itself
	against; each stage checks each of its words for regularity once and
	projects each word once.  Projected steps are replayed on pairs while
	an insertion is left; the last stage has none, so no marks: its steps
	are made plain on the current letters, and that one replay checks them.'''
	if not p.right_angled:
		raise AugError('elimination requires a right-angled presentation')
	for st in d.steps:
		if st.kind in ('2r', '2l'):
			raise AugError('input derivation contains a type 2 step')
	start = p._encode(d.start)
	plain = list(_replay(p, start, d.steps))
	if plain[-1]:
		raise AugError('input derivation does not end at the empty word')
	steps, words = _lift(p, d, iter(plain))
	stage = 'lifted'
	while True:
		for w in filter(itemgetter(1), words):  # a word with no marks is regular
			ok, diag = _regular(p, *w)
			if not ok:
				raise AugError('%s word not regular: %s' % (stage, diag))
		# the start has no marks, type 0 relabels to an index already present
		# and swaps permute, so the indices of every word are the insertions'
		h = max([s.index for s in steps if s.kind == 'inf'], default=0)
		if h < 1:
			break
		# word k is the successor of step k - 1 and the source of step k:
		# each word of the stage is projected once
		projected, pw = [], words[0]
		for w, w2, s in zip(words, words[1:], steps):
			if w[1] or w2[1]:
				pw2 = _drop(*w2, h)
				projected += _project(p, w[1], s, h, pw, pw2)
			else:  # no marks on either side: the step projects to itself
				pw2 = w2
				projected.append(s)
			pw = pw2
		steps, stage = projected, 'projected'
		words = (_aug_words(p, words[0], steps) if any(s.kind == 'inf' for s in steps)
			else words[:1])
	out, cur = [], start
	for s in steps:
		if s.kind == 'inf':
			raise AugError('elimination left an insertion step')
		out.append(_plain_step(p, cur, s.kind, s.pos))
		cur = _apply_plain(p, cur, out[-1])
	if cur:
		raise AugError('eliminated derivation does not replay to empty')
	return Derivation(tuple(d.start), out)


# ---------------------------------------------------------------------------
# shuffle word problem and derivation factories

def raag_word_problem(p, w):
	'''A {0,1,2} derivation from w to the empty word when w represents 1
	in the right-angled group, else None.  Repeatedly finds a letter pair
	s^e ... s^-e whose enclosed letters all commute with s, commutes the
	partner leftward, and cancels.  The pairs are found on the word
	first, and a word that is not trivial makes no step (see _shuffle).'''
	shuffled = _shuffle(p, w)
	return None if shuffled is None else Derivation(tuple(w), shuffled[0])


def _shuffle(p, w):
	'''raag_word_problem on w encoded: (its steps, step index -> encoded
	words before and after it for each type 2 step), or None.

	It decides first, on the string.  A round that cancels the pair (i, j)
	moves w[j] next to w[i] across letters that commute with it and
	cancels both, so the next word is w less its letters i and j.  A word
	left with no pair before it is empty is nontrivial, by the normal form
	theorem for graph groups (Green; Hermiller and Meier), so the answer
	None makes no step and applies none.  Otherwise the steps are made
	from the pairs, in the same order, and each is applied once by
	rewrite._apply as it is made, which checks it.'''
	if not p.right_angled:
		raise AugError('shuffle algorithm requires a right-angled presentation')
	start = cur = p._encode(w)
	commuting, pairs = p._commuting, []
	while cur:
		# the first i, with its j, such that cur[j] is the inverse of cur[i]
		# and every letter between commutes with cur[i]: the first letter
		# after i that does not commute with it is cur[j].  No generator
		# commutes with itself, so that letter is also the first on the
		# generator of cur[i].
		for i, c in enumerate(cur):
			rest = cur[i + 1:].lstrip(commuting.get(c, ''))
			if rest and ord(rest[0]) == ord(c) ^ 1:
				break
		else:
			return None
		j = len(cur) - len(rest)
		pairs.append((i, j))
		cur = cur[:i] + cur[i + 1:j] + cur[j + 1:]
	cur, steps, twos = start, [], {}
	for i, j in pairs:
		for k in range(j - 1, i, -1):
			step = _plain_step(p, cur,
				'2' if (ord(cur[k]) ^ ord(cur[k + 1])) & 1 else '1', k)
			nxt = _apply_plain(p, cur, step)
			if step.kind != '1':
				twos[len(steps)] = cur, nxt
			steps.append(step)
			cur = nxt
		steps.append(_plain_step(p, cur, '0', i))
		cur = _apply_plain(p, cur, steps[-1])
	return steps, twos


def generate_01inf_derivation(p, w):
	'''A {0,1,inf} derivation from w to the empty word, built from the
	shuffle derivation by simulating every type 2 step.  The shuffle has
	applied each of its steps, and each simulation replays from the word
	before its step to the word after it, so nothing is replayed again.'''
	shuffled = _shuffle(p, w)
	if shuffled is None:
		raise AugError('word does not represent 1')
	shuffle_steps, twos = shuffled
	steps = []
	for k, s in enumerate(shuffle_steps):
		if k in twos:
			before, after = twos[k]
			steps.extend(_simulation(p, before, s, after))
		else:
			steps.append(s)
	return Derivation(tuple(w), steps)


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
