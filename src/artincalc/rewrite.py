''' The five special transformation types, Dehn transformations, step
enumeration, application, and derivation replay.

Step kinds:
	'0'    remove an adjacent trivial pair (sign field: +1 for s s^-1, -1 for s^-1 s)
	'1'    replace a relation side by the other (sign -1: the inverse factors)
	'2r'   replace v^-1 v' by u u'^-1 where v u = v' u' is a relation
	'2l'   replace v v'^-1 by u^-1 u' where u v = u' v' is a relation
	'inf'  insert a trivial pair (letter, sign of the first inserted letter)

Positions index letter boundaries 0..len(w); a step's position is the start
of the affected factor.  For type 2 the orientation 'fwd' reads the stored
relation as (lhs, rhs) = (v side, v' side); 'bwd' swaps them.  lv and lvp
are |v| and |v'|.

Every step is checked and applied in one place, _apply, on words encoded
as strings (Presentation._encode), and every derivation is replayed by
_replay on top of it.  apply_step, check_derivation and derivation_words
encode their word once, run there and decode; reversing, the shuffle and
the elimination in raag run there on the words they have already
encoded.  A type 1 or 2 step is checked, and its encoded factor sliced
from the sides of its relation, on every call (_rule).  Step positions
are shifted in one place, embed.
'''

from __future__ import annotations

from dataclasses import dataclass, replace

from .core import InputError, render_word, parse_word

class StepError(ValueError):
	pass


class FormatError(StepError):
	'''A serialized step or derivation that is not well formed.'''


class KindError(StepError, InputError):
	'''Step kinds that a computation does not take.'''


@dataclass(frozen=True)
class Step:
	kind: str
	pos: int
	rel: int = None
	orient: str = None  # 'fwd' or 'bwd'
	lv: int = None      # |v|  (type 2)
	lvp: int = None     # |v'| (type 2)
	letter: str = None  # inf
	sign: int = None    # type 0 / inf pair order; type 1 inverse-factor flag

	def to_json(self):
		d = {'pos': self.pos}
		if self.kind == '0' and self.sign in (1, -1):
			d['kind'] = '0r' if self.sign == 1 else '0l'
		elif self.kind == 'inf':
			d['kind'] = 'inf'
			d['letter'] = self.letter
			d['sign'] = self.sign
		elif self.kind in ('1', '2r', '2l'):
			d['kind'] = self.kind
			d['rel'] = self.rel
			d['orient'] = self.orient
			if self.kind == '1':
				d['sign'] = self.sign
			elif not all(type(n) is int and 1 <= n <= 64 for n in (self.lv, self.lvp)):
				raise StepError('split lengths %r, %r do not fit schema 1'
					% (self.lv, self.lvp))
			else:
				# the schema carries a single split index; pack both lengths
				d['split'] = (self.lv - 1) * 64 + (self.lvp - 1)
		else:  # an unknown kind, or a type 0 sign that reads back as another
			raise StepError('step %r does not fit schema 1' % (self,))
		return d

	@classmethod
	def from_json(cls, d):
		try:
			kind = d['kind']
			if kind in ('0r', '0l'):
				return cls('0', d['pos'], sign=1 if kind == '0r' else -1)
			if kind == 'inf':
				return cls('inf', d['pos'], letter=d['letter'], sign=d['sign'])
			if kind == '1':
				return cls('1', d['pos'], rel=d['rel'], orient=d['orient'], sign=d.get('sign', 1))
			if kind not in ('2r', '2l'):
				raise FormatError('unknown step kind %r' % (kind,))
			split = d['split']
			if type(split) is not int or not 0 <= split < 64 * 64:
				raise FormatError('bad split %r' % (split,))
			return cls(kind, d['pos'], rel=d['rel'], orient=d['orient'],
				lv=split // 64 + 1, lvp=split % 64 + 1)
		except (KeyError, TypeError, AttributeError) as e:
			raise FormatError('malformed step %r: %r' % (d, e)) from None


def oriented_relation(p, step):
	'''Presentation._oriented of the step's checked relation and orientation.'''
	if type(step.rel) is not int or not 0 <= step.rel < len(p.relations):
		raise StepError('relation index %r out of range' % (step.rel,))
	if step.orient not in ('fwd', 'bwd'):
		raise StepError('unknown orientation %r' % (step.orient,))
	return p._oriented[step.rel, step.orient]


def apply_step(p, w, s):
	'''Apply one step; raises StepError on any pattern mismatch.'''
	return p._decode(_apply(p, p._encode(w), s))


def _apply(p, w, s):
	'''apply_step on a word encoded by Presentation._encode: the one
	place where a step is checked against a word.'''
	pos, kind = s.pos, s.kind
	if type(pos) is not int or pos < 0:
		raise StepError('position %r out of range' % (pos,))
	if kind == '0':
		if pos + 2 > len(w):
			raise StepError('type 0 out of range')
		c = ord(w[pos])
		if c ^ ord(w[pos + 1]) != 1 or (-1 if c & 1 else 1) != s.sign:
			raise StepError('no trivial pair at %d' % pos)
		return w[:pos] + w[pos + 2:]
	if kind == 'inf':
		if pos > len(w):
			raise StepError('insertion position out of range')
		if s.letter not in p.generators:
			raise StepError('unknown letter %r' % s.letter)
		if type(s.sign) is not int or s.sign not in (1, -1):
			raise StepError('insertion sign must be 1 or -1, got %r' % (s.sign,))
		codes = p._codes
		return w[:pos] + codes[s.letter, s.sign] + codes[s.letter, -s.sign] + w[pos:]
	if kind in ('1', '2r', '2l'):
		factor, new = _rule(p, s)
		if not w.startswith(factor, pos):
			raise StepError('type %s factor mismatch at %d' % (kind, pos))
		return w[:pos] + new + w[pos + len(factor):]
	raise StepError('unknown step kind %r' % kind)


def _rule(p, s):
	'''The encoded (factor, replacement) of a type 1, 2r or 2l step,
	checked, then sliced from the encoded sides of its relation.'''
	a, b, ai, bi = oriented_relation(p, s)
	if s.kind == '1':
		if type(s.sign) is not int or s.sign not in (1, -1):
			raise StepError('type 1 sign must be 1 or -1, got %r' % (s.sign,))
		return (ai, bi) if s.sign == -1 else (a, b)
	if not (type(s.lv) is int and type(s.lvp) is int
			and 1 <= s.lv <= len(a) and 1 <= s.lvp <= len(b)):
		raise StepError('bad type %s split' % s.kind)
	if s.kind == '2l':  # the mirror image of 2r: each side swaps with its inverse
		a, b, ai, bi = ai, bi, a, b
	return ai[-s.lv:] + b[:s.lvp], a[s.lv:] + bi[:-s.lvp]


_ZERO = ((None,) * 5 + (1,), (None,) * 5 + (-1,))  # type 0 fields, by sign bit


def _successors(p, w, kinds, since=0):
	'''(kind, pos, step fields, next word) of every applicable step of
	the kinds 0, 1, 2r and 2l in kinds, in applicable_steps order, on an
	encoded word, but those whose factor ends at or before since.  Fields
	are tuples in Step's order, one per type 0 sign and type 1 row.  The
	scan goes a sign run at a time from since - L + 1, L the longest factor
	(Presentation._sizes).  A type 0 pair starts at the run's last letter;
	a type 1 factor lies inside a run as long as the shortest relation
	side; a type 2 factor starts at most its largest |v| before the run's
	end, where each relation with that boundary (Presentation._boundaries)
	gets its largest |v| and |v'|, and the tails of its new words, once.
	A run with no room for a type 1 factor takes a short path: with no
	type 2 row, at most its type 0 step; with one row, as every run over
	an Artin presentation, that row's steps from its largest |v| on (a
	trivial pair has rows in twos, both orientations of a relation whose
	sides start, or end, alike).  The last loop interleaves the steps of
	every other run by position, up to its last type 1 position when it
	has no type 0 or 2 step.'''
	zero = '0' in kinds
	type1 = p._type1 if '1' in kinds else None
	rules = p._boundaries
	rl, rr = rules if '2l' in kinds else {}, rules if '2r' in kinds else {}
	shortest, span = p._sizes
	n, start = len(w), max(0, since - span + 1)
	runs = zero or rl or rr  # type 1 alone: one run will do
	while start < n:
		odd = ord(w[start]) & 1
		end = start + 1 if runs else n
		while end < n and ord(w[end]) & 1 == odd:
			end += 1
		rows, pair = (), n  # pair: where a trivial pair starts, or n
		if end < n:
			rows = (rr if odd else rl).get(w[end - 1:end + 1], ())
			if zero and ord(w[end - 1]) ^ ord(w[end]) == 1 and end >= since:
				pair = end - 1
		ones = end - shortest + 1 if type1 else start  # type 1 factors start before
		if not rows and ones <= start:
			if pair < n:
				yield '0', pair, _ZERO[odd], w[:pair] + w[end + 1:]
			start = end
			continue
		kind = '2r' if odd else '2l'
		low = since - end + 1 if since > end else 1  # the least |v'| that ends past since
		found = [] if ones > start or len(rows) > 1 else None  # None: one row, no pair
		for ri, orient, head, tail, left, right in rows:
			lv = lvp = 1
			while lv < len(head) and end - lv > start and w[end - 1 - lv] == head[-1 - lv]:
				lv += 1  # a row that would match past start ends by since
			while lvp < len(tail) and end + lvp < n and w[end + lvp] == tail[lvp]:
				lvp += 1
			if lvp < low:
				continue
			tails = [right[:-m] + w[end + m:] for m in range(low, lvp + 1)] \
				if lvp > low else (right[:-low] + w[end + low:],)
			if found is not None:
				found.append((end - lv, ri, orient, left, tails))
				continue
			for pos in range(end - lv, end):
				front, m = w[:pos] + left[end - pos:], low
				for tail in tails:
					yield kind, pos, (ri, orient, end - pos, m), front + tail
					m += 1
		if found is not None:
			for pos in range(start, end if found or pair < n else ones):
				if pos == pair:
					yield '0', pos, _ZERO[odd], w[:pos] + w[pos + 2:]
				if pos < ones:
					for factor, new, fields in type1.get(w[pos], ()):
						if w.startswith(factor, pos) and (not since or pos + len(factor) > since):
							yield '1', pos, fields, w[:pos] + new + w[pos + len(factor):]
				for lo, ri, orient, left, tails in found:
					if pos >= lo:
						front, m = w[:pos] + left[end - pos:], low
						for tail in tails:
							yield kind, pos, (ri, orient, end - pos, m), front + tail
							m += 1
		start = end


def applicable_steps(p, w, kinds, inf_letters=None, inf_positions=None):
	'''All applicable steps of the requested kinds, in deterministic order
	(position, kind, relation, split).  Kind 'inf' is an infinite family
	and is only enumerated when an explicit letter list is supplied.'''
	if 'inf' in kinds and inf_letters is None:
		raise KindError("kind 'inf' requires an explicit inf_letters bound")
	out = [Step(kind, pos, *fields)
		for kind, pos, fields, _ in _successors(p, p._encode(w), kinds)]
	if 'inf' in kinds:  # insertions last at each position, by a stable sort
		out += [Step('inf', pos, letter=g, sign=sg) for pos in range(len(w) + 1)
			if inf_positions is None or pos in inf_positions
			for g in inf_letters for sg in (1, -1)]
		out.sort(key=lambda s: s.pos)
	return out


@dataclass
class Derivation:
	start: tuple
	steps: list

	def to_json(self, p, end=None):
		'''The schema-1 blob; a given end word spares the replay.'''
		return {
			'schema': 1,
			'start': render_word(self.start, p),
			'steps': [s.to_json() for s in self.steps],
			'end': render_word(check_derivation(p, self) if end is None else end, p),
		}

	@classmethod
	def from_json(cls, d, p):
		'''Parse and replay; FormatError when d is not a schema-1
		derivation, StepError when its steps do not replay to its end.'''
		return cls.replay_json(d, p)[0]

	@classmethod
	def replay_json(cls, d, p):
		'''from_json that also returns the final word it replayed to.'''
		try:
			if d.get('schema') != 1:
				raise FormatError('unsupported derivation schema %r' % d.get('schema'))
			der = cls(parse_word(d['start'], p), [Step.from_json(s) for s in d['steps']])
			want = d['end']
		except (KeyError, TypeError, AttributeError) as e:
			raise FormatError('malformed derivation: %r' % (e,)) from None
		end = check_derivation(p, der)
		if render_word(end, p) != want:
			raise StepError('derivation end mismatch: %r != %r'
				% (render_word(end, p), want))
		return der, end


def check_derivation(p, d):
	'''Replay a derivation to its final word, failing as derivation_words.'''
	return p._decode(_end(p, p._encode(d.start), d.steps))


def derivation_words(p, d):
	'''All intermediate words, start included; the index of the first
	inapplicable step is reported on failure.'''
	words = list(_replay(p, p._encode(d.start), d.steps))
	return [tuple(d.start)] + [p._decode(w) for w in words[1:]]


def _replay(p, w, steps):
	'''The encoded words of a derivation from the encoded word w, start
	included, one at a time; a failure names the first inapplicable step.'''
	yield w
	for i, s in enumerate(steps):
		try:
			w = _apply(p, w, s)
		except StepError as e:
			raise StepError('step %d inapplicable: %s' % (i, e)) from None
		yield w


def _end(p, w, steps):
	'''The last word of _replay(p, w, steps).'''
	for w in _replay(p, w, steps):
		pass
	return w


def embed(w, i, d):
	'''The steps of d, a derivation of the factor of w at i, shifted to
	act there; StepError when that factor is not d.start.'''
	if i < 0 or tuple(w[i:i + len(d.start)]) != tuple(d.start):
		raise StepError('sub-derivation start mismatch at %r' % (i,))
	return [replace(s, pos=s.pos + i) for s in d.steps]


def unwind(tree, start, end):
	'''The derivation from start to end in a search tree that maps each
	reached word to a tuple ending in (previous word, kind, pos, step
	fields) and the root to a shorter tuple; Steps are made only on this
	path, and its words may be encoded.  Fields are in Step's order.'''
	steps = []
	while len(tree[end]) >= 4:
		end, kind, pos, fields = tree[end][-4:]
		steps.append(Step(kind, pos, *fields))
	steps.reverse()
	return Derivation(start, steps)


# ---------------------------------------------------------------------------
# Dehn transformations

@dataclass(frozen=True)
class DehnStep:
	pos: int
	factor: tuple
	replacement: tuple
	rel: int
	orient: str  # 'fwd': u^-1 u' is a cyclic shift of v^-1 v'; 'bwd': of v'^-1 v
	shift: int


def dehn_steps(p, w):
	'''All length-decreasing factor replacements u -> u' with u^-1 u' a
	cyclic shift of v^-1 v' ('fwd') or v'^-1 v ('bwd') for a relation
	v = v', matched in place on the encoded word (Presentation._dehn).
	Order: position, |u| descending, relation, orientation ('bwd' first),
	shift; a pair (u, u') met twice at one position keeps the lowest
	relation, then 'fwd'.'''
	code, out = p._encode(w), []
	n = len(code)
	for pos, x in enumerate(code):
		found = {}  # encoded (u, u') -> (rel, orient, shift) of its first step
		for rel, orient, yy, yiyi, t in p._dehn.get(x, ()):
			size, m = len(yy) // 2, 1
			while m < size and pos + m < n and code[pos + m] == yy[t + m]:
				m += 1
			for k in range(size // 2 + 1, m + 1):
				found.setdefault((yy[t:t + k], yiyi[size - t:2 * size - t - k]),
					(rel, orient, (size - t - k) % size))
		out += [DehnStep(pos, p._decode(u), p._decode(up), *f) for (u, up), f
			in sorted(found.items(), key=lambda it: (-len(it[0][0]),) + it[1])]
	return out


def apply_dehn(w, d):
	if w[d.pos:d.pos + len(d.factor)] != d.factor:
		raise StepError('Dehn factor mismatch at %d' % d.pos)
	return w[:d.pos] + d.replacement + w[d.pos + len(d.factor):]


# ---------------------------------------------------------------------------
# simulation of type 2 by {inf, 1, 0}

def simulate_type2(p, w, s):
	'''A derivation from w to apply_step(p, w, s) using only insertion,
	type 1, and type 0 steps.  Used to manufacture {0,1,inf} derivations
	when exercising the elimination algorithm.'''
	if s.kind not in ('2r', '2l'):
		raise StepError('simulate_type2 needs a type 2 step')
	code = p._encode(w)  # applying s is also its applicability check
	return Derivation(w, _simulation(p, code, s, _apply(p, code, s)))


def _simulation(p, w, s, want):
	'''simulate_type2's steps on the encoded word w, for a type 2 step s
	that takes w to the encoded word want, checked by one replay.'''
	l, r = p.relations[s.rel][::1 if s.orient == 'fwd' else -1]
	steps = []
	if s.kind == '2r':
		# ... v^-1 v' ...  ->  ... v^-1 v' u' u'^-1 ...  ->  ... v^-1 v u u'^-1 ...
		vp, up = r[:s.lvp], r[s.lvp:]
		end = s.pos + s.lv + s.lvp
		for i, g in enumerate(up):
			steps.append(Step('inf', end + i, letter=g, sign=1))
		steps.append(Step('1', s.pos + s.lv, rel=s.rel,
			orient='bwd' if s.orient == 'fwd' else 'fwd', sign=1))
		for i in range(s.lv):
			steps.append(Step('0', s.pos + s.lv - 1 - i, sign=-1))
	else:
		# ... v v'^-1 ...  ->  ... u^-1 u v v'^-1 ...  ->  ... u^-1 u' v' v'^-1 ...
		u = l[:len(l) - s.lv]
		for i in range(len(u)):
			g = u[len(u) - 1 - i]
			steps.append(Step('inf', s.pos + i, letter=g, sign=-1))
		steps.append(Step('1', s.pos + len(u), rel=s.rel, orient=s.orient, sign=1))
		off = s.pos + len(u) + len(r)
		for i in range(s.lvp):
			steps.append(Step('0', off - 1 - i, sign=1))
	if _end(p, w, steps) != want:
		raise StepError('type 2 simulation mismatch')
	return steps
