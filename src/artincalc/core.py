''' Words, signed letters, positive presentations, parsing, and validation.

A letter is a pair (generator, sign) with sign +1 or -1; a word is a tuple
of letters.  Positive words are tuples of generator names.  In rendered
form we follow the usual convention that lowercase is a positive letter
and uppercase its inverse, so "aB" is a b^-1; multi-character generators
use whitespace-separated tokens with an explicit ^-1.
'''

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property


class InputError(ValueError):
	'''An error in the caller's input, not a broken invariant: the command
	line reports each subclass as an input error and exits 64.'''


class WordError(InputError):
	pass


class PresentationError(InputError):
	pass


# ---------------------------------------------------------------------------
# words

def invert(w):
	'''Formal inverse: signs flipped, order reversed.'''
	return tuple([(g, -e) for g, e in reversed(w)])


def positive_to_word(u):
	return tuple([(g, 1) for g in u])


def is_positive(w):
	return all(e == 1 for _, e in w)


def word_to_positive(w):
	if not is_positive(w):
		raise WordError('word contains inverse letters: %r' % (w,))
	return tuple(g for g, _ in w)


def free_reduce(w):
	'''Delete adjacent s s^-1 and s^-1 s pairs until none remains.'''
	out = []
	for let in w:
		if out and out[-1][0] == let[0] and out[-1][1] == -let[1]:
			out.pop()
		else:
			out.append(let)
	return tuple(out)


# ---------------------------------------------------------------------------
# presentations

@dataclass(frozen=True)
class Presentation:
	'''A positive presentation (S, R).

	generators: ordered generator names; relations: pairs of nonempty
	positive words.  declared_spherical is a user assertion (the paper
	gives no finiteness algorithm); right_angled and length_preserving
	are computed.

	The rule source, of size O(total relation length), answers every
	"which factor may a relation rewrite" question, and type 1, type 2 and
	Dehn steps are matched in place from it.  Its pieces are _oriented,
	_type1, _boundaries and _dehn, with _swap on top of them.  Each is
	built on first use and cached on the instance, and a copy made by
	dataclasses.replace starts afresh.  Step order, and so the order of
	search results, is: relation index, then 'fwd' (the stored relation
	read lhs -> rhs) before 'bwd', then sign +1 before -1 (type 1), or |v|
	then |v'| ascending (type 2); _swap keeps the first hit.  Dehn steps
	have an order of their own (rewrite.dehn_steps).

	Inside the search, step replay, reversing and the right-angled
	pipeline a word is a string, one character per letter: generator i is
	chr(2i) and its inverse chr(2i + 1), so the two differ in the lowest
	bit (_encode), in the one code table of the instance (_codes, cached
	as the rule source is; see _Codes for letters outside the presentation).
	'''
	generators: tuple
	relations: tuple
	declared_spherical: bool = False

	def __post_init__(self):
		object.__setattr__(self, 'generators', tuple(self.generators))
		object.__setattr__(self, 'relations',
			tuple((tuple(l), tuple(r)) for l, r in self.relations))
		rep = validate(self)
		if rep['errors']:
			raise PresentationError('; '.join(rep['errors']))

	@cached_property
	def right_angled(self):
		return all(len(l) == 2 and len(r) == 2 and l[0] != l[1]
			and (r[0], r[1]) == (l[1], l[0]) for l, r in self.relations)

	@cached_property
	def length_preserving(self):
		return all(len(l) == len(r) for l, r in self.relations)

	def commutes(self, s, t):
		'''True iff st = ts is (up to orientation) a relation.'''
		return (s, t) in self.commuting_pairs

	@cached_property
	def fingerprint(self):
		return repr((self.generators, self.relations))

	@cached_property
	def _codes(self):
		return _Codes({(g, e): chr(2 * i + (e < 0))
			for i, g in enumerate(self.generators) for e in (1, -1)})

	def _encode(self, w):
		'''w as a string of letter codes (_codes).'''
		return ''.join(map(self._codes.__getitem__, w))

	def _decode(self, s):
		'''The word of the code string s.'''
		return tuple(map(list(self._codes).__getitem__, map(ord, s)))

	@cached_property
	def _oriented(self):
		'''(rel, orient) -> the encoded a, b, a^-1 and b^-1 of the oriented
		relation a = b; both orientations share the four strings.'''
		out = {}
		for i, (l, r) in enumerate(self.relations):
			l, r = positive_to_word(l), positive_to_word(r)
			l, r, li, ri = [self._encode(u) for u in (l, r, invert(l), invert(r))]
			out[i, 'fwd'], out[i, 'bwd'] = (l, r, li, ri), (r, l, ri, li)
		return out

	@cached_property
	def _type1(self):
		'''Code -> (factor, replacement, step fields tuple) of every type 1
		step whose factor starts with it, in step order.'''
		index = {}
		for (ri, orient), (a, b, ai, bi) in self._oriented.items():
			for sign, factor, new in ((1, a, b), (-1, ai, bi)):
				fields = _FIELDS.setdefault((ri, orient, sign), (ri, orient, None, None, None, sign))
				index.setdefault(factor[0], []).append((factor, new, fields))
		return {k: tuple(v) for k, v in index.items()}

	@cached_property
	def _boundaries(self):
		'''The codes a[0]^-1 b[0] (2r) or a[-1] b[-1]^-1 (2l), where a type 2
		factor changes sign -> (rel, orient, head, tail, left, right) of each
		oriented relation a = b with them, in step order: the step rewrites
		head[-|v|:] + tail[:|v'|] to left[|v|:] + right[:-|v'|].'''
		out = {}
		for (ri, orient), (a, b, ai, bi) in self._oriented.items():
			for head, tail, left, right in ((ai, b, a, bi), (a, bi, ai, b)):
				out.setdefault(head[-1] + tail[0], []).append((ri, orient, head, tail, left, right))
		return {k: tuple(v) for k, v in out.items()}

	@cached_property
	def _commuting(self):
		'''Code -> the codes of both signs of every generator that
		commutes with its generator (commuting_pairs), as a string.'''
		out = {}
		for s, t in self.commuting_pairs:
			both = self._codes[t, 1] + self._codes[t, -1]
			for e in (1, -1):
				out[self._codes[s, e]] = out.get(self._codes[s, e], '') + both
		return out

	@cached_property
	def _sizes(self):
		'''(the shortest relation side, the longest factor a type 0, 1 or 2
		step rewrites: 2, or the largest |l| + |r| of a relation l = r).'''
		return (min([len(u) for rel in self.relations for u in rel], default=1),
			max([2] + [len(l) + len(r) for l, r in self.relations]))

	def _swap(self, pair):
		'''(kind, step fields) of the first step that rewrites just the two
		letters coded in pair, or None: the reversing step (2r or 2l, |v| =
		|v'| = 1), or type 1 through a side equal to them (a swap, st = ts).'''
		rows = self._boundaries.get(pair)
		if rows:  # only a pair of mixed signs has a boundary
			return '2r' if ord(pair[0]) & 1 else '2l', rows[0][:2] + (1, 1)
		for factor, _, fields in self._type1.get(pair[0], ()):
			if factor == pair:
				return '1', fields

	@cached_property
	def _dehn(self):
		'''Letter -> (rel, orient, y + y, t) for every place t of it in the
		cyclic word y = b^-1 a of each oriented relation a = b, in _oriented
		order: y is stored twice over, so a cyclic factor is a slice.'''
		out = {}
		for (ri, orient), (a, _, _, bi) in self._oriented.items():
			y = self._decode(bi + a)
			yy = y + y
			for t, x in enumerate(y):
				out.setdefault(x, []).append((ri, orient, yy, t))
		return out

	@cached_property
	def commuting_pairs(self):
		'''Every (s, t) such that st = ts is a relation, either way round.'''
		return frozenset(side for l, r in self.relations if len(l) == 2 and r == l[::-1]
			for side in (l, r))


_FIELDS = {}  # (rel, orient, sign) -> type 1 step fields, shared by all presentations


class _Codes(dict):
	'''Letter -> code, one table per presentation.  It grows only with
	generators outside the presentation, which only library callers pass
	(parse_word rejects them): each gets the next free pair when first seen,
	the positive letter even.  Keys are in code order, so list(table)[ord(c)] decodes c.'''

	def __missing__(self, letter):
		g, e = letter
		if e not in (1, -1):
			raise WordError('letter %r: the sign must be 1 or -1' % (letter,))
		k = len(self) + len(self) % 2
		self[g, 1], self[g, -1] = chr(k), chr(k + 1)
		return self[letter]


def validate(p):
	'''Classification report: positivity violations and computed flags.'''
	errors = []
	seen = set()
	for g in p.generators:
		if not g or any(ch.isspace() for ch in g):
			errors.append('bad generator name %r' % g)
		if g in seen:
			errors.append('duplicate generator %r' % g)
		seen.add(g)
	for i, (l, r) in enumerate(p.relations):
		if not l or not r:
			errors.append('relation %d has an empty side' % i)
		for g in l + r:
			if g not in seen:
				errors.append('relation %d uses unknown generator %r' % (i, g))
	return {
		'valid': not errors,
		'errors': errors,
		'right_angled': not errors and p.right_angled,
		'length_preserving': not errors and p.length_preserving,
	}


class CoxeterMatrix:
	'''Symmetric map (s,t) -> m in {2,3,...} or None for infinity (s != t).'''

	def __init__(self, generators, entries=None):
		self.generators = tuple(generators)
		self.entries = {}
		if entries:
			for (s, t), m in entries.items():
				self.set(s, t, m)

	def set(self, s, t, m):
		if s == t:
			raise PresentationError('diagonal Coxeter entry (%r,%r)' % (s, t))
		if s not in self.generators or t not in self.generators:
			raise PresentationError('unknown generator in Coxeter entry (%r,%r)' % (s, t))
		if m is not None and (not isinstance(m, int) or m < 2):
			raise PresentationError('Coxeter entry must be an integer >= 2 or None, got %r' % (m,))
		self.entries[frozenset((s, t))] = m

	def get(self, s, t):
		return self.entries.get(frozenset((s, t)))


def alternating(s, t, m):
	'''The alternating product stst... of length m.'''
	return tuple(s if i % 2 == 0 else t for i in range(m))


def artin_presentation(m, declared_spherical=False):
	'''Presentation with one relation sts... = tst... (length m(s,t)) per
	finite off-diagonal entry; infinite entries contribute no relation.'''
	rels = []
	for i, s in enumerate(m.generators):
		for t in m.generators[i + 1:]:
			mm = m.get(s, t)
			if mm is None:
				continue
			rels.append((alternating(s, t, mm), alternating(t, s, mm)))
	return Presentation(m.generators, tuple(rels), declared_spherical=declared_spherical)


# ---------------------------------------------------------------------------
# parsing and rendering

def parse_word(text, p):
	'''Parse a word.  Single-character generators use the case convention
	(lowercase positive, uppercase inverse); otherwise, or when the text
	contains whitespace, tokens are "s" or "s^-1".'''
	text = text.strip()
	if text in ('', 'e'):  # allow an explicit empty-word marker on the CLI
		return ()
	single = all(len(g) == 1 for g in p.generators)
	if single and not any(ch.isspace() for ch in text) and '^' not in text:
		out = []
		for ch in text:
			if ch in p.generators:
				out.append((ch, 1))
			elif ch.lower() in p.generators:
				out.append((ch.lower(), -1))
			else:
				raise WordError('unknown generator %r in %r' % (ch, text))
		return tuple(out)
	out = []
	for tok in text.split():
		if tok.endswith('^-1'):
			g, e = tok[:-3], -1
		else:
			g, e = tok, 1
		if g not in p.generators:
			raise WordError('unknown generator %r in %r' % (g, text))
		out.append((g, e))
	return tuple(out)


def render_word(w, p=None):
	single = all(len(g) == 1 for g, _ in w) if p is None else all(len(g) == 1 for g in p.generators)
	if single:
		return ''.join(g if e == 1 else g.upper() for g, e in w)
	return ' '.join(g if e == 1 else g + '^-1' for g, e in w)


def parse_positive(text, p):
	return word_to_positive(parse_word(text, p))


# ---------------------------------------------------------------------------
# presentation files
#
# Format: 'gens: a b c' lines, 'rel: aba = bab' lines, an optional
# 'coxeter:' block of 'a b 3' triples, '#' comments.

def parse_presentation_text(text):
	gens = None
	rels = []
	cox = []
	in_cox = False
	for raw in text.splitlines():
		line = raw.split('#', 1)[0].strip()
		if not line:
			continue
		if line.startswith('gens:'):
			gens = tuple(line[5:].split())
			in_cox = False
		elif line.startswith('rel:'):
			body = line[4:]
			if '=' not in body:
				raise PresentationError('malformed relation line %r' % raw)
			lhs, rhs = body.split('=', 1)
			rels.append((lhs.strip(), rhs.strip()))
			in_cox = False
		elif line.startswith('coxeter:'):
			in_cox = True
			rest = line[8:].split()
			if rest:
				cox.append(rest)
		elif in_cox:
			cox.append(line.split())
		else:
			raise PresentationError('unrecognized line %r' % raw)
	if gens is None:
		raise PresentationError('missing gens: line')
	shell = Presentation(gens, ())
	relations = [(parse_positive(l, shell), parse_positive(r, shell)) for l, r in rels]
	if cox:
		m = CoxeterMatrix(gens)
		for triple in cox:
			if len(triple) != 3:
				raise PresentationError('malformed coxeter triple %r' % (triple,))
			s, t, val = triple
			try:
				val = None if val in ('inf', 'oo') else int(val)
			except ValueError:
				raise PresentationError('Coxeter entry %r is not a number or inf'
					% val) from None
			m.set(s, t, val)
		relations.extend(artin_presentation(m).relations)
	return Presentation(gens, tuple(relations))


def data_path(name):
	from importlib import resources  # only bundled names need it
	return resources.files(__package__).joinpath('data', name)


def load_presentation(path):
	'''A path that does not exist but names a bundled file loads that.'''
	if not os.path.exists(path):
		bundled = data_path(os.path.basename(path))
		if not bundled.is_file():
			raise FileNotFoundError('no such presentation file: %s' % path)
		path = str(bundled)
	with open(path, 'r', encoding='utf-8') as f:
		try:
			return parse_presentation_text(f.read())
		except UnicodeDecodeError as e:
			raise PresentationError('%s is not UTF-8 text: %s' % (path, e)) from None
