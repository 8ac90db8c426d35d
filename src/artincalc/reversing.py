''' Right and left subword reversing, fraction extraction, the
spherical-type word problem, completeness sampling and the cube condition.

Right reversing repeatedly rewrites the leftmost negative-positive pattern
s^-1 t (type 0 when s = t, type 2r otherwise) until the word has the shape
(positive)(negative)^-1.  Left reversing is the mirror image, acting on the
rightmost positive-negative pattern with type 2l steps, and converges to a
negative-positive word.  Budgets are mandatory: outside spherical type the
process need not terminate.
'''

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import InputError, invert, word_to_positive, positive_to_word
from .rewrite import Step, Derivation, _apply


class ReversingError(ValueError):
	pass


class Blocked(ReversingError, InputError):
	'''No relation reverses a pattern of the word: the presentation is not
	of the spherical type that its caller declared.'''


class BudgetReached(ReversingError):
	'''A reversing budget ran out: a limit reached, not a broken invariant.'''


@dataclass
class ReversalResult:
	word: tuple
	converged: bool
	blocked: str = None  # reason, when no relation covers a pattern
	trace: Derivation = None
	step_count: int = 0


# Right reversing rewrites the leftmost s^-1 t, left reversing the
# rightmost s t^-1: per side, the sign of s, where that pattern is in the
# signs of the word ('1' for an inverse letter), and the wording of a block.
_SIDES = {
	'right': (-1, lambda signs: signs.find('10'), 'no relation reverses %s^-1 %s'),
	'left': (1, lambda signs: signs.rfind('01'), 'no relation reverses %s %s^-1'),
}


def _reverse(p, w, budget, side):
	'''Reversing on the word encoded once; a type 2 step comes from
	Presentation._swap, and every step is applied by rewrite._apply.'''
	if budget <= 0:
		raise ReversingError('budget must be positive')
	e, find, blocked = _SIDES[side]
	cur = p._encode(w)
	signs = {ord(c): '01'[ord(c) & 1] for c in p._codes.values()}
	steps = []
	while True:  # the word is looked at once more after the last step
		i = find(cur.translate(signs))
		if i < 0 or len(steps) == budget:
			return ReversalResult(p._decode(cur), i < 0,
				trace=Derivation(tuple(w), steps), step_count=len(steps))
		pair = cur[i:i + 2]
		if ord(pair[0]) ^ ord(pair[1]) == 1:
			step = Step('0', i, sign=e)
		elif (row := p._swap(pair)) is not None:
			step = Step(row[0], i, *row[1])
		else:
			(s, _), (t, _) = p._decode(pair)
			return ReversalResult(p._decode(cur), False, blocked=blocked % (s, t),
				trace=Derivation(tuple(w), steps), step_count=len(steps))
		cur = _apply(p, cur, step)
		steps.append(step)


def _converged(res, what):
	'''res if it converged, else its blocked pattern or BudgetReached raised.'''
	if res.converged:
		return res
	if res.blocked:
		raise Blocked(res.blocked)
	raise BudgetReached('%s reversal budget exhausted' % what)


def right_reverse(p, w, budget=10000):
	'''Eliminate s^-1 t patterns by {0, 2r} steps.  Converged words have
	the shape w1 w2^-1 with w1, w2 positive.'''
	return _reverse(p, w, budget, 'right')


def left_reverse(p, w, budget=10000):
	'''Eliminate s t^-1 patterns by {0, 2l} steps.  Converged words have
	the shape w1^-1 w2 with w1, w2 positive.'''
	return _reverse(p, w, budget, 'left')


def split_neg_pos(w):
	'''Split a converged left-reversal word v1^-1 v2 into (v1, v2).'''
	k = 0
	while k < len(w) and w[k][1] == -1:
		k += 1
	if not all(e == 1 for _, e in w[k:]):
		raise ReversingError('word is not negative-positive: %r' % (w,))
	return word_to_positive(invert(w[:k])), word_to_positive(w[k:])


def split_pos_neg(w):
	k = 0
	while k < len(w) and w[k][1] == 1:
		k += 1
	if not all(e == -1 for _, e in w[k:]):
		raise ReversingError('word is not positive-negative: %r' % (w,))
	return word_to_positive(w[:k]), word_to_positive(invert(w[k:]))


@dataclass
class Fraction:
	numerator: tuple
	denominator: tuple
	side: str
	trace: Derivation
	end: tuple  # the word the trace ends at: n d^-1 (right) or d^-1 n (left)


def right_fraction(p, w, budget=10000):
	'''Left-reverse to v1^-1 v2, then right-reverse that to w1 w2^-1.  In
	spherical type (w1, w2) represent the right numerator and denominator
	and are right-coprime.'''
	lr = _converged(left_reverse(p, w, budget), 'left')
	rr = _converged(right_reverse(p, lr.word, budget), 'right')
	num, den = split_pos_neg(rr.word)
	trace = Derivation(tuple(w), lr.trace.steps + rr.trace.steps)
	return Fraction(num, den, 'right', trace, rr.word)


def left_fraction(p, w, budget=10000):
	'''Single left reversal to g1^-1 g2; returns (denominator g1,
	numerator g2) as the left fraction of w.'''
	lr = _converged(left_reverse(p, w, budget), 'left')
	den, num = split_neg_pos(lr.word)
	return Fraction(num, den, 'left', lr.trace, lr.word)


def word_problem_spherical(p, w):
	'''True iff the right fraction of w is (empty, empty); the trace is a
	{0,2} derivation witnessing w ~> empty when true.'''
	trivial, f = _spherical_fraction(p, w)
	return trivial, f.trace


def _spherical_fraction(p, w):
	'''word_problem_spherical, with the right fraction of w in place of its
	trace.'''
	if not p.declared_spherical:
		raise ReversingError('presentation not declared spherical')
	f = right_fraction(p, w)
	return not f.numerator and not f.denominator, f


def completeness_check(p, u, v):
	'''Whether u^-1 v right-reverses to the empty word, for positive u, v.'''
	w = invert(positive_to_word(u)) + positive_to_word(v)
	res = right_reverse(p, w)
	return res.converged and res.word == (), res


def completeness_sample(p, pairs):
	'''Run the completeness check on sampled equivalent positive pairs;
	failures are data, not errors.'''
	passed, failed = 0, []
	for u, v in pairs:
		ok, _ = completeness_check(p, u, v)
		if ok:
			passed += 1
		else:
			failed.append((u, v))
	return {'passed': passed, 'failed': failed, 'total': passed + len(failed)}


def _cube_condition(q):
	'''Whether u = v in the positive monoid of the length-preserving q
	exactly when u^-1 v right-reverses to the empty word.  By Dehornoy's
	criterion (Complete positive group presentations, J. Algebra 268,
	2003): the sides of each relation start with distinct letters, no two
	relations start with the same pair, and for all generators r, s, t, if
	r^-1 s s^-1 t right-reverses to v u^-1 (a blocked one meets the
	condition), then (r v)^-1 (t u) right-reverses to the empty word, each
	within the budget.'''
	firsts = [frozenset((l[0], r[0])) for l, r in q.relations]
	if any(len(f) < 2 for f in firsts) or len(set(firsts)) < len(firsts):
		return False
	for r, s, t in itertools.product(q.generators, repeat=3):
		if s in (r, t):  # r^-1 t alone, whose one relation meets the condition
			continue
		res = right_reverse(q, ((r, -1), (s, 1), (s, -1), (t, 1)))
		if res.blocked:
			continue
		if not res.converged:
			return False
		v, u = split_pos_neg(res.word)
		if not completeness_check(q, (r,) + v, (t,) + u)[0]:
			return False
	return True
