''' Right and left subword reversing, fraction extraction, the
spherical-type word problem, and completeness sampling.

Right reversing repeatedly rewrites the leftmost negative-positive pattern
s^-1 t (type 0 when s = t, type 2r otherwise) until the word has the shape
(positive)(negative)^-1.  Left reversing is the mirror image, acting on the
rightmost positive-negative pattern with type 2l steps, and converges to a
negative-positive word.  Budgets are mandatory: outside spherical type the
process need not terminate.
'''

from __future__ import annotations

from dataclasses import dataclass

from .core import invert, word_to_positive, positive_to_word
from .rewrite import Step, Derivation, apply_step


class ReversingError(ValueError):
	pass


@dataclass
class ReversalResult:
	word: tuple
	converged: bool
	blocked: str = None  # reason, when no relation covers a pattern
	trace: Derivation = None
	step_count: int = 0


# Right reversing rewrites the leftmost s^-1 t, left reversing the
# rightmost s t^-1: per side, the sign of s, the step kind and the pair map
# that names its relation, and the wording of a block.
_SIDES = {
	'right': (-1, '2r', 'first_pairs', 'no relation reverses %s^-1 %s'),
	'left': (1, '2l', 'last_pairs', 'no relation reverses %s %s^-1'),
}


def _reverse(p, w, budget, side):
	if budget <= 0:
		raise ReversingError('budget must be positive')
	e, kind, pairs, blocked = _SIDES[side]
	pairs = getattr(p, pairs)
	steps = []
	cur = tuple(w)
	for _ in range(budget):
		at = range(len(cur) - 1) if side == 'right' else range(len(cur) - 2, -1, -1)
		i = next((j for j in at if cur[j][1] == e and cur[j + 1][1] == -e), None)
		if i is None:
			return ReversalResult(cur, True, trace=Derivation(tuple(w), steps),
				step_count=len(steps))
		s, t = cur[i][0], cur[i + 1][0]
		if s == t:
			step = Step('0', i, sign=e)
		elif (s, t) in pairs:
			ri, orient = pairs[s, t]
			step = Step(kind, i, rel=ri, orient=orient, lv=1, lvp=1)
		else:
			return ReversalResult(cur, False, blocked=blocked % (s, t),
				trace=Derivation(tuple(w), steps), step_count=len(steps))
		cur = apply_step(p, cur, step)
		steps.append(step)
	return ReversalResult(cur, False, trace=Derivation(tuple(w), steps),
		step_count=len(steps))


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


def right_fraction(p, w, budget=10000):
	'''Left-reverse to v1^-1 v2, then right-reverse that to w1 w2^-1.  In
	spherical type (w1, w2) represent the right numerator and denominator
	and are right-coprime.'''
	lr = left_reverse(p, w, budget)
	if not lr.converged:
		raise ReversingError(lr.blocked or 'left reversal budget exhausted')
	rr = right_reverse(p, lr.word, budget)
	if not rr.converged:
		raise ReversingError(rr.blocked or 'right reversal budget exhausted')
	num, den = split_pos_neg(rr.word)
	trace = Derivation(tuple(w), lr.trace.steps + rr.trace.steps)
	return Fraction(num, den, 'right', trace)


def left_fraction(p, w, budget=10000):
	'''Single left reversal to g1^-1 g2; returns (denominator g1,
	numerator g2) as the left fraction of w.'''
	lr = left_reverse(p, w, budget)
	if not lr.converged:
		raise ReversingError(lr.blocked or 'left reversal budget exhausted')
	den, num = split_neg_pos(lr.word)
	return Fraction(num, den, 'left', lr.trace)


def word_problem_spherical(p, w, budget=10000):
	'''True iff the right fraction of w is (empty, empty); the trace is a
	{0,2} derivation witnessing w ~> empty when true.'''
	trivial, f = _spherical_fraction(p, w, budget)
	return trivial, f.trace


def _spherical_fraction(p, w, budget=10000):
	'''word_problem_spherical, with the right fraction of w in place of its
	trace.'''
	if not p.declared_spherical:
		raise ReversingError('presentation not declared spherical')
	f = right_fraction(p, w, budget)
	return not f.numerator and not f.denominator, f


def completeness_check(p, u, v, budget=10000):
	'''Whether u^-1 v right-reverses to the empty word, for positive u, v.'''
	w = invert(positive_to_word(u)) + positive_to_word(v)
	res = right_reverse(p, w, budget)
	return res.converged and res.word == (), res


def completeness_sample(p, pairs, budget=10000):
	'''Run the completeness check on sampled equivalent positive pairs;
	failures are data, not errors.'''
	passed, failed = 0, []
	for u, v in pairs:
		ok, _ = completeness_check(p, u, v, budget)
		if ok:
			passed += 1
		else:
			failed.append((u, v))
	return {'passed': passed, 'failed': failed, 'total': passed + len(failed)}
