import random

import pytest

from artincalc import (Presentation, Step, parse_word, parse_positive,
	render_word, free_reduce,
	right_reverse, left_reverse, right_fraction, left_fraction,
	word_problem_spherical, completeness_check, completeness_sample,
	check_derivation, right_lcm)
from artincalc.reversing import (ReversingError, BudgetReached, split_neg_pos,
	split_pos_neg)
from artincalc.core import positive_to_word
from artincalc.rewrite import derivation_words

from helpers import (A2, A3, I24, RA2, RA3, F2XF2, FIG2, FREE2, HomOracle,
	random_word, random_positive, brute_pos_equal, all_positive_words)


def test_right_reverse_pins():
	r = right_reverse(A2, parse_word('Ba', A2))
	assert r.converged and render_word(r.word, A2) == 'abAB'
	assert right_reverse(A2, parse_word('Aa', A2)).word == ()
	r = right_reverse(RA3, parse_word('Ab', RA3))
	assert render_word(r.word, RA3) == 'bA'
	w = parse_word('ab', A2)
	r = right_reverse(A2, w)
	assert r.word == w and r.step_count == 0


def test_left_reverse_pins():
	r = left_reverse(A2, parse_word('aB', A2))
	assert r.converged and render_word(r.word, A2) == 'BAba'
	assert left_reverse(A2, parse_word('aA', A2)).word == ()
	r = left_reverse(RA3, parse_word('aB', RA3))
	assert render_word(r.word, RA3) == 'Ba'


def test_reverse_shapes():
	rng = random.Random(23)
	for p in (A2, I24, RA3):
		for _ in range(40):
			w = random_word(p, rng, rng.randrange(0, 8))
			r = right_reverse(p, w)
			assert r.converged
			signs = [e for _, e in r.word]
			assert signs == sorted(signs, reverse=True)  # positive then negative
			l = left_reverse(p, w)
			assert l.converged
			signs = [e for _, e in l.word]
			assert signs == sorted(signs)  # negative then positive


def test_reverse_traces_replay():
	rng = random.Random(29)
	for p in (A2, I24, RA3):
		oracle = HomOracle(p, seed=1)
		for _ in range(25):
			w = random_word(p, rng, rng.randrange(0, 8))
			for fn in (right_reverse, left_reverse):
				r = fn(p, w)
				assert check_derivation(p, r.trace) == r.word
				assert len(r.trace.steps) == r.step_count
				assert oracle.maybe_equal(w, r.word)


def test_blocked_reporting():
	r = right_reverse(FREE2, parse_word('Ab', FREE2))
	assert not r.converged and 'a^-1 b' in r.blocked
	r = left_reverse(FREE2, parse_word('aB', FREE2))
	assert not r.converged and r.blocked
	with pytest.raises(ReversingError):
		right_reverse(A2, parse_word('a', A2), budget=0)


def test_budget_exhaustion_reported():
	# fig-2 type reversing can spin; a tiny budget must come back unconverged
	r = right_reverse(FIG2, parse_word('AcAcAc', FIG2), budget=3)
	assert not r.converged


def test_reached_budget_is_a_limit():
	# a reached budget raises BudgetReached, a blocked pattern only
	# ReversingError: the CLI reports the first as a limit (exit 2);
	# (ab)^-1 b needs two reversing steps
	w = parse_word('BaaB', A2)
	for call in (lambda: right_fraction(A2, w, budget=1),
			lambda: left_fraction(A2, w, budget=1),
			lambda: right_lcm(A2, ('a', 'b'), ('b',), budget=1)):
		with pytest.raises(BudgetReached, match='reversal budget exhausted'):
			call()
	with pytest.raises(ReversingError, match='no relation reverses') as e:
		right_fraction(FREE2, parse_word('Ab', FREE2))
	assert not isinstance(e.value, BudgetReached)


def test_budget_equal_to_step_count_converges():
	# a budget of N admits N steps: the word is looked at once more after
	# the last one
	rng = random.Random(37)
	for p in (A2, I24, RA3):
		for _ in range(40):
			w = random_word(p, rng, rng.randrange(0, 10))
			for reverse in (right_reverse, left_reverse):
				full = reverse(p, w)
				assert full.converged
				n = full.step_count
				if n == 0:
					continue
				exact = reverse(p, w, budget=n)
				assert exact.converged and exact.word == full.word and exact.step_count == n
				if n > 1:
					short = reverse(p, w, budget=n - 1)
					assert not short.converged and short.step_count == n - 1
	w = parse_word('Ab', A2)
	assert right_reverse(A2, w, budget=1).converged
	assert right_lcm(A2, ('a',), ('b',), budget=1) == ('a', 'b', 'a')


def test_split_helpers():
	assert split_pos_neg(parse_word('abBA', A2)) == (('a', 'b'), ('a', 'b'))
	assert split_neg_pos(parse_word('BAab', A2)) == (('a', 'b'), ('a', 'b'))
	with pytest.raises(ReversingError):
		split_pos_neg(parse_word('Ba', A2))
	with pytest.raises(ReversingError):
		split_neg_pos(parse_word('aB', A2))


def test_right_fraction_pins():
	f = right_fraction(A2, parse_word('aB', A2))
	assert (f.numerator, f.denominator) == (('a',), ('b',))
	assert f.side == 'right'
	f = right_fraction(A2, parse_word('aA', A2))
	assert (f.numerator, f.denominator) == ((), ())
	f = right_fraction(A2, parse_word('ab', A2))
	assert (f.numerator, f.denominator) == (('a', 'b'), ())
	f = right_fraction(A2, parse_word('Ba', A2))
	assert (f.numerator, f.denominator) == (('a', 'b'), ('b', 'a'))


def test_left_fraction_pins():
	f = left_fraction(A2, parse_word('aB', A2))
	assert f.side == 'left'
	assert (f.denominator, f.numerator) == (('a', 'b'), ('b', 'a'))
	f = left_fraction(A2, parse_word('Ba', A2))
	assert (f.denominator, f.numerator) == (('b',), ('a',))


def test_fraction_trace_replays_and_represents():
	rng = random.Random(31)
	for p in (A2, I24, RA3):
		oracle = HomOracle(p, seed=4)
		for _ in range(30):
			w = random_word(p, rng, rng.randrange(0, 8))
			f = right_fraction(p, w)
			end = check_derivation(p, f.trace)
			assert end == positive_to_word(f.numerator) + \
				tuple((g, -1) for g in reversed(f.denominator))
			assert oracle.maybe_equal(w, end)


def test_word_problem_spherical_pins():
	ok, trace = word_problem_spherical(A2, parse_word('abaBAB', A2))
	assert ok and check_derivation(A2, trace) == ()
	ok, _ = word_problem_spherical(A2, parse_word('a', A2))
	assert not ok
	ok, _ = word_problem_spherical(I24, parse_word('ababBABA', I24))
	assert ok
	ok, _ = word_problem_spherical(A2, parse_word('abAB', A2))
	assert not ok


def test_word_problem_requires_spherical_flag():
	with pytest.raises(ReversingError):
		word_problem_spherical(RA3, parse_word('a', RA3))


def test_word_problem_vs_oracle_on_ra2():
	# in the free abelian group on a, b the exponent vector is a complete
	# invariant, so the oracle here is exact
	rng = random.Random(37)
	for _ in range(200):
		w = random_word(RA2, rng, rng.randrange(0, 10))
		expect = all(sum(e for g2, e in w if g2 == g) == 0 for g in 'ab')
		got, _ = word_problem_spherical(RA2, w)
		assert got == expect, render_word(w, RA2)


def test_word_problem_conjugated_relators():
	rng = random.Random(41)
	for p in (A2, I24):
		(l, r), = p.relations
		relator = positive_to_word(l) + tuple((g, -1) for g in reversed(r))
		for _ in range(50):
			c = random_word(p, rng, rng.randrange(0, 4))
			w = c + relator + tuple((g, -e) for g, e in reversed(c))
			ok, _ = word_problem_spherical(p, w)
			assert ok


def test_completeness_pins():
	ok, res = completeness_check(A2, parse_positive('aba', A2),
		parse_positive('bab', A2))
	assert ok and res.word == ()
	ok, _ = completeness_check(A2, ('a',), ('a',))
	assert ok
	ok, _ = completeness_check(A2, ('a',), ('b',))
	assert not ok


def test_completeness_exhaustive_small():
	# on spherical presentations the check must accept exactly the
	# equivalent pairs (verified against the brute rewriting oracle)
	for p in (A2, I24, RA3):
		for n in range(0, 4):
			for u in all_positive_words(p, n):
				for v in all_positive_words(p, n):
					expect = brute_pos_equal(p, u, v)
					got, _ = completeness_check(p, u, v)
					assert got == expect, (u, v)


def test_completeness_sample_shape():
	pairs = [(('a', 'b', 'a'), ('b', 'a', 'b')), (('a',), ('a',))]
	rep = completeness_sample(A2, pairs)
	assert rep == {'passed': 2, 'failed': [], 'total': 2}
	rep = completeness_sample(A2, [(('a',), ('b',))])
	assert rep['failed'] == [(('a',), ('b',))]


def test_left_reverse_is_mirrored_right_reverse():
	# reading words and relation sides backwards turns each s t^-1 into
	# t^-1 s, so left reversing must be right reversing seen in a mirror:
	# the same relation with the orientation flipped, at the mirrored place
	flip = {'fwd': 'bwd', 'bwd': 'fwd'}
	rng = random.Random(43)
	for p in (A2, I24, RA3, F2XF2, FIG2, FREE2):
		q = Presentation(p.generators,
			tuple((l[::-1], r[::-1]) for l, r in p.relations))
		for _ in range(50):
			w = random_word(p, rng, rng.randrange(0, 10))
			left = left_reverse(p, w, budget=200)
			right = right_reverse(q, w[::-1], budget=200)
			assert left.word == right.word[::-1]
			assert left.converged == right.converged
			assert left.step_count == right.step_count
			assert bool(left.blocked) == bool(right.blocked)
			lengths = [len(u) for u in derivation_words(p, left.trace)]
			mirrored = [Step('0' if s.kind == '0' else '2r', n - 2 - s.pos,
				rel=s.rel, orient=flip.get(s.orient), lv=s.lv, lvp=s.lvp,
				sign=-s.sign if s.sign else None)
				for s, n in zip(left.trace.steps, lengths)]
			assert right.trace.steps == mirrored


@pytest.mark.parametrize('p', [A2, I24, A3], ids=['A2', 'I24', 'A3'])
def test_fraction_end_is_where_its_trace_ends(p):
	# Fraction.end is the word the trace replays to, and it splits back
	# into the fraction: n d^-1 on the right, d^-1 n on the left
	rng = random.Random(1901)
	for _ in range(60):
		w = random_word(p, rng, rng.randrange(0, 12))
		f = right_fraction(p, w)
		assert check_derivation(p, f.trace) == f.end
		assert split_pos_neg(f.end) == (f.numerator, f.denominator)
		f = left_fraction(p, w)
		assert check_derivation(p, f.trace) == f.end
		assert split_neg_pos(f.end) == (f.denominator, f.numerator)
