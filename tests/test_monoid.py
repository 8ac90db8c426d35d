import itertools
import os
import random
import subprocess
import sys
import time

import pytest

import artincalc
from artincalc import (parse_positive, parse_word, render_word, apply_step,
	check_derivation)
from artincalc.core import WordError, positive_to_word
from artincalc.monoid import (equiv_class, canonical, pos_equal, rewrite_path,
	left_divisors, right_divides, right_lcm,
	right_is_multiple, is_S0_minimal, strip_S0, coset_head_spherical,
	CapExceeded)
from artincalc.reversing import ReversingError
from artincalc.cayley import divisor_fragment

from helpers import (A2, A3, I24, RA2, RA3, FIG2, FREE2, SIDE1, make, brute_class,
	brute_pos_equal, all_positive_words, random_positive, reference_rewrite_path, brute_right_lcm)


def W(s, p=A2):
	return parse_positive(s, p)


def S(cls):
	return {''.join(m) for m in cls}


def test_equiv_class_pins():
	assert S(equiv_class(A2, W('aba'))) == {'aba', 'bab'}
	assert S(equiv_class(A2, W('abab'))) == {'abab', 'aaba', 'babb'}
	assert len(equiv_class(RA2, W('abab'))) == 6
	assert S(equiv_class(RA3, W('abc', RA3))) == \
		{''.join(t) for t in itertools.permutations('abc')}
	assert equiv_class(A2, ()) == frozenset({()})
	assert S(equiv_class(FREE2, W('ab', FREE2))) == {'ab'}


def test_equiv_class_matches_brute_oracle():
	rng = random.Random(43)
	for p in (A2, I24, RA2, RA3):
		for _ in range(30):
			w = random_positive(p, rng, rng.randrange(0, 7))
			assert set(equiv_class(p, w)) == brute_class(p, w)


def test_canonical_pins():
	assert canonical(A2, W('bab')) == ('a', 'b', 'a')
	assert canonical(RA2, W('ba')) == ('a', 'b')
	assert canonical(A2, ()) == ()


def test_canonical_is_class_invariant():
	rng = random.Random(47)
	for p in (A2, I24, RA3):
		for _ in range(20):
			w = random_positive(p, rng, rng.randrange(0, 6))
			c = canonical(p, w)
			assert all(canonical(p, m) == c for m in equiv_class(p, w))


def test_pos_equal_pins():
	assert pos_equal(A2, W('aba'), W('bab'))
	assert not pos_equal(A2, W('ab'), W('ba'))
	assert pos_equal(I24, W('abab', I24), W('baba', I24))
	assert not pos_equal(I24, W('aba', I24), W('bab', I24))


def test_rewrite_path_replays():
	rng = random.Random(53)
	for p in (A2, I24, RA3):
		for _ in range(20):
			u = random_positive(p, rng, rng.randrange(1, 6))
			v = rng.choice(sorted(equiv_class(p, u)))
			steps = rewrite_path(p, u, v)
			cur = positive_to_word(u)
			for s in steps:
				cur = apply_step(p, cur, s)
			assert cur == positive_to_word(v)
	with pytest.raises(ValueError):
		rewrite_path(A2, W('ab'), W('ba'))


def test_left_divisors_pins():
	assert S(left_divisors(A2, W('aba'))) == {'', 'a', 'ab', 'aba', 'b', 'ba'}
	assert S(left_divisors(I24, W('ababb', I24))) == {'', 'a', 'ab', 'aba',
		'abab', 'ababb', 'b', 'ba', 'bab', 'bb', 'bba', 'bbab'}
	assert S(left_divisors(A2, W('a'))) == {'', 'a'}
	assert S(left_divisors(A2, ())) == {''}


def test_divisibility_vs_brute():
	# d | g on the left/right iff some completion c of the right length
	# makes the product equivalent (length-preserving presentations)
	for p in (A2, RA2):
		for ng in range(0, 5):
			for g in all_positive_words(p, ng):
				divs = left_divisors(p, g)
				for nd in range(0, ng + 1):
					for d in all_positive_words(p, nd):
						left = any(brute_pos_equal(p, d + c, g)
							for c in all_positive_words(p, ng - nd))
						assert (canonical(p, d) in divs) == left, (d, g)
						right = any(brute_pos_equal(p, c + d, g)
							for c in all_positive_words(p, ng - nd))
						assert right_divides(p, d, g) == right, (d, g)


def test_right_divides_pins():
	assert right_divides(A2, W('b'), W('aba'))
	assert right_divides(A2, W('a'), W('aba'))
	assert not right_divides(I24, W('a', I24), W('ab', I24))
	assert not right_divides(A2, W('aba'), W('ab'))


def test_right_lcm_pins():
	assert right_lcm(A2, W('a'), W('b')) == ('a', 'b', 'a')
	assert right_lcm(I24, W('a', I24), W('b', I24)) == ('a', 'b', 'a', 'b')
	assert right_lcm(RA2, W('a', RA2), W('b', RA2)) == ('a', 'b')
	assert right_lcm(A2, W('a'), W('a')) == ('a',)
	assert right_lcm(A2, W('a'), W('ab')) == ('a', 'b')
	assert right_lcm(A2, (), W('b')) == ('b',)


def test_right_lcm_vs_brute():
	for p in (A2, I24):
		for nu in range(0, 4):
			for u in all_positive_words(p, nu):
				for nv in range(0, 4):
					for v in all_positive_words(p, nv):
						got = right_lcm(p, u, v)
						want = brute_right_lcm(p, u, v)
						assert got == want, (u, v)
						assert right_is_multiple(p, got, u)
						assert right_is_multiple(p, got, v)


def test_right_lcm_vs_independent_oracle_three_generators():
	# the oracle closes classes by string rewriting and reads divisibility
	# off prefixes of class members, sharing no code with right_lcm
	for p in (A3, RA3):
		words = [w for n in range(3) for w in all_positive_words(p, n)]
		for u in words:
			for v in words:
				assert right_lcm(p, u, v) == brute_right_lcm(p, u, v), (p.relations, u, v)


def test_right_lcm_free_blocked():
	with pytest.raises(ReversingError):
		right_lcm(FREE2, W('a', FREE2), W('b', FREE2))


def test_is_S0_minimal_pins():
	assert not is_S0_minimal(A2, W('ab'), {'b'})
	assert is_S0_minimal(A2, W('ba'), {'b'})
	assert not is_S0_minimal(A2, W('aba'), {'b'})  # aba ~ bab ends in b
	assert is_S0_minimal(A2, W('ab'), set())
	assert is_S0_minimal(A2, (), {'a', 'b'})


def test_strip_S0_pins():
	assert strip_S0(A2, W('ab'), {'b'}) == (('a',), ('b',))
	assert strip_S0(A2, W('ba'), {'b'}) == (('b', 'a'), ())
	assert strip_S0(A2, W('ab'), {'a', 'b'}) == ((), ('a', 'b'))
	head, tail = strip_S0(A2, W('aba'), {'b'})
	assert pos_equal(A2, head + tail, W('aba'))
	assert is_S0_minimal(A2, head, {'b'}) and tail == ('b',)


def test_strip_S0_properties():
	rng = random.Random(59)
	for p in (A2, I24, RA3):
		for _ in range(25):
			g = random_positive(p, rng, rng.randrange(0, 6))
			s0 = set(rng.sample(p.generators, rng.randrange(0, len(p.generators) + 1)))
			head, tail = strip_S0(p, g, s0)
			assert all(x in s0 for x in tail)
			assert is_S0_minimal(p, head, s0)
			assert pos_equal(p, head + tail, g)


def test_coset_head_pins():
	v, u, trace = coset_head_spherical(A2, parse_word('ab', A2), {'b'})
	assert render_word(v, A2) == 'a' and render_word(u, A2) == 'b'
	assert check_derivation(A2, trace) == v + u
	v, u, _ = coset_head_spherical(A2, parse_word('b', A2), {'b'})
	assert v == () and render_word(u, A2) == 'b'
	v, u, _ = coset_head_spherical(A2, parse_word('ba', A2), {'b'})
	assert render_word(v, A2) == 'ba' and u == ()


def test_coset_head_properties():
	rng = random.Random(61)
	for p in (A2, I24):
		for _ in range(25):
			w = tuple((rng.choice(p.generators), rng.choice((1, -1)))
				for _ in range(rng.randrange(0, 6)))
			s0 = set(rng.sample(p.generators, rng.randrange(1, 3)))
			v, u, trace = coset_head_spherical(p, w, s0)
			assert all(e == 1 and g in s0 for g, e in u)
			assert check_derivation(p, trace) == v + u


def test_coset_head_requires_spherical():
	with pytest.raises(ReversingError):
		coset_head_spherical(RA3, parse_word('a', RA3), {'b'})


def test_cap_exceeded():
	with pytest.raises(CapExceeded):
		equiv_class(FIG2, parse_positive('acac', FIG2), cap=3)
	assert len(equiv_class(FIG2, parse_positive('acac', FIG2), cap=10)) == 4


def test_cap_bounds_the_letters_of_a_class():
	# over aab = b the class of b is {a^2k b}, whose k-th member has 2k + 1
	# letters: capped by members alone, the closure did work quadratic in
	# the cap (11 s at cap 5,000)
	p = make('gens: a b\nrel: aab = b')
	start = time.perf_counter()
	with pytest.raises(CapExceeded):
		equiv_class(p, ('b',), cap=5000)
	assert time.perf_counter() - start < 1
	# the class of acac over FIG2 has 4 members of 20 letters in all: at
	# cap 4 the letters (4 * |acac| = 16) stop it, at cap 5 they do not
	w = parse_positive('acac', FIG2)
	with pytest.raises(CapExceeded):
		equiv_class(FIG2, w, cap=4)
	assert len(equiv_class(FIG2, w, cap=5)) == 4
	# length-preserving: the letter bound is the member bound
	with pytest.raises(CapExceeded):
		equiv_class(A2, W('abab'), cap=2)
	assert len(equiv_class(A2, W('abab'), cap=3)) == 3


def test_cli_import_loads_no_hashlib():
	# only the disk cache (ARTIN_CACHE_DIR) needs hashlib, and with it OpenSSL
	src = os.path.dirname(os.path.dirname(artincalc.__file__))
	env = dict(os.environ, PYTHONPATH=src)
	env.pop('ARTIN_CACHE_DIR', None)
	r = subprocess.run([sys.executable, '-c', 'import sys, artincalc.cli; '
		'print(sorted({"hashlib", "_hashlib"} & set(sys.modules)))'],
		capture_output=True, text=True, env=env, check=True)
	assert r.stdout.strip() == '[]'


@pytest.mark.parametrize('call', [
	lambda: canonical(A2, ('z',)),
	lambda: left_divisors(A2, ('a', 'z')),
	lambda: strip_S0(A2, ('z', 'b'), {'b'}),
	lambda: coset_head_spherical(A2, (('z', 1), ('b', 1)), {'b'}),
	lambda: divisor_fragment(A2, ('z',)),
], ids=['canonical', 'left_divisors', 'strip_S0', 'coset_head_spherical',
	'divisor_fragment'])
def test_ranking_names_a_generator_outside_the_presentation(call):
	# words are ranked by the generator order, which has no place for z
	with pytest.raises(WordError, match="generator 'z' is not in the presentation"):
		call()


def test_rewrite_path_matches_reference():
	# the breadth-first search takes each word's successors relation-major
	# (relation, 'fwd' before 'bwd', position), so of equally short paths
	# it returns the same one as the reference on generator tuples
	rng = random.Random(31)
	for p in (A2, I24, A3, RA3):
		for _ in range(60):
			u = random_positive(p, rng, rng.randrange(0, 9))
			cls = sorted(equiv_class(p, u))
			for v in rng.sample(cls, min(3, len(cls))):
				assert rewrite_path(p, u, v) == reference_rewrite_path(p, u, v), (p.relations, u, v)


@pytest.mark.parametrize('p', [SIDE1,
	make('gens: a b c\nrel: ab = ba\nrel: bc = cb\nrel: aab = c')], ids=['a=bb', 'aab=c'])
def test_division_on_either_side_where_relations_change_length(p):
	# the oracle takes a prefix or suffix of any length of any member, so a
	# divisor longer than the word divides it where a relation shortens it
	words = [w for n in range(4) for w in all_positive_words(p, n)]
	longer = 0
	for w in words:
		cls = equiv_class(p, w)
		for u in words + list(all_positive_words(p, 4)):
			left = any(pos_equal(p, m[:k], u) for m in cls for k in range(len(m) + 1))
			right = any(pos_equal(p, m[k:], u) for m in cls for k in range(len(m) + 1))
			assert right_is_multiple(p, w, u) == left, (w, u)
			assert right_divides(p, u, w) == right, (u, w)
			longer += left and len(u) > len(w)
	assert longer > 0


def test_brute_class_over_multi_character_generators():
	# the oracle rewrites generator names, not the characters that spell
	# them: over x1 x2 x1 = x2 x1 x2 the class of either side is both sides
	from helpers import MULTI
	sides = {('x1', 'x2', 'x1'), ('x2', 'x1', 'x2')}
	assert brute_class(MULTI, ('x1', 'x2', 'x1')) == sides
	assert brute_class(MULTI, ('x2', 'x1', 'x2')) == sides
	assert brute_class(MULTI, ('x1', 'x2')) == {('x1', 'x2')}
	assert set(equiv_class(MULTI, ('x1', 'x2', 'x1'))) == sides


from artincalc.core import invert
from helpers import F2XF2, MULTI

REJECTED = make('gens: a b c\nrel: aa = ba\nrel: ba = ca')
AAB_C = make('gens: a b c\nrel: ab = ba\nrel: bc = cb\nrel: aab = c')


def _random_complemented(rng):
	'''At most one relation s x = t y per pair of distinct generators, its
	sides of equal length.'''
	gens = 'abc'[:rng.choice((2, 3))]
	rels = []
	for i, s in enumerate(gens):
		for t in gens[i + 1:]:
			if rng.random() < 0.8:
				k = rng.randrange(3)
				x = ''.join(rng.choice(gens) for _ in range(k))
				y = ''.join(rng.choice(gens) for _ in range(k))
				rels.append('rel: %s = %s' % ((s + x, t + y) if rng.random() < 0.5 else (t + y, s + x)))
	return make('\n'.join(['gens: ' + ' '.join(gens)] + rels))


def test_completeness_gate_never_accepts_a_counterexample():
	# on a side the gate accepts, every pair u = v with |u| <= 4 that the
	# brute oracle finds reverses to the empty word
	from artincalc.reversing import right_reverse, left_reverse
	rng = random.Random(67)
	accepted = {'right': 0, 'left': 0}
	for _ in range(150):
		p = _random_complemented(rng)
		sides = p._complete
		if not sides:
			continue
		for n in range(5):
			for u in all_positive_words(p, n):
				for v in brute_class(p, u):
					uw, vw = positive_to_word(u), positive_to_word(v)
					if 'right' in sides:
						res = right_reverse(p, invert(uw) + vw)
						assert res.converged and res.word == (), (p.relations, u, v)
					if 'left' in sides:
						res = left_reverse(p, uw + invert(vw))
						assert res.converged and res.word == (), (p.relations, u, v)
		for side in sides:
			accepted[side] += 1
	assert min(accepted.values()) > 20, accepted


def test_completeness_gate_on_the_desk_presentations():
	for p in (A2, I24, A3, RA3, F2XF2, MULTI):
		assert p._complete == ('right', 'left'), p.relations
	for p in (REJECTED, SIDE1, AAB_C, FIG2):
		assert p._complete == (), p.relations
	# a copy made by dataclasses.replace checks again, and agrees
	import dataclasses
	assert dataclasses.replace(RA3, declared_spherical=True)._complete == ('right', 'left')


@pytest.mark.parametrize('p', [A2, I24, A3, RA3, F2XF2, MULTI, SIDE1, AAB_C, FIG2, REJECTED],
	ids=['A2', 'I24', 'A3', 'RA3', 'F2xF2', 'MULTI', 'a=bb', 'aab=c', 'FIG2', 'rejected'])
def test_decisions_match_brute_oracles(p):
	# by reversing where the gate accepts p, by closure elsewhere: the brute
	# oracle closes classes by string rewriting, and reads division off
	# prefixes and suffixes of any length of any member
	rng = random.Random(repr(p.relations))
	order = {g: i for i, g in enumerate(p.generators)}
	longest = 4 if p.length_preserving else 3
	for _ in range(40):
		w = random_positive(p, rng, rng.randrange(0, longest + 1))
		cls = brute_class(p, w)
		assert canonical(p, w) == min(cls, key=lambda m: [order[g] for g in m])
		s0 = set(rng.sample(p.generators, rng.randrange(0, len(p.generators) + 1)))
		assert is_S0_minimal(p, w, s0) == (not any(m and m[-1] in s0 for m in cls))
		for _ in range(5):
			u = random_positive(p, rng, rng.randrange(0, longest + 1))
			if rng.random() < 0.3:
				u = rng.choice(sorted(cls))
			ucls = brute_class(p, u)
			assert pos_equal(p, w, u) == (u in cls), (w, u)
			left = any(m[:k] in ucls for m in cls for k in range(len(m) + 1))
			right = any(m[k:] in ucls for m in cls for k in range(len(m) + 1))
			assert right_is_multiple(p, w, u) == left, (w, u)
			assert right_divides(p, u, w) == right, (u, w)


def test_reversing_answers_where_closure_hit_the_cap():
	# each class has more than 100,000 members: closure stopped at the cap,
	# and reversing answers at once
	p = make('gens: a b\nrel: ab = ba')
	start = time.perf_counter()
	assert canonical(p, ('a', 'b') * 10) == ('a',) * 10 + ('b',) * 10
	delta = W('abacba', A3)
	assert pos_equal(A3, delta * 3, W('cbcabc', A3) + delta * 2)
	assert time.perf_counter() - start < 1
	with pytest.raises(CapExceeded):
		equiv_class(p, ('a', 'b') * 10)


def test_canonical_closes_where_reversing_is_not_complete():
	# aa = a makes the class of aa infinite; greedy steps that never reverse
	# (each first letter the least generator) would still answer aa
	p = make('gens: a b\nrel: aa = a')
	assert p._complete == ()
	with pytest.raises(CapExceeded):
		canonical(p, ('a', 'a'))


def test_fragment_answers_where_an_outside_edge_hit_the_cap():
	# c^5 = a^10 b^5 over aab = c with b central: its divisors are a^i b^j
	# (i <= 10, j <= 5), and c adds aab.  An edge word outside them, whose
	# class passes the cap, used to be closed; it is no longer looked at
	f = divisor_fragment(AAB_C, ('c',) * 5)
	form = lambda i, j: ('a',) * i + ('b',) * j
	assert f.base == form(10, 5)
	assert f.vertices == {form(i, j) for i in range(11) for j in range(6)}
	steps = {'a': (1, 0), 'b': (0, 1), 'c': (2, 1)}
	assert f.edges == {(form(i, j), s, form(i + di, j + dj))
		for i in range(11) for j in range(6) for s, (di, dj) in steps.items()
		if i + di <= 10 and j + dj <= 5}
