import dataclasses
import random

import pytest

from artincalc import (parse_word, render_word, free_reduce, check_derivation,
	Derivation)
from artincalc.rewrite import StepError
from artincalc.search import (SearchLimits, bounded_derivation_search, is_dead,
	dehn_run, dehn_to_special)
from artincalc.rewrite import (dehn_steps, apply_dehn, applicable_steps, apply_step,
	_successors)
from artincalc import search as search_module

from helpers import (A2, I24, RA2, RA3, FIG2, FREE2, SIDE1, MULTI, HomOracle,
	make, random_word, reference_search)

K012 = {'0', '1', '2r', '2l'}
K01INF = {'0', '1', 'inf'}


def test_search_found():
	w = parse_word('abaBAB', A2)
	out = bounded_derivation_search(A2, w, (), K012, SearchLimits())
	assert out.result == 'found'
	assert out.derivation.start == w
	assert check_derivation(A2, out.derivation) == ()


def test_search_trivial_and_dead():
	out = bounded_derivation_search(A2, (), (), K012, SearchLimits())
	assert out.result == 'found' and out.derivation.steps == []
	out = bounded_derivation_search(FIG2, parse_word('ACdaBDcb', FIG2), (),
		K012, SearchLimits())
	assert out.result == 'dead' and out.conclusive


def test_search_exhausted_conclusive():
	# "aba" only rewrites within its class under {0,1}, so the whole space
	# is explored and the negative answer is conclusive
	out = bounded_derivation_search(A2, parse_word('aba', A2), (), {'0', '1'},
		SearchLimits(max_steps=6, max_word_length=6))
	assert out.result == 'exhausted' and out.frontier_emptied and out.conclusive


def test_search_exhausted_inconclusive():
	w = parse_word('abaBAB', A2)
	out = bounded_derivation_search(A2, w, (), K012, SearchLimits(max_steps=0))
	assert out.result == 'exhausted' and not out.conclusive


def test_search_with_insertions():
	# Ba -> abAB needs {2r}; with only {0,1,inf} the same endpoints need an
	# insertion-simulated route
	w = parse_word('Ba', A2)
	target = parse_word('abAB', A2)
	out = bounded_derivation_search(A2, w, target, K01INF,
		SearchLimits(max_steps=12, max_word_length=10, max_insertions=3))
	assert out.result == 'found'
	assert all(s.kind in ('0', '1', 'inf') for s in out.derivation.steps)
	assert check_derivation(A2, out.derivation) == target


def test_search_respects_insertion_budget():
	out = bounded_derivation_search(A2, parse_word('Ba', A2),
		parse_word('abAB', A2), K01INF,
		SearchLimits(max_steps=12, max_word_length=10, max_insertions=0))
	assert out.result == 'exhausted'


def test_search_matches_reference():
	# same answer, node count, frontier flag and derivation as the plain
	# search in helpers, with limits small enough that every cut happens
	rng = random.Random(131)
	cuts, found, ins_found = set(), 0, 0
	for i in range(1200):
		# the last 400 words are over a one-letter relation side (a = bb)
		# and over generators named by several characters
		p = (A2, I24, RA3, FIG2)[i % 4] if i < 800 else (SIDE1, MULTI)[i % 2]
		kinds = K01INF if i % 8 < 4 else K012
		w = random_word(p, rng, rng.randrange(0, 7))
		target = () if i % 3 == 0 else random_word(p, rng, rng.randrange(1, 4))
		if i % 3 == 2:  # a few steps away, so that nonempty targets are found
			target = w
			for _ in range(rng.randrange(1, 4)):
				steps = applicable_steps(p, target, kinds, inf_letters=p.generators)
				if steps:
					target = apply_step(p, target, rng.choice(steps))
		limits = SearchLimits(max_steps=rng.randrange(0, 7),
			max_word_length=rng.randrange(3, 11),
			max_insertions=rng.randrange(0, 3),
			max_visited=rng.choice((3, 40, 250)))
		out = bounded_derivation_search(p, w, target, kinds, limits)
		result, der, visited, emptied, hit = reference_search(p, w, target,
			kinds, limits)
		assert (out.result, out.visited, out.frontier_emptied) == \
			(result, visited, emptied)
		assert (out.derivation and out.derivation.to_json(p)) == \
			(der and der.to_json(p))
		cuts |= hit
		if result == 'found' and der.steps:
			found += 1
			ins_found += any(s.kind == 'inf' for s in der.steps)
	assert cuts == {'max_steps', 'max_word_length', 'max_insertions',
		'max_visited'}
	assert found >= 50 and ins_found >= 10


def test_search_past_the_cap_matches_reference():
	# a small node cap is certain to be reached after a few expansions; the
	# target, two or three steps away and two letters longer or shorter, is
	# then often met in the phase where successors are only compared with it
	rng = random.Random(808)
	cases = [(I24, parse_word('BaAbAb', I24), parse_word('aABaAbBbAb', I24),
		K01INF | K012, SearchLimits(max_steps=4, max_word_length=12,
			max_insertions=2, max_visited=26)),
		# ab -> ba, then type 0, from the second node expanded
		(RA3, parse_word('abA', RA3), parse_word('b', RA3), K01INF,
			SearchLimits(max_steps=3, max_word_length=5, max_insertions=1,
				max_visited=2))]
	for i in range(300):
		p = rng.choice((A2, I24, RA3, FIG2, SIDE1, MULTI))
		kinds = rng.choice((K01INF, K012, K01INF | K012))
		shorter = rng.random() < 0.5
		w = random_word(p, rng, rng.randrange(1, 8))
		for _ in range(20):
			target = w
			for _ in range(rng.randrange(2, 4)):
				steps = applicable_steps(p, target, kinds - {'inf'} if shorter
					else kinds, inf_letters=p.generators)
				if steps:
					target = apply_step(p, target, rng.choice(steps))
			if len(target) == len(w) + (-2 if shorter else 2):
				break
		cases.append((p, w, target, kinds, SearchLimits(max_steps=rng.randrange(2, 6),
			max_word_length=max(len(w), len(target)) + rng.randrange(0, 3),
			max_insertions=rng.randrange(1, 3), max_visited=rng.randrange(1, 31))))
	found = 0
	for p, w, target, kinds, limits in cases:
		out = bounded_derivation_search(p, w, target, kinds, limits)
		result, der, visited, emptied, _ = reference_search(p, w, target,
			kinds, limits)
		assert (out.result, out.visited, out.frontier_emptied) == \
			(result, visited, emptied)
		assert (out.derivation and out.derivation.to_json(p)) == \
			(der and der.to_json(p))
		found += result == 'found'
	# the first case: after the cap is certain, the word after the first
	# step is reached again with no insertion, and that path is the answer
	assert [s.kind for s in bounded_derivation_search(*cases[0]).derivation.steps] \
		== ['2r', '2l', 'inf']
	assert found >= 150


AAB = make('gens: a b\nrel: aab = b')
AB_A = make('gens: a b\nrel: ab = a')


def test_skip_rule_matches_reference():
	# the search leaves out successors that a commuting step built already
	# (search.bfs): the same answers as the plain search, on words of length
	# 6-10 with a length cap of |w| + 0..2, over presentations with
	# shortening steps (aab = b, ab = a, a = bb) and commuting letters (RA3)
	rng = random.Random(1313)
	kind_sets = (K012, K01INF, K012 | {'inf'}, {'0', '2r', '2l', 'inf'}, {'0', '1'})
	results = set()
	for i in range(360):
		p = (AAB, AB_A, SIDE1, RA3)[i % 4]
		kinds = kind_sets[i // 4 % 5]
		w = random_word(p, rng, rng.randrange(6, 11))
		target = ()
		if i % 3 == 2:  # a few steps away
			target = w
			for _ in range(rng.randrange(2, 5)):
				steps = applicable_steps(p, target, kinds, inf_letters=p.generators)
				if steps:
					target = apply_step(p, target, rng.choice(steps))
		limits = SearchLimits(max_steps=rng.randrange(2, 6),
			max_word_length=len(w) + rng.randrange(0, 3),
			max_insertions=rng.randrange(0, 3),
			max_visited=rng.choice((20, 150, 1000)))
		out = bounded_derivation_search(p, w, target, kinds, limits)
		result, der, visited, emptied, _ = reference_search(p, w, target,
			kinds, limits)
		assert (out.result, out.visited, out.frontier_emptied) == \
			(result, visited, emptied), (p, w, target, kinds, limits)
		assert (out.derivation and out.derivation.to_json(p)) == \
			(der and der.to_json(p))
		results.add((result, emptied))
	assert results >= {('found', False), ('exhausted', True), ('exhausted', False)}


def test_skip_rule_builds_fewer_successors(monkeypatch):
	# successors of types 0, 1 and 2 built by three fixed searches, counted
	# by wrapping rewrite._successors: the far corner of a commuting pair of
	# steps is built once.  Leaving out more (while the node cap is certain,
	# or rewrites of a word made by an insertion) changes no answer on any
	# case tried, but changes these counts.
	built = []

	def counted(*args):
		for succ in _successors(*args):
			built.append(succ)
			yield succ
	monkeypatch.setattr(search_module, '_successors', counted)
	criterion4 = SearchLimits(max_steps=12, max_word_length=16, max_insertions=4,
		max_visited=450)
	small = SearchLimits(max_steps=4, max_word_length=9, max_insertions=2)
	counts = []
	for p, text, kinds, limits in ((A2, 'abABabBa', K012, criterion4),
			(I24, 'aBBAbbAB', K012, criterion4), (RA3, 'abcACB', K01INF, small)):
		out = bounded_derivation_search(p, parse_word(text, p), (), kinds, limits)
		counts.append((out.result, out.visited, len(built)))
		built.clear()
	# building every successor, as the search did before the rule, makes
	# 2,012, 1,409 and 3,090
	assert counts == [('exhausted', 451, 1110), ('exhausted', 451, 1031),
		('exhausted', 603, 2923)]


def test_foreign_letters():
	# letters outside the presentation take part in type 0 and block every
	# factor, as they always have; w and target share their codes
	z, Z, y, Y = ('z', 1), ('z', -1), ('y', 1), ('y', -1)
	a, b, B = ('a', 1), ('b', 1), ('b', -1)
	w = (a, z, Z, B, b)
	zeros = [{'pos': 1, 'kind': '0r'}, {'pos': 3, 'kind': '0l'}]
	assert [s.to_json() for s in applicable_steps(A2, w, K012)] == zeros
	assert [s.to_json() for s in applicable_steps(A2, w + (a, b, a), K012)] == \
		zeros + [{'pos': 4, 'kind': '1', 'rel': 0, 'orient': 'bwd', 'sign': 1},
			{'pos': 5, 'kind': '1', 'rel': 0, 'orient': 'fwd', 'sign': 1}]
	assert not is_dead(A2, w, K012) and not is_dead(A2, (z, Z), {'0'})
	assert is_dead(A2, w, {'1', '2r', '2l'}) and is_dead(A2, (z,), K012)
	limits = SearchLimits(max_steps=6, max_word_length=8, max_insertions=1,
		max_visited=500)
	cases = [
		(w, (a,), K012, 'found', 2, [{'pos': 1, 'kind': '0r'}, {'pos': 1, 'kind': '0l'}]),
		(w, (), K012, 'exhausted', 16, None),
		(w, (a, z, Z), K01INF, 'found', 1, [{'pos': 3, 'kind': '0l'}]),
		(w, (z, B, b), K01INF, 'exhausted', 58, None),
		(w, (y,), K01INF, 'exhausted', 58, None),
		((z, a), (z, b, B, a), K01INF, 'found', 1,
			[{'pos': 1, 'kind': 'inf', 'letter': 'b', 'sign': 1}]),
		((y, Y, z), (z,), K012, 'found', 1, [{'pos': 0, 'kind': '0r'}]),
	]
	for start, target, kinds, result, visited, steps in cases:
		out = bounded_derivation_search(A2, start, target, kinds, limits)
		ref, der, ref_visited, emptied, _ = reference_search(A2, start, target,
			kinds, limits)
		assert (out.result, out.visited, out.frontier_emptied) == \
			(ref, ref_visited, emptied)
		assert (out.result, out.visited) == (result, visited)
		assert (out.derivation and out.derivation.steps) == (der and der.steps)
		assert (out.derivation and [s.to_json() for s in out.derivation.steps]) == steps


def test_search_limit_validation():
	with pytest.raises(ValueError):
		SearchLimits(max_steps=-1)


def test_is_dead():
	assert is_dead(FIG2, parse_word('ACdaBDcb', FIG2), K012)
	assert not is_dead(A2, parse_word('aA', A2), K012)
	assert not is_dead(A2, (), K012)  # empty word is not dead by definition
	assert is_dead(FREE2, parse_word('ab', FREE2), {'0', '2r', '2l'})
	with pytest.raises(StepError):
		is_dead(A2, parse_word('a', A2), {'0', 'inf'})


def test_dehn_run_trivial_words():
	rng = random.Random(107)
	for p in (A2, I24, RA2):
		(l, r), = p.relations
		relator = tuple((g, 1) for g in l) + tuple((g, -1) for g in reversed(r))
		for _ in range(40):
			c = random_word(p, rng, rng.randrange(0, 3))
			w = c + relator + tuple((g, -e) for g, e in reversed(c))
			end, trace = dehn_run(p, w)
			assert end == ()


def test_dehn_run_nontrivial_word():
	end, trace = dehn_run(A2, parse_word('ab', A2))
	assert end == parse_word('ab', A2) and trace == []
	end, _ = dehn_run(A2, parse_word('aAb', A2))
	assert end == parse_word('b', A2)


def test_dehn_run_sound():
	rng = random.Random(109)
	for p in (A2, I24):
		oracle = HomOracle(p, seed=8)
		for _ in range(30):
			w = random_word(p, rng, rng.randrange(0, 8))
			end, _ = dehn_run(p, w)
			assert len(end) <= len(w)
			assert oracle.maybe_equal(w, end)


def test_dehn_to_special():
	rng = random.Random(113)
	for p in (A2, I24, RA2):
		for _ in range(60):
			w = random_word(p, rng, rng.randrange(2, 9))
			for ds in dehn_steps(p, w):
				d = dehn_to_special(p, w, ds)
				assert d.start == w
				assert all(s.kind in ('0', '1', '2r', '2l') for s in d.steps)
				end = check_derivation(p, d)
				got = w[:ds.pos] + ds.replacement + w[ds.pos + len(ds.factor):]
				assert end == got


def test_dehn_to_special_length_hypothesis():
	big = FIG2  # |ac| = 2 vs |cae| = 3 is fine; build a worse one inline
	from helpers import make
	bad = make('gens: a b\nrel: aaaa = b')
	w = parse_word('aaaa', bad)
	class FakeDehn:
		pos, factor, replacement = 0, w, (('b', 1),)
	with pytest.raises(StepError, match='length-2'):
		dehn_to_special(bad, w, FakeDehn)


def test_dehn_to_special_checks_the_factor_position():
	# a Dehn step whose factor is not at its position in the word raises
	# StepError, by the whole-side shortcut and by the factor search alike
	shortcut, taken = make('gens: a b c\nrel: aab = c'), 0
	for p, text in ((A2, 'baBAbaBA'), (A2, 'abaBABab'), (I24, 'abaBABAbab'), (RA2, 'abABab'),
			(shortcut, 'caabcaab')):
		w = parse_word(text, p)
		for ds in dehn_steps(p, w):
			d = dehn_to_special(p, w, ds)
			assert check_derivation(p, d) == apply_dehn(w, ds)
			taken += p is shortcut and [s.kind for s in d.steps] == ['1']
			for pos in range(len(w) + 1):
				if w[pos:pos + len(ds.factor)] != ds.factor:
					with pytest.raises(StepError, match='start mismatch'):
						dehn_to_special(p, w, dataclasses.replace(ds, pos=pos))
	assert taken


def test_search_target_met_as_the_cap_becomes_certain(monkeypatch):
	# The node cap is tested after each expanded node.  (a) The target is a
	# successor of the node after which the cap is certain: that node is
	# finished in full and the target returned from it.  (b) The target is
	# met in the pass over the queue that follows: the search runs again in
	# full.  Every case agrees with the plain search in helpers; the cases
	# were found by a search over random inputs.  A wrapper tells the two
	# apart: the expanded nodes scan with since, the cap pass without it,
	# so (b) scans more nodes with since than it reports visited; (a) does
	# not, and toward a target past the length cap, never met, the cap
	# pass starts after exactly the nodes that (a) visited.
	scans = []

	def counted(*args):
		scans.append(len(args) == 4)
		return _successors(*args)
	monkeypatch.setattr(search_module, '_successors', counted)
	K01I2 = K01INF | K012
	cases = [
		('a', A2, 'bbAA', 'ABababAA', K012, 4, 10, 1, 14),
		('a', SIDE1, 'AbABa', 'BABaBb', K01I2, 4, 6, 1, 17),
		('a', I24, 'B', 'AaBbB', K01INF, 3, 5, 2, 25),
		('a', RA3, 'CbCCCC', 'CCCCbC', K012, 4, 7, 2, 4),
		('b', SIDE1, 'abBAB', 'aaAbBABbB', K01I2, 3, 11, 2, 26),
		('b', A2, 'AB', 'ABBbaA', K01INF, 4, 6, 2, 16),
		('b', I24, 'aaBb', 'BABababaBb', K012, 3, 12, 0, 14),
		('b', RA3, 'cCccbB', 'AacCcCccbB', K01I2, 5, 10, 2, 19),
	]
	for want, p, text, goal, kinds, steps, length, ins, nodes in cases:
		w, target = parse_word(text, p), parse_word(goal, p)
		limits = SearchLimits(max_steps=steps, max_word_length=length,
			max_insertions=ins, max_visited=nodes)
		scans.clear()
		out = bounded_derivation_search(p, w, target, kinds, limits)
		expanded = sum(scans)
		result, der, visited, emptied, _ = reference_search(p, w, target,
			kinds, limits)
		assert (out.result, out.visited, out.frontier_emptied) == \
			('found', visited, emptied) and result == 'found'
		assert out.derivation.to_json(p) == der.to_json(p)
		scans.clear()
		never = bounded_derivation_search(p, w, w[:1] * (length + 1), kinds, limits)
		at_cap = never.visited == nodes + 1 and sum(scans) == out.visited
		assert (want == 'b') == (expanded > out.visited), goal
		assert (want == 'a') == (expanded == out.visited and at_cap), goal
