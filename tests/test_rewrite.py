import dataclasses
import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from artincalc import (Presentation, Step, Derivation, applicable_steps, apply_step,
	check_derivation, dehn_steps, apply_dehn, simulate_type2, parse_word,
	render_word, invert, parse_presentation_text, right_reverse, right_fraction)
from artincalc.rewrite import StepError, derivation_words, embed, _successors
from artincalc.core import WordError, load_presentation, positive_to_word
from artincalc.search import dehn_run

from helpers import (A2, A3, I24, RA2, RA3, F2XF2, FIG2, SIDE1, MULTI, HomOracle,
	make, random_word, reference_apply_step, reference_derivation_words,
	reference_dehn_steps)

ALL = {'0', '1', '2r', '2l'}


def test_apply_type0():
	assert apply_step(A2, parse_word('aA', A2), Step('0', 0, sign=1)) == ()
	assert apply_step(A2, parse_word('Aa', A2), Step('0', 0, sign=-1)) == ()
	with pytest.raises(StepError):
		apply_step(A2, parse_word('aA', A2), Step('0', 0, sign=-1))
	with pytest.raises(StepError):
		apply_step(A2, parse_word('ab', A2), Step('0', 0, sign=1))


def test_apply_type1_inverse_factor_mismatch():
	# relation ab = ba applied to inverse factors needs the factor (ab)^-1 =
	# "BA"; the word "aB" has no such factor anywhere
	s = Step('1', 0, rel=0, orient='fwd', sign=-1)
	with pytest.raises(StepError):
		apply_step(RA2, parse_word('aB', RA2), s)


def test_apply_type1_inverse_factor():
	w = parse_word('BA', RA2)  # (ab)^-1
	s = Step('1', 0, rel=0, orient='fwd', sign=-1)
	assert render_word(apply_step(RA2, w, s), RA2) == 'AB'


def test_apply_type2r_pin():
	# split (b)(ab) = (a)(ba) of bab = aba: replaces b^-1 a by ab(ab)^-1...
	w = parse_word('Ba', A2)
	steps = applicable_steps(A2, w, {'2r'})
	assert len(steps) == 1
	assert render_word(apply_step(A2, w, steps[0]), A2) == 'abAB'


def test_apply_type2l_pin():
	w = parse_word('aB', A2)
	steps = applicable_steps(A2, w, {'2l'})
	assert len(steps) == 1
	assert render_word(apply_step(A2, w, steps[0]), A2) == 'BAba'


def test_applicable_steps_dead_word():
	w = parse_word('ACdaBDcb', FIG2)
	assert applicable_steps(FIG2, w, ALL) == []


def test_applicable_steps_requires_inf_bound():
	with pytest.raises(StepError):
		applicable_steps(A2, parse_word('a', A2), {'0', 'inf'})
	steps = applicable_steps(A2, (), {'inf'}, inf_letters=('a',))
	assert steps == [Step('inf', 0, letter='a', sign=1),
		Step('inf', 0, letter='a', sign=-1)]


def test_applicable_steps_deterministic_and_eligible():
	rng = random.Random(7)
	for p in (A2, I24, RA3, F2XF2):
		for _ in range(30):
			w = random_word(p, rng, rng.randrange(0, 9))
			steps = applicable_steps(p, w, ALL)
			assert steps == applicable_steps(p, w, ALL)
			assert [s.pos for s in steps] == sorted(s.pos for s in steps)
			for s in steps:
				apply_step(p, w, s)  # must not raise


def brute_type1_results(p, w):
	'''Independent enumeration of type-1 successors straight from the
	definition: replace a factor equal to a relation side (or its formal
	inverse) by the other side (resp. its inverse).'''
	out = set()
	for l, r in p.relations:
		for src, dst in ((l, r), (r, l)):
			for fac, new in (
					(positive_to_word(src), positive_to_word(dst)),
					(invert(positive_to_word(src)), invert(positive_to_word(dst)))):
				for i in range(len(w) - len(fac) + 1):
					if w[i:i + len(fac)] == fac:
						out.add(w[:i] + new + w[i + len(fac):])
	return out


def test_type1_enumeration_matches_definition():
	rng = random.Random(11)
	for p in (A2, I24, RA3, FIG2):
		for _ in range(40):
			w = random_word(p, rng, rng.randrange(0, 10))
			got = {apply_step(p, w, s) for s in applicable_steps(p, w, {'1'})}
			assert got == brute_type1_results(p, w)


def brute_type2_results(p, w, kind):
	out = set()
	for l, r in p.relations:
		for a, b in ((l, r), (r, l)):
			for lv in range(1, len(a) + 1):
				for lvp in range(1, len(b) + 1):
					if kind == '2r':
						fac = invert(positive_to_word(a[:lv])) + positive_to_word(b[:lvp])
						new = positive_to_word(a[lv:]) + invert(positive_to_word(b[lvp:]))
					else:
						fac = positive_to_word(a[-lv:]) + invert(positive_to_word(b[-lvp:]))
						new = invert(positive_to_word(a[:-lv])) + positive_to_word(b[:-lvp])
					for i in range(len(w) - len(fac) + 1):
						if w[i:i + len(fac)] == fac:
							out.add(w[:i] + new + w[i + len(fac):])
	return out


@pytest.mark.parametrize('kind', ['2r', '2l'])
def test_type2_enumeration_matches_definition(kind):
	rng = random.Random(13)
	for p in (A2, I24, FIG2):
		for _ in range(40):
			w = random_word(p, rng, rng.randrange(0, 8))
			got = {apply_step(p, w, s) for s in applicable_steps(p, w, {kind})}
			assert got == brute_type2_results(p, w, kind)


def test_steps_preserve_group_element():
	rng = random.Random(3)
	for p in (A2, I24, RA3, F2XF2):
		oracle = HomOracle(p, seed=5)
		for _ in range(25):
			w = random_word(p, rng, rng.randrange(0, 8))
			for s in applicable_steps(p, w, ALL):
				assert oracle.maybe_equal(w, apply_step(p, w, s)), s
			for pos in range(len(w) + 1):
				s = Step('inf', pos, letter=rng.choice(p.generators),
					sign=rng.choice((1, -1)))
				assert oracle.maybe_equal(w, apply_step(p, w, s))


step_jsons = st.one_of(
	st.builds(lambda pos, sg: Step('0', pos, sign=sg),
		st.integers(0, 30), st.sampled_from((1, -1))),
	st.builds(lambda pos, rel, o, sg: Step('1', pos, rel=rel, orient=o, sign=sg),
		st.integers(0, 30), st.integers(0, 5),
		st.sampled_from(('fwd', 'bwd')), st.sampled_from((1, -1))),
	st.builds(lambda k, pos, rel, o, lv, lvp:
		Step(k, pos, rel=rel, orient=o, lv=lv, lvp=lvp),
		st.sampled_from(('2r', '2l')), st.integers(0, 30), st.integers(0, 5),
		st.sampled_from(('fwd', 'bwd')), st.integers(1, 12), st.integers(1, 12)),
	st.builds(lambda pos, g, sg: Step('inf', pos, letter=g, sign=sg),
		st.integers(0, 30), st.sampled_from('abc'), st.sampled_from((1, -1))),
)


@given(step_jsons)
def test_step_json_round_trip(s):
	assert Step.from_json(s.to_json()) == s


def test_derivation_json_round_trip():
	w = parse_word('Ba', A2)
	s = applicable_steps(A2, w, {'2r'})[0]
	d = Derivation(w, [s])
	blob = d.to_json(A2)
	assert blob['schema'] == 1 and blob['end'] == 'abAB'
	d2 = Derivation.from_json(blob, A2)
	assert d2.start == w and d2.steps == [s]
	blob['end'] = 'ab'
	with pytest.raises(StepError):
		Derivation.from_json(blob, A2)


def test_check_derivation_reports_first_bad_step():
	d = Derivation(parse_word('aA', A2),
		[Step('0', 0, sign=1), Step('0', 0, sign=1)])
	with pytest.raises(StepError, match='step 1'):
		check_derivation(A2, d)
	assert check_derivation(A2, Derivation(parse_word('ab', A2), [])) \
		== parse_word('ab', A2)


def test_derivation_words():
	w = parse_word('aA', A2)
	d = Derivation(w, [Step('0', 0, sign=1)])
	assert derivation_words(A2, d) == [w, ()]


def test_dehn_steps_commutation():
	# relator abAB: the whole word is one big factor, and every >half
	# subword yields a shortening
	w = parse_word('abABb', RA2)
	got = {(render_word(d.factor, RA2), render_word(d.replacement, RA2),
		render_word(apply_dehn(w, d), RA2)) for d in dehn_steps(RA2, w)}
	assert got == {('abAB', '', 'b'), ('abA', 'b', 'bBb'), ('bAB', 'A', 'aAb')}


def test_dehn_steps_no_strict_decrease():
	assert dehn_steps(I24, parse_word('abab', I24)) == []
	assert dehn_steps(A2, ()) == []


def test_dehn_steps_sound_and_decreasing():
	rng = random.Random(17)
	for p in (A2, I24, RA3):
		oracle = HomOracle(p, seed=2)
		for _ in range(25):
			w = random_word(p, rng, rng.randrange(0, 8))
			for d in dehn_steps(p, w):
				assert len(d.replacement) < len(d.factor)
				assert oracle.maybe_equal(w, apply_dehn(w, d))


def test_dehn_steps_match_reference():
	# the in-place matcher against the table of every cyclic shift and
	# long prefix: the same steps, the same order, and the same first
	# fields of a pair (u, u') that two relations give (a relation listed
	# both ways round, or with equal sides); over ab = a, one u has a
	# 'fwd' and a 'bwd' step of one relation at one position
	rng = random.Random(29)
	presentations = (A2, I24, A3, RA3, SIDE1, make('gens: a b\nrel: aab = b'),
		make('gens: a b\nrel: ab = a'),
		make('gens: a b\nrel: ab = ba\nrel: ba = ab'), make('gens: a b\nrel: a = b'),
		make('gens: a b\nrel: a = a'))
	for p in presentations:
		letters = p.generators + ('z',)
		for _ in range(120):
			w = tuple((rng.choice(letters), rng.choice((1, -1)))
				for _ in range(rng.randrange(0, 11)))
			assert dehn_steps(p, w) == reference_dehn_steps(p, w), (p.relations, w)


def test_dehn_steps_large_coxeter_entry():
	# one braid relation of length 120: the index holds one entry per
	# letter of each oriented relator, and a match is read off the relator
	# in place, not from a table of every shift and long prefix
	t0 = time.perf_counter()
	p = parse_presentation_text('gens: a b\ncoxeter: a b 120\n')
	assert dehn_steps(p, parse_word('Ba', p)) == []
	l, r = p.relations[0]
	y = invert(positive_to_word(r)) + positive_to_word(l)
	w = (y + y)[40:205]  # a cyclic factor of 165 letters
	got = dehn_steps(p, w)
	assert time.perf_counter() - t0 < 1
	assert sum(map(len, p._dehn.values())) == 2 * sum(len(l) + len(r) for l, r in p.relations)
	assert len(got) == 1035 and got == reference_dehn_steps(p, w)


def test_dehn_steps_reject_a_letter_without_a_sign():
	# the word is encoded as apply_step encodes it, so a letter whose sign
	# is not 1 or -1 raises WordError; a generator outside the presentation
	# is a letter that no relator contains
	p = make('gens: a b\nrel: aba = bab')
	for w in ((('a', 2),), (('a', 1), ('b', 0)), parse_word('abaBA', p) + (('a', -2),)):
		for call in (dehn_steps, dehn_run):
			with pytest.raises(WordError, match='sign must be 1 or -1'):
				call(p, w)
	z = (('z', 1), ('a', 1), ('z', -1))
	assert dehn_steps(p, z) == [] and dehn_run(p, z) == (z, [])
	w = parse_word('abaBA', p)
	assert [d.pos for d in dehn_steps(p, (('z', 1),) + w)] == [d.pos + 1 for d in dehn_steps(p, w)]


def test_simulate_type2_matches_apply():
	rng = random.Random(19)
	for p in (A2, I24, RA3):
		for _ in range(30):
			w = random_word(p, rng, rng.randrange(0, 7))
			for s in applicable_steps(p, w, {'2r', '2l'}):
				d = simulate_type2(p, w, s)
				assert all(t.kind in ('inf', '1', '0') for t in d.steps)
				assert check_derivation(p, d) == apply_step(p, w, s)


def test_simulate_type2_rejects_other_kinds():
	with pytest.raises(StepError):
		simulate_type2(A2, parse_word('aA', A2), Step('0', 0, sign=1))


def brute_ordered_steps(p, w):
	'''Every {0,1,2r,2l} step on w, built straight from the definitions in
	the documented order: position, kind, relation, orientation, then sign
	(type 1) or split (type 2).'''
	def pos_word(u, e):
		return tuple((g, e) for g in (u if e == 1 else reversed(u)))
	out = []
	for pos in range(len(w) + 1):
		if pos + 2 <= len(w) and w[pos][0] == w[pos + 1][0] \
				and w[pos][1] == -w[pos + 1][1]:
			out.append(Step('0', pos, sign=w[pos][1]))
		for kind in ('1', '2r', '2l'):
			for ri, (l, r) in enumerate(p.relations):
				for orient, a, b in (('fwd', l, r), ('bwd', r, l)):
					if kind == '1':
						cands = [(pos_word(a, sg), dict(sign=sg)) for sg in (1, -1)]
					else:
						cands = [(pos_word(a[:lv], -1) + pos_word(b[:lvp], 1)
							if kind == '2r' else
							pos_word(a[len(a) - lv:], 1) + pos_word(b[len(b) - lvp:], -1),
							dict(lv=lv, lvp=lvp))
							for lv in range(1, len(a) + 1)
							for lvp in range(1, len(b) + 1)]
					for fac, extra in cands:
						if w[pos:pos + len(fac)] == fac:
							out.append(Step(kind, pos, rel=ri, orient=orient, **extra))
	return out


def test_applicable_steps_exact_order():
	# search takes successors in this order, so a reordering changes which
	# derivation it finds even when the set of successors stays the same
	rng = random.Random(47)
	for p in (A2, I24, RA3, F2XF2, FIG2, SIDE1, MULTI):
		for _ in range(300):
			w = random_word(p, rng, rng.randrange(0, 10))
			assert applicable_steps(p, w, ALL) == brute_ordered_steps(p, w)


def _random_presentation(rng):
	'''2-3 generators and 1-3 relations with sides of 1-5 letters: over so
	few letters relations share boundary pairs, and one-letter sides occur.'''
	gens = 'abc'[:rng.choice((2, 3))]
	side = lambda: tuple(rng.choice(gens) for _ in range(rng.randint(1, 5)))
	return Presentation(tuple(gens), [(side(), side()) for _ in range(rng.randint(1, 3))])


def test_matcher_on_random_presentations():
	'''Type 2 steps are matched in place at sign boundaries; on random
	presentations the list is the one built from the definitions, in the
	same order, and each step applies as the tuple reference does, on
	words that include a letter outside the presentation.'''
	rng = random.Random(2011)
	seen = dict.fromkeys(('shared', 'long v', "long v'"), 0)
	for _ in range(150):
		p = _random_presentation(rng)
		letters = p.generators + ('z',)
		for _ in range(8):
			w = tuple((rng.choice(letters), rng.choice((1, -1)))
				for _ in range(rng.randrange(0, 11)))
			steps = applicable_steps(p, w, ALL)
			assert steps == brute_ordered_steps(p, w)
			for s in steps:
				assert apply_step(p, w, s) == reference_apply_step(p, w, s)
			two = [(s.pos, s.kind, s.rel, s.orient) for s in steps if s.kind in ('2r', '2l')]
			seen['shared'] += len({(pos, kind) for pos, kind, _, _ in two}) < len(set(two))
			seen['long v'] += any(s.kind in ('2r', '2l') and s.lv > 1 for s in steps)
			seen["long v'"] += any(s.kind in ('2r', '2l') and s.lvp > 1 for s in steps)
	assert min(seen.values()) >= 30, seen


def test_large_coxeter_entry_lists_steps_fast():
	# one braid relation of length 250: the matcher reads the one 2r step
	# off the two letters of Ba, without tabulating the 2 * 250^2 splits
	t0 = time.perf_counter()
	p = parse_presentation_text('gens: a b\ncoxeter: a b 250\n')
	w = parse_word('Ba', p)
	steps = applicable_steps(p, w, {'1', '2r', '2l'})
	assert steps == [Step('2r', 0, rel=0, orient='bwd', lv=1, lvp=1)]
	after = apply_step(p, w, steps[0])
	assert render_word(after, p) == 'ab' * 124 + 'a' + 'BA' * 124 + 'B'
	r = right_reverse(p, w)
	assert r.converged and r.word == after and r.trace.steps == steps
	assert time.perf_counter() - t0 < 2


def test_apply_step_rejects_out_of_range_fields():
	w = parse_word('abA', RA3)
	bad = [
		Step('0', -1, sign=-1),  # would pair w[-1] with w[0]
		Step('inf', -1, letter='a', sign=1),
		Step('inf', 0, letter='a', sign=2),
		Step('1', 0, rel=3, orient='fwd', sign=1),
		Step('1', 0, rel=-1, orient='fwd', sign=1),
		Step('1', 0, rel=0, orient='sideways', sign=1),
		Step('2l', 1, rel=9, orient='fwd', lv=1, lvp=1),
		Step('2l', 1, rel=0, orient=None, lv=1, lvp=1),
	]
	for s in bad:
		with pytest.raises(StepError):
			apply_step(RA3, w, s)


def test_derivation_with_negative_position_is_rejected():
	blob = {'schema': 1, 'start': 'abA', 'steps': [{'kind': '0l', 'pos': -1}],
		'end': 'abbA'}
	with pytest.raises(StepError):
		Derivation.from_json(blob, RA3)


def test_step_json_rejects_what_schema_1_cannot_carry():
	for lv, lvp in ((1, 65), (65, 1), (0, 1)):
		with pytest.raises(StepError):
			Step('2r', 0, rel=0, orient='fwd', lv=lv, lvp=lvp).to_json()
	for split in (-1, 1.5, '3', True, 64 * 64):
		with pytest.raises(StepError):
			Step.from_json({'kind': '2r', 'pos': 0, 'rel': 0, 'orient': 'fwd',
				'split': split})
	for d in ({'pos': 0}, [], {'kind': 'zz', 'pos': 0}, {'kind': '1', 'pos': 0}):
		with pytest.raises(StepError):
			Step.from_json(d)
	# the largest split still round-trips byte for byte
	d = {'kind': '2l', 'pos': 0, 'rel': 0, 'orient': 'bwd', 'split': 64 * 64 - 1}
	assert Step.from_json(d).to_json() == d


def _result(f, *args):
	'''The value of f(*args), or the type and message of what it raised:
	the step core must fail exactly as the tuple version did.'''
	try:
		return 'ok', f(*args)
	except Exception as e:
		return type(e).__name__, str(e)


def _malformed(p, s, rng, n):
	'''Variants of the step s that the checks must reject, or that must give
	the tuple version's answer: bad relation, orientation, split, sign and
	position fields, booleans and floats that equal valid ints, and an
	unknown kind.'''
	pos = rng.randrange(-1, n + 2)
	out = [dataclasses.replace(s, pos=x) for x in (-1, -2, 1.0, None, '0', True)]
	out += [dataclasses.replace(s, sign=x) for x in (0, 2, None, True, -1.0)]
	out += [Step('3', pos), Step('inf', pos, letter='z', sign=1),
		Step('inf', pos, letter=p.generators[0], sign=rng.choice((0, 2, None)))]
	if s.kind in ('1', '2r', '2l'):
		out += [dataclasses.replace(s, rel=x) for x in (True, False, -1,
			len(p.relations), 1.0 * s.rel, None)]
		out += [dataclasses.replace(s, orient=x) for x in ('up', None, ['fwd'])]
	if s.kind in ('2r', '2l'):
		a, b = p.relations[s.rel] if s.orient == 'fwd' else p.relations[s.rel][::-1]
		out += [dataclasses.replace(s, lv=x) for x in (0, len(a) + 1, None, True, 1.0)]
		out += [dataclasses.replace(s, lvp=x) for x in (0, len(b) + 1, True)]
	return out


def test_step_core_matches_reference():
	'''apply_step, check_derivation and derivation_words, which run on
	encoded words, give the word, or the error type and message, of the
	tuple apply_step they replace; malformed steps and letters outside the
	presentation included.'''
	rng = random.Random(113)
	outside = (('z', 1), ('z', -1), ('y', -1))
	replayed = failed = 0
	for p in (A2, I24, RA2, RA3, F2XF2, MULTI):
		for _ in range(60):
			w = list(random_word(p, rng, rng.randrange(0, 9)))
			if rng.random() < 0.3:
				x = rng.choice(outside)
				k = rng.randrange(len(w) + 1)
				w[k:k] = [x, (x[0], -x[1])] if rng.random() < 0.5 else [x]
			w = tuple(w)
			steps = applicable_steps(p, w, ALL, inf_letters=p.generators[:1],
				inf_positions={0, len(w)})
			for s in steps[:12]:
				for t in [s] + _malformed(p, s, rng, len(w)):
					assert _result(apply_step, p, w, t) == _result(reference_apply_step, p, w, t)
			# a random walk, sometimes broken by one malformed step
			cur, walk = w, []
			for _ in range(rng.randrange(1, 8)):
				nxt = applicable_steps(p, cur, ALL, inf_letters=p.generators,
					inf_positions={rng.randrange(len(cur) + 1)})
				if not nxt:
					break
				walk.append(rng.choice(nxt))
				cur = reference_apply_step(p, cur, walk[-1])
			if walk and rng.random() < 0.4:
				k = rng.randrange(len(walk))
				walk[k] = rng.choice(_malformed(p, walk[k], rng, len(cur)))
			d = Derivation(w, walk)
			want = _result(reference_derivation_words, p, d)
			assert _result(derivation_words, p, d) == want
			assert _result(check_derivation, p, d) == (
				('ok', want[1][-1]) if want[0] == 'ok' else want)
			replayed += want[0] == 'ok'
			failed += want[0] == 'StepError'
	assert replayed >= 100 and failed >= 20


def test_step_fields_checked_by_type_and_per_presentation():
	'''Step fields are checked by value and type: rel=True and rel=1.0
	are rejected, also after rel=1 applied; and one Step is checked
	against each presentation on its own, a copy made by
	dataclasses.replace included.'''
	w = parse_word('abcBA', RA3)
	one = Step('1', 1, rel=1, orient='fwd', sign=1)
	assert render_word(apply_step(RA3, w, one), RA3) == 'acbBA'
	for s, msg in ((dataclasses.replace(one, rel=True), 'relation index True out of range'),
			(dataclasses.replace(one, rel=1.0), 'relation index 1.0 out of range'),
			(dataclasses.replace(one, pos=True), 'position True out of range')):
		with pytest.raises(StepError, match='^%s$' % msg.replace('.', r'\.')):
			apply_step(RA3, w, s)
	r2l = Step('2l', 0, rel=0, orient='fwd', lv=1, lvp=1)
	for lv in (1.0, True):
		with pytest.raises(StepError, match='^bad type 2l split$'):
			apply_step(A2, parse_word('aB', A2), dataclasses.replace(r2l, lv=lv))
	s = Step('1', 0, rel=0, orient='fwd', sign=1)
	copy = dataclasses.replace(RA2, declared_spherical=not RA2.declared_spherical)
	assert apply_step(RA2, parse_word('ab', RA2), s) == parse_word('ba', RA2)
	assert apply_step(copy, parse_word('ab', copy), s) == parse_word('ba', RA2)
	assert apply_step(A2, parse_word('aba', A2), s) == parse_word('bab', A2)
	with pytest.raises(StepError, match='factor mismatch'):
		apply_step(A2, parse_word('ab', A2), s)
	with pytest.raises(StepError, match='relation index 1 out of range'):
		apply_step(RA2, parse_word('ba', RA2), one)
	# letters outside the presentation decode with the table that coded them
	z = (('z', 1), ('a', 1), ('a', -1), ('z', -1))
	assert check_derivation(RA2, Derivation(z, [Step('0', 1, sign=1),
		Step('0', 0, sign=1)])) == ()
	assert apply_step(RA2, z, Step('inf', 4, letter='b', sign=-1)) == \
		z + (('b', -1), ('b', 1))


def test_type2_split_lengths_checked_by_type():
	# a split length that is not an int is a malformed step: the step core,
	# the type 2 simulation, schema 1 and the test reference raise StepError
	w = parse_word('Ba', A2)
	good = Step('2r', 0, rel=0, orient='bwd', lv=1, lvp=1)
	assert apply_step(A2, w, good) == reference_apply_step(A2, w, good) == \
		parse_word('abAB', A2)
	assert check_derivation(A2, simulate_type2(A2, w, good)) == apply_step(A2, w, good)
	assert Step.from_json(good.to_json()) == good
	for bad in (None, True, 1.0, '1'):
		for s in (dataclasses.replace(good, lv=bad), dataclasses.replace(good, lvp=bad)):
			for run in (apply_step, simulate_type2, reference_apply_step):
				with pytest.raises(StepError, match='^bad type 2r split$'):
					run(A2, w, s)
			with pytest.raises(StepError, match='do not fit schema 1'):
				s.to_json()


def test_embed_checks_the_factor():
	d = Derivation(parse_word('aba', A2), [Step('1', 0, rel=0, orient='fwd', sign=1)])
	w = parse_word('abab', A2)
	assert embed(w, 0, d) == d.steps
	assert embed(parse_word('Baba', A2), 1, d) == [Step('1', 1, rel=0, orient='fwd', sign=1)]
	assert embed(w, 1, Derivation((), [])) == []
	# w[-4:-1] is the factor, but a position counts from the start
	for i in (1, 2, 5, -1, -4):
		with pytest.raises(StepError, match='start mismatch'):
			embed(w, i, d)


@pytest.mark.parametrize('p', [A2, I24, A3], ids=['A2', 'I24', 'A3'])
def test_embed_reverses_a_factor(p):
	# reversing on a factor: the right fraction's trace of w[i:j], embedded
	# at i, replays from w to w[:i] + N D^-1 + w[j:]
	rng = random.Random(1800)
	for _ in range(80):
		w = random_word(p, rng, rng.randint(1, 12))
		i = rng.randrange(len(w))
		j = rng.randint(i + 1, len(w))
		f = right_fraction(p, w[i:j])
		nd = positive_to_word(f.numerator) + invert(positive_to_word(f.denominator))
		steps = embed(w, i, f.trace)
		assert [s.pos - i for s in steps] == [s.pos for s in f.trace.steps]
		assert check_derivation(p, Derivation(w, steps)) == w[:i] + nd + w[j:]


def test_step_json_writes_only_steps_that_read_back_as_themselves():
	# every step the bundled presentations list, insertions included, reads
	# back as itself; '0l' reads back with sign -1, so a type 0 step of
	# another sign, like a kind outside the five, has no schema 1 form
	rng = random.Random(1900)
	kinds, seen = {'0', '1', '2r', '2l', 'inf'}, set()
	for name in ('a2.txt', 'i24.txt', 'ra3.txt', 'f2xf2.txt', 'fig2.txt'):
		p = load_presentation(name)
		for _ in range(40):
			w = random_word(p, rng, rng.randint(0, 8))
			for s in applicable_steps(p, w, kinds, inf_letters=p.generators[:2]):
				assert Step.from_json(s.to_json()) == s, (name, s)
				seen.add(s.kind)
	assert seen == kinds
	for s in (Step('0', 0), Step('0', 0, sign=2), Step('x', 0, lv=1, lvp=1)):
		with pytest.raises(StepError, match='does not fit schema 1'):
			s.to_json()


def test_successors_since_drops_the_steps_ending_by_it():
	# rewrite._successors(p, w, kinds, since) lists the steps of the list for
	# since = 0, in its order, whose factor ends after since: a type 0 factor
	# ends at pos + 2, a type 1 at pos + |factor|, a type 2 at pos + |v| +
	# |v'|.  The list for since = 0 is the one built from the definitions.
	# Words draw a letter outside the presentation now and then, and kinds
	# run over every subset of {0, 1, 2r, 2l}.  Over aab = b two type 2
	# relations share the boundary b B, so runs there interleave them.
	presentations = (A2, I24, SIDE1, make('gens: a b\nrel: aab = b'),
		make('gens: a b\nrel: ab = a'), MULTI, RA3, FIG2,
		make('gens: a b\nrel: abababa = bababab'))
	subsets = [set(c) for n in range(5)
		for c in itertools.combinations(('0', '1', '2r', '2l'), n)]
	rng = random.Random(2222)
	shared = dropped = 0
	for p in presentations:
		def ends(kind, pos, fields):
			if kind == '0':
				return pos + 2
			if kind == '1':
				return pos + len(p.relations[fields[0]][fields[1] == 'bwd'])
			return pos + fields[2] + fields[3]
		for _ in range(30):
			w = tuple((rng.choice(p.generators) if rng.random() < 0.9 else 'z',
				rng.choice((1, -1))) for _ in range(rng.randrange(0, 12)))
			code, brute = p._encode(w), brute_ordered_steps(p, w)
			for kinds in subsets:
				full = list(_successors(p, code, kinds))
				assert [Step(kind, pos, *fields) for kind, pos, fields, _ in full] == \
					[s for s in brute if s.kind in kinds]
				assert [p._decode(nxt) for *_, nxt in full] == \
					[reference_apply_step(p, w, Step(k, i, *f)) for k, i, f, _ in full]
				for since in range(len(w) + 2):
					want = [s for s in full if ends(*s[:3]) > since]
					assert list(_successors(p, code, kinds, since)) == want
					dropped += len(full) - len(want)
				two = [(pos, fields[:2]) for kind, pos, fields, _ in full if kind in ('2r', '2l')]
				shared += len({pos for pos, _ in two}) < len(set(two))
	assert shared >= 20 and dropped >= 10000, (shared, dropped)
