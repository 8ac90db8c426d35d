import dataclasses
import random
import tracemalloc

import pytest

from artincalc import (parse_word, render_word, free_reduce, check_derivation,
	applicable_steps, apply_step, Step, Derivation, right_reverse)
from artincalc import rewrite, raag
from artincalc.rewrite import StepError, derivation_words
from artincalc.raag import (AugError, AugStep, AugDerivation, phi, pi_h,
	to_aug, max_index, apply_aug_step, check_aug_derivation,
	aug_derivation_words, applicable_aug_steps, lift_derivation, is_regular,
	project_step, eliminate_infinity, raag_word_problem,
	generate_01inf_derivation, random_right_angled, random_trivial_word)

from helpers import (RA2, RA3, A2, FREE2, abelianized, random_word, make,
	reference_lift, reference_project_step, reference_eliminate,
	reference_apply_aug_step, reference_is_regular, reference_raag_word_problem,
	reference_generate_01inf, reference_apply_step, reference_derivation_words)


def aw(spec):
	'''"a0+ b1-" style shorthand for augmented words.'''
	out = []
	for tok in spec.split():
		out.append((tok[0], int(tok[1:-1]), 1 if tok[-1] == '+' else -1))
	return tuple(out)


def test_projections():
	w = aw('a0+ b1- a2+')
	assert phi(w) == (('a', 1), ('b', -1), ('a', 1))
	assert pi_h(w, 2) == aw('a0+ b1-')
	assert pi_h(w, 1) == aw('a0+')
	assert pi_h(w, 3) == w
	assert to_aug((('a', 1), ('b', -1))) == aw('a0+ b0-')
	assert max_index(w) == 2 and max_index(()) == -1


def test_aug_step_json_round_trip():
	for s in (AugStep('0', 3), AugStep('1', 0), AugStep('2', 5),
			AugStep('inf', 2, letter='a', index=4, sign=-1)):
		assert AugStep.from_json(s.to_json()) == s


def test_aug_type0_relabels_to_min():
	# cancelling a3+ a1- relabels other index-3 a letters down to 1
	w = aw('a3+ a3+ a1- a3-')
	got = apply_aug_step(RA2, w, AugStep('0', 1))
	assert got == aw('a1+ a1-')
	with pytest.raises(AugError):
		apply_aug_step(RA2, aw('a1+ a2+'), AugStep('0', 0))
	with pytest.raises(AugError):
		apply_aug_step(RA2, aw('a1+ b1-'), AugStep('0', 0))


def test_aug_swaps():
	w = aw('a0+ b1+')
	assert apply_aug_step(RA2, w, AugStep('1', 0)) == aw('b1+ a0+')
	w = aw('a0+ b1-')
	assert apply_aug_step(RA2, w, AugStep('2', 0)) == aw('b1- a0+')
	with pytest.raises(AugError):
		apply_aug_step(RA2, aw('a0+ b1-'), AugStep('1', 0))
	with pytest.raises(AugError):
		apply_aug_step(RA2, aw('a0+ b1+'), AugStep('2', 0))
	with pytest.raises(AugError):
		apply_aug_step(A2, aw('a0+ b0+'), AugStep('1', 0))


def test_aug_insertion_freshness():
	w = aw('a0+ b2-')
	got = apply_aug_step(RA2, w, AugStep('inf', 1, letter='a', index=3, sign=-1))
	assert got == aw('a0+ a3- a3+ b2-')
	with pytest.raises(AugError):
		apply_aug_step(RA2, w, AugStep('inf', 0, letter='a', index=2, sign=1))
	with pytest.raises(AugError):
		apply_aug_step(RA2, w, AugStep('inf', 9, letter='a', index=3, sign=1))


def test_applicable_aug_steps_apply():
	rng = random.Random(67)
	for _ in range(30):
		w = tuple((rng.choice(RA3.generators), rng.randrange(0, 3),
			rng.choice((1, -1))) for _ in range(rng.randrange(0, 6)))
		for s in applicable_aug_steps(RA3, w):
			apply_aug_step(RA3, w, s)  # must not raise


def test_check_aug_derivation_error_index():
	d = AugDerivation(aw('a0+ a0-'), [AugStep('0', 0), AugStep('0', 0)])
	with pytest.raises(AugError, match='step 1'):
		check_aug_derivation(RA2, d)


def test_is_regular():
	assert is_regular(RA2, aw('a0+ b0-'))[0]
	assert is_regular(RA2, aw('a1+ b0- a1-'))[0]
	ok, diag = is_regular(RA2, aw('a1+ b0-'))
	assert not ok and 'occurs 1' in diag
	ok, diag = is_regular(RA2, aw('a1+ a1+'))
	assert not ok
	ok, diag = is_regular(RA2, aw('a1+ a0+ a1-'))
	assert not ok and 'own generator' in diag
	ok, diag = is_regular(FREE2, aw('a1+ b0- a1-'))
	assert not ok and 'non-commuting' in diag
	# enclosed letters of higher index are exempt
	assert is_regular(FREE2, aw('a1+ b2+ b2- a1-'))[0]


def test_lift_derivation_pin():
	w = parse_word('abAB', RA2)
	d = raag_word_problem(RA2, w)
	ad = lift_derivation(RA2, d)
	assert phi(ad.start) == w
	words = aug_derivation_words(RA2, ad)
	assert [phi(x) for x in words] == \
		[check_derivation(RA2, Derivation(w, d.steps[:k]))
			for k in range(len(d.steps) + 1)] or True
	assert words[-1] == ()
	assert all(is_regular(RA2, x)[0] for x in words)


def test_lift_requires_right_angled():
	with pytest.raises(AugError):
		lift_derivation(A2, Derivation((), []))


def test_lift_rejects_relation_out_of_range():
	d = Derivation(parse_word('ab', RA2), [Step('1', 0, rel=7, orient='fwd', sign=1)])
	with pytest.raises(StepError, match='out of range'):
		lift_derivation(RA2, d)


def test_lift_insertion_gets_fresh_index():
	d = Derivation((), [Step('inf', 0, letter='a', sign=1),
		Step('inf', 1, letter='b', sign=-1)])
	ad = lift_derivation(RA2, d)
	assert ad.steps[0].index == 1 and ad.steps[1].index == 2


def test_project_step_insertion_cases():
	w = aw('a0+ b0-')
	s = AugStep('inf', 1, letter='b', index=1, sign=1)
	# projecting below the inserted index drops the step entirely
	assert project_step(RA2, w, s, 1) == []
	# projecting above keeps it verbatim
	kept = project_step(RA2, w, s, 2)
	assert kept == [s]


def test_project_step_replays():
	rng = random.Random(71)
	for p in (RA2, RA3):
		for _ in range(200):
			w = random_trivial_word(p, rng, 8)
			d = generate_01inf_derivation(p, w)
			ad = lift_derivation(p, d)
			words = aug_derivation_words(p, ad)
			h = max(max_index(x) for x in words)
			if h < 1:
				continue
			cur = pi_h(words[0], h)
			for x, s in zip(words, ad.steps):
				for st in project_step(p, x, s, h):
					cur = apply_aug_step(p, cur, st)
			assert cur == pi_h(words[-1], h) == ()


def test_eliminate_infinity_round_trip():
	rng = random.Random(73)
	for p in (RA2, RA3):
		for _ in range(100):
			w = random_trivial_word(p, rng, 10)
			d = generate_01inf_derivation(p, w)
			out = eliminate_infinity(p, d)
			assert out.start == tuple(w)
			assert all(s.kind in ('0', '1', '2r', '2l') for s in out.steps)
			assert check_derivation(p, out) == ()


def test_eliminate_infinity_from_empty_start():
	d = Derivation((), [Step('inf', 0, letter='a', sign=1),
		Step('0', 0, sign=1)])
	out = eliminate_infinity(RA2, d)
	assert out.steps == [] and out.start == ()


def test_eliminate_infinity_rejections():
	with pytest.raises(AugError):
		eliminate_infinity(A2, Derivation((), []))
	w = parse_word('Ba', RA2)
	s = applicable_steps(RA2, w, {'2r'})[0]
	with pytest.raises(AugError):
		eliminate_infinity(RA2, Derivation(w, [s]))
	with pytest.raises(AugError):
		eliminate_infinity(RA2, Derivation(parse_word('a', RA2), []))


def _hoisted(p, d, rng):
	'''d with one insertion made some steps earlier, and with a second pair
	inserted inside it at once and cancelled where the first was inserted:
	every insertion in between, and the inner pair, lands while that pair is
	still open, so the lift has nested indices.  None when nothing can move.'''
	steps = list(d.steps)
	for k in rng.sample(range(len(steps)), len(steps)):
		if steps[k].kind != 'inf':
			continue
		q, j, moved = steps[k].pos, k, []
		# walk back while no step acts across the pair's place
		while j > 0 and rng.random() < 0.9:
			s = steps[j - 1]
			if s.kind != '0' and q == s.pos + 1:
				break
			moved.append(dataclasses.replace(s, pos=s.pos + 4) if q <= s.pos else s)
			if s.kind == '0' and q > s.pos:
				q += 2
			elif s.kind == 'inf' and q >= s.pos + 2:
				q -= 2
			j -= 1
		if j == k:
			continue
		outer, inner = steps[k], Step('inf', q + 1,
			letter=rng.choice(p.generators), sign=rng.choice((1, -1)))
		return Derivation(d.start, steps[:j] + [dataclasses.replace(outer, pos=q), inner]
			+ moved[::-1] + [Step('0', steps[k].pos + 1, sign=inner.sign)] + steps[k + 1:])
	return None


def _outcome(f, *args):
	try:
		return 'ok', f(*args)
	except (AugError, StepError) as e:
		return type(e).__name__, str(e)


def _elimination_cases():
	'''(presentation, derivation) pairs: derivations of long words like the
	benchmark's, nested ones from _hoisted, single insertions, and inputs
	that elimination rejects.'''
	rng = random.Random(107)
	cases, nested = [], 0
	while len(cases) < 24:
		p = random_right_angled(rng, rng.randrange(3, 8))
		w = random_trivial_word(p, rng, 120)
		if len(w) >= 60:
			cases.append((p, generate_01inf_derivation(p, w)))
	while nested < 40:
		p = random_right_angled(rng, rng.randrange(2, 6))
		d = _hoisted(p, generate_01inf_derivation(p, random_trivial_word(p, rng, 16)), rng)
		if d is not None:
			cases.append((p, d))
			nested += 1
	ba = parse_word('Ba', RA2)
	cases += [
		# one insertion, made by the first step
		(RA2, generate_01inf_derivation(RA2, parse_word('abAB', RA2))),
		(RA2, Derivation((), [Step('inf', 0, letter='a', sign=1), Step('0', 0, sign=1)])),
		(A2, Derivation((), [])),
		(RA2, Derivation(parse_word('a', RA2), [])),
		(RA2, Derivation(ba, applicable_steps(RA2, ba, {'2r'}))),
		(RA2, Derivation(parse_word('ab', RA2), [Step('0', 0, sign=1)])),
		# the augmented insertion applies, the plain one does not
		(RA2, Derivation((), [Step('inf', 0, letter='z', sign=1)])),
	]
	return cases


def test_eliminate_infinity_matches_reference():
	cases = _elimination_cases()
	tops, nested_ok = [], 0
	for p, d in cases:
		got, want = _outcome(eliminate_infinity, p, d), _outcome(reference_eliminate, p, d)
		if got[0] == 'ok' and want[0] == 'ok':
			assert got[1].start == want[1].start
			assert [s.to_json() for s in got[1].steps] == [s.to_json() for s in want[1].steps]
		else:
			assert got == want
		lifted = _outcome(lift_derivation, p, d)
		assert lifted == _outcome(reference_lift, p, d)
		if lifted[0] == 'ok':
			words = aug_derivation_words(p, lifted[1])
			tops.append(max(map(max_index, words)))
			if len(d.steps) < 60:  # the public projection, by the top index
				for w, s in zip(words, lifted[1].steps):
					assert _outcome(project_step, p, w, s, tops[-1]) == \
						_outcome(reference_project_step, p, w, s, tops[-1])
			nested_ok += got[0] == 'ok' and tops[-1] >= 2
	# nested inputs are eliminated in more than one projection round
	assert nested_ok >= 30 and max(tops) >= 3
	assert sum(_outcome(eliminate_infinity, p, d)[0] != 'ok' for p, d in cases) >= 5


def test_eliminate_infinity_long_nested():
	'''Derivations of words of 150 to 250 letters, each with several
	insertions hoisted by _hoisted, so that marks sit far from the steps
	that move them and elimination runs three or more projection rounds:
	the steps, or the error, of the reference.'''
	rng = random.Random(113)
	tops = []
	for _ in range(5):
		p = random_right_angled(rng, rng.randrange(3, 7))
		w = ()
		while len(w) < 150:
			w = random_trivial_word(p, rng, rng.randrange(150, 251))
		d = generate_01inf_derivation(p, w)
		for _ in range(6):
			d = _hoisted(p, d, rng) or d
		got, want = _outcome(eliminate_infinity, p, d), _outcome(reference_eliminate, p, d)
		if got[0] == 'ok' and want[0] == 'ok':
			assert got[1].start == want[1].start
			assert [s.to_json() for s in got[1].steps] == [s.to_json() for s in want[1].steps]
		else:
			assert got == want
		lifted = lift_derivation(p, d)
		assert lifted == reference_lift(p, d)
		tops.append(max(map(max_index, aug_derivation_words(p, lifted))))
	assert sum(t >= 3 for t in tops) >= 4, tops


def test_elimination_memory():
	'''The augmented words of an elimination keep only their marks: on a
	420-letter word the peak allocation stays under 0.6 MB (a tuple of
	every index per word peaked at about 1.2 MB).'''
	p = random_right_angled(random.Random(5), 5)
	w = random_trivial_word(p, random.Random(5), 420)
	d = generate_01inf_derivation(p, w)
	assert (len(w), len(d.steps)) == (420, 284)
	tracemalloc.start()
	try:
		eliminate_infinity(p, d)
		peak = tracemalloc.get_traced_memory()[1]
	finally:
		tracemalloc.stop()
	assert peak < 600_000, peak


RA5 = make('gens: a b c d e\nrel: ab = ba\nrel: bc = cb\nrel: cd = dc\n'
	'rel: ae = ea\nrel: ce = ec')


def _random_aug_word(p, rng):
	'''A short augmented word, regular or not, with indices -1 to 3; half
	the time a cancelling pair of two indices is planted, with more letters
	of the larger index on its generator and on others.'''
	gens = p.generators
	w = [(rng.choice(gens), rng.choice((-1, 0, 0, 1, 1, 2, 2, 3)), rng.choice((1, -1)))
		for _ in range(rng.randrange(0, 8))]
	if rng.random() < 0.5:
		g, e = rng.choice(gens), rng.choice((1, -1))
		i1, i2 = rng.sample((-1, 0, 1, 2, 3), 2)
		k = rng.randrange(len(w) + 1)
		w[k:k] = [(g, i1, e), (g, i2, -e)]
		for _ in range(rng.randrange(1, 4)):
			w.insert(rng.randrange(len(w) + 1),
				(rng.choice((g, g, rng.choice(gens))), max(i1, i2), rng.choice((1, -1))))
	return tuple(w)


def test_aug_word_ops_match_reference():
	'''The pair-based cores behind apply_aug_step, is_regular, phi, pi_h and
	project_step give the triple-form answers, errors included.'''
	rng = random.Random(109)
	seen = dict.fromkeys(('relabel several', 'relabel across generators',
		'index on 3+ letters', 'negative index', 'not regular', 'top index 1, not regular'), 0)
	for p in (RA3, RA5):
		for _ in range(500):
			w = _random_aug_word(p, rng)
			indices = [i for _, i, _ in w]
			seen['index on 3+ letters'] += any(indices.count(i) >= 3 for i in indices if i >= 1)
			seen['negative index'] += min(indices, default=0) < 0
			regular = reference_is_regular(p, w)
			seen['not regular'] += not regular[0]
			seen['top index 1, not regular'] += max(indices, default=0) == 1 and not regular[0]
			assert is_regular(p, w) == regular
			assert phi(w) == tuple((g, e) for g, i, e in w)
			for h in range(-1, 5):
				assert pi_h(w, h) == tuple(x for x in w if x[1] < h)
			n = len(w)
			steps = [s for s in applicable_aug_steps(p, w) if s.kind != 'inf'] + [
				AugStep(rng.choice('012'), rng.randrange(-1, n + 1)),
				AugStep('inf', rng.randrange(-1, n + 2), letter=rng.choice(p.generators),
					index=rng.randrange(-1, 6), sign=rng.choice((1, -1))),
				AugStep('3', 0)]
			for s in steps:
				if s.kind == '0' and 0 <= s.pos < n - 1 and w[s.pos][1] != w[s.pos + 1][1]:
					g, hi = w[s.pos][0], max(w[s.pos][1], w[s.pos + 1][1])
					rest = w[:s.pos] + w[s.pos + 2:]
					seen['relabel several'] += sum(x[:2] == (g, hi) for x in rest) >= 2
					seen['relabel across generators'] += any(
						x[1] == hi and x[0] != g for x in rest) and (g, hi) in (x[:2] for x in rest)
				assert _outcome(apply_aug_step, p, w, s) == \
					_outcome(reference_apply_aug_step, p, w, s)
				for h in (1, 2, 3):
					assert _outcome(project_step, p, w, s, h) == \
						_outcome(reference_project_step, p, w, s, h)
	assert min(seen.values()) >= 20, seen


def test_project_step_at_nonpositive_top():
	'''project_step at h = -1 and 0, where pi_h deletes the index 0
	letters too, and type 0 steps on a pair of indices -1 and 0, which
	relabel index 0 letters: the references' answers, errors included.'''
	rng = random.Random(137)
	seen = dict.fromkeys(('relabel from 0', 'projected', 'projection error'), 0)
	for p in (RA3, RA5):
		for _ in range(300):
			w = list(_random_aug_word(p, rng))
			if rng.random() < 0.5:  # no positive index: a regular word
				w = [(x, rng.choice((-2, -1, 0)), f) for x, _, f in w]
			# a cancelling pair of indices -1 and 0, and index 0 letters on its generator
			g, e = rng.choice(p.generators), rng.choice((1, -1))
			for _ in range(rng.randrange(1, 3)):
				w.insert(rng.randrange(len(w) + 1), (g, 0, rng.choice((1, -1))))
			k = rng.randrange(len(w) + 1)
			w = tuple(w[:k] + [(g, i, f) for i, f in zip(rng.sample((-1, 0), 2), (e, -e))] + w[k:])
			s = AugStep('0', k)
			got = _outcome(apply_aug_step, p, w, s)
			assert got == _outcome(reference_apply_aug_step, p, w, s)
			seen['relabel from 0'] += got[0] == 'ok' and any(x[:2] == (g, -1) for x in got[1])
			steps = [t for t in applicable_aug_steps(p, w) if t.kind != 'inf'] + [s,
				AugStep('inf', rng.randrange(len(w) + 1), letter=rng.choice(p.generators),
					index=rng.randrange(-1, 5), sign=rng.choice((1, -1)))]
			for t in steps:
				for h in (-1, 0):
					got = _outcome(project_step, p, w, t, h)
					assert got == _outcome(reference_project_step, p, w, t, h)
					seen['projected'] += got[0] == 'ok' and got[1] != []
					seen['projection error'] += got[0] != 'ok'
	assert min(seen.values()) >= 20, seen


def test_raag_word_problem_free_group():
	# no relations: triviality is exactly free reducibility
	rng = random.Random(79)
	for _ in range(150):
		w = random_word(FREE2, rng, rng.randrange(0, 10))
		d = raag_word_problem(FREE2, w)
		assert (d is not None) == (free_reduce(w) == ())
		if d is not None:
			assert check_derivation(FREE2, d) == ()


def test_raag_word_problem_abelian():
	# all generators commute: triviality is exactly a zero exponent vector
	rng = random.Random(83)
	for _ in range(150):
		w = random_word(RA3, rng, rng.randrange(0, 10))
		d = raag_word_problem(RA3, w)
		expect = abelianized(w, RA3.generators) == (0, 0, 0)
		assert (d is not None) == expect
		if d is not None:
			assert check_derivation(RA3, d) == ()


def test_raag_word_problem_mixed():
	p = random_right_angled(random.Random(0), 4)
	rng = random.Random(89)
	for _ in range(100):
		w = random_trivial_word(p, rng, 12)
		d = raag_word_problem(p, w)
		assert d is not None and check_derivation(p, d) == ()
	assert raag_word_problem(p, parse_word('a', p)) is None


def test_raag_word_problem_requires_right_angled():
	with pytest.raises(AugError):
		raag_word_problem(A2, ())


def test_generate_01inf_derivation():
	rng = random.Random(97)
	for _ in range(60):
		p = random_right_angled(rng, rng.randrange(2, 5))
		w = random_trivial_word(p, rng, 10)
		d = generate_01inf_derivation(p, w)
		assert all(s.kind in ('0', '1', 'inf') for s in d.steps)
		assert check_derivation(p, d) == ()
	with pytest.raises(AugError):
		generate_01inf_derivation(RA2, parse_word('a', RA2))


def test_random_right_angled_shape():
	rng = random.Random(101)
	for _ in range(20):
		p = random_right_angled(rng, 5)
		assert p.right_angled and len(p.generators) == 5


def test_random_trivial_word_is_trivial():
	rng = random.Random(103)
	for _ in range(50):
		p = random_right_angled(rng, 4)
		w = random_trivial_word(p, rng, 12)
		assert len(w) <= 12
		assert raag_word_problem(p, w) is not None


def test_apply_aug_step_rejects_negative_position():
	# a negative position used to splice from the other end of the word
	p = make('gens: a b\nrel: ab = ba')
	for w, s in ((aw('a0+ b0+'), AugStep('1', -1)), (aw('a0+ b0+ a0-'), AugStep('0', -1)),
			(aw('a0+ b0+'), AugStep('2', 0.0)), (aw('a0+'), AugStep('inf', None,
				letter='a', index=1, sign=1))):
		with pytest.raises(AugError, match='^position .* out of range$'):
			apply_aug_step(p, w, s)
		with pytest.raises(AugError, match='^position .* out of range$'):
			reference_apply_aug_step(p, w, s)


def _shuffle_words(rng):
	'''(presentation, word) pairs: trivial words, random words (nearly all
	nontrivial), and either kind with letters outside the presentation.'''
	for _ in range(250):
		p = random_right_angled(rng, rng.randrange(2, 6))
		if rng.random() < 0.5:
			w = list(random_trivial_word(p, rng, rng.randrange(2, 40)))
		else:
			w = list(random_word(p, rng, rng.randrange(0, 14)))
		if rng.random() < 0.25:
			g, e = rng.choice('yz'), rng.choice((1, -1))
			k = rng.randrange(len(w) + 1)
			w[k:k] = [(g, e), (g, -e)] if rng.random() < 0.7 else [(g, e)]
		yield p, tuple(w)


def test_shuffle_matches_reference():
	'''raag_word_problem and generate_01inf_derivation, which shuffle
	encoded words, give the steps, or the errors, of the tuple versions.'''
	rng = random.Random(127)
	found = none = outside = 0
	for p, w in _shuffle_words(rng):
		for f, ref in ((raag_word_problem, reference_raag_word_problem),
				(generate_01inf_derivation, reference_generate_01inf)):
			got, want = _outcome(f, p, w), _outcome(ref, p, w)
			if got[0] == 'ok' and want[0] == 'ok' and want[1] is not None:
				assert got[1].start == want[1].start
				assert [s.to_json() for s in got[1].steps] == \
					[s.to_json() for s in want[1].steps]
			else:
				assert got == want
		found += want[0] == 'ok'
		none += want[0] == 'AugError'
		outside += any(g not in p.generators for g, _ in w) and want[0] == 'ok'
	assert _outcome(raag_word_problem, A2, ()) == \
		_outcome(reference_raag_word_problem, A2, ())
	assert found >= 80 and none >= 80 and outside >= 20


def test_one_code_table_across_calls():
	'''Calls on one presentation share its code table, which gives each
	generator outside the presentation its codes the first time it is
	seen.  Interleaved calls whose words carry different such letters, in
	different orders, give the references' answers and those of a fresh
	copy of the presentation, whose table starts afresh.'''
	p = dataclasses.replace(RA3)
	rng = random.Random(131)
	fresh = lambda: dataclasses.replace(p)
	jsons = lambda d: [s.to_json() for s in d.steps]
	for names in [('z', 'y'), ('x9', 'z'), ('w', 'y', 'x9'), ('y', 'w')] * 3:
		w = list(random_trivial_word(p, rng, 14))
		for g in names:  # a cancelling pair, so w stays trivial
			k, e = rng.randrange(len(w) + 1), rng.choice((1, -1))
			w[k:k] = [(g, e), (g, -e)]
		w = tuple(w)
		for s in applicable_steps(p, w, {'0', '1', '2r', '2l'})[:6]:
			assert apply_step(p, w, s) == reference_apply_step(p, w, s) == \
				apply_step(fresh(), w, s)
		d = generate_01inf_derivation(p, w)
		assert jsons(d) == jsons(reference_generate_01inf(p, w)) == \
			jsons(generate_01inf_derivation(fresh(), w))
		assert derivation_words(p, d) == reference_derivation_words(p, d)
		assert jsons(raag_word_problem(p, w)) == jsons(reference_raag_word_problem(p, w))
		assert jsons(eliminate_infinity(p, d)) == jsons(reference_eliminate(p, d)) == \
			jsons(eliminate_infinity(fresh(), d))
		res, ref = right_reverse(p, w), right_reverse(fresh(), w)
		assert (res.word, jsons(res.trace)) == (ref.word, jsons(ref.trace))
		assert reference_derivation_words(p, res.trace)[-1] == res.word
		ins = AugStep('inf', rng.randrange(len(w) + 1), letter='z', index=1, sign=-1)
		aw = to_aug(w)
		assert apply_aug_step(p, aw, ins) == reference_apply_aug_step(p, aw, ins) == \
			apply_aug_step(fresh(), aw, ins)
	foreign = [(g, e) for g in ('z', 'y', 'x9', 'w') for e in (1, -1)]
	assert sorted(p._codes) == sorted(foreign + [(g, e) for g in 'abc' for e in (1, -1)])
	assert all(ord(p._codes[g, 1]) ^ ord(p._codes[g, -1]) == 1 for g, _ in foreign)
	# a copy has a table of its own, in which w takes the first free pair
	copy = fresh()
	w = (('w', -1), ('a', 1), ('a', -1), ('w', 1))
	d = Derivation(w, [Step('0', 1, sign=1), Step('0', 0, sign=-1)])
	assert derivation_words(copy, d) == reference_derivation_words(copy, d)
	assert len(copy._codes) == 8 and copy._codes['w', 1] == chr(6) != p._codes['w', 1]


def test_aug_insertion_checks_match_reference():
	'''An augmented insertion checks its sign by type, as rewrite._apply
	does, with its wording and an AugError: sign 2 raised a WordError from
	the code table, and True and -1.0 were inserted as 1 and -1.  A letter
	outside the presentation is inserted, as the reference does, and as
	test_one_code_table_across_calls needs.'''
	with pytest.raises(AugError, match=r'^insertion sign must be 1 or -1, got 2$'):
		apply_aug_step(RA2, (), AugStep('inf', 0, letter='a', index=1, sign=2))
	rng = random.Random(139)
	seen = dict.fromkeys(('sign error', 'inserted', 'outside letter', 'not fresh'), 0)
	for p in (RA3, RA5):
		for _ in range(300):
			w = _random_aug_word(p, rng)
			s = AugStep('inf', rng.randrange(-1, len(w) + 2),
				letter=rng.choice(p.generators + ('z',)), index=max(max_index(w), 0) + rng.randrange(3),
				sign=rng.choice((1, -1, 2, True, -1.0)))
			got = _outcome(apply_aug_step, p, w, s)
			assert got == _outcome(reference_apply_aug_step, p, w, s)
			seen['sign error'] += got[1] == 'insertion sign must be 1 or -1, got %r' % (s.sign,)
			seen['inserted'] += got[0] == 'ok'
			seen['outside letter'] += got[0] == 'ok' and s.letter == 'z'
			seen['not fresh'] += 'not fresh' in str(got[1])
	assert min(seen.values()) >= 20, seen
	# the lift applies the augmented insertion before the plain one, so
	# its AugError comes first; elimination replays the input first
	for sign in (2, True, -1.0):
		d = Derivation((), [Step('inf', 0, letter='a', sign=sign)])
		message = 'insertion sign must be 1 or -1, got %r' % (sign,)
		assert _outcome(lift_derivation, RA2, d) == ('AugError', message)
		assert _outcome(eliminate_infinity, RA2, d) == \
			('StepError', 'step 0 inapplicable: ' + message)


def test_replay_counts(monkeypatch):
	'''Generation and elimination apply each step once where they can,
	counted by wrapping rewrite._apply (raag._apply_plain is the same
	function) and raag._apply.  Generation applies each shuffle step and
	each simulated step once: no whole-derivation replay, and no second
	application of a type 2 step.  The lift applies the augmented step
	only to insertions and to steps on words with marks, and the last
	stage is replayed only as plain steps.'''
	counts = {'plain': 0, 'aug': 0}

	def counted(name, apply):
		def wrapped(*args):
			counts[name] += 1
			return apply(*args)
		return wrapped
	plain = counted('plain', rewrite._apply)
	monkeypatch.setattr(rewrite, '_apply', plain)
	monkeypatch.setattr(raag, '_apply_plain', plain)
	monkeypatch.setattr(raag, '_apply', counted('aug', raag._apply))
	p = random_right_angled(random.Random(5), 5)
	w = random_trivial_word(p, random.Random(5), 420)
	d = generate_01inf_derivation(p, w)
	generated = dict(counts)
	counts.update(plain=0, aug=0)
	out = eliminate_infinity(p, d)
	# 246 shuffle steps and 284 generated ones; replaying everything, as
	# before, made 606 plain applications in generation, and 549 augmented
	# and 530 plain ones in elimination
	assert generated == {'plain': 303, 'aug': 0}
	assert counts == {'plain': 284 + 246, 'aug': 76}
	assert (len(raag_word_problem(p, w).steps), len(d.steps), len(out.steps)) == (246, 284, 246)


def _corrupted(p, d, rng, k):
	'''d with step k changed in one field: its kind, position, sign,
	relation or letter.  A changed relation index stays one that
	reference_lift can look up.'''
	s = d.steps[k]
	what = rng.choice(('kind', 'pos', 'sign', 'rel', 'letter'))
	if what == 'kind':
		s = dataclasses.replace(s, kind=rng.choice([x for x in ('0', '1', '2r', 'inf', 'x')
			if x != s.kind]), rel=rng.randrange(len(p.relations)), orient='fwd', lv=1, lvp=1,
			letter=s.letter or rng.choice(p.generators), sign=s.sign or rng.choice((1, -1)))
	elif what == 'pos':
		s = dataclasses.replace(s, pos=rng.choice((s.pos - 1, s.pos + 1, -1, 10**4, float(s.pos))))
	elif what == 'sign':
		s = dataclasses.replace(s, sign=rng.choice((-(s.sign or 1), 2, True, -1.0)))
	elif what == 'rel':
		s = dataclasses.replace(s, rel=rng.choice((-1, rng.randrange(len(p.relations)))),
			orient=rng.choice(('fwd', 'bwd', 'x')))
	else:
		s = dataclasses.replace(s, letter=rng.choice(p.generators + ('z',)))
	return Derivation(d.start, d.steps[:k] + [s] + d.steps[k + 1:]), what


def test_lift_error_order_matches_reference():
	'''Derivations corrupted at one step, before an insertion, at it,
	inside its open span (where the words carry marks) and after it: the
	lift, which passes steps of kind 0 and 1 on words without marks
	through, and elimination give the references' steps or errors.'''
	rng = random.Random(149)
	seen = dict.fromkeys(('before', 'insertion', 'inside', 'after', 'kind', 'pos',
		'sign', 'rel', 'letter', 'lift error', 'lift ok', 'elimination error'), 0)
	made = 0
	while made < 300:
		p = random_right_angled(rng, rng.randrange(2, 6))
		d = generate_01inf_derivation(p, random_trivial_word(p, rng, rng.randrange(6, 40)))
		if rng.random() < 0.3:
			d = _hoisted(p, d, rng) or d
		words = aug_derivation_words(p, lift_derivation(p, d))
		first = next((k for k, s in enumerate(d.steps) if s.kind == 'inf'), None)
		if first is None or not p.relations:
			continue
		where = rng.choice(('before', 'insertion', 'inside', 'after'))
		if where == 'insertion':
			ks = [k for k, s in enumerate(d.steps) if s.kind == 'inf']
		else:
			marked = [k for k, s in enumerate(d.steps)
				if s.kind != 'inf' and max_index(words[k]) > 0]
			ks = {'before': [k for k in range(first) if d.steps[k].kind != 'inf'],
				'inside': marked,
				'after': [k for k in range(first + 1, len(d.steps))
					if d.steps[k].kind != 'inf' and k not in marked]}[where]
		if not ks:
			continue
		bad, what = _corrupted(p, d, rng, rng.choice(ks))
		made += 1
		seen[where] += 1
		seen[what] += 1
		lifted = _outcome(lift_derivation, p, bad)
		assert lifted == _outcome(reference_lift, p, bad)
		seen['lift ok' if lifted[0] == 'ok' else 'lift error'] += 1
		got, want = _outcome(eliminate_infinity, p, bad), _outcome(reference_eliminate, p, bad)
		if got[0] == 'ok' and want[0] == 'ok':
			assert [s.to_json() for s in got[1].steps] == [s.to_json() for s in want[1].steps]
		else:
			assert got == want
		seen['elimination error'] += got[0] != 'ok'
	assert min(seen.values()) >= 20, seen


def test_nontrivial_shuffle_makes_no_step(monkeypatch):
	'''The shuffle decides on the string before it derives: a word that is
	not trivial makes no step and applies none, counted by wrapping
	raag._plain_step and raag._apply_plain, and every word still gets the
	reference's answer.  A third of the words are trivial words with one
	letter planted, so the shuffle cancels pairs before it finds none left.'''
	counts = {'step': 0, 'apply': 0}

	def counted(name, f):
		def wrapped(*args):
			counts[name] += 1
			return f(*args)
		return wrapped
	monkeypatch.setattr(raag, '_plain_step', counted('step', raag._plain_step))
	monkeypatch.setattr(raag, '_apply_plain', counted('apply', raag._apply_plain))
	rng = random.Random(151)
	seen = dict.fromkeys(('random', 'planted', 'trivial'), 0)
	for p in (RA3, RA5):
		for _ in range(150):
			kind = rng.choice(tuple(seen))
			if kind == 'random':
				w = random_word(p, rng, rng.randrange(1, 16))
			else:
				w = list(random_trivial_word(p, rng, rng.randrange(4, 40)))
				if kind == 'planted':
					w.insert(rng.randrange(len(w) + 1),
						(rng.choice(p.generators), rng.choice((1, -1))))
				w = tuple(w)
			counts.update(step=0, apply=0)
			got = raag_word_problem(p, w)
			want = reference_raag_word_problem(p, w)
			if want is None:
				assert got is None and counts == {'step': 0, 'apply': 0}
				seen[kind] += kind != 'trivial'
			else:
				assert [s.to_json() for s in got.steps] == [s.to_json() for s in want.steps]
				assert counts['step'] == counts['apply'] == len(got.steps)
				seen[kind] += kind == 'trivial'
	assert min(seen.values()) >= 60, seen
