''' The bundled worked examples: pinned derivations and certificates that
the CLI `paper-examples` subcommand replays.  Each check returns a dict
with a name, a pass flag, and a short detail string.
'''

from __future__ import annotations

from .core import parse_word, parse_positive, render_word, load_presentation, data_path
from .rewrite import Step, Derivation, check_derivation, derivation_words
from .search import is_dead
from .cayley import divisor_fragment, traced_from
from .raag import (lift_derivation, aug_derivation_words, eliminate_infinity,
	to_aug)


def load_bundled(name):
	return load_presentation(str(data_path(name)))


def _check(name, ok, detail=''):
	return {'name': name, 'ok': bool(ok), 'detail': detail}


def example_commuting_derivation():
	'''aBcAbC reaches the empty word over three pairwise-commuting
	generators using one type 2 step; relation order: ab, bc, ac.'''
	p = load_bundled('ra3.txt')
	w = parse_word('aBcAbC', p)
	d = Derivation(w, [
		Step('2l', 2, rel=2, orient='fwd', lv=1, lvp=1),  # cA -> Ac
		Step('1', 1, rel=0, orient='fwd', sign=-1),        # BA -> AB
		Step('0', 0, sign=1),                              # aA
		Step('1', 1, rel=1, orient='bwd', sign=1),         # cb -> bc
		Step('0', 0, sign=-1),                             # Bb
		Step('0', 0, sign=1),                              # cC
	])
	end = check_derivation(p, d)
	return _check('commuting-derivation', end == (),
		'aBcAbC ~>_{0,1,2} %s' % (render_word(end, p) or 'empty'))


def example_dead_word():
	'''ACdaBDcb represents 1 for the non-length-preserving presentation
	but admits no {0,1,2} step at all.'''
	p = load_bundled('fig2.txt')
	w = parse_word('ACdaBDcb', p)
	dead = is_dead(p, w, {'0', '1', '2r', '2l'})
	return _check('dead-word', dead, 'ACdaBDcb dead under {0,1,2}: %s' % dead)


def example_product_derivation():
	'''Over the product of two free groups the same word reaches the empty
	word with {0,1} steps, yet is dead under {0,2}.'''
	p = load_bundled('f2xf2.txt')
	w = parse_word('ACdaBDcb', p)
	d = Derivation(w, [
		Step('1', 0, rel=0, orient='bwd', sign=-1),  # AC -> CA
		Step('1', 2, rel=2, orient='bwd', sign=1),   # da -> ad
		Step('0', 1, sign=-1),                       # Aa
		Step('1', 2, rel=3, orient='bwd', sign=-1),  # BD -> DB
		Step('0', 1, sign=1),                        # dD
		Step('1', 2, rel=1, orient='bwd', sign=1),   # cb -> bc
		Step('0', 1, sign=-1),                       # Bb
		Step('0', 0, sign=-1),                       # Cc
	])
	end = check_derivation(p, d)
	dead02 = is_dead(p, w, {'0', '2r', '2l'})
	return _check('product-derivation', end == () and dead02,
		'derivation ends empty: %s; dead under {0,2}: %s' % (end == (), dead02))


def example_fragment_certificate():
	'''The twelve left-divisors of ababb form a 3-by-4 grid fragment;
	AbbabaB is traced from a, ababA is not, so the first word cannot be
	transformed into the second.'''
	p = load_bundled('i24.txt')
	g = parse_positive('ababb', p)
	f = divisor_fragment(p, g)
	from .monoid import canonical
	v = canonical(p, ('a',))
	grid = {canonical(p, parse_positive(t, p)) for t in
		('', 'a', 'ab', 'aba', 'b', 'ba', 'bab', 'abab',
		'bb', 'bba', 'bbab', 'ababb')}
	ok_w, _ = traced_from(f, v, parse_word('AbbabaB', p))
	ok_w2, _ = traced_from(f, v, parse_word('ababA', p))
	ok = f.vertices == frozenset(grid) and ok_w and not ok_w2
	return _check('fragment-certificate',
		ok, '%d vertices; w traced: %s; w\' traced: %s'
		% (len(f.vertices), ok_w, ok_w2))


def _insertion_derivation():
	p = load_bundled('ra3.txt')
	w = parse_word('aBcAbC', p)
	d = Derivation(w, [
		Step('inf', 2, letter='a', sign=-1),        # insert Aa
		Step('1', 1, rel=0, orient='fwd', sign=-1),  # BA -> AB
		Step('0', 0, sign=1),                        # aA
		Step('1', 1, rel=2, orient='fwd', sign=1),   # ac -> ca
		Step('0', 2, sign=1),                        # aA
		Step('1', 1, rel=1, orient='bwd', sign=1),   # cb -> bc
		Step('0', 0, sign=-1),                       # Bb
		Step('0', 0, sign=1),                        # cC
	])
	return p, d


def example_augmented_lift():
	'''Lifting the insertion derivation indexes the inserted pair with the
	fresh index 1 and relabels it away when the pair cancels.'''
	p, d = _insertion_derivation()
	if check_derivation(p, d) != ():
		return _check('augmented-lift', False, 'input derivation broken')
	ad = lift_derivation(p, d)
	words = aug_derivation_words(p, ad)
	a, b, c = 'abc'
	expected = [
		to_aug(parse_word('aBcAbC', p)),
		((a, 0, 1), (b, 0, -1), (a, 1, -1), (a, 1, 1), (c, 0, 1), (a, 0, -1), (b, 0, 1), (c, 0, -1)),
		((a, 0, 1), (a, 1, -1), (b, 0, -1), (a, 1, 1), (c, 0, 1), (a, 0, -1), (b, 0, 1), (c, 0, -1)),
		to_aug(parse_word('BacAbC', p)),
		to_aug(parse_word('BcaAbC', p)),
		to_aug(parse_word('BcbC', p)),
		to_aug(parse_word('BbcC', p)),
		to_aug(parse_word('cC', p)),
		(),
	]
	ok = words == expected
	return _check('augmented-lift', ok,
		'lifted row matches the displayed augmented words: %s' % ok)


def example_elimination():
	'''Projecting the lifted derivation collapses the insertion and its
	two follow-up steps into one type 2 step.'''
	p, d = _insertion_derivation()
	out = eliminate_infinity(p, d)
	words = derivation_words(p, out)
	expected_words = [parse_word(t, p) for t in
		('aBcAbC', 'BacAbC', 'BcaAbC', 'BcbC', 'BbcC', 'cC')] + [()]
	expected_kinds = ['2l', '1', '0', '1', '0', '0']
	ok = (words == expected_words
		and [s.kind for s in out.steps] == expected_kinds)
	return _check('elimination', ok,
		'projected row: %s' % ' -> '.join(render_word(w, p) or 'empty' for w in words))


ALL_EXAMPLES = (
	example_commuting_derivation,
	example_dead_word,
	example_product_derivation,
	example_fragment_certificate,
	example_augmented_lift,
	example_elimination,
)


def run_all():
	return [f() for f in ALL_EXAMPLES]
