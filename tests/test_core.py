import pytest
from hypothesis import given, strategies as st

from artincalc import (Presentation, CoxeterMatrix, artin_presentation,
	parse_word, render_word, parse_positive, invert, free_reduce, validate,
	parse_presentation_text)
from artincalc.core import (WordError, PresentationError, alternating,
	positive_to_word, word_to_positive, is_positive)

from artincalc import Step, apply_step, right_reverse, raag_word_problem

from helpers import A2, I24, RA2, RA3, FIG2, FREE2

letters = st.tuples(st.sampled_from('ab'), st.sampled_from((1, -1)))
words = st.lists(letters, max_size=20).map(tuple)


def test_parse_basic():
	assert parse_word('aB', A2) == (('a', 1), ('b', -1))
	assert parse_word('', A2) == ()
	assert parse_word('e', A2) == ()
	w = parse_word('aBcAbC', RA3)
	assert len(w) == 6
	assert [e for _, e in w] == [1, -1, 1, -1, 1, -1]


def test_parse_unknown_generator():
	with pytest.raises(WordError):
		parse_word('ax', A2)


def test_letter_sign_must_be_one_or_minus_one():
	# a hand-built letter with sign 2 is no letter: every entry point that
	# encodes the word says so, rather than reading a sign from its code
	w = (('a', 2), ('a', -2))
	for call in (lambda: apply_step(RA2, w, Step('0', 0, sign=2)),
			lambda: right_reverse(RA2, w), lambda: raag_word_problem(RA2, w)):
		with pytest.raises(WordError, match='sign must be 1 or -1'):
			call()


def test_parse_multichar_tokens():
	p = Presentation(('s1', 's2'), ())
	w = parse_word('s1 s2^-1 s1^-1', p)
	assert w == (('s1', 1), ('s2', -1), ('s1', -1))
	assert render_word(w, p) == 's1 s2^-1 s1^-1'


@given(words)
def test_parse_render_round_trip(w):
	assert parse_word(render_word(w, A2), A2) == w


@given(words)
def test_invert_involution(w):
	assert invert(invert(w)) == w


@given(words, words)
def test_invert_antihomomorphism(u, v):
	assert invert(u + v) == invert(v) + invert(u)


def test_invert_example():
	assert render_word(invert(parse_word('aB', A2)), A2) == 'bA'


@given(words)
def test_free_reduce_idempotent(w):
	r = free_reduce(w)
	assert free_reduce(r) == r
	assert not any(r[i][0] == r[i + 1][0] and r[i][1] == -r[i + 1][1]
		for i in range(len(r) - 1))


@given(words)
def test_free_reduce_kills_inverse_pairs(w):
	assert free_reduce(w + invert(w)) == ()


def test_free_reduce_examples():
	assert free_reduce(parse_word('aA', A2)) == ()
	assert free_reduce(parse_word('aBbA', A2)) == ()
	w = parse_word('aBa', A2)
	assert free_reduce(w) == w


def test_positive_word_helpers():
	assert positive_to_word(('a', 'b')) == (('a', 1), ('b', 1))
	assert word_to_positive(positive_to_word(('a', 'b'))) == ('a', 'b')
	assert is_positive(parse_word('ab', A2))
	assert not is_positive(parse_word('aB', A2))
	with pytest.raises(WordError):
		word_to_positive(parse_word('aB', A2))
	assert parse_positive('ab', A2) == ('a', 'b')


def test_presentation_flags():
	assert not A2.right_angled and A2.length_preserving
	assert I24.length_preserving
	assert RA3.right_angled and RA3.length_preserving
	assert not FIG2.length_preserving and not FIG2.right_angled
	assert FREE2.right_angled  # vacuously: no relation is a non-commutation


def test_commutes():
	assert RA3.commutes('a', 'b') and RA3.commutes('c', 'a')
	assert not A2.commutes('a', 'b')


def test_validate_report():
	rep = validate(RA3)
	assert rep == {'valid': True, 'errors': [], 'right_angled': True,
		'length_preserving': True}
	assert validate(A2)['right_angled'] is False
	assert validate(FIG2)['length_preserving'] is False


def test_validate_rejections():
	with pytest.raises(PresentationError):
		Presentation(('a', 'a'), ())
	with pytest.raises(PresentationError):
		Presentation(('a',), ((('a',), ()),))
	with pytest.raises(PresentationError):
		Presentation(('a',), ((('a',), ('b',)),))


def test_alternating():
	assert alternating('a', 'b', 3) == ('a', 'b', 'a')
	assert alternating('b', 'a', 4) == ('b', 'a', 'b', 'a')


@pytest.mark.parametrize('m,expected', [
	(2, ('a', 'b')), (3, ('a', 'b', 'a')), (4, ('a', 'b', 'a', 'b'))])
def test_artin_presentation(m, expected):
	cm = CoxeterMatrix(('a', 'b'), {('a', 'b'): m})
	p = artin_presentation(cm)
	assert p.relations == ((expected, alternating('b', 'a', m)),)


def test_artin_presentation_infinite_entry():
	cm = CoxeterMatrix(('a', 'b', 'c'), {('a', 'b'): 3, ('b', 'c'): None})
	p = artin_presentation(cm)
	# a-b contributes one relation, b-c none, a-c unspecified -> none
	assert len(p.relations) == 1


def test_coxeter_matrix_rejections():
	cm = CoxeterMatrix(('a', 'b'))
	with pytest.raises(PresentationError):
		cm.set('a', 'a', 3)
	with pytest.raises(PresentationError):
		cm.set('a', 'x', 3)
	with pytest.raises(PresentationError):
		cm.set('a', 'b', 1)


def test_parse_presentation_text():
	p = parse_presentation_text(
		'# comment\ngens: a b c\nrel: ab = ba\ncoxeter:\n  b c 3\n  a c inf\n')
	assert p.generators == ('a', 'b', 'c')
	assert (('a', 'b'), ('b', 'a')) in p.relations
	assert ((('b', 'c', 'b'), ('c', 'b', 'c'))) in p.relations
	assert len(p.relations) == 2  # the inf entry contributes nothing


def test_parse_presentation_errors():
	with pytest.raises(PresentationError):
		parse_presentation_text('rel: ab = ba\n')
	with pytest.raises(PresentationError):
		parse_presentation_text('gens: a b\nrel: abba\n')
	with pytest.raises(PresentationError):
		parse_presentation_text('gens: a b\nwhat is this\n')
