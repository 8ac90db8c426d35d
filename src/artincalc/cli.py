''' Command-line front end.  Every subcommand loads a presentation file
(bundled names like fig2.txt resolve to the package data), parses words in
the uppercase-inverse convention, and emits either text or one-line JSON.

Exit codes: 64 usage error (a malformed step or derivation file, a step
that does not apply, and the right-angled preconditions of wp-raag and
eliminate-inf included), 66 file error, 70 broken internal invariant;
the search-style subcommands use 0 = found/true, 1 = not/false,
2 = exhausted.
'''

from __future__ import annotations

import dataclasses
import json
import os
import random
import sys

import click

from .core import (WordError, PresentationError, load_presentation, parse_word,
	parse_positive, render_word, validate as validate_p)
from .rewrite import (Step, Derivation, StepError, FormatError, applicable_steps,
	apply_step, derivation_words)
from .reversing import (ReversingError, right_reverse, left_reverse,
	right_fraction, word_problem_spherical)
from .monoid import (CapExceeded, equiv_class, left_divisors, right_lcm,
	is_S0_minimal, coset_head_spherical, canonical)
from .cayley import FragmentError, divisor_fragment, traced_from, to_dot
from .search import SearchLimits, bounded_derivation_search, is_dead, dehn_run
from .raag import (AugError, raag_word_problem, eliminate_infinity,
	generate_01inf_derivation, random_right_angled, random_trivial_word)
from . import examples


def _load(path):
	if not os.path.exists(path):
		bundled = examples.data_path(os.path.basename(path))
		if bundled.is_file():
			return load_presentation(str(bundled))
		raise FileNotFoundError('no such presentation file: %s' % path)
	return load_presentation(path)


def _derivation(p, path):
	'''Read and replay a derivation file, returning it and its end word:
	unreadable exits 66, malformed 64, and steps that do not replay 70.'''
	with open(path) as f:
		try:
			return Derivation.replay_json(json.load(f), p)
		except (UnicodeDecodeError, json.JSONDecodeError, FormatError) as e:
			raise click.UsageError('malformed derivation file %s: %s' % (path, e))


def _right_angled(p):
	if not p.right_angled:
		raise click.UsageError('the presentation is not right-angled')
	return p


def _word(text, p, parse=parse_word):
	try:
		return parse(text, p)
	except WordError as e:
		raise click.UsageError(str(e))


def _kinds(text):
	out = set()
	for tok in text.split(','):
		tok = tok.strip()
		if tok == '2':
			out |= {'2r', '2l'}
		elif tok in ('0', '1', '2r', '2l', 'inf'):
			out.add(tok)
		elif tok:
			raise click.UsageError('unknown step kind %r' % tok)
	return out


def _fmt(w, p):
	return render_word(w, p) or 'e'


def _pfmt(u):
	return ''.join(u) or 'e'


def _emit(obj):
	click.echo(json.dumps(obj, sort_keys=True))


_popt = click.option('-p', '--presentation', 'ppath', required=True,
	help='presentation file (bundled names like i24.txt also work)')
_jopt = click.option('--json', 'as_json', is_flag=True, help='JSON output')


@click.group()
def cli():
	'''Special-transformation calculus on positive group presentations.'''


@cli.command()
@_popt
@_jopt
def validate(ppath, as_json):
	'''Check a presentation file and report its computed flags.'''
	p = _load(ppath)
	rep = validate_p(p)
	if as_json:
		_emit(rep)
	else:
		for k in ('valid', 'right_angled', 'length_preserving'):
			click.echo('%s: %s' % (k, rep[k]))
		for e in rep['errors']:
			click.echo('error: %s' % e)
	sys.exit(0 if rep['valid'] else 1)


@cli.command()
@_popt
@click.option('-w', '--word', required=True)
@click.option('--kinds', default='0,1,2', show_default=True)
@_jopt
def steps(ppath, word, kinds, as_json):
	'''List every applicable step of the requested kinds.'''
	p = _load(ppath)
	ks = _kinds(kinds)
	if 'inf' in ks:
		raise click.UsageError('kind inf is an infinite family; use search')
	w = _word(word, p)
	found = applicable_steps(p, w, ks)
	if as_json:
		_emit([s.to_json() for s in found])
	else:
		for s in found:
			click.echo('%s -> %s' % (s.to_json(), _fmt(apply_step(p, w, s), p)))
		click.echo('%d applicable step(s)' % len(found))


@cli.command()
@_popt
@click.option('-w', '--word', required=True)
@click.option('--step', 'step_json', required=True, help='step as JSON')
@_jopt
def apply(ppath, word, step_json, as_json):
	'''Apply one step (given as JSON) to a word.'''
	p = _load(ppath)
	w = _word(word, p)
	try:
		out = apply_step(p, w, Step.from_json(json.loads(step_json)))
	except (ValueError, KeyError) as e:  # StepError included
		raise click.UsageError('bad step: %s' % e)
	_emit({'word': render_word(out, p)}) if as_json else click.echo(_fmt(out, p))


@cli.command()
@_popt
@click.option('--in', 'inpath', required=True, type=click.Path())
@_jopt
def replay(ppath, inpath, as_json):
	'''Replay a derivation trace file and print the final word.'''
	p = _load(ppath)
	d, end = _derivation(p, inpath)
	blob = d.to_json(p, end)
	if as_json:
		_emit(blob)
	else:
		click.echo('%d step(s): %s -> %s'
			% (len(d.steps), _fmt(d.start, p), blob['end'] or 'e'))


@cli.command()
@_popt
@click.option('-w', '--word', required=True)
@click.option('--side', type=click.Choice(['right', 'left']), default='right',
	show_default=True)
@_jopt
def reverse(ppath, word, side, as_json):
	'''Subword-reverse a word to positive-negative (or negative-positive) form.'''
	p = _load(ppath)
	w = _word(word, p)
	res = right_reverse(p, w) if side == 'right' else left_reverse(p, w)
	if as_json:
		_emit({'word': render_word(res.word, p), 'converged': res.converged,
			'blocked': res.blocked, 'trace': res.trace.to_json(p)})
	else:
		click.echo(_fmt(res.word, p))
		if res.blocked:
			click.echo('blocked: no relation applies')
	sys.exit(0 if res.converged else 1)


@cli.command()
@_popt
@click.option('-w', '--word', required=True)
@_jopt
def fraction(ppath, word, as_json):
	'''Right fraction n d^-1 of a word, via left then right reversing.'''
	p = _load(ppath)
	w = _word(word, p)
	f = right_fraction(p, w)
	if as_json:
		_emit({'numerator': _pfmt(f.numerator), 'denominator': _pfmt(f.denominator),
			'trace': f.trace.to_json(p)})
	else:
		click.echo('numerator: %s' % _pfmt(f.numerator))
		click.echo('denominator: %s' % _pfmt(f.denominator))


@cli.command('wp-spherical')
@_popt
@click.option('-w', '--word', required=True)
@_jopt
def wp_spherical(ppath, word, as_json):
	'''Spherical word problem: does the word represent 1?  (Invoking this
	asserts the presentation is of spherical type.)'''
	p = dataclasses.replace(_load(ppath), declared_spherical=True)
	w = _word(word, p)
	trivial, trace = word_problem_spherical(p, w)
	if as_json:
		_emit({'trivial': trivial, 'trace': trace.to_json(p)})
	else:
		click.echo(str(trivial).lower())
	sys.exit(0 if trivial else 1)


@cli.command('wp-raag')
@_popt
@click.option('-w', '--word', required=True)
@_jopt
def wp_raag(ppath, word, as_json):
	'''Right-angled word problem; on success prints a {0,1,2} derivation.'''
	p = _right_angled(_load(ppath))
	w = _word(word, p)
	d = raag_word_problem(p, w)
	if as_json:
		_emit({'trivial': d is not None,
			'trace': d.to_json(p, ()) if d is not None else None})
	else:
		click.echo('trivial' if d is not None
			else 'not trivial (no cancellable pair)')
	sys.exit(0 if d is not None else 1)


@cli.command('eliminate-inf')
@_popt
@click.option('--in', 'inpath', required=True, type=click.Path())
@click.option('--out', 'outpath', required=True, type=click.Path())
def eliminate_inf(ppath, inpath, outpath):
	'''Rewrite a {0,1,inf} trace to ε into an insertion-free {0,1,2} trace.'''
	p = _right_angled(_load(ppath))
	d, end = _derivation(p, inpath)
	if end != () or any(s.kind in ('2r', '2l') for s in d.steps):
		raise click.UsageError('not a {0,1,inf} derivation to the empty word: ' + inpath)
	out = eliminate_infinity(p, d)
	with open(outpath, 'w') as f:
		json.dump(out.to_json(p, ()), f, sort_keys=True)
		f.write('\n')
	click.echo('%d step(s) -> %d step(s), no insertions'
		% (len(d.steps), len(out.steps)))


@cli.command('fuzz-raag')
@click.option('--gens', default=4, show_default=True)
@click.option('--seed', default=0, show_default=True)
@click.option('--count', default=20, show_default=True)
@_jopt
def fuzz_raag(gens, seed, count, as_json):
	'''Random elimination round-trips on right-angled presentations.'''
	rng = random.Random(seed)
	failures = []
	for i in range(count):
		p = random_right_angled(rng, gens)
		w = random_trivial_word(p, rng, 12)
		try:
			# validation replays the result and rejects surviving insertions
			eliminate_infinity(p, generate_01inf_derivation(p, w), validate=True)
		except (AugError, StepError) as e:
			failures.append({'case': i, 'word': render_word(w, p), 'error': str(e)})
	report = {'count': count, 'failures': failures}
	if as_json:
		_emit(report)
	else:
		click.echo('%d/%d round-trips ok' % (count - len(failures), count))
		for f in failures:
			click.echo('FAIL case %(case)d word %(word)s: %(error)s' % f)
	sys.exit(0 if not failures else 1)


@cli.command('class')
@_popt
@click.option('-w', '--word', required=True, help='positive word')
@_jopt
def class_(ppath, word, as_json):
	'''Equivalence class of a positive word under the relations.'''
	p = _load(ppath)
	u = _word(word, p, parse_positive)
	members = sorted(equiv_class(p, u))
	if as_json:
		_emit({'canonical': _pfmt(members[0]), 'members': [_pfmt(m) for m in members]})
	else:
		for m in members:
			click.echo(_pfmt(m))


@cli.command()
@_popt
@click.option('-g', '--element', required=True, help='positive word')
@_jopt
def divisors(ppath, element, as_json):
	'''Left divisors of a positive word, as canonical representatives.'''
	p = _load(ppath)
	g = _word(element, p, parse_positive)
	divs = sorted(left_divisors(p, g))
	if as_json:
		_emit([_pfmt(d) for d in divs])
	else:
		for d in divs:
			click.echo(_pfmt(d))
		click.echo('%d divisor(s)' % len(divs))


@cli.command()
@_popt
@click.option('-u', required=True, help='positive word')
@click.option('-v', required=True, help='positive word')
@_jopt
def lcm(ppath, u, v, as_json):
	'''Right lcm of two positive words, computed by reversing.  (Invoking
	this asserts the presentation is of spherical type.)'''
	p = dataclasses.replace(_load(ppath), declared_spherical=True)
	m = right_lcm(p, _word(u, p, parse_positive), _word(v, p, parse_positive))
	_emit({'lcm': _pfmt(m)}) if as_json else click.echo(_pfmt(m))


@cli.command()
@_popt
@click.option('-g', '--element', required=True, help='positive word')
@click.option('--s0', required=True, help='comma-separated generators')
@_jopt
def minimal(ppath, element, s0, as_json):
	'''Is the element S0-minimal (no nontrivial right divisor over S0)?'''
	p = _load(ppath)
	g = _word(element, p, parse_positive)
	sub = _subset(p, s0)
	ans = is_S0_minimal(p, g, sub)
	_emit({'minimal': ans}) if as_json else click.echo(str(ans).lower())
	sys.exit(0 if ans else 1)


def _subset(p, s0):
	sub = {s.strip() for s in s0.split(',') if s.strip()}
	bad = sub - set(p.generators)
	if bad:
		raise click.UsageError('unknown generator(s) %s' % ', '.join(sorted(bad)))
	return sub


@cli.command('coset-head')
@_popt
@click.option('-w', '--word', required=True)
@click.option('--s0', required=True, help='comma-separated generators')
@_jopt
def coset_head(ppath, word, s0, as_json):
	'''Split a word as (S0-minimal head) * (word over S0) with a trace.
	(Invoking this asserts the presentation is of spherical type.)'''
	p = dataclasses.replace(_load(ppath), declared_spherical=True)
	w = _word(word, p)
	sub = _subset(p, s0)
	v, u, trace = coset_head_spherical(p, w, sub)
	if as_json:
		_emit({'head': render_word(v, p), 'tail': render_word(u, p),
			'trace': trace.to_json(p)})
	else:
		click.echo('head: %s' % _fmt(v, p))
		click.echo('tail: %s' % _fmt(u, p))


@cli.command('cayley-trace')
@_popt
@click.option('-g', '--element', required=True, help='positive word')
@click.option('-v', '--vertex', required=True, help='positive word')
@click.option('-w', '--word', default=None)
@click.option('--dot', 'as_dot', is_flag=True, help='emit the fragment as a graph')
@_jopt
def cayley_trace(ppath, element, vertex, word, as_dot, as_json):
	'''Trace a word inside the left-divisor fragment of an element.'''
	p = _load(ppath)
	f = divisor_fragment(p, _word(element, p, parse_positive))
	if as_dot:
		click.echo(to_dot(f, p))
		return
	if word is None:
		raise click.UsageError('-w required unless --dot is given')
	v = canonical(p, _word(vertex, p, parse_positive))
	traced, info = traced_from(f, v, _word(word, p))
	if as_json:
		_emit({'traced': traced, 'vertices': len(f.vertices),
			'path': [_pfmt(x) for x in info] if traced else None,
			'failed_at': None if traced else info})
	elif traced:
		click.echo('traced: ' + ' -> '.join(_pfmt(x) for x in info))
	else:
		click.echo('not traced (fails at letter %d)' % info)
	sys.exit(0 if traced else 1)


@cli.command()
@_popt
@click.option('-w', '--word', required=True)
@click.option('--target', default='', show_default=True)
@click.option('--kinds', default='0,1,2', show_default=True)
@click.option('--max-steps', default=20, show_default=True)
@click.option('--max-len', default=24, show_default=True)
@click.option('--max-ins', default=4, show_default=True)
@click.option('--max-visited', default=SearchLimits.max_visited, show_default=True,
	type=click.IntRange(0), help='nodes expanded before giving up')
@_jopt
def search(ppath, word, target, kinds, max_steps, max_len, max_ins, max_visited, as_json):
	'''Bounded breadth-first derivation search from a word to a target.'''
	p = _load(ppath)
	w = _word(word, p)
	t = _word(target, p)
	limits = SearchLimits(max_steps=max_steps, max_word_length=max_len,
		max_insertions=max_ins, max_visited=max_visited)
	out = bounded_derivation_search(p, w, t, _kinds(kinds), limits)
	if as_json:
		_emit({'result': out.result, 'visited': out.visited,
			'conclusive': out.conclusive,
			'trace': out.derivation.to_json(p, t) if out.derivation else None})
	else:
		click.echo('%s (visited %d, conclusive: %s)'
			% (out.result, out.visited, out.conclusive))
		if out.derivation:
			words = derivation_words(p, out.derivation)
			for s, cur in zip(out.derivation.steps, words[1:]):
				click.echo('  %s  %s' % (s.kind.ljust(2), _fmt(cur, p)))
	sys.exit({'found': 0, 'dead': 1, 'exhausted': 2}[out.result])


@cli.command()
@_popt
@click.option('-w', '--word', required=True)
@click.option('--kinds', default='0,1,2', show_default=True)
@_jopt
def dead(ppath, word, kinds, as_json):
	'''Is the word eligible for no step at all of the given kinds?'''
	p = _load(ppath)
	w = _word(word, p)
	ans = is_dead(p, w, _kinds(kinds))
	_emit({'dead': ans}) if as_json else click.echo(str(ans).lower())
	sys.exit(0 if ans else 1)


@cli.command()
@_popt
@click.option('-w', '--word', required=True)
@_jopt
def dehn(ppath, word, as_json):
	'''Greedy run of free reduction and length-decreasing factor
	replacements; exit 0 iff the empty word is reached.'''
	p = _load(ppath)
	w = _word(word, p)
	end, trace = dehn_run(p, w)
	if as_json:
		_emit({'end': render_word(end, p), 'steps': len(trace)})
	else:
		click.echo('%s (%d step(s))' % (_fmt(end, p), len(trace)))
	sys.exit(0 if end == () else 1)


@cli.command('paper-examples')
@_jopt
def paper_examples(as_json):
	'''Replay the bundled worked examples and report pass/fail each.'''
	results = examples.run_all()
	if as_json:
		_emit(results)
	else:
		for r in results:
			click.echo('%s %s - %s'
				% ('PASS' if r['ok'] else 'FAIL', r['name'], r['detail']))
	sys.exit(0 if all(r['ok'] for r in results) else 1)


def main(argv=None):
	try:
		cli.main(args=argv, standalone_mode=False)
	except click.exceptions.Exit as e:
		sys.exit(e.exit_code)
	except click.UsageError as e:
		click.echo('usage error: %s' % e.format_message(), err=True)
		sys.exit(64)
	except click.ClickException as e:
		e.show()
		sys.exit(64)
	except click.Abort:
		sys.exit(64)
	except OSError as e:
		click.echo('file error: %s' % e, err=True)
		sys.exit(66)
	except (WordError, PresentationError) as e:
		click.echo('input error: %s' % e, err=True)
		sys.exit(64)
	except (StepError, ReversingError, AugError, FragmentError, CapExceeded) as e:
		click.echo('internal error: %s' % e, err=True)
		sys.exit(70)


if __name__ == '__main__':
	main()
