''' Command-line front end.  Every subcommand loads a presentation file
(bundled names like fig2.txt resolve to the package data), parses words in
the uppercase-inverse convention, and emits either text or one-line JSON.

Exit codes: 64 usage error (a malformed step or derivation file, a step
that does not apply, a negative search limit and the right-angled
preconditions of wp-raag and eliminate-inf included, and every
core.InputError the library raises), 66 file error, 70
broken internal invariant; the search-style subcommands use 0 = found/true,
1 = not/false, 2 = exhausted, and a reached cap (an equivalence class past
100,000 members, or 100,000 letters per letter of the word) exits 2 with
nothing on stdout.
'''

import dataclasses
import json
import random
import sys

import click

from .core import (InputError, WordError, load_presentation, parse_word,
	parse_positive, positive_to_word, render_word, validate as validate_p)
from .rewrite import (Step, Derivation, StepError, FormatError, applicable_steps,
	apply_step, derivation_words)
from .reversing import (ReversingError, BudgetReached, right_reverse, left_reverse,
	right_fraction, _spherical_fraction)
from .monoid import (CapExceeded, equiv_class, left_divisors, right_lcm,
	is_S0_minimal, coset_head_spherical, canonical)
from .cayley import FragmentError, divisor_fragment, traced_from, to_dot
from .search import SearchLimits, bounded_derivation_search, is_dead, dehn_run
from .raag import (AugError, raag_word_problem, eliminate_infinity,
	generate_01inf_derivation, random_right_angled, random_trivial_word)
from . import examples


def _derivation(p, path):
	'''Read and replay a derivation file, returning it and its end word:
	unreadable exits 66, and malformed or not replaying 64.'''
	with open(path) as f:
		try:
			return Derivation.replay_json(json.load(f), p)
		except (UnicodeDecodeError, json.JSONDecodeError, FormatError) as e:
			raise click.UsageError('malformed derivation file %s: %s' % (path, e))
		except StepError as e:
			raise click.UsageError('derivation file %s does not replay: %s' % (path, e))


# Option parsers: each takes the option's text and the presentation.
def _parse(parser, text, p):
	try:
		return parser(text, p)
	except WordError as e:
		raise click.UsageError(str(e))


def _kinds(text, p):
	out = set()
	for tok in filter(None, (t.strip() for t in text.split(','))):
		if tok not in ('0', '1', '2', '2r', '2l', 'inf'):
			raise click.UsageError('unknown step kind %r' % tok)
		out |= {'2r', '2l'} if tok == '2' else {tok}
	return out


def _finite_kinds(text, p):
	out = _kinds(text, p)
	if 'inf' in out:
		raise click.UsageError('kind inf is an infinite family; use search')
	return out


def _subset(text, p):
	sub = {s.strip() for s in text.split(',') if s.strip()}
	bad = sub - set(p.generators)
	if bad:
		raise click.UsageError('unknown generator(s) %s' % ', '.join(sorted(bad)))
	return sub


def _fmt(w, p):
	'''w as parse_word reads it back: the empty word is "e", or blank
	where a generator is named e.'''
	return render_word(w, p) or ('' if 'e' in p.generators else 'e')


def _pfmt(u, p):
	return _fmt(positive_to_word(u), p)


@click.group()
def cli():
	'''Special-transformation calculus on positive group presentations.'''


def _command(name, load=True, json_out=True, spherical=False, right_angled=False, **parse):
	'''Register the body as subcommand name, with -p first and --json last.
	It loads p (declared spherical, or checked right-angled, on request),
	parses the options named in parse by their parsers, in that order, and
	calls the body with p and the options.  The body returns (JSON object,
	text, exit code), either of the first two maybe a function called only
	in its mode, or None when it printed its own output.'''
	def wrap(body):
		def run(ppath=None, as_json=False, **kw):
			if load:
				p = load_presentation(ppath)
				if spherical:
					p = dataclasses.replace(p, declared_spherical=True)
				if right_angled and not p.right_angled:
					raise click.UsageError('the presentation is not right-angled')
				kw.update({key: _parse(parser, kw[key], p) for key, parser in parse.items()
					if kw[key] is not None}, p=p)
			res = body(**kw)
			if res is None:
				return
			out = res[0] if as_json else res[1]
			out = out() if callable(out) else out
			click.echo(json.dumps(out, sort_keys=True) if as_json else out)
			sys.exit(res[2])

		params = [click.Option(['-p', '--presentation', 'ppath'], required=True,
			help='presentation file (bundled names like i24.txt also work)')] * load
		params += getattr(body, '__click_params__', [])[::-1]
		params += [click.Option(['--json', 'as_json'], is_flag=True, help='JSON output')] * json_out
		return cli.command(name, help=body.__doc__, params=params)(run)
	return wrap


@_command('validate')
def validate(p):
	'''Check a presentation file and report its computed flags.'''
	# loading already raised on every fault the report could name
	rep = validate_p(p)
	return rep, '\n'.join('%s: %s' % (k, rep[k])
		for k in ('valid', 'right_angled', 'length_preserving')), 0


@_command('steps', kinds=_finite_kinds, word=parse_word)
@click.option('-w', '--word', required=True)
@click.option('--kinds', default='0,1,2', show_default=True)
def steps(p, word, kinds):
	'''List every applicable step of the requested kinds.'''
	found = applicable_steps(p, word, kinds)
	return [s.to_json() for s in found], lambda: '\n'.join(['%s -> %s' % (s.to_json(),
		_fmt(apply_step(p, word, s), p)) for s in found]
		+ ['%d applicable step(s)' % len(found)]), 0


@_command('apply', word=parse_word)
@click.option('-w', '--word', required=True)
@click.option('--step', 'step_json', required=True, help='step as JSON')
def apply(p, word, step_json):
	'''Apply one step (given as JSON) to a word.'''
	try:
		out = apply_step(p, word, Step.from_json(json.loads(step_json)))
	except (ValueError, KeyError) as e:  # StepError included
		raise click.UsageError('bad step: %s' % e)
	return {'word': render_word(out, p)}, _fmt(out, p), 0


@_command('replay')
@click.option('--in', 'inpath', required=True, type=click.Path())
def replay(p, inpath):
	'''Replay a derivation trace file and print the final word.'''
	d, end = _derivation(p, inpath)
	return d.to_json(p, end), '%d step(s): %s -> %s' % (len(d.steps), _fmt(d.start, p),
		_fmt(end, p)), 0


@_command('reverse', word=parse_word)
@click.option('-w', '--word', required=True)
@click.option('--side', type=click.Choice(['right', 'left']), default='right',
	show_default=True)
def reverse(p, word, side):
	'''Subword-reverse a word to positive-negative (or negative-positive) form.'''
	res = right_reverse(p, word) if side == 'right' else left_reverse(p, word)
	text = _fmt(res.word, p) + ('\nblocked: no relation applies' if res.blocked else '')
	return {'word': render_word(res.word, p), 'converged': res.converged,
		'blocked': res.blocked, 'trace': res.trace.to_json(p, res.word)}, \
		text, 0 if res.converged else 1


@_command('fraction', word=parse_word)
@click.option('-w', '--word', required=True)
def fraction(p, word):
	'''Right fraction n d^-1 of a word, via left then right reversing.'''
	f = right_fraction(p, word)
	num, den = _pfmt(f.numerator, p), _pfmt(f.denominator, p)
	return {'numerator': num, 'denominator': den, 'trace': f.trace.to_json(p, f.end)}, \
		'numerator: %s\ndenominator: %s' % (num, den), 0


@_command('wp-spherical', spherical=True, word=parse_word)
@click.option('-w', '--word', required=True)
def wp_spherical(p, word):
	'''Spherical word problem: does the word represent 1?  (Invoking this
	asserts the presentation is of spherical type.)'''
	# the trace ends at the fraction n d^-1, so it is not replayed
	trivial, f = _spherical_fraction(p, word)
	return lambda: {'trivial': trivial, 'trace': f.trace.to_json(p, f.end)}, \
		str(trivial).lower(), 0 if trivial else 1


@_command('wp-raag', right_angled=True, word=parse_word)
@click.option('-w', '--word', required=True)
def wp_raag(p, word):
	'''Right-angled word problem; on success prints a {0,1,2} derivation.'''
	d = raag_word_problem(p, word)
	text = 'trivial' if d else 'not trivial (no cancellable pair)'
	return {'trivial': d is not None, 'trace': d and d.to_json(p, ())}, text, 0 if d else 1


@_command('eliminate-inf', json_out=False, right_angled=True)
@click.option('--in', 'inpath', required=True, type=click.Path())
@click.option('--out', 'outpath', required=True, type=click.Path())
def eliminate_inf(p, inpath, outpath):
	'''Rewrite a {0,1,inf} trace to ε into an insertion-free {0,1,2} trace.'''
	d, end = _derivation(p, inpath)
	if end != () or any(s.kind in ('2r', '2l') for s in d.steps):
		raise click.UsageError('not a {0,1,inf} derivation to the empty word: ' + inpath)
	out = eliminate_infinity(p, d)
	with open(outpath, 'w') as f:
		f.write(json.dumps(out.to_json(p, ()), sort_keys=True) + '\n')
	return None, '%d step(s) -> %d step(s), no insertions' % (len(d.steps),
		len(out.steps)), 0


@_command('fuzz-raag', load=False)
@click.option('--gens', default=4, show_default=True, type=click.IntRange(1, 8))
@click.option('--seed', default=0, show_default=True)
@click.option('--count', default=20, show_default=True, type=click.IntRange(min=0))
def fuzz_raag(gens, seed, count):
	'''Random elimination round-trips on right-angled presentations.'''
	rng = random.Random(seed)
	failures = []
	for i in range(count):
		p = random_right_angled(rng, gens)
		w = random_trivial_word(p, rng, 12)
		try:
			# validation replays the result and rejects surviving insertions
			eliminate_infinity(p, generate_01inf_derivation(p, w))
		except (AugError, StepError) as e:
			failures.append({'case': i, 'word': render_word(w, p), 'error': str(e)})
	text = ['%d/%d round-trips ok' % (count - len(failures), count)]
	text += ['FAIL case %(case)d word %(word)s: %(error)s' % f for f in failures]
	return {'count': count, 'failures': failures}, '\n'.join(text), 0 if not failures else 1


@_command('class', word=parse_positive)
@click.option('-w', '--word', required=True, help='positive word')
def class_(p, word):
	'''Equivalence class of a positive word under the relations.'''
	members = [_pfmt(m, p) for m in sorted(equiv_class(p, word))]
	return {'canonical': _pfmt(canonical(p, word), p), 'members': members}, '\n'.join(members), 0


@_command('divisors', element=parse_positive)
@click.option('-g', '--element', required=True, help='positive word')
def divisors(p, element):
	'''Left divisors of a positive word, as canonical representatives.'''
	divs = [_pfmt(d, p) for d in sorted(left_divisors(p, element))]
	return divs, '\n'.join(divs + ['%d divisor(s)' % len(divs)]), 0


@_command('lcm', u=parse_positive, v=parse_positive)
@click.option('-u', required=True, help='positive word')
@click.option('-v', required=True, help='positive word')
def lcm(p, u, v):
	'''Right lcm of two positive words, computed by reversing.  (Invoking
	this asserts the presentation is of spherical type.)'''
	m = _pfmt(right_lcm(p, u, v), p)
	return {'lcm': m}, m, 0


@_command('minimal', element=parse_positive, s0=_subset)
@click.option('-g', '--element', required=True, help='positive word')
@click.option('--s0', required=True, help='comma-separated generators')
def minimal(p, element, s0):
	'''Is the element S0-minimal (no nontrivial right divisor over S0)?'''
	ans = is_S0_minimal(p, element, s0)
	return {'minimal': ans}, str(ans).lower(), 0 if ans else 1


@_command('coset-head', spherical=True, word=parse_word, s0=_subset)
@click.option('-w', '--word', required=True)
@click.option('--s0', required=True, help='comma-separated generators')
def coset_head(p, word, s0):
	'''Split a word as (S0-minimal head) * (word over S0) with a trace.
	(Invoking this asserts the presentation is of spherical type.)'''
	v, u, trace = coset_head_spherical(p, word, s0)
	# to_json replays the trace: the one check of its spliced reversing steps
	return lambda: {'head': render_word(v, p), 'tail': render_word(u, p),
		'trace': trace.to_json(p)}, 'head: %s\ntail: %s' % (_fmt(v, p), _fmt(u, p)), 0


@_command('cayley-trace', element=parse_positive)
@click.option('-g', '--element', required=True, help='positive word')
@click.option('-v', '--vertex', required=True, help='positive word')
@click.option('-w', '--word', default=None)
@click.option('--dot', 'as_dot', is_flag=True, help='emit the fragment as a graph')
def cayley_trace(p, element, vertex, word, as_dot):
	'''Trace a word inside the left-divisor fragment of an element.'''
	f = divisor_fragment(p, element)
	if as_dot:
		click.echo(to_dot(f, p))
		return
	if word is None:
		raise click.UsageError('-w required unless --dot is given')
	v = canonical(p, _parse(parse_positive, vertex, p))
	if v not in f.vertices:
		raise click.UsageError('vertex %s is not a left divisor of %s'
			% (vertex, _pfmt(element, p)))
	traced, info = traced_from(f, v, _parse(parse_word, word, p))
	path = [_pfmt(x, p) for x in info] if traced else None
	text = 'traced: ' + ' -> '.join(path) if traced else 'not traced (fails at letter %d)' % info
	return {'traced': traced, 'vertices': len(f.vertices), 'path': path,
		'failed_at': None if traced else info}, text, 0 if traced else 1


@_command('search', word=parse_word, target=parse_word, kinds=_kinds)
@click.option('-w', '--word', required=True)
@click.option('--target', default='', show_default=True)
@click.option('--kinds', default='0,1,2', show_default=True)
@click.option('--max-steps', default=SearchLimits.max_steps, show_default=True,
	type=click.IntRange(0))
@click.option('--max-len', default=SearchLimits.max_word_length, show_default=True,
	type=click.IntRange(0))
@click.option('--max-ins', default=SearchLimits.max_insertions, show_default=True,
	type=click.IntRange(0))
@click.option('--max-visited', default=SearchLimits.max_visited, show_default=True,
	type=click.IntRange(0), help='nodes expanded before giving up')
def search(p, word, target, kinds, max_steps, max_len, max_ins, max_visited):
	'''Bounded breadth-first derivation search from a word to a target.'''
	out = bounded_derivation_search(p, word, target, kinds,
		SearchLimits(max_steps, max_len, max_ins, max_visited))
	d = out.derivation

	def text():
		path = zip(d.steps, derivation_words(p, d)[1:]) if d else ()
		return '\n'.join(['%s (visited %d, conclusive: %s)' % (out.result, out.visited,
			out.conclusive)] + ['  %s  %s' % (s.kind.ljust(2), _fmt(w, p)) for s, w in path])
	return {'result': out.result, 'visited': out.visited, 'conclusive': out.conclusive,
		'trace': d.to_json(p, target) if d else None}, text, \
		{'found': 0, 'dead': 1, 'exhausted': 2}[out.result]


@_command('dead', word=parse_word, kinds=_kinds)
@click.option('-w', '--word', required=True)
@click.option('--kinds', default='0,1,2', show_default=True)
def dead(p, word, kinds):
	'''Is the word eligible for no step at all of the given kinds?'''
	ans = is_dead(p, word, kinds)
	return {'dead': ans}, str(ans).lower(), 0 if ans else 1


@_command('dehn', word=parse_word)
@click.option('-w', '--word', required=True)
def dehn(p, word):
	'''Greedy run of free reduction and length-decreasing factor
	replacements; exit 0 iff the empty word is reached.'''
	end, trace = dehn_run(p, word)
	return {'end': render_word(end, p), 'steps': len(trace)}, \
		'%s (%d step(s))' % (_fmt(end, p), len(trace)), 0 if end == () else 1


@_command('paper-examples', load=False)
def paper_examples():
	'''Replay the bundled worked examples and report pass/fail each.'''
	results = examples.run_all()
	return results, '\n'.join('%s %s - %s' % ('PASS' if r['ok'] else 'FAIL', r['name'],
		r['detail']) for r in results), 0 if all(r['ok'] for r in results) else 1


def main(argv=None):
	try:
		cli.main(args=argv, standalone_mode=False)
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
	except InputError as e:
		click.echo('input error: %s' % e, err=True)
		sys.exit(64)
	except (CapExceeded, BudgetReached) as e:
		# a limit reached, not a broken invariant: the "exhausted" code
		click.echo('limit reached: %s' % e, err=True)
		sys.exit(2)
	except (StepError, ReversingError, AugError, FragmentError) as e:
		click.echo('internal error: %s' % e, err=True)
		sys.exit(70)


if __name__ == '__main__':
	main()
