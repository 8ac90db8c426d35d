import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from artincalc import cli as climod
from artincalc import parse_word, Derivation, check_derivation
from artincalc.core import load_presentation
from artincalc.examples import data_path
from artincalc.core import parse_positive
from artincalc.monoid import canonical, equiv_class, left_divisors, right_lcm

from helpers import RA2

I24 = 'i24.txt'
A2 = 'a2.txt'


def run(capsys, *argv):
	'''Invoke the CLI in-process; returns (exit_code, stdout).'''
	code = 0
	try:
		climod.main(list(argv))
	except SystemExit as e:
		code = e.code or 0
	out = capsys.readouterr().out
	return code, out


def test_validate(capsys):
	code, out = run(capsys, 'validate', '-p', A2)
	assert code == 0 and 'valid: True' in out
	code, out = run(capsys, 'validate', '-p', A2, '--json')
	assert json.loads(out)['right_angled'] is False


def test_steps_pin(capsys):
	code, out = run(capsys, 'steps', '-p', A2, '-w', 'Ba', '--kinds', '2r',
		'--json')
	assert code == 0
	(blob,) = json.loads(out)
	assert blob['kind'] == '2r' and blob['pos'] == 0


def test_steps_rejects_inf(capsys):
	code, _ = run(capsys, 'steps', '-p', A2, '-w', 'a', '--kinds', 'inf')
	assert code == 64


def test_apply(capsys):
	code, out = run(capsys, 'apply', '-p', A2, '-w', 'aA',
		'--step', '{"kind": "0r", "pos": 0}')
	assert code == 0 and out.strip() == 'e'


def test_fraction_pin(capsys):
	code, out = run(capsys, 'fraction', '-p', A2, '-w', 'aB', '--json')
	blob = json.loads(out)
	assert (blob['numerator'], blob['denominator']) == ('a', 'b')


def test_wp_spherical(capsys):
	code, out = run(capsys, 'wp-spherical', '-p', A2, '-w', 'abaBAB')
	assert code == 0 and out.strip() == 'true'
	code, out = run(capsys, 'wp-spherical', '-p', A2, '-w', 'a')
	assert code == 1 and out.strip() == 'false'


def test_wp_raag_trace_replays(capsys):
	code, out = run(capsys, 'wp-raag', '-p', 'ra3.txt', '-w', 'abcACB',
		'--json')
	assert code == 0
	blob = json.loads(out)
	assert blob['trivial'] is True
	from artincalc.core import load_presentation
	p = load_presentation(str(data_path('ra3.txt')))
	d = Derivation.from_json(blob['trace'], p)
	assert check_derivation(p, d) == ()


def test_class_and_divisors(capsys):
	code, out = run(capsys, 'class', '-p', A2, '-w', 'aba', '--json')
	assert json.loads(out)['members'] == ['aba', 'bab']
	code, out = run(capsys, 'divisors', '-p', I24, '-g', 'ababb', '--json')
	assert len(json.loads(out)) == 12


def test_lcm_minimal_coset(capsys):
	code, out = run(capsys, 'lcm', '-p', A2, '-u', 'a', '-v', 'b', '--json')
	assert json.loads(out)['lcm'] == 'aba'
	code, out = run(capsys, 'minimal', '-p', A2, '-g', 'ab', '--s0', 'b')
	assert code == 1 and out.strip() == 'false'
	code, out = run(capsys, 'coset-head', '-p', A2, '-w', 'ab', '--s0', 'b',
		'--json')
	blob = json.loads(out)
	assert blob['head'] == 'a' and blob['tail'] == 'b'


def test_cayley_trace(capsys):
	code, out = run(capsys, 'cayley-trace', '-p', I24, '-g', 'ababb',
		'-v', 'a', '-w', 'AbbabaB')
	assert code == 0 and out.startswith('traced')
	code, out = run(capsys, 'cayley-trace', '-p', I24, '-g', 'ababb',
		'-v', 'a', '-w', 'ababA')
	assert code == 1
	code, out = run(capsys, 'cayley-trace', '-p', I24, '-g', 'ababb',
		'-v', 'e', '--dot')
	assert code == 0 and out.startswith('digraph')


def test_search_exit_codes(capsys):
	code, _ = run(capsys, 'search', '-p', A2, '-w', 'abaBAB')
	assert code == 0
	code, _ = run(capsys, 'dead', '-p', 'fig2.txt', '-w', 'ACdaBDcb')
	assert code == 0
	code, _ = run(capsys, 'search', '-p', 'fig2.txt', '-w', 'ACdaBDcb')
	assert code == 1
	code, _ = run(capsys, 'search', '-p', A2, '-w', 'aba', '--kinds', '0,1',
		'--max-steps', '4')
	assert code == 2
	# a small node cap ends the search before it finds the derivation
	code, out = run(capsys, 'search', '-p', A2, '-w', 'abaBAB', '--kinds', '0,1,inf',
		'--max-visited', '3')
	assert code == 2 and out.startswith('exhausted (visited 4,')


def test_dehn(capsys):
	code, out = run(capsys, 'dehn', '-p', A2, '-w', 'abaBAB', '--json')
	assert code == 0 and json.loads(out)['end'] == ''
	code, _ = run(capsys, 'dehn', '-p', A2, '-w', 'ab')
	assert code == 1


def test_paper_examples(capsys):
	code, out = run(capsys, 'paper-examples')
	assert code == 0
	lines = [l for l in out.splitlines() if l]
	assert len(lines) == 6 and all(l.startswith('PASS') for l in lines)


def test_usage_and_file_errors(capsys, tmp_path):
	code, _ = run(capsys, 'steps', '-p', A2, '-w', 'ax')
	assert code == 64
	code, _ = run(capsys, 'steps', '-p', A2, '-w', 'a', '--kinds', 'zap')
	assert code == 64
	code, _ = run(capsys, 'validate', '-p', '/nonexistent/file.txt')
	assert code == 66
	# search limits are nonnegative
	for opt in ('--max-steps', '--max-len', '--max-ins', '--max-visited'):
		code, out = run(capsys, 'search', '-p', A2, '-w', 'a', opt, '-1')
		assert code == 64 and out == ''
	# a step that would pair the last letter with the first is refused
	code, out = run(capsys, 'apply', '-p', 'ra3.txt', '-w', 'abA',
		'--step', '{"kind": "0l", "pos": -1}')
	assert code == 64 and out == ''
	# a well-formed step that does not apply is a usage error too
	code, out = run(capsys, 'apply', '-p', A2, '-w', 'ab',
		'--step', '{"kind": "0r", "pos": 0}')
	assert code == 64 and out == ''
	code, _ = run(capsys, 'apply', '-p', 'ra3.txt', '-w', 'abA',
		'--step', '{"kind": "2r", "pos": 0, "rel": 0, "orient": "fwd", "split": -1}')
	assert code == 64
	# derivation files: malformed 64, missing 66, not replaying 64
	step = {'kind': '0r', 'pos': 0}
	cases = [
		('not json', 64),
		(b'\xff\xfe', 64),
		('[]', 64),
		(json.dumps({'schema': 1, 'start': 'aA', 'steps': [{'pos': 0}], 'end': ''}), 64),
		(json.dumps({'schema': 1, 'start': 'aA', 'steps': [7], 'end': ''}), 64),
		(json.dumps({'schema': 1, 'start': 'aA', 'end': ''}), 64),
		(json.dumps({'schema': 1, 'start': 'aA', 'steps': [step]}), 64),
		(json.dumps({'schema': 2, 'start': 'aA', 'steps': [step], 'end': ''}), 64),
		(json.dumps({'schema': 1, 'start': 'ab', 'steps': [step], 'end': ''}), 64),
		(json.dumps({'schema': 1, 'start': 'aA', 'steps': [step], 'end': 'a'}), 64),
		(None, 66),
	]
	for i, (text, want) in enumerate(cases):
		f = tmp_path / ('d%d.json' % i)
		if isinstance(text, bytes):
			f.write_bytes(text)
		elif text is not None:
			f.write_text(text)
		for argv in (('replay', '--in', str(f)),
				('eliminate-inf', '--in', str(f), '--out', str(tmp_path / 'o.json'))):
			code, _ = run(capsys, argv[0], '-p', 'ra3.txt', *argv[1:])
			assert code == want, (argv[0], text)
	# right-angled preconditions on user input are usage errors too: a trace
	# that replays but does not end at the empty word or uses type 2, and a
	# presentation that is not right-angled
	out_json = str(tmp_path / 'o.json')
	for i, blob in enumerate([{'schema': 1, 'start': 'ab', 'steps': [], 'end': 'ab'},
			{'schema': 1, 'start': 'Ba', 'steps': [{'kind': '2r', 'pos': 0, 'rel': 0,
				'orient': 'bwd', 'split': 0}], 'end': 'aB'}]):
		f = tmp_path / ('pre%d.json' % i)
		f.write_text(json.dumps(blob))
		assert run(capsys, 'replay', '-p', 'ra3.txt', '--in', str(f))[0] == 0
		code, out = run(capsys, 'eliminate-inf', '-p', 'ra3.txt', '--in', str(f),
			'--out', out_json)
		assert code == 64 and out == ''
	f = tmp_path / 'ok.json'
	f.write_text(json.dumps({'schema': 1, 'start': 'aA', 'steps': [step], 'end': ''}))
	code, _ = run(capsys, 'eliminate-inf', '-p', A2, '--in', str(f), '--out', out_json)
	assert code == 64
	code, out = run(capsys, 'wp-raag', '-p', A2, '-w', 'abAB')
	assert code == 64 and out == ''


def test_type1_sign_other_than_one_is_a_usage_error(capsys, tmp_path):
	# a type 1 step says which side it rewrites by its sign; a sign of 2
	# names no side, so the step is rejected, not replayed as sign 1
	step = {'kind': '1', 'pos': 0, 'rel': 0, 'orient': 'fwd', 'sign': 2}
	code, out = run(capsys, 'apply', '-p', 'ra3.txt', '-w', 'ab', '--step', json.dumps(step))
	assert code == 64 and out == ''
	f = tmp_path / 'sign2.json'
	f.write_text(json.dumps({'schema': 1, 'start': 'ab', 'steps': [step], 'end': 'ba'}))
	code, out = run(capsys, 'replay', '-p', 'ra3.txt', '--in', str(f), '--json')
	assert code == 64 and out == ''
	code, out = run(capsys, 'apply', '-p', 'ra3.txt', '-w', 'ab',
		'--step', json.dumps(dict(step, sign=1)))
	assert code == 0 and out.strip() == 'ba'


def test_step_sign_must_be_an_int(capsys, tmp_path):
	# true, 1.0 and -1.0 equal a valid sign but are not ints: a type 1 step
	# and an insertion with such a sign are rejected, not written back
	type1 = {'kind': '1', 'pos': 0, 'rel': 0, 'orient': 'fwd', 'sign': True}
	insertion = {'kind': 'inf', 'pos': 0, 'letter': 'a', 'sign': True}
	for step, end in ((type1, 'ba'), (insertion, 'aAab')):
		for sign in (True, 1.0, -1.0):
			f = tmp_path / 'sign.json'
			f.write_text(json.dumps({'schema': 1, 'start': 'ab',
				'steps': [dict(step, sign=sign)], 'end': end}))
			code, out = run(capsys, 'replay', '-p', 'ra3.txt', '--in', str(f), '--json')
			assert code == 64 and out == ''
		if step is type1:
			code, out = run(capsys, 'apply', '-p', 'ra3.txt', '-w', 'ab',
				'--step', json.dumps(step))
			assert code == 64 and out == ''


@settings(max_examples=150, deadline=None, database=None)
@given(gens=st.integers(-3, 12), count=st.integers(-3, 3), seed=st.integers(-2**40, 2**40))
def test_cli_fuzz_raag_numbers(gens, count, seed):
	# fuzz-raag on random numbers: a documented exit code, never a
	# traceback; --gens outside 1..8 and a negative --count are usage errors
	argv = ['fuzz-raag', '--gens', str(gens), '--count', str(count), '--seed', str(seed)]
	err = io.StringIO()
	with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
		try:
			climod.main(argv)
			code = 0
		except SystemExit as e:
			code = e.code or 0
	assert code in (0, 1, 64), (argv, err.getvalue())
	assert (code == 64) == (not 1 <= gens <= 8 or count < 0), (argv, err.getvalue())


def test_replay_and_eliminate_round_trip(tmp_path, capsys):
	ppath = tmp_path / 'ra2.txt'
	ppath.write_text('gens: a b\nrel: ab = ba\n')
	code, out = run(capsys, 'wp-raag', '-p', str(ppath), '-w', 'abAB',
		'--json')
	assert code == 0
	trace = json.loads(out)['trace']
	f = tmp_path / 'trace.json'
	f.write_text(json.dumps(trace))
	code, out = run(capsys, 'replay', '-p', str(ppath), '--in', str(f))
	assert code == 0 and '-> e' in out
	# build a {0,1,inf} derivation and eliminate the insertions via files
	from artincalc.raag import generate_01inf_derivation
	d = generate_01inf_derivation(RA2, parse_word('abAB', RA2))
	f2 = tmp_path / 'inf.json'
	f2.write_text(json.dumps(d.to_json(RA2)))
	f3 = tmp_path / 'out.json'
	code, out = run(capsys, 'eliminate-inf', '-p', str(ppath),
		'--in', str(f2), '--out', str(f3))
	assert code == 0 and 'no insertions' in out
	blob = json.loads(f3.read_text())
	assert all(s['kind'] != 'inf' for s in blob['steps'])
	assert blob['end'] == ''


def test_fuzz_raag(capsys):
	code, out = run(capsys, 'fuzz-raag', '--count', '10', '--seed', '3',
		'--json')
	assert code == 0 and json.loads(out)['failures'] == []


def test_json_output_deterministic(capsys):
	outs = set()
	for _ in range(2):
		_, out = run(capsys, 'wp-spherical', '-p', A2, '-w', 'abaBAB',
			'--json')
		outs.add(out)
	assert len(outs) == 1


def test_console_script_subprocess():
	# the child imports the same artincalc as this process, installed or not
	src = os.path.dirname(os.path.dirname(climod.__file__))
	env = dict(os.environ, PYTHONPATH=os.pathsep.join(
		filter(None, (src, os.environ.get('PYTHONPATH')))))
	r = subprocess.run([sys.executable, '-m', 'artincalc.cli', 'wp-spherical',
		'-p', 'a2.txt', '-w', 'abaBAB'], capture_output=True, text=True, env=env)
	assert r.returncode == 0 and r.stdout.strip() == 'true'


# presentation files: random lines, and lines of the file format with
# small Coxeter entries (a large one makes relations of that length)
_LINE = st.one_of(st.text(max_size=20),
	st.lists(st.sampled_from(['a', 'b', 'c', 'x1', 'A', 'e', '#', 'a^-1']),
		max_size=4).map(lambda g: 'gens: ' + ' '.join(g)),
	st.tuples(st.text('abcAB ', max_size=5), st.text('abcAB=', max_size=5)).map(
		lambda lr: 'rel: %s = %s' % lr),
	st.tuples(st.sampled_from('abz'), st.sampled_from('abz'),
		st.sampled_from(['2', '3', '5', 'inf', '1', 'x', '-3'])).map(
		lambda t: 'coxeter: %s %s %s' % t))
_FILE = st.tuples(st.sampled_from([[], ['gens: a b c']]), st.lists(_LINE, max_size=4)).map(
	lambda t: '\n'.join(t[0] + t[1]))
_WORD = st.one_of(st.text(max_size=12), st.text('abcABCz e^-1', max_size=14))
_VALUE = st.one_of(st.integers(-2, 70), st.sampled_from(['0r', '0l', '1', '2r', '2l', 'inf',
	'fwd', 'bwd', 'a', 'z']), st.none(), st.booleans(), st.floats(allow_nan=False),
	st.lists(st.integers(0, 3), max_size=2))
_STEP = st.one_of(st.text(max_size=30), st.dictionaries(st.sampled_from(['kind', 'pos',
	'rel', 'orient', 'sign', 'split', 'letter']), _VALUE, max_size=7).map(json.dumps))


@settings(max_examples=200, deadline=None, database=None)
@given(text=_FILE, word=_WORD, command=st.sampled_from(['dehn', 'steps', 'apply']),
	step=_STEP, undecodable=st.booleans())
def test_cli_fuzz_exit_codes(text, word, command, step, undecodable):
	# dehn, steps and apply on random presentation files, words and step
	# JSON: a documented exit code, never a traceback or an internal error
	with tempfile.TemporaryDirectory() as d:
		path = os.path.join(d, 'p.txt')
		with open(path, 'wb') as f:
			f.write(text.encode('utf-8', 'surrogatepass') + b'\xff' * undecodable)
		argv = [command, '-p', path, '-w', word] + ['--step', step] * (command == 'apply')
		err = io.StringIO()
		with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
			try:
				climod.main(argv)
				code = 0
			except SystemExit as e:
				code = e.code or 0
	assert code in (0, 1, 2, 64, 66), (argv, text, err.getvalue())


# the subcommands that read no step or derivation: random presentation
# files or the bundled ones, words over their letters or random text
_BUNDLED = {'a2.txt': 'ab', 'i24.txt': 'ab', 'ra3.txt': 'abc', 'f2xf2.txt': 'abcd',
	'fig2.txt': 'abcdef'}
_OTHER = ['validate', 'reverse', 'fraction', 'wp-spherical', 'wp-raag', 'class', 'divisors',
	'lcm', 'minimal', 'coset-head', 'cayley-trace', 'search', 'dead', 'paper-examples']


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data(), command=st.sampled_from(_OTHER),
	bundled=st.one_of(st.none(), st.sampled_from(sorted(_BUNDLED))), text=_FILE,
	s0=st.one_of(st.text('abcz, ', max_size=6), st.text(max_size=4)),
	kinds=st.one_of(st.text('0122rlinf, ', max_size=8),
		st.sampled_from(['0,1,2', '0,1,inf', '0,2', '2r', 'inf'])),
	as_json=st.booleans(), extra=st.booleans(), visited=st.integers(0, 30))
def test_cli_fuzz_other_subcommands(data, command, bundled, text, s0, kinds, as_json, extra,
		visited):
	# the other fourteen subcommands on random or bundled presentations,
	# words, --s0 and --kinds text: a documented exit code, never a
	# traceback or an internal error
	letters = _BUNDLED.get(bundled, 'abc')
	word = st.one_of(_WORD, st.text(letters + letters.upper(), max_size=8))
	w, u, v = data.draw(word), data.draw(word), data.draw(word)
	with tempfile.TemporaryDirectory() as d:
		path = bundled or os.path.join(d, 'p.txt')
		if not bundled:
			with open(path, 'wb') as f:
				f.write(text.encode('utf-8', 'surrogatepass'))
		argv = [command] + ['-p', path] * (command != 'paper-examples') + {
			'reverse': ['-w', w, '--side', 'left' if extra else 'right'],
			'fraction': ['-w', w], 'wp-spherical': ['-w', w], 'wp-raag': ['-w', w],
			'class': ['-w', w], 'divisors': ['-g', w], 'lcm': ['-u', u, '-v', v],
			'minimal': ['-g', w, '--s0', s0], 'coset-head': ['-w', w, '--s0', s0],
			'cayley-trace': ['-g', w, '-v', u] + (['--dot'] if extra else ['-w', v]),
			'search': ['-w', w, '--target', u, '--kinds', kinds, '--max-visited', str(visited)],
			'dead': ['-w', w, '--kinds', kinds]}.get(command, []) + ['--json'] * as_json
		err = io.StringIO()
		with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
			try:
				climod.main(argv)
				code = 0
			except SystemExit as e:
				code = e.code or 0
	assert code in (0, 1, 2, 64, 66), (argv, text, err.getvalue())


# derivation files: random text, and schema-shaped JSON whose steps are
# drawn from the step kinds on small positions, letters and relations of
# ra3.txt, so that some of them replay (to the empty word, sometimes)
_START = st.text('abcABCx', max_size=6)
_DSTEP = st.one_of(st.dictionaries(st.sampled_from(['kind', 'pos', 'rel', 'orient',
		'sign', 'split', 'letter']), _VALUE, max_size=7),
	st.fixed_dictionaries({'kind': st.sampled_from(['0r', '0l', '1', 'inf']),
		'pos': st.integers(-1, 6), 'rel': st.integers(0, 3),
		'orient': st.sampled_from(['fwd', 'bwd']), 'sign': st.sampled_from([1, -1, 2]),
		'letter': st.sampled_from(['a', 'b', 'c', 'x'])}))
_DERIVATION = st.fixed_dictionaries({'schema': st.sampled_from([1, 1, 1, 2, '1', None]),
	'start': st.one_of(_START, _VALUE), 'steps': st.one_of(st.lists(_DSTEP, max_size=5), _VALUE),
	'end': st.one_of(st.sampled_from(['', 'e']), _START, _VALUE)})


@st.composite
def _to_empty(draw):
	'''A {0,inf} derivation to the empty word: pair insertions and type 0
	steps at random, then type 0 steps until the word is empty; the start
	is the word after the first few of them.  Sometimes one field of one
	step is then changed.'''
	word, steps = [], []
	for _ in range(draw(st.integers(0, 6))):
		pairs = [i for i in range(len(word) - 1) if word[i] == word[i + 1].swapcase()]
		if pairs and draw(st.booleans()):
			i = draw(st.sampled_from(pairs))
			steps.append({'kind': '0r' if word[i].islower() else '0l', 'pos': i})
			del word[i:i + 2]
		else:
			i, x = draw(st.integers(0, len(word))), draw(st.sampled_from('abcABC'))
			steps.append({'kind': 'inf', 'pos': i, 'letter': x.lower(),
				'sign': 1 if x.islower() else -1})
			word[i:i] = [x, x.swapcase()]
	skip = draw(st.integers(0, len(steps)))
	start = ''.join(word) if skip == len(steps) else None
	while word:
		i = next(i for i in range(len(word) - 1) if word[i] == word[i + 1].swapcase())
		steps.append({'kind': '0r' if word[i].islower() else '0l', 'pos': i})
		del word[i:i + 2]
	if start is None:  # replay the skipped steps to find the start
		start = ''
		for s in steps[:skip]:
			if s['kind'] == 'inf':
				x = s['letter'] if s['sign'] == 1 else s['letter'].upper()
				start = start[:s['pos']] + x + x.swapcase() + start[s['pos']:]
			else:
				start = start[:s['pos']] + start[s['pos'] + 2:]
	steps = steps[skip:]
	if steps and draw(st.booleans()):
		step = draw(st.sampled_from(steps))
		step[draw(st.sampled_from(['kind', 'pos', 'letter', 'sign']))] = draw(_VALUE)
	return {'schema': 1, 'start': start, 'steps': steps, 'end': ''}


_DFILE = st.one_of(st.binary(max_size=40), st.text(max_size=40).map(str.encode),
	_DERIVATION.map(lambda d: json.dumps(d).encode()),
	_to_empty().map(lambda d: json.dumps(d).encode()),
	st.lists(_VALUE, max_size=3).map(lambda v: json.dumps(v).encode()))


@settings(max_examples=200, deadline=None, database=None)
@given(data=_DFILE, command=st.sampled_from(['replay', 'eliminate-inf']),
	presentation=st.sampled_from(['ra3.txt', 'a2.txt']))
def test_cli_fuzz_derivation_files(data, command, presentation):
	# replay --in and eliminate-inf --in on random derivation files: a
	# documented exit code, never a traceback or an internal error
	with tempfile.TemporaryDirectory() as d:
		path = os.path.join(d, 'd.json')
		with open(path, 'wb') as f:
			f.write(data)
		argv = [command, '-p', presentation, '--in', path]
		argv += ['--out', os.path.join(d, 'out.json')] * (command == 'eliminate-inf')
		err = io.StringIO()
		with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
			try:
				climod.main(argv)
				code = 0
			except SystemExit as e:
				code = e.code or 0
	assert code in (0, 1, 2, 64, 66), (argv, data, err.getvalue())


def test_class_canonical_is_the_least_in_the_generator_order(capsys, tmp_path):
	# with b before a, ab and ba are one element whose canonical word is ba,
	# as monoid.canonical and divisors give it; the members stay sorted
	path = tmp_path / 'ba.txt'
	path.write_text('gens: b a\nrel: ab = ba\n')
	code, out = run(capsys, 'class', '-p', str(path), '-w', 'ab', '--json')
	assert code == 0 and json.loads(out) == {'canonical': 'ba', 'members': ['ab', 'ba']}
	code, out = run(capsys, 'divisors', '-p', str(path), '-g', 'ab', '--json')
	assert 'ba' in json.loads(out) and 'ab' not in json.loads(out)
	p = load_presentation(str(path))
	assert canonical(p, ('a', 'b')) == ('b', 'a')


def test_positive_words_print_as_words_that_read_back(capsys, tmp_path):
	# over generators s1 and s2 every positive word printed is written as
	# render_word writes it, in tokens, so it parses back to its own word
	path = tmp_path / 'multi.txt'
	path.write_text('gens: s1 s2\nrel: s1 s2 s1 = s2 s1 s2\n')
	f, p = str(path), load_presentation(str(path))
	back = lambda text: parse_positive(text, p)
	d = ('s1', 's2', 's1')
	code, out = run(capsys, 'class', '-p', f, '-w', 's1 s2 s1', '--json')
	blob = json.loads(out)
	assert back(blob['canonical']) == canonical(p, d) and blob['canonical'] == 's1 s2 s1'
	assert {back(m) for m in blob['members']} == equiv_class(p, d)
	code, out = run(capsys, 'class', '-p', f, '-w', 's1 s2 s1')
	assert code == 0 and {back(m) for m in out.split('\n') if m} == equiv_class(p, d)
	code, out = run(capsys, 'divisors', '-p', f, '-g', 's1 s2 s1', '--json')
	assert {back(m) for m in json.loads(out)} == left_divisors(p, d)
	code, out = run(capsys, 'lcm', '-p', f, '-u', 's1', '-v', 's2')
	assert code == 0 and back(out) == right_lcm(p, ('s1',), ('s2',))
	code, out = run(capsys, 'fraction', '-p', f, '-w', 's1^-1 s2', '--json')
	blob = json.loads(out)
	assert back(blob['numerator']) == ('s2', 's1') and back(blob['denominator']) == ('s1', 's2')
	code, out = run(capsys, 'cayley-trace', '-p', f, '-g', 's1 s2 s1', '-v', 'e',
		'-w', 's1 s2', '--json')
	blob = json.loads(out)
	assert code == 0 and [back(v) for v in blob['path']] == [(), ('s1',), ('s1', 's2')]
	for word in blob['path']:
		code, _ = run(capsys, 'class', '-p', f, '-w', word)
		assert code == 0


def test_generator_named_e_reads_back(capsys):
	'''Over fig2.txt, which has a generator named e, "e" is that letter and
	not the empty word: e, ea and the empty word read back as themselves
	from render_word and from the CLI's spelling, which writes the empty
	word blank there.  Over other presentations "e" is still the empty
	word.'''
	from artincalc import render_word
	p = load_presentation('fig2.txt')
	for word in ((('e', 1),), (('e', 1), ('a', 1)), ()):
		assert parse_word(render_word(word, p), p) == word
		assert parse_word(climod._fmt(word, p), p) == word
	assert parse_word('e', p) == (('e', 1),) and parse_word('E', p) == (('e', -1),)
	assert climod._fmt((), p) == '' and climod._pfmt(('e',), p) == 'e'
	code, out = run(capsys, 'dead', '-p', 'fig2.txt', '-w', 'e', '--json')
	assert (code, json.loads(out)) == (0, {'dead': True})
	code, out = run(capsys, 'dead', '-p', 'fig2.txt', '-w', '', '--json')
	assert (code, json.loads(out)) == (1, {'dead': False})
	code, out = run(capsys, 'dehn', '-p', 'fig2.txt', '-w', 'aA')
	assert (code, out) == (0, ' (1 step(s))\n')
	a2 = load_presentation(A2)
	assert parse_word('e', a2) == () and climod._fmt((), a2) == 'e'
	code, out = run(capsys, 'dehn', '-p', A2, '-w', 'aA')
	assert (code, out) == (0, 'e (1 step(s))\n')
