''' Golden CLI corpus: the exit code, stdout, stderr and eliminate-inf output
file of every case below, pinned byte for byte in cli_golden.json.  Every
subcommand runs in text and --json mode, with its --help, and with each
kind of bad input once.  Each case runs in a fresh directory holding FILES,
so file names in messages are stable.

After a deliberate change of the CLI's output, rewrite the file with

    PYTHONPATH=src python tests/test_cli_golden.py

and review its diff.
'''

import contextlib
import io
import json
import os
import pathlib
import re
import sys
import tempfile

import pytest

from artincalc import cli as climod

GOLDEN = pathlib.Path(__file__).with_name('cli_golden.json')
OUTFILE = 'out.json'


def _trace(start, steps, end='', schema=1):
	return json.dumps({'schema': schema, 'start': start, 'steps': steps, 'end': end})


CANCEL = {'kind': '0r', 'pos': 0}
FILES = {
	'ra2.txt': 'gens: a b\nrel: ab = ba\n',
	# the class of b is {a^2k b}: its members grow, and the letters cap it
	'aab.txt': 'gens: a b\nrel: aab = b\n',
	'dup.txt': 'gens: a a\n',
	'bad.txt': 'gens: a b\nrel ab = ba\n',
	'unknown.txt': 'gens: a b\nrel: ab = bx\n',
	'cox.txt': 'gens: a b\ncoxeter:\n  a b x\n',
	# spherical, but (Ba)^10 (aB)^10 needs more than the reversing budget
	'cox120.txt': 'gens: a b\ncoxeter: a b 120\n',
	'ok.json': _trace('aA', [CANCEL]),
	# a {0,1,inf} derivation over ra3.txt: insert and cancel a pair, then
	# commute and cancel
	'inf.json': _trace('abAB', [{'kind': 'inf', 'pos': 2, 'letter': 'b', 'sign': -1},
		{'kind': '0l', 'pos': 2},
		{'kind': '1', 'pos': 0, 'rel': 0, 'orient': 'fwd', 'sign': 1},
		{'kind': '0r', 'pos': 1}, CANCEL]),
	'notjson.json': 'not json',
	'bytes.json': b'\xff\xfe',
	'list.json': '[]',
	'nokind.json': _trace('aA', [{'pos': 0}]),
	'nosteps.json': json.dumps({'schema': 1, 'start': 'aA', 'end': ''}),
	'schema2.json': _trace('aA', [CANCEL], schema=2),
	'badword.json': _trace('aX', [CANCEL]),
	'noreplay.json': _trace('ab', [CANCEL]),
	'badend.json': _trace('aA', [CANCEL], end='a'),
	'notempty.json': _trace('ab', [], end='ab'),
	'type2.json': _trace('Ba', [{'kind': '2r', 'pos': 0, 'rel': 0, 'orient': 'bwd',
		'split': 0}], end='aB'),
}

CASES = {
	'group-help': ['--help'],
	'no-arguments': [],
	'no-command': ['frobnicate'],
	'missing-option': ['steps', '-p', 'a2.txt'],
	'missing-presentation': ['validate', '-p', 'missing.txt'],
	'missing-presentation-before-word': ['steps', '-p', 'missing.txt', '-w', 'ax'],
	'malformed-presentation': ['validate', '-p', 'bad.txt'],
	'presentation-unknown-generator': ['steps', '-p', 'unknown.txt', '-w', 'a'],
	'presentation-coxeter-not-a-number': ['validate', '-p', 'cox.txt'],
	'local-presentation': ['wp-raag', '-p', 'ra2.txt', '-w', 'abAB'],

	'validate': ['validate', '-p', 'a2.txt'],
	'validate-json': ['validate', '-p', 'ra3.txt', '--json'],
	'validate-duplicate-generator': ['validate', '-p', 'dup.txt'],
	'validate-duplicate-generator-json': ['validate', '-p', 'dup.txt', '--json'],

	'steps': ['steps', '-p', 'a2.txt', '-w', 'abaBAB'],
	'steps-json': ['steps', '-p', 'a2.txt', '-w', 'Ba', '--kinds', '2r', '--json'],
	'steps-none': ['steps', '-p', 'fig2.txt', '-w', 'ACdaBDcb'],
	'steps-kind-inf': ['steps', '-p', 'a2.txt', '-w', 'a', '--kinds', 'inf'],
	'steps-bad-kind': ['steps', '-p', 'a2.txt', '-w', 'a', '--kinds', 'zap'],
	'steps-bad-word': ['steps', '-p', 'a2.txt', '-w', 'ax'],
	'steps-kind-before-word': ['steps', '-p', 'a2.txt', '-w', 'ax', '--kinds', 'zap'],

	'apply': ['apply', '-p', 'a2.txt', '-w', 'aA', '--step', '{"kind": "0r", "pos": 0}'],
	'apply-json': ['apply', '-p', 'a2.txt', '-w', 'Abab', '--step',
		'{"kind": "2r", "pos": 0, "rel": 0, "orient": "fwd", "split": 0}', '--json'],
	'apply-bad-step': ['apply', '-p', 'a2.txt', '-w', 'aA', '--step', 'not json'],
	'apply-bad-kind': ['apply', '-p', 'a2.txt', '-w', 'aA', '--step', '{"kind": "9"}'],
	'apply-not-applying': ['apply', '-p', 'a2.txt', '-w', 'ab', '--step',
		'{"kind": "0r", "pos": 0}'],
	'apply-bad-word': ['apply', '-p', 'a2.txt', '-w', 'ax', '--step', 'not json'],

	'replay': ['replay', '-p', 'ra3.txt', '--in', 'inf.json'],
	'replay-json': ['replay', '-p', 'ra3.txt', '--in', 'inf.json', '--json'],
	'replay-not-json': ['replay', '-p', 'ra3.txt', '--in', 'notjson.json'],
	'replay-bytes': ['replay', '-p', 'ra3.txt', '--in', 'bytes.json'],
	'replay-list': ['replay', '-p', 'ra3.txt', '--in', 'list.json'],
	'replay-no-kind': ['replay', '-p', 'ra3.txt', '--in', 'nokind.json'],
	'replay-no-steps': ['replay', '-p', 'ra3.txt', '--in', 'nosteps.json'],
	'replay-schema-2': ['replay', '-p', 'ra3.txt', '--in', 'schema2.json'],
	'replay-bad-word': ['replay', '-p', 'ra3.txt', '--in', 'badword.json'],
	'replay-missing': ['replay', '-p', 'ra3.txt', '--in', 'missing.json'],
	'replay-no-replay': ['replay', '-p', 'ra3.txt', '--in', 'noreplay.json'],
	'replay-bad-end': ['replay', '-p', 'ra3.txt', '--in', 'badend.json', '--json'],

	'reverse': ['reverse', '-p', 'a2.txt', '-w', 'BaAb'],
	'reverse-json': ['reverse', '-p', 'i24.txt', '-w', 'BAbaBBab', '--json'],
	'reverse-left': ['reverse', '-p', 'a2.txt', '-w', 'aBbA', '--side', 'left'],
	'reverse-left-json': ['reverse', '-p', 'a2.txt', '-w', 'aBbA', '--side', 'left',
		'--json'],
	'reverse-blocked': ['reverse', '-p', 'f2xf2.txt', '-w', 'cAb'],
	'reverse-blocked-json': ['reverse', '-p', 'f2xf2.txt', '-w', 'cAb', '--json'],
	'reverse-bad-side': ['reverse', '-p', 'a2.txt', '-w', 'a', '--side', 'up'],

	'fraction': ['fraction', '-p', 'i24.txt', '-w', 'aBBaAb'],
	'fraction-json': ['fraction', '-p', 'i24.txt', '-w', 'aBBaAb', '--json'],
	'fraction-trivial-json': ['fraction', '-p', 'a2.txt', '-w', 'abaBAB', '--json'],

	'wp-spherical': ['wp-spherical', '-p', 'a2.txt', '-w', 'abaBAB'],
	'wp-spherical-false': ['wp-spherical', '-p', 'a2.txt', '-w', 'abAB'],
	'wp-spherical-json': ['wp-spherical', '-p', 'i24.txt', '-w', 'ababBABA', '--json'],
	'wp-spherical-false-json': ['wp-spherical', '-p', 'a2.txt', '-w', 'abAB', '--json'],
	'wp-spherical-budget': ['wp-spherical', '-p', 'cox120.txt', '-w', 'Ba' * 10 + 'aB' * 10],
	# a presentation declared spherical whose reversing blocks: bad input
	'wp-spherical-blocked': ['wp-spherical', '-p', 'fig2.txt', '-w', 'abAB'],

	'wp-raag': ['wp-raag', '-p', 'ra3.txt', '-w', 'abcACB'],
	'wp-raag-json': ['wp-raag', '-p', 'ra3.txt', '-w', 'abcACB', '--json'],
	'wp-raag-false': ['wp-raag', '-p', 'f2xf2.txt', '-w', 'abAB'],
	'wp-raag-false-json': ['wp-raag', '-p', 'f2xf2.txt', '-w', 'abAB', '--json'],
	'wp-raag-not-right-angled': ['wp-raag', '-p', 'a2.txt', '-w', 'abAB'],
	'wp-raag-right-angled-before-word': ['wp-raag', '-p', 'a2.txt', '-w', 'ax'],

	'eliminate-inf': ['eliminate-inf', '-p', 'ra3.txt', '--in', 'inf.json',
		'--out', OUTFILE],
	'eliminate-inf-plain': ['eliminate-inf', '-p', 'ra3.txt', '--in', 'ok.json',
		'--out', OUTFILE],
	'eliminate-inf-no-json-option': ['eliminate-inf', '-p', 'ra3.txt', '--in',
		'inf.json', '--out', OUTFILE, '--json'],
	'eliminate-inf-not-json': ['eliminate-inf', '-p', 'ra3.txt', '--in',
		'notjson.json', '--out', OUTFILE],
	'eliminate-inf-missing': ['eliminate-inf', '-p', 'ra3.txt', '--in', 'missing.json',
		'--out', OUTFILE],
	'eliminate-inf-no-replay': ['eliminate-inf', '-p', 'ra3.txt', '--in',
		'noreplay.json', '--out', OUTFILE],
	'eliminate-inf-not-empty': ['eliminate-inf', '-p', 'ra3.txt', '--in',
		'notempty.json', '--out', OUTFILE],
	'eliminate-inf-type-2': ['eliminate-inf', '-p', 'ra3.txt', '--in', 'type2.json',
		'--out', OUTFILE],
	'eliminate-inf-not-right-angled': ['eliminate-inf', '-p', 'a2.txt', '--in',
		'missing.json', '--out', OUTFILE],

	'fuzz-raag': ['fuzz-raag', '--gens', '3', '--seed', '1', '--count', '3'],
	'fuzz-raag-json': ['fuzz-raag', '--count', '2', '--json'],
	'fuzz-raag-gens-0': ['fuzz-raag', '--gens', '0'],
	'fuzz-raag-gens-9': ['fuzz-raag', '--gens', '9'],
	'fuzz-raag-count-negative': ['fuzz-raag', '--count', '-1'],

	'class': ['class', '-p', 'a2.txt', '-w', 'abab'],
	'class-json': ['class', '-p', 'f2xf2.txt', '-w', 'acbd', '--json'],
	'class-negative': ['class', '-p', 'a2.txt', '-w', 'aB'],
	'class-cap': ['class', '-p', 'ra3.txt', '-w', 'abcabcabcabcabc'],
	'class-cap-letters': ['class', '-p', 'aab.txt', '-w', 'b'],

	'divisors': ['divisors', '-p', 'i24.txt', '-g', 'ababb'],
	'divisors-json': ['divisors', '-p', 'a2.txt', '-g', 'aba', '--json'],
	'divisors-bad-word': ['divisors', '-p', 'a2.txt', '-g', 'ac'],

	'lcm': ['lcm', '-p', 'a2.txt', '-u', 'a', '-v', 'b'],
	'lcm-json': ['lcm', '-p', 'i24.txt', '-u', 'ab', '-v', 'ba', '--json'],
	'lcm-u-before-v': ['lcm', '-p', 'a2.txt', '-u', 'A', '-v', 'x'],
	'lcm-blocked': ['lcm', '-p', 'f2xf2.txt', '-u', 'ab', '-v', 'ba'],

	'minimal': ['minimal', '-p', 'a2.txt', '-g', 'ab', '--s0', 'b'],
	'minimal-json': ['minimal', '-p', 'a2.txt', '-g', 'ba', '--s0', 'b', '--json'],
	'minimal-bad-s0': ['minimal', '-p', 'a2.txt', '-g', 'ab', '--s0', 'b,x,y'],
	'minimal-element-before-s0': ['minimal', '-p', 'a2.txt', '-g', 'aB', '--s0', 'x'],

	'coset-head': ['coset-head', '-p', 'a2.txt', '-w', 'abAb', '--s0', 'b'],
	'coset-head-json': ['coset-head', '-p', 'i24.txt', '-w', 'abAbaB', '--s0', 'a',
		'--json'],
	'coset-head-bad-s0': ['coset-head', '-p', 'a2.txt', '-w', 'ab', '--s0', 'x'],
	'coset-head-word-before-s0': ['coset-head', '-p', 'a2.txt', '-w', 'ax', '--s0', 'x'],

	'cayley-trace': ['cayley-trace', '-p', 'i24.txt', '-g', 'ababb', '-v', 'a',
		'-w', 'AbbabaB'],
	'cayley-trace-json': ['cayley-trace', '-p', 'i24.txt', '-g', 'ababb', '-v', 'a',
		'-w', 'AbbabaB', '--json'],
	'cayley-trace-fails': ['cayley-trace', '-p', 'i24.txt', '-g', 'ababb', '-v', 'a',
		'-w', 'ababA'],
	'cayley-trace-fails-json': ['cayley-trace', '-p', 'i24.txt', '-g', 'ababb',
		'-v', 'a', '-w', 'ababA', '--json'],
	'cayley-trace-dot': ['cayley-trace', '-p', 'a2.txt', '-g', 'ab', '-v', 'e', '--dot'],
	'cayley-trace-dot-over-json': ['cayley-trace', '-p', 'a2.txt', '-g', 'ab', '-v',
		'x', '-w', 'x', '--dot', '--json'],
	'cayley-trace-no-word': ['cayley-trace', '-p', 'a2.txt', '-g', 'ab', '-v', 'x'],
	'cayley-trace-bad-vertex': ['cayley-trace', '-p', 'a2.txt', '-g', 'ab', '-v', 'x',
		'-w', 'x'],
	'cayley-trace-bad-word': ['cayley-trace', '-p', 'a2.txt', '-g', 'ab', '-v', 'a',
		'-w', 'x'],
	'cayley-trace-vertex-outside': ['cayley-trace', '-p', 'a2.txt', '-g', 'ab',
		'-v', 'b', '-w', 'a'],

	'search': ['search', '-p', 'a2.txt', '-w', 'abaBAB'],
	'search-json': ['search', '-p', 'a2.txt', '-w', 'abAB', '--target', 'abAB',
		'--kinds', '0,1,inf', '--json'],
	'search-found-json': ['search', '-p', 'a2.txt', '-w', 'abBA', '--json'],
	'search-dead': ['search', '-p', 'fig2.txt', '-w', 'ACdaBDcb'],
	'search-exhausted': ['search', '-p', 'a2.txt', '-w', 'aba', '--kinds', '0,1',
		'--max-steps', '4'],
	'search-visited-cap-json': ['search', '-p', 'a2.txt', '-w', 'abaBAB', '--kinds',
		'0,1,inf', '--max-visited', '3', '--json'],
	'search-bad-visited': ['search', '-p', 'a2.txt', '-w', 'a', '--max-visited', '-1'],
	'search-negative-steps': ['search', '-p', 'a2.txt', '-w', 'a', '--max-steps', '-1'],
	'search-negative-len': ['search', '-p', 'a2.txt', '-w', 'a', '--max-len', '-1'],
	'search-negative-ins': ['search', '-p', 'a2.txt', '-w', 'a', '--max-ins', '-1'],
	'search-word-before-kinds': ['search', '-p', 'a2.txt', '-w', 'ax', '--kinds', 'zap'],
	'search-bad-target': ['search', '-p', 'a2.txt', '-w', 'a', '--target', 'x'],

	'dead': ['dead', '-p', 'fig2.txt', '-w', 'ACdaBDcb'],
	'dead-json': ['dead', '-p', 'a2.txt', '-w', 'ab', '--kinds', '0,2', '--json'],
	'dead-word-before-kinds': ['dead', '-p', 'a2.txt', '-w', 'ax', '--kinds', 'zap'],
	'dead-kind-inf': ['dead', '-p', 'a2.txt', '-w', 'ab', '--kinds', 'inf'],

	'dehn': ['dehn', '-p', 'a2.txt', '-w', 'abaBAB'],
	'dehn-json': ['dehn', '-p', 'a2.txt', '-w', 'ab', '--json'],

	'paper-examples': ['paper-examples'],
	'paper-examples-json': ['paper-examples', '--json'],
}
CASES.update({'help-' + name: [name, '--help'] for name in climod.cli.commands})


def run_case(argv):
	'''Run one case in the current directory; returns its record.'''
	for name, data in FILES.items():
		pathlib.Path(name).write_bytes(data if isinstance(data, bytes) else data.encode())
	out, err = io.StringIO(), io.StringIO()
	code = 0
	with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
		try:
			climod.main(list(argv))
		except SystemExit as e:
			code = e.code or 0
	# click puts the detected program name (pytest's, say) in usage lines
	usage = re.compile(r'Usage: .*? (?=(%s )?\[OPTIONS\])'
		% re.escape(argv[0] if argv else ''))
	written = pathlib.Path(OUTFILE)
	return {'argv': list(argv), 'code': code,
		'stdout': usage.sub('Usage: artincalc ', out.getvalue()),
		'stderr': usage.sub('Usage: artincalc ', err.getvalue()),
		'outfile': written.read_text() if written.exists() else None}


EXPECTED = json.loads(GOLDEN.read_text(encoding='utf-8')) if GOLDEN.exists() else {}


@pytest.mark.parametrize('case', sorted(CASES))
def test_golden(case, tmp_path, monkeypatch):
	monkeypatch.chdir(tmp_path)
	monkeypatch.setenv('COLUMNS', '80')
	monkeypatch.delenv('ARTIN_CACHE_DIR', raising=False)
	assert run_case(CASES[case]) == EXPECTED[case]


def test_corpus_covers_every_subcommand():
	ran = {argv[0] for argv in CASES.values() if argv and '--help' not in argv}
	assert ran >= set(climod.cli.commands)
	assert sorted(EXPECTED) == sorted(CASES)


def regenerate():
	os.environ['COLUMNS'] = '80'
	os.environ.pop('ARTIN_CACHE_DIR', None)
	here = os.getcwd()
	records = {}
	for case in sorted(CASES):
		with tempfile.TemporaryDirectory() as d:
			os.chdir(d)
			try:
				records[case] = run_case(CASES[case])
			finally:
				os.chdir(here)
	GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True, ensure_ascii=False)
		+ '\n', encoding='utf-8')
	print('%d cases written to %s' % (len(records), GOLDEN), file=sys.stderr)


if __name__ == '__main__':
	regenerate()
