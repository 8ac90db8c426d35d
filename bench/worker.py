''' One round of one workload in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED ROUND MODE [NAME SPHERICAL TEXT ...]

MODE is plain, traced, or probed (plain, then time bare and importing
interpreters for the cli.* metrics).  ROUND only names the span file;
ROUND -1 stops after set-up.

The presentation texts come on the command line, so set-up is exactly:
start the interpreter, import artincalc, parse the presentations (and mark
the spherical ones as declared spherical, as the CLI does).  The
parent reads the clock before starting this process; SETUP_END below is
the moment the first timed query may start.  The round's queries are then
made again from (workload, seed), run one after another in a closed
loop, and, in round 0, checked against the oracles after the timed phase.
Every round reports a digest of its answers, which must equal round 0's.
One JSON line on stdout reports the round.
'''

import sys
import time

_t = time.perf_counter()
import artincalc  # noqa: E402
import dataclasses  # noqa: E402  (already loaded by artincalc)
IMPORT_S = time.perf_counter() - _t
PRESENTATIONS = {}
for _name, _sph, _text in zip(sys.argv[5::3], sys.argv[6::3], sys.argv[7::3]):
	PRESENTATIONS[_name] = artincalc.parse_presentation_text(_text)
	if _sph == '1':
		PRESENTATIONS[_name] = dataclasses.replace(PRESENTATIONS[_name],
			declared_spherical=True)
SETUP_END = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))


def cli_env():
	env = dict(os.environ)
	env.pop('ARTIN_CACHE_DIR', None)
	return env


def run_cli(argv, workdir, traced, spanfile):
	'''One CLI subcommand as a child process; returns (exit code, stdout).'''
	if traced:
		cmd = [sys.executable, os.path.join(BENCH, 'cli_traced.py'), spanfile] + argv
	else:
		cmd = [sys.executable, '-m', 'artincalc.cli'] + argv
	proc = subprocess.run(cmd, cwd=workdir, env=cli_env(), stdout=subprocess.PIPE,
		stderr=subprocess.PIPE, text=True, timeout=60)
	return proc.returncode, proc.stdout


def read_json(path):
	with open(path) as f:
		return json.load(f)


def cli_probes(repeat=5):
	'''Median wall seconds of a bare interpreter and of one that only
	imports artincalc.cli, taken in turns.'''
	times = {'interp': [], 'import': []}
	for _ in range(repeat):
		for key, code in (('interp', 'pass'), ('import', 'import artincalc.cli')):
			t0 = time.perf_counter()
			subprocess.run([sys.executable, '-c', code], env=cli_env(), check=True)
			times[key].append(time.perf_counter() - t0)
	return {key: sorted(v)[repeat // 2] for key, v in times.items()}


def main():
	name, seed, rnd, mode = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
	traced = mode == 'traced'
	if rnd < 0:  # set-up only
		print(json.dumps({'setup_end': SETUP_END, 'import_s': IMPORT_S}))
		return
	wl = workloads.WORKLOADS[name]
	job = wl.prepare(seed)
	if job['presentations'] != dict(zip(sys.argv[5::3], sys.argv[7::3])):
		raise SystemExit('worker: presentations differ from the parent\'s')
	P = PRESENTATIONS
	ctx = {'rels': job.get('rels'), 'ra': job.get('ra'), 'files': job.get('files')}
	tracer = None
	if traced and name != 'cli-cold':
		tracer = tracing.Tracer()
		tracer.install()
	queries = job['queries']
	outs, lat = [None] * len(queries), [0.0] * len(queries)
	errors = []
	clock = time.perf_counter
	with tempfile.TemporaryDirectory(prefix='round-', dir=os.path.join(BENCH, 'work')) as workdir:
		ctx['workdir'] = workdir
		spanfiles = []
		if name == 'cli-cold':
			wl.setup_files(job, workdir)
		first = clock()
		for i, q in enumerate(queries):
			t0 = clock()
			try:
				if name == 'cli-cold':
					spanfile = os.path.join(workdir, 'spans-%d.json' % i)
					spanfiles.append(spanfile)
					outs[i] = run_cli(q[1], workdir, traced, spanfile)
				else:
					outs[i] = wl.execute(P, q, ctx)
			except Exception as e:  # a failed query is counted, not fatal
				outs[i] = e
			lat[i] = clock() - t0
		timed_s = clock() - first
		if name == 'cli-cold':
			rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
		else:
			rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
		probes = cli_probes() if mode == 'probed' else None
		summary = None
		if tracer is not None:
			summary = tracer.summary()
			spans = os.path.join(BENCH, 'results', 'spans')
			os.makedirs(spans, exist_ok=True)
			tracer.write_spans(os.path.join(spans, '%s-s%d-r%d.tsv.gz' % (name, seed, rnd)))
		elif traced:
			summary = tracing.merge(map(read_json, spanfiles))
		failed = 0
		for q, out in zip(queries, outs):
			if isinstance(out, Exception):
				failed += 1
				errors.append('%s failed: %s: %s' % (q[0], type(out).__name__, out))
				continue
			if rnd > 0:
				continue
			try:
				wl.check(P, q, out, ctx)
			except oracles.OracleError as e:
				errors.append('%s wrong: %s' % (q[0], e))
	report = {
		'setup_end': SETUP_END, 'import_s': IMPORT_S, 'timed_s': timed_s,
		'latencies': lat, 'rss_kb': rss_kb,
		'attempted': len(queries), 'failed': failed,
		'wrong': len(errors) - failed, 'errors': errors[:20],
		'summary': summary, 'probes': probes,
		'digest': hashlib.sha256(repr(outs).encode()).hexdigest(),
	}
	print(json.dumps(report))


if __name__ == '__main__':
	main()
