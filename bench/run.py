''' artincalc benchmark: four workloads, end-to-end metrics, and a traced
run for per-layer metrics.

    python3 bench/run.py --workload wp-search --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (it needs src/artincalc).  Each
round is one fresh worker process (bench/worker.py) doing the same batch
of queries; a run starts rounds while the next one is expected to end
within --seconds, always finishing the round it started.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 every
round runs twice on the same inputs, untraced and traced, and the metrics
are the per-layer ones.  --out FILE appends the result, with its
workload, seed and run length, to FILE as one JSON line (see compare.py).
'''

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 11   # set-up times per run, from rounds and set-up-only starts
ROUND_TIMEOUT = 150
# Every round of a run does the same work, and the host's speed drifts by
# up to a factor 1.6 in stretches of seconds to minutes; the end-to-end
# metrics therefore pool every round of the run and every set-up sample,
# rather than favour the fast rounds (see README.md).


class BenchError(RuntimeError):
	pass


def worker_env(src):
	env = dict(os.environ)
	env.pop('ARTIN_CACHE_DIR', None)
	env.pop('PYTHONDONTWRITEBYTECODE', None)
	env['PYTHONHASHSEED'] = '0'
	env['PYTHONPATH'] = src
	return env


def run_worker(wl, job, seed, rnd, mode, env):
	'''Start one worker (mode plain, traced or probed); returns its report
	with setup_s filled in.'''
	cmd = [sys.executable, os.path.join(BENCH, 'worker.py'), wl.name, str(seed),
		str(rnd), mode] + wl.setup_args(job)
	t0 = time.perf_counter()
	proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=ROUND_TIMEOUT)
	if proc.returncode != 0 or not proc.stdout.strip():
		raise BenchError('worker for %s round %d exited with %d'
			% (wl.name, rnd, proc.returncode))
	rep = json.loads(proc.stdout.decode().strip().splitlines()[-1])
	rep['setup_s'] = rep['setup_end'] - t0
	return rep


def percentile(values, q):
	'''The q-th percentile (0 < q < 100), interpolated between ranks.'''
	return statistics.quantiles(values, n=100, method='inclusive')[q - 1]


def end_to_end(rounds, setups):
	lat = [x for r in rounds for x in r['latencies']]
	return {
		'throughput_qps': (len(lat) / sum(r['timed_s'] for r in rounds), '1/s'),
		'latency_p50_ms': (1e3 * percentile(lat, 50), 'ms'),
		'latency_p90_ms': (1e3 * percentile(lat, 90), 'ms'),
		'peak_rss_mb': (max(r['rss_kb'] for r in rounds) / 1024.0, 'MB'),
		'setup_s': (statistics.median(setups), 's'),
	}


def per_layer(plain, traced, imports):
	n = len(traced)
	summary = tracing.merge(r['summary'] for r in traced)
	out = tracing.layer_metrics(summary, n, sum(r['timed_s'] for r in traced))
	out['init.import_ms'] = (1e3 * statistics.median(imports), 'ms')
	probed = [r for r in plain if r.get('probes')]
	interp = cli_import = command = 0.0
	if probed:
		interp = statistics.median(r['probes']['interp'] for r in probed)
		cli_import = statistics.median(r['probes']['import'] - r['probes']['interp']
			for r in probed)
		command = statistics.median(statistics.median(r['latencies'])
			- r['probes']['import'] for r in probed)
	out['cli.interp_ms'] = (1e3 * interp, 'ms')
	out['cli.import_ms'] = (1e3 * cli_import, 'ms')
	out['cli.command_ms'] = (1e3 * command, 'ms')
	slow = sum(r['timed_s'] for r in traced) / sum(r['timed_s'] for r in plain)
	out['trace.overhead_pct'] = (100.0 * (slow - 1.0), '%')
	return out


def check_names(root, metrics, kind):
	'''The metrics printed must be exactly those BENCHMARK.json lists.'''
	path = os.path.join(root, 'BENCHMARK.json')
	if not os.path.exists(path):
		return
	with open(path) as f:
		spec = json.load(f)
	want = {m['name']: m['unit'] for m in spec[kind]}
	got = {k: u for k, (v, u) in metrics.items()}
	if want != got:
		raise BenchError('metrics differ from BENCHMARK.json %s: %s'
			% (kind, sorted(set(want.items()) ^ set(got.items()))))


def run(workload, seed, seconds, trace):
	root = os.getcwd()
	src = os.path.join(root, 'src')
	if not os.path.isfile(os.path.join(src, 'artincalc', '__init__.py')):
		raise BenchError('no src/artincalc under %s: run from a source checkout' % root)
	wl = workloads.WORKLOADS[workload]
	oracles.self_check()
	for d in (src, BENCH):
		if not compileall.compile_dir(d, quiet=1):
			raise BenchError('could not compile %s' % d)
	os.makedirs(os.path.join(BENCH, 'work'), exist_ok=True)
	env = worker_env(src)
	job = wl.prepare(seed)
	plain, traced, setup_only = [], [], []
	# whole rounds only: start another while it is expected to end in time;
	# set-up-only starts are spread over the run
	start = time.perf_counter()
	rnd = 0
	while rnd == 0 or (time.perf_counter() - start) * (rnd + 1) / rnd <= seconds:
		probe = trace and wl.name == 'cli-cold'
		plain.append(run_worker(wl, job, seed, rnd, 'probed' if probe else 'plain', env))
		if trace:
			traced.append(run_worker(wl, job, seed, rnd, 'traced', env))
		rnd += 1
		due = SETUP_SAMPLES * (time.perf_counter() - start) / seconds
		if len(plain) + len(setup_only) < due:
			setup_only.append(run_worker(wl, job, seed, -1, 'plain', env))
	while len(plain) + len(setup_only) < SETUP_SAMPLES:
		setup_only.append(run_worker(wl, job, seed, -1, 'plain', env))
	setups = [r['setup_s'] for r in plain + setup_only]
	imports = [r['import_s'] for r in plain + traced + setup_only]
	rounds = plain + traced
	errors = [e for r in rounds for e in r['errors']]
	for r in rounds:
		if r['digest'] != plain[0]['digest']:
			r['wrong'] += 1
			errors.append('answers differ from those of round 0, which were checked')
	for e in errors[:10]:
		print('error:', e)
	metrics = per_layer(plain, traced, imports) if trace else end_to_end(plain, setups)
	check_names(root, metrics, 'per_layer' if trace else 'end_to_end')
	print('%s seed %d: %d rounds, %d queries per round'
		% (workload, seed, len(plain), plain[0]['attempted']))
	for name, (value, unit) in metrics.items():
		print('  %-40s %14.4f %s' % (name, value, unit))
	result = {
		'correct': not any(r['wrong'] for r in rounds),
		'attempted': sum(r['attempted'] for r in rounds),
		'failed': sum(r['failed'] for r in rounds),
		'metrics': {k: {'value': v, 'unit': u} for k, (v, u) in metrics.items()},
	}
	detail = {'rounds': [{'timed_s': r['timed_s'], 'latencies': r['latencies']}
		for r in plain], 'setups': setups}
	return result, detail


def main(argv=None):
	ap = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
	ap.add_argument('--workload', required=True, choices=sorted(workloads.WORKLOADS))
	ap.add_argument('--seed', type=int, required=True)
	ap.add_argument('--seconds', type=float, required=True)
	ap.add_argument('--trace', type=int, choices=(0, 1), default=0)
	ap.add_argument('--out', help='append the result as one JSON line to this file')
	a = ap.parse_args(argv)
	try:
		result, detail = run(a.workload, a.seed, a.seconds, a.trace)
	except (BenchError, oracles.OracleError, subprocess.TimeoutExpired) as e:
		print('benchmark error: %s' % e, file=sys.stderr)
		return 1
	if a.out:
		with open(a.out, 'a') as f:
			f.write(json.dumps({'workload': a.workload, 'seed': a.seed,
				'seconds': a.seconds, 'trace': a.trace, 'result': result,
				'detail': detail}) + '\n')
	print(json.dumps(result))
	return 0


if __name__ == '__main__':
	sys.exit(main())
