''' Summarize or compare sets of benchmark runs.

    python3 bench/compare.py BASE.jsonl [NEW.jsonl]

Each file holds result lines appended by `run.py --out FILE`, typically
ten seeds per workload.  For one file, print per workload and metric the
median, the quartiles and the spread (quartile distance over median).  For
two files, print both sides and the ratio NEW/BASE of the medians, with
the base it is taken against, and flag a change beyond the metric's bound
in BENCHMARK.json as worse or better by its direction.
'''

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
	'''{(workload, trace): {metric: [values]}} and failed shares.'''
	runs, shares = {}, {}
	with open(path) as f:
		for line in f:
			if not line.strip():
				continue
			rec = json.loads(line)
			key = (rec['workload'], rec['trace'])
			res = rec['result']
			for name, m in res['metrics'].items():
				runs.setdefault(key, {}).setdefault(name, []).append(m['value'])
			shares.setdefault(key, set()).add((res['failed'], res['attempted'])
				if res['failed'] else (0, 1))
	return runs, shares


def quartiles(values):
	if len(values) < 2:
		return values[0], values[0], values[0]
	q1, med, q3 = statistics.quantiles(values, n=4)
	return q1, med, q3


def bounds():
	path = os.path.join(ROOT, 'BENCHMARK.json')
	if not os.path.exists(path):
		return {}
	with open(path) as f:
		spec = json.load(f)
	return {m['name']: m for m in spec['end_to_end'] + spec['per_layer']}


def main(argv):
	if not 1 <= len(argv) <= 2:
		print(__doc__.strip())
		return 64
	sets = [load(p) for p in argv]
	spec = bounds()
	base_runs, base_shares = sets[0]
	for key in sorted(base_runs):
		workload, trace = key
		print('%s%s' % (workload, ' (traced)' if trace else ''))
		for s_runs, s_shares in sets:
			shares = {'%d/%d' % x if x[0] else '0' for x in s_shares.get(key, ())}
			print('  failed share per run: %s' % ', '.join(sorted(shares)))
		for name, values in base_runs[key].items():
			q1, med, q3 = quartiles(values)
			line = '  %-38s n=%-2d median %12.4f  [%.4f, %.4f]  spread %5.1f%%' % (
				name, len(values), med, q1, q3, 100 * (q3 - q1) / med if med else 0.0)
			if len(sets) == 2 and name in sets[1][0].get(key, {}):
				nq1, nmed, nq3 = quartiles(sets[1][0][key][name])
				ratio = nmed / med if med else float('nan')
				line += '\n  %38s      new %12.4f  [%.4f, %.4f]  ratio %.4f of base %.4f' % (
					'', nmed, nq1, nq3, ratio, med)
				m = spec.get(name)
				if m and 'bound' in m and med:
					worse = ratio - 1 if m['better'] == 'lower' else 1 - ratio
					if worse > m['bound']:
						line += '  WORSE beyond bound %.2f' % m['bound']
					elif -worse > m['bound']:
						line += '  better beyond bound %.2f' % m['bound']
			print(line)
	return 0


if __name__ == '__main__':
	sys.exit(main(sys.argv[1:]))
