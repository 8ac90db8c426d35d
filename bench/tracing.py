''' Traced mode: wrap artincalc's public functions from outside, wherever
its modules bind them, and turn the recorded spans into per-layer metrics.

Each call of a wrapped function records one span (name, start, end,
parent) in memory.  A span's self time is its duration minus the time its
wrapped children took.  Counts (search nodes, reversing steps, class
members, fragment vertices, elimination steps) are read from arguments and
results at the same boundary.
'''

from __future__ import annotations

import sys
import time

TRACED = {
	'core': ('parse_word', 'parse_presentation_text', 'load_presentation'),
	'rewrite': ('applicable_steps', 'apply_step', 'check_derivation',
		'simulate_type2', 'dehn_steps'),
	'reversing': ('right_reverse', 'left_reverse', 'right_fraction',
		'left_fraction', 'word_problem_spherical'),
	'monoid': ('equiv_class', 'canonical', 'pos_equal', 'right_divides',
		'right_lcm', 'left_divisors', 'is_S0_minimal', 'coset_head_spherical'),
	'cayley': ('divisor_fragment',),
	'search': ('bounded_derivation_search', 'is_dead', 'dehn_run'),
	'raag': ('generate_01inf_derivation', 'lift_derivation', 'eliminate_infinity',
		'raag_word_problem', 'apply_aug_step', 'is_regular', 'project_step'),
}


def _search_name(args, kwargs):
	kinds = args[3] if len(args) > 3 else kwargs['kinds']
	return 'search.ins' if 'inf' in kinds else 'search.plain'


class Tracer:
	'''Spans of one process, kept in memory until summary() is called.'''

	def __init__(self):
		self.spans = []      # [name, start, end, parent index]
		self.counts = {}
		self._open = []

	def _count(self, key, n):
		self.counts[key] = self.counts.get(key, 0) + n

	def wrapper(self, name, fn):
		spans, opened, clock = self.spans, self._open, time.perf_counter
		count = self._counter(name)

		def traced(*args, **kwargs):
			label = _search_name(args, kwargs) if name == 'search.bounded_derivation_search' else name
			span = [label, 0.0, 0.0, opened[-1] if opened else -1]
			opened.append(len(spans))
			spans.append(span)
			span[1] = clock()
			try:
				result = fn(*args, **kwargs)
			finally:
				span[2] = clock()
				opened.pop()
			if count:
				count(label, args, result)
			return result

		traced.__wrapped__ = fn
		return traced

	def _counter(self, name):
		c = self._count
		if name == 'search.bounded_derivation_search':
			def count(label, args, r):
				c(label + '.visited', r.visited)
				c(label + '.conclusive', int(r.conclusive))
		elif name in ('reversing.right_reverse', 'reversing.left_reverse'):
			def count(label, args, r):
				c(label + '.steps', r.step_count)
		elif name == 'monoid.equiv_class':
			def count(label, args, r):
				c(label + '.members', len(r))
		elif name == 'cayley.divisor_fragment':
			def count(label, args, r):
				c(label + '.vertices', len(r.vertices))
		elif name == 'raag.eliminate_infinity':
			def count(label, args, r):
				c('raag.steps_in', len(args[1].steps))
				c('raag.steps_out', len(r.steps))
		else:
			return None
		return count

	def install(self):
		'''Replace every binding of a traced function in the loaded
		artincalc modules (the package namespace included).'''
		originals = {}
		for mod, names in TRACED.items():
			m = sys.modules['artincalc.' + mod]
			for n in names:
				fn = getattr(m, n)
				originals[id(fn)] = self.wrapper(mod + '.' + n, fn)
		for modname, m in list(sys.modules.items()):
			if modname != 'artincalc' and not modname.startswith('artincalc.'):
				continue
			for attr, val in list(vars(m).items()):
				w = originals.get(id(val))
				if w is not None and callable(val):
					setattr(m, attr, w)

	def write_spans(self, path):
		'''All spans as gzipped tab-separated lines: name, start and
		duration in microseconds, parent index (-1 for none).'''
		import gzip
		with gzip.open(path, 'wt') as f:
			for name, t0, t1, parent in self.spans:
				f.write('%s\t%.1f\t%.1f\t%d\n' % (name, 1e6 * t0, 1e6 * (t1 - t0), parent))

	def summary(self):
		'''Per-name calls, self seconds and inclusive seconds, plus counts.'''
		child = [0.0] * len(self.spans)
		for name, t0, t1, parent in self.spans:
			if parent >= 0:
				child[parent] += t1 - t0
		agg = {}
		for i, (name, t0, t1, parent) in enumerate(self.spans):
			a = agg.setdefault(name, [0, 0.0, 0.0])
			a[0] += 1
			a[1] += t1 - t0 - child[i]
			a[2] += t1 - t0
		return {'spans': agg, 'counts': dict(self.counts)}


def merge(summaries):
	'''Sum several summaries (the CLI children of one round).'''
	out = {'spans': {}, 'counts': {}}
	for s in summaries:
		for name, (n, self_s, incl_s) in s['spans'].items():
			a = out['spans'].setdefault(name, [0, 0.0, 0.0])
			a[0] += n
			a[1] += self_s
			a[2] += incl_s
		for k, v in s['counts'].items():
			out['counts'][k] = out['counts'].get(k, 0) + v
	return out


# per-layer metrics: calls, self time and counts of these layers
CALLS = ('rewrite.applicable_steps', 'rewrite.apply_step', 'reversing.right_reverse',
	'reversing.left_reverse', 'monoid.equiv_class', 'cayley.divisor_fragment',
	'raag.apply_aug_step', 'raag.is_regular', 'raag.project_step')
SELF = ('search.ins', 'search.plain', 'rewrite.applicable_steps', 'rewrite.apply_step',
	'rewrite.check_derivation', 'rewrite.simulate_type2', 'reversing.right_reverse',
	'reversing.left_reverse', 'monoid.equiv_class', 'monoid.canonical',
	'monoid.right_lcm', 'monoid.coset_head_spherical', 'cayley.divisor_fragment',
	'raag.generate_01inf_derivation', 'raag.lift_derivation',
	'raag.eliminate_infinity', 'raag.raag_word_problem', 'raag.apply_aug_step',
	'raag.is_regular', 'raag.project_step')
COUNTS = ('search.ins.visited', 'search.ins.conclusive', 'search.plain.visited',
	'search.plain.conclusive', 'reversing.right_reverse.steps',
	'reversing.left_reverse.steps', 'monoid.equiv_class.members',
	'cayley.divisor_fragment.vertices', 'raag.steps_in', 'raag.steps_out')


def layer_metrics(summary, rounds, timed_s):
	'''Per-layer metrics per round from the merged summary of `rounds`
	traced rounds whose timed phases took timed_s seconds in all.'''
	spans, counts = summary['spans'], summary['counts']
	out = {}
	for name in CALLS:
		out[name + '.calls'] = (spans.get(name, [0])[0] / rounds, 'count')
	listed = 0.0
	for name in SELF:
		s = spans.get(name, [0, 0.0, 0.0])[1]
		listed += s
		out[name + '.self_ms'] = (1e3 * s / rounds, 'ms')
	for name in COUNTS:
		out[name] = (counts.get(name, 0) / rounds, 'count')
	for kind in ('search.ins', 'search.plain'):
		nodes = counts.get(kind + '.visited', 0)
		incl = spans.get(kind, [0, 0.0, 0.0])[2]
		out[kind + '.us_per_node'] = (1e6 * incl / nodes if nodes else 0.0, 'us')
	out['trace.coverage_pct'] = (100.0 * listed / timed_s if timed_s else 0.0, '%')
	return out
