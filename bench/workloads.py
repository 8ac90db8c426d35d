''' The four workloads: how each round's inputs are made from the seed, how
each query calls the program, and how each answer is checked.

A round is a fixed batch of queries made from (workload, seed) alone, and
every round of a run is the same batch.  Inputs are drawn to fixed quotas
per category, so every seed has the same mix of cheap and expensive
queries; only the concrete words change.  The program receives only the generated inputs:
presentation texts (loaded during set-up) and words.
'''

from __future__ import annotations

import json
import math
import os
import random

import oracles as O

SPHERICAL = {'A2': 'gens: a b\nrel: aba = bab\n',
	'I24': 'gens: a b\nrel: abab = baba\n'}
SPHERICAL_RELS = {'A2': O.A2_RELS, 'I24': O.I24_RELS}
PLAIN = frozenset({'0', '1', '2r', '2l'})
WITH_INSERTIONS = frozenset({'0', '1', 'inf'})
# criterion 4 of the acceptance tests
SEARCH_LIMITS = dict(max_steps=12, max_word_length=16, max_insertions=4,
	max_visited=450)


def rng_for(workload, seed):
	return random.Random('%s/%d' % (workload, seed))


def random_word(rng, gens, n):
	return tuple((rng.choice(gens), rng.choice((1, -1))) for _ in range(n))


def presentation_text(gens, rels):
	return 'gens: %s\n' % ' '.join(gens) + ''.join(
		'rel: %s = %s\n' % (l, r) for l, r in rels)


class RightAngled:
	'''A right-angled presentation made by the benchmark: generators and
	the set of commuting pairs.'''

	def __init__(self, gens, pairs):
		self.gens = tuple(gens)
		self.pairs = frozenset(frozenset(p) for p in pairs)
		self.rels = tuple((x + y, y + x) for x, y in sorted(tuple(sorted(p))
			for p in self.pairs))

	def commute(self, x, y):
		return x != y and frozenset((x, y)) in self.pairs

	def text(self):
		return presentation_text(self.gens, self.rels)

	@classmethod
	def random(cls, rng, n):
		'''Each pair commutes with probability 1/2; at least one pair
		commutes and one does not.'''
		gens = 'abcdefg'[:n]
		all_pairs = [(x, y) for i, x in enumerate(gens) for y in gens[i + 1:]]
		while True:
			pairs = [pr for pr in all_pairs if rng.random() < 0.5]
			if 0 < len(pairs) < len(all_pairs):
				return cls(gens, pairs)

	@classmethod
	def free_product_parts(cls, parts):
		'''Direct product of free groups: letters of different parts commute.'''
		gens = ''.join(parts)
		pairs = [(x, y) for i, a in enumerate(parts) for b in parts[i + 1:]
			for x in a for y in b]
		return cls(gens, pairs)

	def trivial_word(self, rng, length):
		'''Random pair insertions, then 4 * length random commutations.'''
		w = ()
		while len(w) < length:
			g, e, at = rng.choice(self.gens), rng.choice((1, -1)), rng.randrange(len(w) + 1)
			w = w[:at] + ((g, e), (g, -e)) + w[at:]
		for _ in range(4 * len(w)):
			i = rng.randrange(len(w) - 1)
			if self.commute(w[i][0], w[i + 1][0]):
				w = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
		return w

	def nontrivial_word(self, rng, length):
		'''A trivial word with the commutator s t s^-1 t^-1 of a
		non-commuting pair spliced in: a conjugate of that commutator,
		hence not 1.'''
		w = self.trivial_word(rng, length - 4)
		s, t = rng.choice([(x, y) for x in self.gens for y in self.gens
			if x != y and not self.commute(x, y)])
		at = rng.randrange(len(w) + 1)
		return w[:at] + ((s, 1), (t, 1), (s, -1), (t, -1)) + w[at:]


# ---------------------------------------------------------------------------

class Workload:
	'''prepare() is pure benchmark code; execute() calls the program;
	check() compares one answer with the oracles and raises OracleError.'''

	name = None

	def prepare(self, seed):
		raise NotImplementedError

	@staticmethod
	def setup_args(job):
		'''The worker's presentation arguments: name, spherical flag, text.'''
		out = []
		for name, text in job['presentations'].items():
			out += [name, '1' if name in SPHERICAL else '0', text]
		return out


class WpSearch(Workload):
	'''Short A2 and I24 words.  Query "ins": decide the word by reversing,
	then search toward the empty word with kinds {0,1,inf}.  Query "plain":
	the same search with kinds {0,1,2}.'''

	name = 'wp-search'
	# per presentation and round: one trivial word, one word to which no
	# {0,1,2} step applies, and one word with a step for each length here.
	# The {0,1,2} search of such a word of length 7 or 8 nearly always
	# reaches the node cap, while shorter ones go either way; a varying
	# count of capped searches would make the cost of a round depend on the
	# seed.  The capped I24 searches are the slowest fifth of the round, so
	# p90 falls inside them and p50 inside the {0,1,inf} searches.  A round
	# (24 queries) takes about 3 s, so a run holds ten or more.
	LIVE_LENGTHS = {'A2': (7, 8, 7), 'I24': (7, 8, 7, 8, 8)}

	def prepare(self, seed):
		rng = rng_for(self.name, seed)
		words = []
		for pname in ('A2', 'I24'):
			rels = SPHERICAL_RELS[pname]
			want = {'trivial': 1, 'stuck': 1}
			for n in self.LIVE_LENGTHS[pname]:
				want[n] = want.get(n, 0) + 1
			while any(want.values()):
				w = random_word(rng, 'ab', rng.randrange(0, 9))
				if O.burau_trivial(pname, w):
					cat = 'trivial' if w else None
				elif O.has_step('ab', rels, w, PLAIN):
					cat = len(w)
				else:
					cat = 'stuck'
				if want.get(cat):
					want[cat] -= 1
					words.append((pname, w))
		rng.shuffle(words)
		queries = [(op, pname, w) for pname, w in words for op in ('ins', 'plain')]
		return {'presentations': dict(SPHERICAL), 'queries': queries}

	def execute(self, P, q, ctx):
		from artincalc import word_problem_spherical, bounded_derivation_search, SearchLimits
		op, pname, w = q
		limits = SearchLimits(**SEARCH_LIMITS)
		if op == 'ins':
			return (word_problem_spherical(P[pname], w),
				bounded_derivation_search(P[pname], w, (), set(WITH_INSERTIONS), limits))
		return bounded_derivation_search(P[pname], w, (), set(PLAIN), limits)

	def check(self, P, q, out, ctx):
		op, pname, w = q
		rels = SPHERICAL_RELS[pname]
		trivial = O.burau_trivial(pname, w)
		if op == 'ins':
			(got, trace), out = out
			if got != trivial:
				raise O.OracleError('wp verdict %s for %s' % (got, O.render(w)))
			end = O.replay('ab', rels, w, map(O.step_fields, trace.steps),
				{'0', '2r', '2l'})
			if got and end != ():
				raise O.OracleError('wp trace does not end at the empty word')
			if not O.same_element(pname, end, w):
				raise O.OracleError('wp trace changed the element')
		kinds = WITH_INSERTIONS if op == 'ins' else PLAIN
		if out.result == 'found':
			end = O.replay('ab', rels, w, map(O.step_fields, out.derivation.steps), kinds)
			if end != () or not trivial:
				raise O.OracleError('found derivation of %s is wrong' % O.render(w))
		elif out.result == 'dead' and O.has_step('ab', rels, w, kinds - {'inf'}):
			raise O.OracleError('%s reported dead but has a step' % O.render(w))
		if out.conclusive and out.result != 'found' and trivial:
			raise O.OracleError('conclusive %s for trivial %s' % (out.result, O.render(w)))


class SphericalArith(Workload):
	'''Long A2 and I24 words through fractions and the word problem, mixed
	with positive-monoid queries and closures of right-angled words.'''

	name = 'spherical-arith'
	# Per presentation and round.  The coset heads (mostly reversing of
	# short words) are the middle of the latency distribution and the
	# closures its top tenth, so both percentiles sit inside one population.
	LONG_WORDS = 60          # right_fraction and word problem, lengths 20..80
	LCM = 48
	DIVIDES = 48
	COSET = 120
	FRAGMENT = (7, 8) * 9    # divisor fragments of these lengths
	# right-angled closures, 24 times per round: the parts of a direct
	# product of free monoids and the letter count per part; the class size
	# is the multinomial (210 to 330 members)
	CLOSURES = ((('ab', 'cd'), (5, 5)), (('ab', 'cde'), (6, 4)),
		(('abc', 'de'), (7, 4)), (('ab', 'cd', 'e'), (3, 2, 2)))

	def prepare(self, seed):
		rng = rng_for(self.name, seed)
		qs = []
		for pname in ('A2', 'I24'):
			for k in range(self.LONG_WORDS):
				w = random_word(rng, 'ab', 20 + k + rng.randrange(2))
				qs += [('fraction', pname, w), ('wp', pname, w)]
			for _ in range(self.LCM):
				qs.append(('lcm', pname, self._pos(rng, 1, 4), self._pos(rng, 1, 4)))
			for _ in range(self.DIVIDES):
				qs.append(('divides', pname, self._pos(rng, 1, 3), self._pos(rng, 1, 6)))
			for _ in range(self.COSET):
				qs.append(('coset', pname, random_word(rng, 'ab', rng.randrange(1, 9)),
					rng.choice('ab')))
			for n in self.FRAGMENT:
				qs.append(('fragment', pname, self._pos(rng, n, n)))
		texts = dict(SPHERICAL)
		for i, (parts, counts) in enumerate(self.CLOSURES * 24):
			name = 'RA%d' % (i % len(self.CLOSURES))
			texts[name] = RightAngled.free_product_parts(parts).text()
			letters = [rng.choice(part) for part, k in zip(parts, counts)
				for _ in range(k)]
			rng.shuffle(letters)
			qs.append(('canonical', name, ''.join(letters), parts))
		rng.shuffle(qs)
		return {'presentations': texts, 'queries': qs}

	@staticmethod
	def _pos(rng, lo, hi):
		return ''.join(rng.choice('ab') for _ in range(rng.randrange(lo, hi + 1)))

	def execute(self, P, q, ctx):
		import artincalc as A
		op, pname = q[0], q[1]
		p = P[pname]
		if op == 'fraction':
			return A.right_fraction(p, q[2])
		if op == 'wp':
			return A.word_problem_spherical(p, q[2])
		if op == 'lcm':
			return A.right_lcm(p, tuple(q[2]), tuple(q[3]))
		if op == 'divides':
			return A.right_divides(p, tuple(q[2]), tuple(q[3]))
		if op == 'coset':
			return A.coset_head_spherical(p, q[2], {q[3]})
		if op == 'fragment':
			return A.divisor_fragment(p, tuple(q[2]))
		if op == 'canonical':
			return A.canonical(p, tuple(q[2]))
		raise ValueError(op)

	def check(self, P, q, out, ctx):
		op, pname = q[0], q[1]
		if op == 'canonical':
			parts = q[3]
			ra = RightAngled.free_product_parts(parts)
			cls = O.closure(ra.rels, q[2])
			size = math.factorial(len(q[2]))
			for part in parts:
				size //= math.factorial(sum(q[2].count(g) for g in part))
			if len(cls) != size or O.linear_extensions(ra.commute, q[2]) != size:
				raise O.OracleError('closure size of %s' % q[2])
			if ''.join(out) != min(cls) or ''.join(out) != O.lex_normal_form(ra.commute, q[2]):
				raise O.OracleError('canonical form of %s' % q[2])
			from artincalc import equiv_class
			if len(equiv_class(P[pname], tuple(q[2]))) != size:
				raise O.OracleError('program class size of %s' % q[2])
			return
		rels = SPHERICAL_RELS[pname]
		C = ctx.setdefault(('closures', pname), O.Closures(rels))
		if op == 'fraction':
			n, d = ''.join(out.numerator), ''.join(out.denominator)
			if not O.same_element(pname, q[2], O.pos(n) + O.neg(d)):
				raise O.OracleError('fraction of %s' % O.render(q[2]))
			end = O.replay('ab', rels, q[2], map(O.step_fields, out.trace.steps),
				{'0', '2r', '2l'})
			if end != O.pos(n) + O.neg(d):
				raise O.OracleError('fraction trace of %s' % O.render(q[2]))
		elif op == 'wp':
			if out[0] != O.burau_trivial(pname, q[2]):
				raise O.OracleError('wp verdict for %s' % O.render(q[2]))
		elif op == 'lcm':
			if ''.join(out) != C.canon(C.lcm('ab', q[2], q[3])):
				raise O.OracleError('lcm of %s, %s' % (q[2], q[3]))
		elif op == 'divides':
			if out != C.right_divides(q[2], q[3]):
				raise O.OracleError('%s right-divides %s' % (q[2], q[3]))
		elif op == 'coset':
			v, u, trace = out
			s0 = q[3]
			if any(g != s0 or e != 1 for g, e in u):
				raise O.OracleError('coset tail %s not over %s' % (O.render(u), s0))
			end = O.replay('ab', rels, q[2], map(O.step_fields, trace.steps), PLAIN)
			if end != tuple(v) + tuple(u) or not O.same_element(pname, q[2], end):
				raise O.OracleError('coset trace of %s' % O.render(q[2]))
			k = 0
			while k < len(v) and v[k][1] == -1:
				k += 1
			head = ''.join(g for g, e in v[k:])
			if any(e != 1 for g, e in v[k:]) or any(m.endswith(s0) for m in C.cls(head)):
				raise O.OracleError('coset head of %s not minimal' % O.render(q[2]))
		elif op == 'fragment':
			verts = C.divisors(q[2])
			if {''.join(x) for x in out.vertices} != verts:
				raise O.OracleError('fragment vertices of %s' % q[2])
			edges = {(x, s, C.canon(x + s)) for x in verts for s in 'ab'
				if C.canon(x + s) in verts}
			if {(''.join(x), s, ''.join(y)) for x, s, y in out.edges} != edges:
				raise O.OracleError('fragment edges of %s' % q[2])


class RaagElim(Workload):
	'''Random right-angled presentations: {0,1,inf} derivations of trivial
	words and their elimination, and the shuffle word problem on words
	that are not trivial by construction.'''

	name = 'raag-elim'
	TRIVIAL = 96     # per round: one presentation each, lengths 60..200
	NONTRIVIAL = 96

	def prepare(self, seed):
		rng = rng_for(self.name, seed)
		texts, qs, pres = {}, [], {}
		for i in range(self.TRIVIAL + self.NONTRIVIAL):
			ra = RightAngled.random(rng, 3 + i % 5)
			name = 'R%d' % i
			texts[name] = ra.text()
			pres[name] = (ra.gens, ra.rels)
			# stratified lengths: one per slice of [60, 200]
			k = i % self.TRIVIAL
			length = 2 * ((60 + (140 * k + rng.randrange(140)) // self.TRIVIAL) // 2)
			if i < self.TRIVIAL:
				w = ra.trivial_word(rng, length)
				qs += [('gen', name, w), ('elim', name, w)]
			else:
				qs.append(('wp', name, ra.nontrivial_word(rng, length)))
		# shuffle, keeping each elimination after its derivation
		rng.shuffle(qs)
		gens = [q for q in qs if q[0] == 'gen']
		elims = {q[1]: q for q in qs if q[0] == 'elim'}
		order = []
		for q in qs:
			if q[0] == 'elim':
				continue
			order.append(q)
			if q[0] == 'gen':
				order.append(elims[q[1]])
		return {'presentations': texts, 'queries': order, 'rels': pres}

	def execute(self, P, q, ctx):
		from artincalc import (generate_01inf_derivation, eliminate_infinity,
			raag_word_problem)
		op, name, w = q
		if op == 'gen':
			d = generate_01inf_derivation(P[name], w)
			ctx[('gen', name)] = d
			return d
		if op == 'elim':
			return eliminate_infinity(P[name], ctx[('gen', name)])
		return raag_word_problem(P[name], w)

	def check(self, P, q, out, ctx):
		op, name, w = q
		gens, rels = ctx['rels'][name]
		if op == 'wp':
			if out is not None:
				raise O.OracleError('nontrivial %s reported trivial' % O.render(w))
			return
		kinds = WITH_INSERTIONS if op == 'gen' else PLAIN
		if tuple(out.start) != tuple(w):
			raise O.OracleError('%s derivation starts elsewhere' % op)
		if O.replay(gens, rels, w, map(O.step_fields, out.steps), kinds) != ():
			raise O.OracleError('%s derivation of %s does not reach 1' % (op, O.render(w)))


class CliCold(Workload):
	'''Each of the 20 subcommands once per round, as a fresh
	`python -m artincalc.cli` process, on small inputs.'''

	name = 'cli-cold'

	def prepare(self, seed):
		rng = rng_for(self.name, seed)
		ra = RightAngled.random(rng, 4)
		texts = dict(SPHERICAL)
		texts['RA'] = ra.text()
		texts['F2XF2'] = RightAngled.free_product_parts(('ab', 'cd')).text()

		def word(n, gens='ab'):
			return O.render(random_word(rng, gens, n))

		def posw(lo, hi):
			return ''.join(rng.choice('ab') for _ in range(rng.randrange(lo, hi + 1)))

		triv = ra.trivial_word(rng, 2 * rng.randrange(3, 6))
		# a {0, inf} derivation for replay: insert a pair, cancel it, then
		# cancel the nested pairs of a word made by insertions only
		nested = ()
		for _ in range(3):
			g, e = rng.choice(ra.gens), rng.choice((1, -1))
			nested = ((g, e),) + nested + ((g, -e),)
		g = rng.choice(ra.gens)
		replay_steps = [{'kind': 'inf', 'pos': 3, 'letter': g, 'sign': 1},
			{'kind': '0r', 'pos': 3}] + [
			{'kind': '0r' if nested[2 - i][1] == 1 else '0l', 'pos': 2 - i}
			for i in range(3)]
		# a {0,1,inf} derivation for eliminate-inf: x y X Y with x y = y x,
		# an inserted and cancelled pair, then commute and cancel
		x, y = min(tuple(sorted(pr)) for pr in ra.pairs)
		rel = ra.rels.index((x + y, y + x))
		elim_start = ((x, 1), (y, 1), (x, -1), (y, -1))
		elim_steps = [{'kind': 'inf', 'pos': 2, 'letter': y, 'sign': -1},
			{'kind': '0l', 'pos': 2},
			{'kind': '1', 'pos': 0, 'rel': rel, 'orient': 'fwd', 'sign': 1},
			{'kind': '0r', 'pos': 1}, {'kind': '0r', 'pos': 0}]
		files = {
			'replay.json': {'schema': 1, 'start': O.render(nested),
				'steps': replay_steps, 'end': ''},
			'elim.json': {'schema': 1, 'start': O.render(elim_start),
				'steps': elim_steps, 'end': ''},
		}
		a2w = word(rng.randrange(2, 8))
		u, v = random_word(rng, 'ab', 2), random_word(rng, 'ab', 1)
		search_word = u + v + O.inverse(v) + O.inverse(u)
		s0 = rng.choice('ab')
		qs = [
			('validate', ['validate', '-p', 'RA']),
			('steps', ['steps', '-p', 'A2', '-w', word(6), '--json']),
			('apply', ['apply', '-p', 'A2', '-w', 'Ab' + word(4), '--step',
				json.dumps({'kind': '2r', 'pos': 0, 'rel': 0, 'orient': 'fwd',
					'split': 0}), '--json']),
			('replay', ['replay', '-p', 'RA', '--in', 'replay.json', '--json']),
			('reverse', ['reverse', '-p', 'I24', '-w', word(10), '--json']),
			('fraction', ['fraction', '-p', 'I24', '-w', word(10), '--json']),
			('wp-spherical', ['wp-spherical', '-p', 'A2', '-w', a2w]),
			('wp-raag', ['wp-raag', '-p', 'RA', '-w', O.render(triv), '--json']),
			('eliminate-inf', ['eliminate-inf', '-p', 'RA', '--in', 'elim.json',
				'--out', 'elim-out.json']),
			('fuzz-raag', ['fuzz-raag', '--gens', '4', '--seed',
				str(rng.randrange(10 ** 6)), '--count', '3', '--json']),
			('class', ['class', '-p', 'F2XF2', '-w', ''.join(
				rng.choice('abcd') for _ in range(8)), '--json']),
			('divisors', ['divisors', '-p', 'I24', '-g', posw(3, 6), '--json']),
			('lcm', ['lcm', '-p', 'A2', '-u', posw(1, 3), '-v', posw(1, 3), '--json']),
			('minimal', ['minimal', '-p', 'I24', '-g', posw(2, 6), '--s0', s0, '--json']),
			('coset-head', ['coset-head', '-p', 'A2', '-w', word(6), '--s0', s0,
				'--json']),
			('cayley-trace', ['cayley-trace', '-p', 'I24', '-g', posw(4, 6),
				'-v', 'e', '-w', word(5), '--json']),
			# the CLI has no visited cap (100000 nodes): a word that is not
			# trivial takes seconds, so the search gets trivial words
			# u v v^-1 u^-1 that it settles in a few steps
			('search', ['search', '-p', 'A2', '-w', O.render(search_word),
				'--kinds', '0,1,inf', '--max-steps', '12', '--max-len', '16',
				'--max-ins', '4', '--json']),
			('dead', ['dead', '-p', 'F2XF2', '-w', word(6, 'abcd'), '--kinds',
				'0,2', '--json']),
			('dehn', ['dehn', '-p', 'A2', '-w', word(8), '--json']),
			('paper-examples', ['paper-examples', '--json']),
		]
		return {'presentations': texts, 'queries': qs, 'files': files,
			'ra': (ra.gens, sorted(tuple(sorted(p)) for p in ra.pairs))}

	def setup_files(self, job, workdir):
		for name, text in job['presentations'].items():
			with open(os.path.join(workdir, name), 'w') as f:
				f.write(text)
		for name, obj in job['files'].items():
			with open(os.path.join(workdir, name), 'w') as f:
				json.dump(obj, f)

	def check(self, P, q, out, ctx):
		cmd, argv = q
		code, text = out
		res = json.loads(text) if '--json' in argv and code in (0, 1, 2) else None
		arg = dict(zip(argv[1::2], argv[2::2]))
		pname = arg.get('-p')
		rels = {'A2': O.A2_RELS, 'I24': O.I24_RELS}.get(pname)
		gens, pairs = ctx['ra']
		ra = RightAngled(gens, pairs)
		F = RightAngled.free_product_parts(('ab', 'cd'))

		def need(ok, what):
			if not ok:
				raise O.OracleError('%s: %s (exit %d, output %r)'
					% (cmd, what, code, text[:200]))

		if cmd == 'validate':
			need(code == 0 and 'valid: True' in text and 'right_angled: True' in text,
				'flags')
		elif cmd == 'steps':
			w = O.parse(arg['-w'])
			need(code == 0, 'exit code')
			ends = [O.replay('ab', rels, w, [O.json_step_fields(s)], PLAIN) for s in res]
			need(all(O.same_element(pname, e, w) for e in ends), 'steps change the element')
			need(len(res) == count_steps(rels, w) and len(set(map(json.dumps, res)))
				== len(res), 'step count')
		elif cmd == 'apply':
			step = O.json_step_fields(json.loads(arg['--step']))
			want = O.replay('ab', rels, O.parse(arg['-w']), [step], PLAIN)
			need(code == 0 and res['word'] == O.render(want), 'applied word')
		elif cmd == 'replay':
			need(code == 0 and res['end'] == '' and len(res['steps']) == 5, 'replay end')
		elif cmd == 'reverse':
			w = O.parse(arg['-w'])
			out_w = O.parse(res['word'])
			k = 0
			while k < len(out_w) and out_w[k][1] == 1:
				k += 1
			need(code == 0 and res['converged'] and all(e == -1 for _, e in out_w[k:])
				and O.same_element(pname, w, out_w), 'reversed word')
		elif cmd == 'fraction':
			n, d = res['numerator'].replace('e', ''), res['denominator'].replace('e', '')
			need(code == 0 and O.same_element(pname, O.parse(arg['-w']),
				O.pos(n) + O.neg(d)), 'fraction')
		elif cmd == 'wp-spherical':
			triv = O.burau_trivial('A2', O.parse(arg['-w']))
			need(code == (0 if triv else 1) and text.strip() == str(triv).lower(),
				'verdict')
		elif cmd == 'wp-raag':
			w = O.parse(arg['-w'])
			end = O.replay(ra.gens, ra.rels, w,
				[O.json_step_fields(s) for s in res['trace']['steps']], PLAIN)
			need(code == 0 and res['trivial'] and end == (), 'derivation')
		elif cmd == 'eliminate-inf':
			with open(os.path.join(ctx['workdir'], 'elim-out.json')) as f:
				d = json.load(f)
			start = O.parse(d['start'])
			end = O.replay(ra.gens, ra.rels, start,
				[O.json_step_fields(s) for s in d['steps']], PLAIN)
			need(code == 0 and d['start'] == ctx['files']['elim.json']['start']
				and end == () and d['end'] == '', 'eliminated derivation')
		elif cmd == 'fuzz-raag':
			need(code == 0 and res == {'count': 3, 'failures': []}, 'round trips')
		elif cmd == 'class':
			u = arg['-w']
			cls = O.closure(F.rels, u)
			need(code == 0 and sorted(res['members']) == sorted(cls)
				and res['canonical'] == min(cls)
				and len(cls) == O.linear_extensions(F.commute, u), 'class')
		elif cmd == 'divisors':
			C = O.Closures(rels)
			want = sorted(x or 'e' for x in C.divisors(arg['-g']))
			need(code == 0 and sorted(res) == want, 'divisors')
		elif cmd == 'lcm':
			C = O.Closures(rels)
			need(code == 0 and res['lcm'] == C.canon(C.lcm('ab', arg['-u'], arg['-v'])),
				'lcm')
		elif cmd == 'minimal':
			C = O.Closures(rels)
			minimal = not any(m.endswith(arg['--s0']) for m in C.cls(arg['-g']))
			need(code == (0 if minimal else 1) and res['minimal'] == minimal, 'minimal')
		elif cmd == 'coset-head':
			w = O.parse(arg['-w'])
			v, u = O.parse(res['head']), O.parse(res['tail'])
			end = O.replay('ab', rels, w,
				[O.json_step_fields(s) for s in res['trace']['steps']], PLAIN)
			need(code == 0 and end == v + u and O.same_element(pname, w, v + u)
				and all(g == arg['--s0'] and e == 1 for g, e in u), 'coset head')
		elif cmd == 'cayley-trace':
			C = O.Closures(rels)
			verts = C.divisors(arg['-g'])
			traced = trace_in_fragment(C, verts, '', O.parse(arg['-w']))
			need(code == (0 if traced else 1) and res['traced'] == traced
				and res['vertices'] == len(verts), 'tracing')
		elif cmd == 'search':
			w = O.parse(arg['-w'])
			triv = O.burau_trivial('A2', w)
			if res['result'] == 'found':
				end = O.replay('ab', rels, w,
					[O.json_step_fields(s) for s in res['trace']['steps']], WITH_INSERTIONS)
				need(code == 0 and end == () and triv, 'found derivation')
			else:
				need(code in (1, 2) and not (res['conclusive'] and triv), 'verdict')
		elif cmd == 'dead':
			w = O.parse(arg['-w'])
			dead = bool(w) and not O.has_step(F.gens, F.rels, w, {'0', '2r', '2l'})
			need(code == (0 if dead else 1) and res['dead'] == dead, 'dead')
		elif cmd == 'dehn':
			end = O.parse(res['end'])
			need(code == (0 if end == () else 1)
				and O.same_element('A2', O.parse(arg['-w']), end), 'dehn end')
		elif cmd == 'paper-examples':
			need(code == 0 and len(res) == 6 and all(r['ok'] for r in res), 'examples')
		else:
			raise O.OracleError('unknown command %s' % cmd)


def count_steps(rels, w):
	'''Number of {0,1,2r,2l} steps applicable to w, counted position by
	position and factor by factor.'''
	text = O.render(w)
	n = 0
	for i in range(len(w) - 1):
		if w[i][0] == w[i + 1][0] and w[i][1] == -w[i + 1][1]:
			n += 1
	facs = []
	for l, r in rels:
		for a, b in ((l, r), (r, l)):
			facs += [O.render(O.pos(a)), O.render(O.neg(a))]
			for lv in range(1, len(a) + 1):
				for lvp in range(1, len(b) + 1):
					facs.append(O.render(O.neg(a[:lv]) + O.pos(b[:lvp])))
					facs.append(O.render(O.pos(a[len(a) - lv:]) + O.neg(b[len(b) - lvp:])))
	for f in facs:
		n += sum(1 for i in range(len(text) - len(f) + 1) if text.startswith(f, i))
	return n


def trace_in_fragment(C, verts, start, w):
	'''Follow w from the vertex start: positive letters forward, negative
	letters backward along generator edges between divisors.'''
	cur = start
	for g, e in w:
		if e == 1:
			nxt = C.canon(cur + g)
			if nxt not in verts:
				return False
		else:
			back = [x for x in verts if C.canon(x + g) == cur]
			if len(back) != 1:
				return False
			nxt = back[0]
		cur = nxt
	return True


WORKLOADS = {w.name: w for w in (WpSearch(), SphericalArith(), RaagElim(), CliCold())}
