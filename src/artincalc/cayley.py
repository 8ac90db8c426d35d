''' Finite Cayley-graph fragments over left-divisor sets, word tracing,
and non-reachability certificates.

The fragment of an element g has the canonical forms of the left-divisors
of g as vertices and every generator-labeled edge between divisors.  Words
traced inside such a fragment stay traced under {0,1,2} transformations,
so exhibiting w traced and w' untraced certifies that w cannot be
transformed into w'.
'''

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .core import render_word, positive_to_word
from .monoid import canonical, left_divisors
from .rewrite import _successors


class FragmentError(ValueError):
	pass


@dataclass
class CayleyFragment:
	base: tuple
	vertices: frozenset
	edges: frozenset  # (source, generator, target), all canonical words
	_out: dict = field(default_factory=dict, repr=False)
	_in: dict = field(default_factory=dict, repr=False)

	def __post_init__(self):
		for u, s, t in self.edges:
			self._out[(u, s)] = t
			key = (t, s)
			if key in self._in:
				raise FragmentError(
					'duplicate %s-labeled in-edges at %r: left-cancellativity '
					'violated on this fragment' % (s, t))
			self._in[key] = u

	def forward(self, v, s):
		return self._out.get((v, s))

	def backward(self, v, s):
		return self._in.get((v, s))


def divisor_fragment(p, g):
	g = tuple(g)
	verts = left_divisors(p, g)
	edges = set()
	for u in verts:
		for s in p.generators:
			t = canonical(p, u + (s,))
			if t in verts:
				edges.add((u, s, t))
	return CayleyFragment(canonical(p, g), verts, frozenset(edges))


def traced_from(f, v, w):
	'''Follow w from vertex v: positive letters along edges, negative
	letters backward.  Returns (True, vertex path) or (False, position of
	the first failing letter).'''
	if v not in f.vertices:
		raise FragmentError('start vertex not in fragment')
	path = [v]
	cur = v
	for i, (g, e) in enumerate(w):
		nxt = f.forward(cur, g) if e == 1 else f.backward(cur, g)
		if nxt is None:
			return False, i
		path.append(nxt)
		cur = nxt
	return True, path


def closure_probe(p, f, v, w, trials=1000, walk_len=20, seed=0):
	'''Random {0,1,2} walks from w; every successor must stay traced.
	Violations are findings, reported rather than raised.'''
	ok, _ = traced_from(f, v, w)
	if not ok:
		raise FragmentError('probe word is not traced to begin with')
	rng = random.Random(seed)
	violations = []
	checked = 0
	for _ in range(trials):
		cur = p._encode(w)
		for _ in range(walk_len):
			succs = list(_successors(p, cur, {'0', '1', '2r', '2l'}))
			if not succs:
				break
			cur = rng.choice(succs)[3]
			checked += 1
			traced, info = traced_from(f, v, p._decode(cur))
			if not traced:
				violations.append((render_word(p._decode(cur), p), info))
				break
	return {'trials': trials, 'successors_checked': checked, 'violations': violations}


@dataclass
class TraceCertificate:
	traced_word: tuple
	untraced_word: tuple
	start_vertex: tuple
	fragment: CayleyFragment
	path: list
	failure_position: int


def non_reachability_certificate(p, g, v, w, w2):
	'''Certificate that w ~>_{0,1,2} w2 fails, if the divisor fragment of g
	separates them from start vertex v; None otherwise (absence of a
	certificate is not evidence of reachability).'''
	f = divisor_fragment(p, g)
	v = canonical(p, tuple(v))
	ok_w, path = traced_from(f, v, w)
	ok_w2, info = traced_from(f, v, w2)
	if ok_w and not ok_w2:
		return TraceCertificate(tuple(w), tuple(w2), v, f, path, info)
	return None


def to_dot(f, p=None):
	'''Graph text export for external rendering.'''
	def name(v):
		return '"%s"' % (render_word(positive_to_word(v), p) or '1')
	lines = ['digraph fragment {']
	for v in sorted(f.vertices):
		lines.append('  %s;' % name(v))
	for u, s, t in sorted(f.edges):
		lines.append('  %s -> %s [label="%s"];' % (name(u), name(t), s))
	lines.append('}')
	return '\n'.join(lines)
