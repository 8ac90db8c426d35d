import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / 'src' / 'artincalc'


def test_no_assert_statements():
	# python -O strips asserts, so broken invariants must raise typed errors
	found = []
	for path in sorted(SRC.glob('*.py')):
		for node in ast.walk(ast.parse(path.read_text(encoding='utf-8'))):
			if isinstance(node, ast.Assert):
				found.append('%s:%d' % (path.name, node.lineno))
	assert SRC.is_dir() and not found


# the messages of the step checks in rewrite._apply, _rule, oriented_relation
# and _replay, the one step core
STEP_CHECKS = ('position %r out of range', 'type 0 out of range',
	'no trivial pair at %d', 'insertion position out of range', 'unknown letter %r',
	'insertion sign must be 1 or -1, got %r', 'relation index %r out of range',
	'unknown orientation %r', 'type 1 sign must be 1 or -1, got %r', 'bad type %s split',
	'type %s factor mismatch at %d', 'unknown step kind %r', 'step %d inapplicable: %s')


def _step_error_messages():
	'''The format string of every StepError(...) made under src/artincalc.'''
	for path in sorted(SRC.glob('*.py')):
		for node in ast.walk(ast.parse(path.read_text(encoding='utf-8'))):
			if isinstance(node, ast.Call) and getattr(node.func, 'id', None) == 'StepError' \
					and node.args:
				arg = node.args[0]
				if isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Mod):
					arg = arg.left
				if isinstance(arg, ast.Constant):
					yield arg.value


def test_step_checks_live_once():
	# a second copy of the step checks (one on tuples beside the one on
	# encoded words, say) raises the same messages; the augmented steps of
	# raag share some wording, but raise AugError
	messages = list(_step_error_messages())
	assert {m: messages.count(m) for m in STEP_CHECKS} == dict.fromkeys(STEP_CHECKS, 1)


def test_rule_source_lives_once():
	# every type 1 and type 2 factor comes from Presentation's rule source;
	# core.step_factor, which builds one from tuples, is left to the test
	# references
	calls = []
	for path in sorted(SRC.glob('*.py')):
		for node in ast.walk(ast.parse(path.read_text(encoding='utf-8'))):
			if isinstance(node, ast.Call) and 'step_factor' in (
					getattr(node.func, 'id', None), getattr(node.func, 'attr', None)):
				calls.append('%s:%d' % (path.name, node.lineno))
	assert SRC.is_dir() and not calls


def test_one_code_table_per_presentation():
	# letters are encoded with the presentation's own table (core._Codes):
	# no function takes a table of its own, and no per-call copy is made
	params = []
	for path in sorted(SRC.glob('*.py')):
		for node in ast.walk(ast.parse(path.read_text(encoding='utf-8'))):
			if isinstance(node, (ast.FunctionDef, ast.Lambda)):
				a = node.args
				params += ['%s:%d' % (path.name, node.lineno)
					for x in a.posonlyargs + a.args + a.kwonlyargs if x.arg == 'codes']
	from artincalc.core import Presentation
	assert SRC.is_dir() and not params and not hasattr(Presentation, '_fresh_codes')


def test_positions_shift_only_in_embed():
	# a derivation of a factor is placed in the whole word by rewrite.embed
	# alone: no other replace(..., pos=...) shifts step positions by hand
	found, inside = [], 0
	for path in sorted(SRC.glob('*.py')):
		tree = ast.parse(path.read_text(encoding='utf-8'))
		skip = {id(n) for f in tree.body if path.name == 'rewrite.py'
			and isinstance(f, ast.FunctionDef) and f.name == 'embed' for n in ast.walk(f)}
		for node in ast.walk(tree):
			if isinstance(node, ast.Call) and 'replace' in (getattr(node.func, 'id', None),
					getattr(node.func, 'attr', None)) and any(k.arg == 'pos' for k in node.keywords):
				if id(node) in skip:
					inside += 1
				else:
					found.append('%s:%d' % (path.name, node.lineno))
	assert not found and inside == 1


def test_presentation_keeps_only_what_is_read():
	# every attribute Presentation defines, dunders aside, is read somewhere
	# under src/artincalc outside its own definition
	core = ast.parse((SRC / 'core.py').read_text(encoding='utf-8'))
	cls = next(n for n in core.body if isinstance(n, ast.ClassDef) and n.name == 'Presentation')
	defined = {(n.name if isinstance(n, ast.FunctionDef) else n.target.id): n
		for n in cls.body if isinstance(n, (ast.FunctionDef, ast.AnnAssign))}
	reads = []
	for path in sorted(SRC.glob('*.py')):
		tree = core if path.name == 'core.py' else ast.parse(path.read_text(encoding='utf-8'))
		reads += [(tree, n) for n in ast.walk(tree)
			if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)]
	unread = [name for name, d in defined.items() if not name.startswith('__')
		and not any(n.attr == name and not (tree is core and d.lineno <= n.lineno <= d.end_lineno)
			for tree, n in reads)]
	assert len(defined) > 10 and not unread


def test_cli_search_defaults_come_from_search_limits():
	# the limit options of search read their defaults from SearchLimits, so
	# the CLI keeps no second copy of them
	tree = ast.parse((SRC / 'cli.py').read_text(encoding='utf-8'))
	fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == 'search')
	defaults = {}
	for dec in fn.decorator_list:
		if isinstance(dec, ast.Call) and getattr(dec.func, 'attr', None) == 'option':
			kw = {k.arg: k.value for k in dec.keywords}
			defaults[dec.args[0].value] = kw.get('default')
	limits = ('--max-steps', '--max-len', '--max-ins', '--max-visited')
	assert all(isinstance(defaults[o], ast.Attribute) and defaults[o].value.id == 'SearchLimits'
		for o in limits)
	assert isinstance(defaults['--target'], ast.Constant)
	assert isinstance(defaults['--kinds'], ast.Constant)


def test_dehn_index_is_keyed_by_codes():
	# Dehn steps are matched on the encoded word, as every other step is:
	# the index is keyed by letter code and its cyclic words are code strings
	from artincalc.core import load_presentation
	for name in ('a2.txt', 'i24.txt', 'ra3.txt', 'f2xf2.txt', 'fig2.txt'):
		index = load_presentation(name)._dehn
		assert index and all(type(k) is str and len(k) == 1 for k in index)
		assert all(row[2:-1] and all(type(y) is str for y in row[2:-1])
			for rows in index.values() for row in rows)


def test_lcm_oracle_lives_in_the_tests():
	# brute_right_lcm is a test oracle: it is not in the library, and
	# neither it nor a helper it calls names anything artincalc.monoid defines
	import artincalc.monoid as monoid
	assert not hasattr(monoid, 'brute_right_lcm')
	own = {name for name, obj in vars(monoid).items()
		if getattr(obj, '__module__', None) == monoid.__name__}
	tree = ast.parse((pathlib.Path(__file__).resolve().parent / 'helpers.py').read_text(encoding='utf-8'))
	defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
	todo, seen, names = ['brute_right_lcm'], set(), set()
	while todo:
		seen.add(todo[-1])
		body = list(ast.walk(defs[todo.pop()]))
		names |= {n.id for n in body if isinstance(n, ast.Name)}
		names |= {n.attr for n in body if isinstance(n, ast.Attribute)}
		todo += [n for n in names if n in defs and n not in seen and n not in todo]
	assert {'canonical', 'right_is_multiple', 'equiv_class'} <= own
	assert 'brute_class' in seen and not names & own


def test_search_finds_steps_through_the_step_scan():
	# search.py takes every step of types 0-2 from rewrite._successors: it
	# reads no rule table of Presentation, so step enumeration has one
	# implementation, which test_skip_rule_builds_fewer_successors counts.
	# Insertion words are built in one place: no generator function, and
	# the table of pairs that may be inserted after a letter is read once.
	tree = ast.parse((SRC / 'search.py').read_text(encoding='utf-8'))
	attrs = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
	assert not attrs & {'_boundaries', '_type1', '_oriented', '_sizes', '_dehn', '_swap'}
	assert not [n for n in ast.walk(tree) if isinstance(n, (ast.Yield, ast.YieldFrom))]
	reads = [n for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id == 'after'
		and isinstance(n.ctx, ast.Load)]
	assert len(reads) == 1


def test_plain_steps_are_made_on_the_table_miss_path():
	# raag makes a plain Step only where Presentation._steps has none for
	# the key: every Step(...) in raag.py lies in _plain_step, after the
	# return of a table hit and before the one store into the table, and
	# nothing else under src/artincalc stores into that table
	tree = ast.parse((SRC / 'raag.py').read_text(encoding='utf-8'))
	fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == '_plain_step')
	hit = next(n for n in fn.body if isinstance(n, ast.If) and isinstance(n.body[0], ast.Return)
		and isinstance(n.test, ast.Compare) and isinstance(n.test.ops[0], ast.IsNot))
	made = [n for n in ast.walk(tree) if isinstance(n, ast.Call) and getattr(n.func, 'id', None) == 'Step']
	stores = []
	for path in sorted(SRC.glob('*.py')):
		for node in ast.walk(ast.parse(path.read_text(encoding='utf-8'))):
			if isinstance(node, ast.Assign) and any(isinstance(t, ast.Subscript)
					and getattr(t.value, 'attr', None) == '_steps' for t in node.targets):
				stores.append((path.name, node))
	assert [name for name, _ in stores] == ['raag.py']
	store = stores[0][1]
	assert fn.lineno <= store.lineno <= fn.end_lineno
	assert len(made) == 2 and all(hit.end_lineno < n.lineno < store.lineno for n in made)
