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
