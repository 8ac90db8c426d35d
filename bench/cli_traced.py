''' Run one artincalc CLI subcommand with the traced wrappers installed.

    python3 bench/cli_traced.py SPANFILE SUBCOMMAND [ARGS ...]

The span summary is written to SPANFILE when the command exits.
'''

import json
import sys

import artincalc.cli
import tracing


def main():
	spanfile, argv = sys.argv[1], sys.argv[2:]
	tracer = tracing.Tracer()
	tracer.install()
	code = 0
	try:
		artincalc.cli.main(argv)
	except SystemExit as e:
		code = e.code
	finally:
		with open(spanfile, 'w') as f:
			json.dump(tracer.summary(), f)
	sys.exit(code)


if __name__ == '__main__':
	main()
