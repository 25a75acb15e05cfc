"""One set-up measurement in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR 'M,N,FIELD;M,N,FIELD;...'

Times `import resint.cli` plus `build_instance` of every listed ladder
entry by this process's CPU clock, and prints the seconds as its only
output line.  CPU time leaves out the spells in which the shared host runs
other tenants on the machine's cores.
"""

import sys
import time


def main(src: str, spec: str) -> None:
    started = time.process_time()
    sys.path.insert(0, src)
    from resint.cli import parse_field
    from resint.residual import build_instance

    for item in spec.split(";"):
        m, n, field = item.split(",")
        build_instance(int(m), int(n), field=parse_field(field))
    print(repr(time.process_time() - started))


if __name__ == "__main__":
    main(*sys.argv[1:])
