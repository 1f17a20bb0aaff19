"""Cold start: import ordcut in a fresh interpreter and answer one query.

Run by run.py with PYTHONPATH naming the checkout's src/ and root; reads the
query as a Python literal on stdin and prints {"import_ms": ...}, the time
`import ordcut.cli` took inside this interpreter.
"""

import json
import sys
import time
from fractions import Fraction


def main():
    t0 = time.perf_counter()
    import ordcut.cli  # noqa: F401  (the import being timed)
    import_ms = (time.perf_counter() - t0) * 1e3
    from perfbench import adapter
    query = eval(sys.stdin.read(), {"Fraction": Fraction})
    try:
        adapter.call(query)
    except adapter.DomainError:
        pass
    print(json.dumps({"import_ms": import_ms}))


if __name__ == "__main__":
    main()
