"""The serial reference of one serve pass, in a process of its own.

Takes a traffic-mix document (``repro.serve.loadgen.mix_to_dict``, as
JSON) as its argument and prints the determinism fingerprint ``run_mix_serial``
computes for it.  The serve workloads compare each server's fingerprint
with this one after the measured windows.

Usage: python3 e2ebench/oracle_proc.py MIX_JSON
"""

import json
import sys

from repro.serve.loadgen import mix_from_dict, run_mix_serial

if __name__ == "__main__":
    print(run_mix_serial(mix_from_dict(json.loads(sys.argv[1])))["fingerprint"])
