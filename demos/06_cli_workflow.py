"""Problem files, the fb command surface, and the content-addressed cache.

Run as: python demos/06_cli_workflow.py
"""

import json
import os
import tempfile

from frobetti import cli

PROBLEM = """# the torsion fixture: F_5[x,y]/(x^2, xy), module K
char: 5
vars: x, y
ideal: x^2, x*y
module: quotient x, y
minprimes: (x)
localmult: 1
"""

problem = cli.parse_problem(PROBLEM)

# Each command returns an envelope: version, command, input digest, ring
# echo, result payload, timing, warnings.  Identical inputs give
# byte-identical payloads.
envelope = cli.run("hk", problem, {"emax": 3})
print("hk levels:", envelope["result"]["levels"])
print("digest:", envelope["input_digest"][:16], "...")

envelope = cli.run("beta", problem, {"idx": 1, "exact": True})
print("exact vanishing decision:", envelope["result"])

envelope = cli.run("verify", problem, {"emax": 3})
print("laws pass:", envelope["result"]["passed"])

# The cache keeps resolutions under <digest>/<kind>.dat
# with atomic writes; a second run reports a hit with an identical payload.
with tempfile.TemporaryDirectory() as cache:
    first = cli.run("resolve", problem, {"steps": 3, "cache_dir": cache})
    second = cli.run("resolve", problem, {"steps": 3, "cache_dir": cache})
    print("\ncache:", first["timing"]["cache"], "then", second["timing"]["cache"])
    print("identical payloads:", cli.result_bytes(first) == cli.result_bytes(second))
    print("entries:", sorted(os.listdir(os.path.join(cache, first["input_digest"]))))

# The same surface is scriptable through the fb executable; this is what
# `fb syz -i problem.fbr --idx 3` prints.
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "problem.fbr")
    with open(path, "w") as handle:
        handle.write(PROBLEM)
    code = cli.main(["syz", "-i", path, "--idx", "2", "--json", os.path.join(tmp, "out.json")])
    print("\nfb syz exit code:", code)
    with open(os.path.join(tmp, "out.json")) as handle:
        payload = json.load(handle)["result"]
    for row in payload["rows"]:
        print("  row:", row)
